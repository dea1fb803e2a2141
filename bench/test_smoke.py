"""Smoke check of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Runs every workload untraced and traced with `--small` and checks that
each end-to-end and per-layer metric named in BENCHMARK.json is emitted
with its unit, that the reports pass, and that traced counters repeat.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, root=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--small"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_counters_repeat():
    # every traced run covers all three pipelines, whatever the workload
    first, second = run(WORKLOADS[0], 1), run(WORKLOADS[-1], 1)
    counters = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert counters
    for name in counters:
        assert first["metrics"][name] == second["metrics"][name], name


def test_orbit_reference_has_the_paper_weight():
    import workloads

    for small in (False, True):
        ref = workloads.reference(workloads.ORBIT, small)
        assert ref["weight"] == {"weyl": 3, "clifford": 1}


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, root=tmp_path, check=False)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
