"""Golden reports: byte-exact CLI output recorded under tests/golden/.

Each file holds the report of one command, run with --no-cache in a fresh
cache directory.  Refactors of the engines must reproduce them byte for
byte; a deliberate change of a report replaces its file.  The files some
commands read are under tests/golden/inputs/; the report echoes their
paths, so every command runs from the repository root and names them
relative to it.
"""

import json
from pathlib import Path

import pytest

from symalg import LieModel, build_relations, preset, reports
from symalg.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUTS = "tests/golden/inputs"

COMMANDS = {
    "basis-31-l13": ["basis", "--preset", "3,1", "--l", "13"],
    "basis-31-l7-reference": ["basis", "--preset", "3,1", "--l", "7",
                              "--check-reference-basis"],
    "freegens-tymhat-31-max12": ["freegens", "--ideal", "tym-hat",
                                 "--preset", "3,1", "--max", "12"],
    "freegens-tymhat-22-max10": ["freegens", "--ideal", "tym-hat",
                                 "--preset", "2,2", "--max", "10"],
    "freegens-tym-31-max12": ["freegens", "--ideal", "tym",
                              "--preset", "3,1", "--max", "12"],
    "freegens-k1s-13-max13": ["freegens", "--ideal", "k1s",
                              "--preset", "1,3", "--max", "13"],
    "surject-31-r1-t1-l13": ["dixmier", "surject", "--preset", "3,1",
                             "--r", "1", "--t", "1", "--l", "13"],
    "surject-31-r0-t2-l13": ["dixmier", "surject", "--preset", "3,1",
                             "--r", "0", "--t", "2", "--l", "13"],
    "surject-32-r1-t2-l13": ["dixmier", "surject", "--preset", "3,2",
                             "--r", "1", "--t", "2", "--l", "13"],
    "hilbert-31-d12-engine": ["hilbert", "--preset", "3,1", "--degree", "12",
                              "--check-engine"],
    "semidirect-31": ["verify", "semidirect", "--preset", "3,1"],
    "verify-omega-32": ["verify", "omega", "--preset", "3,2"],
    "verify-susy-31": ["verify", "susy", "--preset", "3,1"],
    "verify-susy-minkowski32": ["verify", "susy", "--presentation",
                                f"{INPUTS}/minkowski32.json"],
    "verify-resolution-31-w12": ["verify", "resolution", "--preset", "3,1",
                                 "--max-weight", "12"],
    "weight-31-l8-top": ["dixmier", "weight", "--algebra", f"{INPUTS}/ym31-l8.json",
                         "--functional", f"{INPUTS}/ym31-l8-top.json"],
    "polarization-31-l8-top": ["dixmier", "polarization",
                               "--algebra", f"{INPUTS}/ym31-l8.json",
                               "--functional", f"{INPUTS}/ym31-l8-top.json"],
    "surject-gen33-r1-t0": ["dixmier", "surject",
                            "--presentation", f"{INPUTS}/generic33-seed7.json",
                            "--r", "1", "--t", "0"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(capsys, monkeypatch, tmp_path, name):
    monkeypatch.chdir(ROOT)
    code = main(["--cache-dir", str(tmp_path), "--no-cache", *COMMANDS[name]])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_golden_files_have_commands():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)


def _json_file(doc):
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def test_golden_inputs_are_what_they_name(minkowski32):
    # ym31-l8: the (3,1) quotient to weight 8, dim 48, and a functional
    # charging its twelve top-weight even elements 1..12; generic33-seed7:
    # G^1 = id and seeded symmetric G^2, G^3, as test_engine's fixture;
    # minkowski32: the conftest fixture
    from symalg.superlie import FinDimSuperLieAlgebra
    from test_engine import _generic

    p = preset(3, 1)
    r0, r1 = build_relations(p)
    g = FinDimSuperLieAlgebra.from_model(LieModel(p.alphabet, r0 + r1, cutoff=8))
    assert g.dim == 48
    top = [i for i in range(g.dim) if g.weights[i] == 8 and g.parities[i] == 0]
    inputs = ROOT / INPUTS
    assert (inputs / "ym31-l8.json").read_bytes() == _json_file(g.to_json())
    assert (inputs / "ym31-l8-top.json").read_bytes() == _json_file(
        {g.names[i]: k for k, i in enumerate(top, 1)})
    assert (inputs / "generic33-seed7.json").read_bytes() == _json_file(
        _generic(3, 3, 7).to_json())
    assert (inputs / "minkowski32.json").read_bytes() == _json_file(minkowski32.to_json())


# the library's report functions give the same reports as the CLI: with the
# echoed config added, the golden bytes
LIBRARY = {
    "hilbert-31-d12-engine": lambda: reports.hilbert(preset(3, 1), 12, True),
    "freegens-tymhat-22-max10": lambda: reports.freegens(preset(2, 2), "tym-hat", 10),
    "semidirect-31": lambda: reports.verify_semidirect(preset(3, 1)),
}


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_report_function_reproduces_golden(name):
    golden = (GOLDEN / f"{name}.json").read_bytes()
    report = LIBRARY[name]()
    assert "config" not in report
    report["config"] = json.loads(golden)["config"]
    data = json.dumps(report, sort_keys=True, indent=1, default=str) + "\n"
    assert data.encode() == golden
