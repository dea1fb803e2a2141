"""Every narrative script under demos/ runs to completion and prints the
stdout recorded in tests/golden/demos/<stem>.txt, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_six_demos():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, SYMALG_CACHE_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:].decode(errors="replace")
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
