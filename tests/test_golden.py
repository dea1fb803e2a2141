"""Golden reports: byte-exact CLI output recorded under tests/golden/.

Each file holds the report of one command, run with --no-cache in a fresh
cache directory.  Refactors of the engines must reproduce them byte for
byte; a deliberate change of a report replaces its file.
"""

import json
from pathlib import Path

import pytest

from symalg import preset, reports
from symalg.cli import main

GOLDEN = Path(__file__).parent / "golden"

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
    "verify-resolution-31-w12": ["verify", "resolution", "--preset", "3,1",
                                 "--max-weight", "12"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(capsys, tmp_path, name):
    code = main(["--cache-dir", str(tmp_path), "--no-cache", *COMMANDS[name]])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_golden_files_have_commands():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)


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
