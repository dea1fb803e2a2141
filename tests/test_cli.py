"""CLI surface: subcommands, JSON determinism, cache behaviour, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symalg.cli import main
from symalg.superlie import heis


def save_algebra(g, path):
    with open(path, "w") as fh:
        json.dump(g.to_json(), fh, indent=1, sort_keys=True)


def run_cli(capsys, tmp_path, *argv):
    code = main(["--cache-dir", str(tmp_path / "cache"), *argv])
    out = capsys.readouterr().out
    return code, out


def test_hilbert_reference_table(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "hilbert", "--preset", "3,1", "--degree", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["lie_dims"] == [0, 3, 1, 3, 2, 6, 6, 12, 15, 33, 42, 77, 114,
                               213, 314, 555, 876, 1540, 2460, 4242]


def test_hilbert_degree_zero(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "hilbert", "--preset", "3,1", "--degree", "0")
    assert code == 0
    doc = json.loads(out)
    assert "lie_dims" not in doc


@pytest.mark.parametrize("preset", ["0,1", "0,2"])
def test_hilbert_free_algebra_is_outside_the_series(capsys, tmp_path, preset):
    # with n = 0 the relations vanish and the algebra is free, so the
    # closed form gives no Lie dimensions, and the enveloping series is
    # 1 / (1 - s t^3), as the associative engine counts it
    from symalg import AssocModel, build_relations
    from symalg import preset as make_preset

    code, out = run_cli(capsys, tmp_path, "hilbert", "--preset", preset, "--degree", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["series_valid"] is False and "lie_dims" not in doc
    p = make_preset(*(int(v) for v in preset.split(",")))
    r0, r1 = build_relations(p)
    assoc = AssocModel(p.alphabet, r0 + r1, max_weight=6)
    assert doc["enveloping_series"] == [str(assoc.dim(w)) for w in range(7)]
    assert doc["enveloping_series"] == ["1", "0", "0", str(p.s), "0", "0", str(p.s ** 2)]


@pytest.mark.parametrize("preset", ["1,0", "1,1"])
def test_hilbert_without_closed_form_omits_the_series(capsys, tmp_path, preset):
    code, out = run_cli(capsys, tmp_path, "hilbert", "--preset", preset, "--degree", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["series_valid"] is False
    assert "enveloping_series" not in doc and "lie_dims" not in doc


def test_hilbert_check_engine(capsys, tmp_path):
    code, out = run_cli(
        capsys, tmp_path, "hilbert", "--preset", "3,1", "--degree", "8",
        "--check-engine", "--engine-depth", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["engine_dims"] == doc["lie_dims"][:8]


def test_basis_l1_and_l7(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "basis", "--preset", "3,1", "--l", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["components"] == [{"weight": 2, "dim": 3, "basis": ["x1", "x2", "x3"]}]
    code, out = run_cli(
        capsys, tmp_path, "basis", "--preset", "3,1", "--l", "7",
        "--check-reference-basis",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total_dim"] == 33
    assert doc["reference_basis_ok"] is True
    assert doc["dependency_identities_ok"] is True


def test_basis_l0_reference_check(capsys, tmp_path):
    # at l = 0 the model and the reference basis are both empty
    code, out = run_cli(
        capsys, tmp_path, "basis", "--preset", "3,1", "--l", "0",
        "--check-reference-basis",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reference_count"] == 0 and doc["ok"] is True


def test_verify_omega_and_susy(capsys, tmp_path):
    code, _ = run_cli(capsys, tmp_path, "verify", "omega", "--preset", "3,1")
    assert code == 0
    code, out = run_cli(capsys, tmp_path, "verify", "susy", "--preset", "3,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "quartic nonzero; ideal not preserved"


def test_verify_resolution(capsys, tmp_path):
    code, out = run_cli(
        capsys, tmp_path, "verify", "resolution", "--preset", "2,2",
        "--max-weight", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sides"] == {"left": "all-green", "right": "all-green"}


@pytest.mark.parametrize("max_weight", [0, 1, 2])
def test_verify_resolution_where_nothing_is_memoized(capsys, tmp_path, max_weight):
    # at max weight 2 or less no word of positive weight is memoized (the
    # lightest letter of (3,1) weighs 2); the report keeps its bytes
    code, out = run_cli(capsys, tmp_path, "--no-cache", "verify", "resolution",
                        "--preset", "3,1", "--max-weight", str(max_weight))
    assert code == 0
    doc = {
        "command": "verify",
        "config": {"command": "verify", "max_weight": max_weight, "presentation": None,
                   "preset": "3,1", "target": "resolution"},
        "max_weight": max_weight,
        "ok": True,
        "presentation_sha256":
            "cb4fbfb204e18b7f9b74d6499556ef6c906ce12582c73f3c982880db6a60d217",
        "sides": {"left": "all-green", "right": "all-green"},
        "target": "resolution",
    }
    assert out == json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_verify_semidirect(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "verify", "semidirect", "--preset", "3,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["relation_preserved"] is True


def test_verify_semidirect_empty_relation_algebra(capsys, tmp_path):
    # the semidirect model of (1,0) has no generators: the zero Lie algebra
    code, out = run_cli(capsys, tmp_path, "verify", "semidirect", "--preset", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["relation_preserved"] is True


def test_dixmier_weight_files(capsys, tmp_path):
    g = heis(1, 1)
    save_algebra(g, tmp_path / "heis.json")
    (tmp_path / "f.json").write_text(json.dumps({"z": "1"}))
    code, out = run_cli(
        capsys, tmp_path, "dixmier", "weight",
        "--algebra", str(tmp_path / "heis.json"),
        "--functional", str(tmp_path / "f.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == {"weyl": 1, "clifford": 1}


def test_dixmier_weight_zero_functional(capsys, tmp_path):
    g = heis(1, 1)
    save_algebra(g, tmp_path / "heis.json")
    (tmp_path / "zero.json").write_text("{}")
    code, out = run_cli(
        capsys, tmp_path, "dixmier", "weight",
        "--algebra", str(tmp_path / "heis.json"),
        "--functional", str(tmp_path / "zero.json"),
    )
    doc = json.loads(out)
    assert doc["weight"] == {"weyl": 0, "clifford": 0}


def test_dixmier_polarization(capsys, tmp_path):
    g = heis(1, 1)
    save_algebra(g, tmp_path / "heis.json")
    (tmp_path / "f.json").write_text(json.dumps({"z": "1"}))
    code, out = run_cli(
        capsys, tmp_path, "dixmier", "polarization",
        "--algebra", str(tmp_path / "heis.json"),
        "--functional", str(tmp_path / "f.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"even": 2, "odd": 0}


def test_freegens(capsys, tmp_path):
    code, out = run_cli(
        capsys, tmp_path, "freegens", "--ideal", "tym-hat", "--preset", "3,1",
        "--max", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["generator_dims"] == doc["series_dims"]


def test_cache_byte_identity(capsys, tmp_path):
    args = ("hilbert", "--preset", "2,1", "--degree", "6")
    code1, out1 = run_cli(capsys, tmp_path, *args)
    code2, out2 = run_cli(capsys, tmp_path, *args)  # cache hit
    assert (code1, out1) == (code2, out2)
    code3, out3 = run_cli(capsys, tmp_path, "--no-cache", *args)
    assert out3 == out1
    assert code3 == 0


def test_cache_mismatch_detected(capsys, tmp_path):
    args = ("hilbert", "--preset", "2,0", "--degree", "4")
    code, out = run_cli(capsys, tmp_path, *args)
    assert code == 0
    # corrupt the cached entry, then force recomputation with the diff mode
    cdir = tmp_path / "cache"
    (files,) = [f for f in cdir.glob("*.json")]
    files.write_bytes(b'{"ok": true, "tampered": 1}\n')
    code2, _ = run_cli(capsys, tmp_path, "--no-cache", *args)
    assert code2 == 3


@pytest.mark.parametrize("content", [b"garbage", b"[]", b"{}"])
def test_corrupt_cache_entry_is_recomputed(capsys, tmp_path, content):
    # an entry that is not a JSON object echoing the configuration is a
    # miss: recomputed and replaced; --no-cache still reports a mismatch
    args = ("hilbert", "--preset", "3,1", "--degree", "6")
    code, good = run_cli(capsys, tmp_path, *args)
    assert code == 0
    (entry,) = (tmp_path / "cache").glob("*.json")
    entry.write_bytes(content)
    assert run_cli(capsys, tmp_path, *args) == (0, good)
    assert entry.read_bytes() == good.encode()
    entry.write_bytes(content)
    code, out = run_cli(capsys, tmp_path, "--no-cache", *args)
    assert (code, out) == (3, good)
    assert entry.read_bytes() == content


def test_presentation_file_input(capsys, tmp_path):
    import symalg

    doc = symalg.preset(2, 1).to_json()
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(
        capsys, tmp_path, "hilbert", "--presentation", str(path), "--degree", "6"
    )
    assert code == 0
    assert json.loads(out)["lie_dims"] == json.loads(
        run_cli(capsys, tmp_path, "hilbert", "--preset", "2,1", "--degree", "6")[1]
    )["lie_dims"]


def test_table_format(capsys, tmp_path):
    code, out = run_cli(
        capsys, tmp_path, "--format", "table", "verify", "omega", "--preset", "2,1"
    )
    assert code == 0
    assert "identity_holds" in out and "{" not in out.splitlines()[0]


def test_table_format_renders_each_object_of_a_list_as_a_block(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "--format", "table", "basis", "--preset", "3,1",
                        "--l", "4")
    assert code == 0 and "{" not in out
    lines = out.splitlines()
    start = lines.index("components:") + 1
    assert lines[start:start + 8] == [
        "  - weight  2", "    dim     3", "    basis:", "      x1  x2  x3",
        "  - weight  3", "    dim     1", "    basis:", "      z1",
    ]
    assert sum(line.startswith("  - weight") for line in lines) == 4
    # a basis element's bracket tree, a nested list, reads as its bracket word
    assert lines[start + 11] == "      [x1,x2]  [x1,x3]  [x2,x3]"
    code, out = run_cli(capsys, tmp_path, "--format", "table", "basis", "--preset", "3,1",
                        "--l", "6")
    weight7 = ("      [x1,[x2,z1]]  [x1,[x3,z1]]  [x2,[x2,z1]]  [x2,[x3,z1]]  [x3,[x2,z1]]"
               "  [x3,[x3,z1]]")
    assert code == 0 and weight7 in out.splitlines()


@pytest.mark.parametrize("argv, message", [
    (("hilbert", "--preset", "3"), "--preset expects n,s"),
    (("hilbert", "--preset", "a,b"), "--preset expects n,s"),
    (("hilbert", "--preset", "0,0"), "need n + s > 0"),
    (("hilbert",), "provide --preset n,s or --presentation"),
    (("freegens", "--ideal", "k1s", "--preset", "3,1"), "requires an n = 1"),
    (("freegens", "--ideal", "k1s", "--preset", "1,2"), "with s >= 3"),
    (("freegens", "--preset", "1,3"), "--ideal tym-hat requires"),
    (("freegens", "--ideal", "tym", "--preset", "1,3"), "with n >= 2"),
    (("freegens", "--preset", "3,1", "--max", "0"), "--max must be >= 1"),
    (("verify", "resolution", "--preset", "1,1"), "no length-three resolution"),
    (("verify", "resolution", "--preset", "1,0"), "no length-three resolution"),
    (("hilbert", "--preset", "3,1", "--check-engine", "--engine-depth", "-1"),
     "--engine-depth must be >= 1"),
    (("verify", "resolution", "--preset", "3,1", "--max-weight", "-1"),
     "--max-weight must be >= 0"),
    (("hilbert", "--preset", "3,1", "--degree", "-1"), "--degree must be >= 0"),
    (("basis", "--preset", "3,1", "--l", "-1"), "--l must be >= 0"),
    (("verify", "resolution", "--preset", "0,1"), "no length-three resolution"),
    (("hilbert", "--preset", "2,0", "--presentation",
      str(Path(__file__).parent / "golden/inputs/generic33-seed7.json")), "not both"),
    (("hilbert", "--preset", "1,1", "--check-engine"), "--check-engine needs"),
    (("hilbert", "--preset", "1,0", "--check-engine"), "--check-engine needs"),
    (("hilbert", "--preset", "0,2", "--check-engine"), "--check-engine needs"),
])
def test_bad_input_exits_2(capsys, tmp_path, argv, message):
    code = main(["--cache-dir", str(tmp_path / "cache"), *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("symalg: error: ")
    assert message in captured.err and captured.err.count("\n") == 1


# every flag that a verify or dixmier target does not read: argparse
# rejects it, so an ignored value can neither pass silently nor enter the
# cache key
IGNORED_FLAGS = (
    [(("verify", t), "--max-weight", "5") for t in ("omega", "susy", "semidirect")]
    + [(("dixmier", t), flag, value) for t in ("weight", "polarization")
       for flag, value in (("--preset", "3,1"), ("--presentation", "p.json"),
                           ("--r", "1"), ("--t", "1"), ("--l", "13"))]
    + [(("dixmier", "surject"), flag, "missing.json")
       for flag in ("--algebra", "--functional")]
)


@pytest.mark.parametrize("command, flag, value", IGNORED_FLAGS)
def test_flags_a_target_does_not_read_exit_2(capsys, tmp_path, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["--cache-dir", str(tmp_path / "cache"), *command, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    ('{"n": 3, "gamma": [[["1"]], [["0"]], [["0"]]]}', "lacks 's'"),
    ('{"n": 1, "s": 1, "gamma": [[["x"]]]}', "malformed presentation JSON"),
    ("not json", "is not JSON"),
    # JSON numbers other than integers: 1e400 reads as inf (it used to end
    # in an OverflowError traceback), 0.1 as the nearest binary fraction and
    # true as 1
    ('{"n": 1, "s": 2, "gamma": [[["1", 1e400], [1e400, "1"]]]}', "a scalar must be"),
    ('{"n": 1, "s": 1, "gamma": [[[0.1]]]}', "a scalar must be"),
    ('{"n": 1, "s": 1, "gamma": [[[true]]]}', "a scalar must be"),
    ('{"n": 1, "s": 1, "gamma": [[["1"]]], "metric": [[1e400]]}', "a scalar must be"),
    ('{"n": 1, "s": 1, "gamma": [[["1"]]], "metric": [[0.1]]}', "a scalar must be"),
    ('{"n": 1, "s": 1, "gamma": [[["1"]]], "metric": [[true]]}', "a scalar must be"),
    # a gamma matrix must be s x s: its extra rows and columns were dropped
    ('{"n": 3, "s": 1, "gamma": [[[1, 7], [7, 2]], [[0]], [[0], [3]]]}',
     "gamma[0] must be 1 x 1"),
    ('{"n": 1, "s": 2, "gamma": [[[1, 0], [0]]]}', "gamma[0] must be 2 x 2"),
    ('{"n": 1, "s": 1, "gamma": [[[1]]], "gamma_tilde": [[[1], [0]]]}',
     "gamma_tilde[0] must be 1 x 1"),
    ('{"n": 1, "s": 2, "gamma": [[[1, 0], [0, 1]]], "gamma_tilde": [[[1, 0], [0, 1, 2]]]}',
     "gamma_tilde[0] must be 2 x 2"),
    # gamma_tilde and the metric are read like gamma, each message naming its field
    ('{"n": 2, "s": 1, "gamma": [[[1]], [[0]]], "gamma_tilde": [[[1]]]}',
     "gamma_tilde: expected 2 matrices, got 1"),
    ('{"n": 1, "s": 2, "gamma": [[[1, 0], [0, 1]]], "gamma_tilde": [[[1, 2], [0, 1]]]}',
     "gamma_tilde[0] is not symmetric"),
    ('{"n": 2, "s": 1, "gamma": [[[1]], [[0]]], "metric": [[1, 0], [0]]}',
     "metric must be 2 x 2"),
    ('{"n": 2, "s": 1, "gamma": [[[1]], [[0]]], "metric": [[1, 2], [0, 1]]}',
     "metric is not symmetric"),
])
def test_bad_presentation_file_exits_2(capsys, tmp_path, content, message):
    path = tmp_path / "p.json"
    path.write_text(content)
    code = main(["--cache-dir", str(tmp_path / "cache"), "hilbert",
                 "--presentation", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("symalg: error: ") and message in err
    assert err.count("\n") == 1


def test_program_errors_are_not_verification_failures(monkeypatch, capsys, tmp_path):
    # only the library's own errors select the susy fallback or the
    # polarization error report; anything else is a bug and propagates.
    # Each function is patched where its caller looks it up: `susy` for
    # the fallback, and `superlie`, which `reports` imports inside the
    # report function
    import symalg.superlie
    import symalg.susy

    def bug(*args):
        raise RuntimeError("bug")

    monkeypatch.setattr(symalg.susy, "derive_gamma_tilde", bug)
    monkeypatch.setattr(symalg.superlie, "vergne_polarization", bug)
    with pytest.raises(RuntimeError):
        run_cli(capsys, tmp_path, "--no-cache", "verify", "susy", "--preset", "2,1")
    g = heis(1, 1)
    save_algebra(g, tmp_path / "heis.json")
    (tmp_path / "f.json").write_text(json.dumps({"z": "1"}))
    with pytest.raises(RuntimeError):
        run_cli(capsys, tmp_path, "--no-cache", "dixmier", "polarization",
                "--algebra", str(tmp_path / "heis.json"),
                "--functional", str(tmp_path / "f.json"))


def _heis_files(tmp_path):
    save_algebra(heis(1, 1), tmp_path / "heis.json")
    (tmp_path / "f.json").write_text(json.dumps({"z": "1"}))
    return str(tmp_path / "heis.json"), str(tmp_path / "f.json")


@pytest.mark.parametrize("case, message", [
    ("no-algebra", "requires --algebra"),
    ("no-functional", "requires --functional"),
    ("missing-algebra", "cannot read"),
    ("missing-functional", "cannot read"),
    ("empty-algebra-path", "cannot read"),
    ("algebra-not-json", "is not JSON"),
    ("functional-not-json", "is not JSON"),
    ("algebra-basis-3", "malformed algebra JSON"),
    ("algebra-no-brackets", "malformed algebra JSON"),
    ("functional-list", "malformed functional JSON"),
    ("functional-bad-rational", "malformed functional JSON"),
    ("functional-unknown-name", "malformed functional JSON"),
    ("algebra-coeff-1e400", "malformed algebra JSON: a scalar must be"),
    ("algebra-coeff-0.1", "malformed algebra JSON: a scalar must be"),
    ("algebra-coeff-true", "malformed algebra JSON: a scalar must be"),
    ("functional-1e400", "malformed functional JSON: a scalar must be"),
    ("functional-0.1", "malformed functional JSON: a scalar must be"),
    ("functional-true", "malformed functional JSON: a scalar must be"),
    # an element of parity 2 is neither even nor odd: it used to drop out
    # of the Kirillov blocks while the functional charged it, with exit 0
    ("algebra-parity-2", "parity of 'x' must be 0 or 1, got 2"),
    # parities, bracket indices and weights are JSON integers: each of
    # these used to be coerced through int(...)
    ("algebra-parity-1.5", "parity must be an integer, got 1.5"),
    ("algebra-parity-string", "parity must be an integer, got '1'"),
    ("algebra-parity-true", "parity must be an integer, got True"),
    ("algebra-i-float", "i must be an integer, got 0.0"),
    ("algebra-j-string", "j must be an integer, got '1'"),
    ("algebra-weight-string", "weight must be an integer, got '2'"),
    ("algebra-index-negative", "bracket (-1,1) indexes outside the basis"),
    ("algebra-weights-ungraded", "bracket (0,1) violates the weights at 2"),
    # coefficient keys were read through int(k), so " +2" and an
    # Arabic-Indic two were both index 2; a repeated bracket replaced the
    # first silently
    ("algebra-coeff-key-plus", "malformed algebra JSON: coefficient key must be a "
     "basis index, got ' +2'"),
    ("algebra-coeff-key-arabic", "malformed algebra JSON: coefficient key must be a "
     "basis index, got '\u0662'"),
    ("algebra-bracket-twice", "bracket (0,1) is listed twice"),
    # an even element with a nonzero square passed the constructor: with
    # [a, a] = [c, c] = b the weight of b* was reported with exit 0, and with
    # [a, a] = b alone the error blamed an odd rank
    ("algebra-even-square", "the even 'a' has a nonzero square"),
    ("algebra-even-squares", "the even 'a' has a nonzero square"),
    # a functional charges a name, so only the first of two equal names
    # could be charged: basis q, q, z with [q, q'] = z gave weyl 0, exit 0
    ("algebra-duplicate-name", "basis name 'q' is listed twice"),
    # a basis name is a JSON string: a list ended in a TypeError traceback
    # in `polarization`, and a number could not be charged, with exit 0
    ("algebra-name-list", "malformed algebra JSON: name must be a string, got ['q']"),
    ("algebra-name-number", "malformed algebra JSON: name must be a string, got 5"),
    # weights on some entries but not all were dropped, and with them the
    # check that they grade the brackets
    ("algebra-weights-partial", "malformed algebra JSON: weight is given for some "
     "basis entries but not all"),
    # [a, b] = c, [b, c] = d and [a, d] = z break super Jacobi at (a, b, c):
    # the weight (1, 0) and a 4-vector "polarization" came out with exit 0
    ("algebra-jacobi", "Jacobi fails at (a,b,c)"),
])
@pytest.mark.parametrize("target", ["weight", "polarization"])
def test_dixmier_bad_files_exit_2(capsys, tmp_path, target, case, message):
    algebra, functional = _heis_files(tmp_path)
    bad = tmp_path / "bad.json"
    missing = str(tmp_path / "missing.json")
    contents = {
        "algebra-not-json": "{", "functional-not-json": "not json",
        "algebra-basis-3": '{"basis": 3}',
        "algebra-no-brackets": '{"basis": [{"name": "x", "parity": 0}]}',
        "functional-list": "[1]", "functional-bad-rational": '{"z": "x"}',
        "functional-unknown-name": '{"nope": "1"}',
        "algebra-parity-2": '{"basis": [{"name": "x", "parity": 2}], "brackets": []}',
    }
    for case_, basis, bracket in [
        ("algebra-parity-1.5", '"parity": 1.5', '"i": 0, "j": 1'),
        ("algebra-parity-string", '"parity": "1"', '"i": 0, "j": 1'),
        ("algebra-parity-true", '"parity": true', '"i": 0, "j": 1'),
        ("algebra-i-float", '"parity": 0', '"i": 0.0, "j": 1'),
        ("algebra-j-string", '"parity": 0', '"i": 0, "j": "1"'),
        ("algebra-weight-string", '"parity": 0, "weight": "2"', '"i": 0, "j": 1'),
        ("algebra-index-negative", '"parity": 0', '"i": -1, "j": 1'),
        ("algebra-weights-ungraded", '"parity": 0, "weight": 3', '"i": 0, "j": 1'),
    ]:
        # q, p, z with [q, p] = z; the first basis entry carries the variation
        contents[case_] = (
            f'{{"basis": [{{"name": "q", {basis}}}, {{"name": "p", "parity": 0, '
            f'"weight": 4}}, {{"name": "z", "parity": 0, "weight": 6}}], '
            f'"brackets": [{{{bracket}, "coeffs": {{"2": "1"}}}}]}}')
    for number in ("1e400", "0.1", "true"):
        contents[f"algebra-coeff-{number}"] = (
            '{"basis": [{"name": "q", "parity": 0}, {"name": "p", "parity": 0}, '
            '{"name": "z", "parity": 0}], '
            f'"brackets": [{{"i": 0, "j": 1, "coeffs": {{"2": {number}}}}}]}}')
        contents[f"functional-{number}"] = f'{{"z": {number}}}'
    qpz = ('{"basis": [{"name": "q", "parity": 0}, {"name": "p", "parity": 0}, '
           '{"name": "z", "parity": 0}], "brackets": [')
    for case_, bracket in [("plus", '{"i": 0, "j": 1, "coeffs": {" +2": "1"}}'),
                           ("arabic", '{"i": 0, "j": 1, "coeffs": {"\\u0662": "1"}}')]:
        contents[f"algebra-coeff-key-{case_}"] = qpz + bracket + "]}"
    contents["algebra-bracket-twice"] = qpz + (
        '{"i": 0, "j": 1, "coeffs": {"2": "1"}}, {"i": 0, "j": 1, "coeffs": {"2": "5"}}]}')
    abc = ('{"basis": [{"name": "a", "parity": 0}, {"name": "b", "parity": 0}, '
           '{"name": "c", "parity": 0}], "brackets": [{"i": 0, "j": 0, "coeffs": {"1": "1"}}')
    contents["algebra-even-square"] = abc + "]}"
    contents["algebra-even-squares"] = abc + ', {"i": 2, "j": 2, "coeffs": {"1": "1"}}]}'
    contents["algebra-duplicate-name"] = qpz.replace('"p"', '"q"') + (
        '{"i": 0, "j": 1, "coeffs": {"2": "1"}}]}')
    qpz_bracket = qpz + '{"i": 0, "j": 1, "coeffs": {"2": "1"}}]}'
    contents["algebra-name-list"] = qpz_bracket.replace('"q"', '["q"]')
    contents["algebra-name-number"] = qpz_bracket.replace('"q"', "5")
    contents["algebra-weights-partial"] = qpz_bracket.replace(
        '"parity": 0}', '"parity": 0, "weight": 2}', 1)
    contents["algebra-jacobi"] = json.dumps({
        "basis": [{"name": x, "parity": 0} for x in "abcdz"],
        "brackets": [{"i": i, "j": j, "coeffs": {str(k): "1"}}
                     for i, j, k in [(0, 1, 2), (1, 2, 3), (0, 3, 4)]]})
    if case in contents:
        bad.write_text(contents[case])
    if case.startswith("algebra"):
        algebra = str(bad)
    elif case.startswith("functional"):
        functional = str(bad)
    opts = {
        "no-algebra": ["--functional", functional],
        "no-functional": ["--algebra", algebra],
        "missing-algebra": ["--algebra", missing, "--functional", functional],
        "missing-functional": ["--algebra", algebra, "--functional", missing],
        "empty-algebra-path": ["--algebra", "", "--functional", functional],
    }.get(case, ["--algebra", algebra, "--functional", functional])
    code = main(["--cache-dir", str(tmp_path / "cache"), "dixmier", target, *opts])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("symalg: error: ")
    assert message in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("opts, message", [
    (("--preset", "4,1", "--r", "1", "--t", "1", "--l", "9"),
     "cutoff 9 below the minimum 13"),
    (("--preset", "2,1"), "requires n >= 3"),
    (("--preset", "3,1", "--r", "0", "--t", "0"), "target out of range"),
    (("--presentation", "G1"), "assumes G^1 = id"),
    (("--preset", "3,1", "--r", "-1", "--t", "3"), "target out of range"),
    (("--preset", "3,1", "--r", "1", "--t", "-1"), "target out of range"),
])
def test_dixmier_surject_bad_input_exits_2_before_build(
        monkeypatch, capsys, tmp_path, opts, message):
    import symalg.reports

    def no_build(*args):
        raise AssertionError("the Lie model was built")

    monkeypatch.setattr(symalg.reports, "_lie_model", no_build)
    path = tmp_path / "g1.json"
    path.write_text('{"n": 3, "s": 1, "gamma": [[["2"]], [["1"]], [["1"]]]}')
    opts = [str(path) if o == "G1" else o for o in opts]
    code = main(["--cache-dir", str(tmp_path / "cache"), "--no-cache",
                 "dixmier", "surject", *opts])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("symalg: error: ")
    assert message in captured.err and captured.err.count("\n") == 1


def test_freegens_ideal_choices_are_the_table(capsys):
    from symalg.presentation import FREE_IDEALS

    with pytest.raises(SystemExit) as exc:
        main(["freegens", "--help"])
    assert exc.value.code == 0
    assert "--ideal {" + ",".join(FREE_IDEALS) + "}" in capsys.readouterr().out


def test_freegens_checks_the_ideal_rule_before_the_build(monkeypatch):
    import symalg.reports
    from symalg import PresentationError, preset

    def no_build(*args):
        raise AssertionError("the Lie model was built")

    monkeypatch.setattr(symalg.reports, "_lie_model", no_build)
    for ideal, n, s in (("k1s", 3, 1), ("tym", 1, 3)):
        with pytest.raises(PresentationError, match=f"--ideal {ideal} requires"):
            symalg.reports.freegens(preset(n, s), ideal, 10)


# presentations the library rejects for one target; each used to end in
# a PresentationError traceback with exit 1, the "verification failed" code
BAD_FOR_TARGET = {
    "g1": {"n": 3, "s": 1, "gamma": [[["2"]], [["0"]], [["0"]]]},
    "nondiagonal": {"n": 2, "s": 1, "gamma": [[["1"]], [["0"]]],
                    "metric": [["2", "1"], ["1", "1"]]},
    "diagonal": {"n": 3, "s": 1, "gamma": [[["1"]], [["0"]], [["0"]]],
                 "metric": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]},
}


@pytest.mark.parametrize("target, name, message", [
    ("semidirect", "g1", "G^1 must be the identity"),
    ("susy", "nondiagonal", "require a diagonal metric"),
    ("semidirect", "nondiagonal", "require the orthonormal metric"),
    ("semidirect", "diagonal", "require the orthonormal metric"),
])
def test_verify_bad_presentation_for_target_exits_2(capsys, tmp_path, target, name,
                                                    message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(BAD_FOR_TARGET[name]))
    code = main(["--cache-dir", str(tmp_path / "cache"), "verify", target,
                 "--presentation", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("symalg: error: ")
    assert message in captured.err and captured.err.count("\n") == 1


def test_dixmier_surject_yang_mills(capsys, tmp_path):
    # s = 0 runs the pipeline for t = 0 and rejects odd targets
    code, out = run_cli(capsys, tmp_path, "dixmier", "surject", "--preset", "3,0",
                        "--r", "1", "--t", "0")
    assert code == 0
    assert json.loads(out)["weight"] == {"weyl": 3, "clifford": 0}
    code = main(["--cache-dir", str(tmp_path / "cache"), "dixmier", "surject",
                 "--preset", "3,0", "--t", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "symalg: error: odd targets (t >= 1) require s >= 1\n"


def test_no_cache_bypasses_model_cache(capsys, tmp_path):
    # --no-cache neither reads a model pickle (a planted wrong model would
    # change the report) nor writes one
    import pickle

    from symalg import LieModel, build_relations, preset
    from symalg.presentation import presentation_sha256

    args = ("basis", "--preset", "3,1", "--l", "5")
    code, want = run_cli(capsys, tmp_path / "clean", "--no-cache", *args)
    assert code == 0
    assert not (tmp_path / "clean" / "cache" / "models").exists()
    other = preset(2, 1)
    r0, r1 = build_relations(other)
    planted = pickle.dumps(LieModel(other.alphabet, r0 + r1, 5))
    models = tmp_path / "cache" / "models"
    models.mkdir(parents=True)
    path = models / f"{presentation_sha256(preset(3, 1))}-l5.pickle"
    path.write_bytes(planted)
    code, out = run_cli(capsys, tmp_path, "--no-cache", *args)
    assert (code, out) == (0, want)
    assert list(models.iterdir()) == [path] and path.read_bytes() == planted
    # without --no-cache the planted pickle is read
    for entry in (tmp_path / "cache").glob("*.json"):
        entry.unlink()
    code, out = run_cli(capsys, tmp_path, *args)
    assert json.loads(out)["dims"] != json.loads(want)["dims"]


def test_surject_model_cache_at_minimum_cutoff(capsys, tmp_path):
    # (3,1), (r,t) = (1,1) reports l = 15 but reads its model only to
    # 2 d' = 14, so the pickle is the cutoff-13 one; the cached rerun
    # prints the same bytes
    args = ("dixmier", "surject", "--preset", "3,1", "--r", "1", "--t", "1")
    code, out = run_cli(capsys, tmp_path, *args)
    assert code == 0
    doc = json.loads(out)
    assert (doc["l"], doc["d_prime"]) == (15, 7)
    models = tmp_path / "cache" / "models"
    assert [f.name for f in models.iterdir()] == [
        f"{doc['presentation_sha256']}-l13.pickle"]
    assert run_cli(capsys, tmp_path, *args) == (code, out)


@pytest.mark.parametrize("attr, value", [("REPORT_SCHEMA", -1), ("__version__", "0.0.0")])
def test_report_cache_key_includes_code_version(monkeypatch, capsys, tmp_path, attr, value):
    # a stored report is served only to the code version and report schema
    # that wrote it; the echoed config does not change
    import symalg.cache

    args = ("hilbert", "--preset", "2,0", "--degree", "4")
    code, out = run_cli(capsys, tmp_path, *args)
    (entry,) = (tmp_path / "cache").glob("*.json")
    entry.write_bytes(b'{"ok": true, "stale": 1}\n')
    monkeypatch.setattr(symalg.cache, attr, value)
    code2, out2 = run_cli(capsys, tmp_path, *args)
    assert (code2, out2) == (code, out)
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2
    assert json.loads(out2)["config"] == {
        "command": "hilbert", "preset": "2,0", "presentation": None,
        "degree": 4, "check_engine": False, "engine_depth": 12,
    }


def test_edited_input_file_is_not_served_from_the_cache(capsys, tmp_path):
    # the config names an input file by path; the key also hashes its
    # bytes, so a rewritten file is recomputed, and the old bytes hit again
    from symalg import preset

    path = tmp_path / "p.json"
    args = ("hilbert", "--presentation", str(path), "--degree", "6")
    outs = []
    for n in (3, 4, 3):
        path.write_text(json.dumps(preset(n, 1).to_json()))
        code, out = run_cli(capsys, tmp_path, *args)
        assert code == 0
        assert json.loads(out)["n"] == n
        assert run_cli(capsys, tmp_path, "--no-cache", *args) == (0, out)
        outs.append(out)
    assert outs[0] == outs[2] != outs[1]
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_input_file_rewritten_during_a_run_is_cached_under_the_bytes_read(
        monkeypatch, capsys, tmp_path):
    # the file is rewritten after its bytes were hashed for the key: a
    # second read for parsing stored the new bytes' report under the old
    # bytes' key, and a later run on the old bytes was served it
    import symalg.cache
    from symalg import preset

    path = tmp_path / "p.json"
    old, new = (json.dumps(preset(n, 1).to_json()) for n in (3, 4))
    path.write_text(old)
    args = ("hilbert", "--presentation", str(path), "--degree", "6")
    config_key = symalg.cache.config_key

    def rewrite_then_key(config, inputs):
        path.write_text(new)
        return config_key(config, inputs)

    monkeypatch.setattr(symalg.cache, "config_key", rewrite_then_key)
    code, out = run_cli(capsys, tmp_path, *args)
    assert code == 0 and json.loads(out)["n"] == 3
    monkeypatch.undo()
    path.write_text(old)
    assert run_cli(capsys, tmp_path, *args) == (0, out)
    assert run_cli(capsys, tmp_path, "--no-cache", *args) == (0, out)


@pytest.mark.parametrize("how", ["flag", "flag-no-cache", "below-a-file", "env"])
def test_cache_dir_that_is_no_directory_exits_2_before_computing(
        monkeypatch, capsys, tmp_path, how):
    # the report was computed in full and then storing it raised
    # FileExistsError, with --no-cache too
    import symalg.reports

    def computed(*args):
        raise AssertionError("the report was computed")

    monkeypatch.setattr(symalg.reports, "hilbert", computed)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cdir = blocker / "sub" if how == "below-a-file" else blocker
    opts = {"flag": ["--cache-dir", str(cdir)],
            "flag-no-cache": ["--cache-dir", str(cdir), "--no-cache"],
            "below-a-file": ["--cache-dir", str(cdir)], "env": []}[how]
    monkeypatch.setenv("SYMALG_CACHE_DIR", str(cdir if how == "env" else tmp_path))
    code = main([*opts, "hilbert", "--preset", "3,1", "--degree", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"symalg: error: cache directory {cdir}: {blocker} is not a directory\n")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("argv", [
    ["basis", "--preset", "3,1", "--l", "5"],
    ["freegens", "--preset", "3,1", "--max", "6"],
    ["dixmier", "surject", "--preset", "3,1"],
], ids=["basis", "freegens", "surject"])
def test_models_entry_that_is_a_file_exits_2(capsys, tmp_path, argv):
    # writing the model pickle under a plain file `models` ended in a
    # FileExistsError traceback with exit 1
    cdir = tmp_path / "cache"
    cdir.mkdir()
    blocker = cdir / "models"
    blocker.write_text("")
    code = main(["--cache-dir", str(cdir), *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"symalg: error: cache directory {blocker}: {blocker} is not a directory\n")
    assert blocker.read_text() == ""
    # --no-cache touches no model cache
    assert main(["--cache-dir", str(cdir), "--no-cache", *argv]) == 0
    assert blocker.read_text() == ""


def test_warm_model_cache_expands_no_relations(monkeypatch, tmp_path):
    # the relations were expanded before the model cache was looked up, so
    # a warm run expanded relations it never read
    import symalg.reports
    from symalg import preset

    calls = []
    build = symalg.reports.build_relations

    def counted(p):
        calls.append(p)
        return build(p)

    monkeypatch.setattr(symalg.reports, "build_relations", counted)
    cdir = tmp_path / "cache"
    first = symalg.reports.freegens(preset(3, 1), "tym-hat", 8, cdir)
    assert len(calls) == 1
    assert symalg.reports.freegens(preset(3, 1), "tym-hat", 8, cdir) == first
    assert len(calls) == 1


@pytest.mark.parametrize("opts, env", [
    ([], False), (["--no-cache"], False), ([], True)], ids=["cache", "no-cache", "env"])
def test_empty_cache_dir_exits_2_and_writes_nothing(monkeypatch, capsys, tmp_path, opts, env):
    # an empty --cache-dir was read as no flag, so the report was stored
    # under $SYMALG_CACHE_DIR or ~/.cache/symalg with exit 0
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    if env:
        monkeypatch.setenv("SYMALG_CACHE_DIR", str(tmp_path / "env"))
    else:
        monkeypatch.delenv("SYMALG_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    code = main(["--cache-dir", "", *opts, "hilbert", "--preset", "2,0", "--degree", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "symalg: error: --cache-dir must name a directory\n"
    assert list(tmp_path.rglob("*")) == [home]


def test_report_cache_store_is_atomic(monkeypatch, tmp_path):
    import symalg.cache as cache

    cache.store("k", b"first\n", tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["k.json"]

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cache.os, "replace", fail)
    with pytest.raises(OSError):
        cache.store("k", b"second\n", tmp_path)
    # the old entry is intact and no temporary file is left
    assert [p.name for p in tmp_path.iterdir()] == ["k.json"]
    assert cache.lookup("k", tmp_path) == b"first\n"


def test_cache_sha256_is_the_builtin_module():
    import hashlib
    import importlib

    import symalg.cache as cache

    builtin = importlib.import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    assert cache.sha256 is builtin.sha256
    assert cache.sha256 is not hashlib.sha256


# lengths 0-300, drawn evenly, so the 55/56-byte (one padding block or
# two) and 64-byte (block) edges come up; the examples pin them
@settings(max_examples=300)
@given(st.integers(0, 300).flatmap(lambda n: st.binary(min_size=n, max_size=n)))
@example(b"")
@example(b"\x00" * 55)
@example(b"\xff" * 56)
@example(b"a" * 64)
@example(b"b" * 119)
@example(b"c" * 120)
def test_cache_sha256_matches_hashlib(data):
    import hashlib

    import symalg.cache as cache

    assert cache.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


ROOT = Path(__file__).resolve().parent.parent
# the modules a dataclass would pull in; they cost start-up time and memory
INTROSPECTION = {"dataclasses", "inspect", "ast", "tokenize"}


def _fresh_modules(code, cwd=None):
    """The modules that running `code` loads in a fresh interpreter on this
    source tree (printed after anything `code` prints)."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import sys; before = set(sys.modules)\n" + code
            + "\nprint(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _symalg_modules(loaded):
    return {m for m in loaded if m == "symalg" or m.startswith("symalg.")}


def test_import_loads_no_introspection_modules():
    loaded = _fresh_modules("import symalg.cli")
    assert "symalg.cli" in loaded
    assert not loaded & INTROSPECTION
    # the package itself imports no submodule: each loads on first use,
    # with what it imports
    assert _symalg_modules(_fresh_modules("import symalg")) == {"symalg"}
    assert _symalg_modules(_fresh_modules("import symalg; symalg.homology")) == {
        "symalg", "symalg.homology", "symalg.linalg"}


# hashlib and the OpenSSL binding it loads
HASHLIB = {"hashlib", "_hashlib"}

# every command loads these: the CLI, the report cache, `reports` and what
# it imports at the top
CLI_MODULES = {"cli", "cache", "reports", "presentation", "linalg", "series", "tensor"}


@pytest.mark.parametrize("argv, runs", [
    (["--no-cache", "verify", "resolution", "--preset", "3,1", "--max-weight", "4"],
     {"assoc", "resolution"}),
    (["freegens", "--preset", "3,1", "--max", "5"], {"engine", "freegens"}),
    (["--no-cache", "dixmier", "surject", "--preset", "3,1", "--l", "13"],
     {"engine", "superlie", "surjection"}),
    (["--no-cache", "verify", "susy", "--preset", "3,1"], {"assoc", "susy"}),
    (["--no-cache", "verify", "semidirect", "--preset", "3,1"], {"semidirect"}),
    (["--no-cache", "basis", "--preset", "3,1", "--l", "5"], {"engine"}),
    (["hilbert", "--preset", "3,1", "--degree", "8"], set()),
], ids=["verify-resolution", "freegens", "dixmier-surject", "verify-susy",
        "verify-semidirect", "basis", "hilbert"])
def test_command_loads_only_the_modules_it_runs(tmp_path, argv, runs):
    argv = ["--cache-dir", str(tmp_path / "cache"), *argv]
    loaded = _fresh_modules(f"import symalg.cli\nassert symalg.cli.main({argv!r}) == 0")
    assert _symalg_modules(loaded) == {"symalg", *(f"symalg.{m}" for m in CLI_MODULES | runs)}
    assert not loaded & INTROSPECTION
    # every hash is the built-in SHA-256: no command maps OpenSSL's libcrypto
    assert not loaded & HASHLIB


def test_every_public_name_is_its_modules_object():
    import symalg

    assert len(set(symalg.__all__)) == len(symalg.__all__) == 49
    assert set(symalg.__all__) <= set(dir(symalg))
    for name in symalg.__all__:
        obj = getattr(symalg, name)
        assert obj.__module__.startswith("symalg.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    namespace = {}
    exec("from symalg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(symalg.__all__)
    assert not hasattr(symalg, "no_such_name")
    # a plain attribute: the report cache key and the benchmark read it
    assert "__version__" in vars(symalg)


def test_readme_reports_example_runs(tmp_path):
    # the block under "Reports from Python", in a fresh interpreter, where
    # `from symalg import reports` goes through the lazy package namespace
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Reports from Python"):]
    start = section.index("```python\n") + len("```python\n")
    block = section[start:section.index("```", start)]
    assert block.startswith("from symalg import preset, reports\n")
    loaded = _fresh_modules(block, cwd=tmp_path)
    assert "symalg.reports" in loaded
    assert (tmp_path / "models").is_dir()


def _cli_process(argv, stdout=subprocess.PIPE):
    """`python -m symalg.cli argv` on this source tree, as the benchmark
    and the `symalg` script start it: (exit code, stdout, stderr).  Its
    stdout is buffered (no PYTHONUNBUFFERED), so what main() wrote reaches
    the pipe only through run()'s flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "symalg.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(capsys, argv):
    """main(argv) as the test's own call: (exit code, stdout, stderr), with
    argparse's SystemExit read as its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", [
    (["hilbert", "--preset", "2,1", "--degree", "6"], 0),
    (["--format", "table", "verify", "omega", "--preset", "2,1"], 0),
    (["basis", "--preset", "2,1", "--l", "5", "--check-reference-basis"], 1),
    (["hilbert", "--preset", "3"], 2),
    (["hilbert", "--preset", "0,0"], 2),
    (["verify", "omega", "--preset", "2,1", "--max-weight", "5"], 2),
    (["--help"], 0),
], ids=["json", "table", "failed-check", "usage-error", "input-error", "argparse-error",
        "help"])
def test_process_exits_as_main_returns(monkeypatch, capsys, tmp_path, argv, code):
    # the hard exit after main() keeps its code and every byte it wrote;
    # argparse wraps its usage to COLUMNS, so both sides get the same
    monkeypatch.setenv("COLUMNS", "80")
    process = _cli_process(["--cache-dir", str(tmp_path / "process"), *argv])
    in_process = _in_process(capsys, ["--cache-dir", str(tmp_path / "main"), *argv])
    assert process == in_process
    # and it wrote its report (or usage), or its error
    assert process[0] == code and process[1 if code < 2 else 2]


def test_process_reports_a_cache_mismatch_with_3(capsys, tmp_path):
    args = ("hilbert", "--preset", "2,0", "--degree", "4")
    got = {}
    for side in ("process", "main"):
        cdir = tmp_path / side
        run = _cli_process if side == "process" else (lambda argv: _in_process(capsys, argv))
        assert run(["--cache-dir", str(cdir), *args])[0] == 0
        (entry,) = cdir.glob("*.json")
        entry.write_bytes(b'{"ok": true, "tampered": 1}\n')
        got[side] = run(["--cache-dir", str(cdir), "--no-cache", *args])
    assert got["process"] == got["main"] and got["main"][0] == 3


def test_hard_exit_leaves_complete_cache_files(monkeypatch, capsys, tmp_path):
    # a cold run that ends in os._exit has closed and renamed its report
    # entry and its model pickle: the pickle serves a rebuild-free run and
    # the entry a second process
    from symalg import engine

    cache = tmp_path / "cache"
    argv = ["--cache-dir", str(cache), "basis", "--preset", "3,1", "--l", "5"]
    code, out, err = _cli_process(argv)
    assert (code, err) == (0, "")
    (entry,) = cache.glob("*.json")
    assert entry.read_bytes() == out.encode()
    assert [p.name for p in (cache / "models").iterdir()] == [
        f"{json.loads(out)['presentation_sha256']}-l5.pickle"]
    entry.unlink()

    def no_build(*args):
        raise AssertionError("the model was rebuilt, not loaded")

    monkeypatch.setattr(engine.LieModel, "__init__", no_build)
    assert _in_process(capsys, argv) == (0, out, "")
    # served from the report entry: no model is read or written
    for model in (cache / "models").iterdir():
        model.unlink()
    assert _cli_process(argv) == (0, out, "")
    assert not any((cache / "models").iterdir())


def test_process_on_a_closed_pipe_fails_as_before(tmp_path):
    # the report reaches the closed pipe only at run()'s flush: its OSError
    # falls back to the normal exit, where the interpreter reports the lost
    # output with 120
    read, write = os.pipe()
    os.close(read)
    try:
        code, _, err = _cli_process(["--cache-dir", str(tmp_path / "cache"), "hilbert",
                                     "--preset", "2,1", "--degree", "4"], stdout=write)
    finally:
        os.close(write)
    assert code == 120 and "BrokenPipeError" in err


def test_script_entry_point_is_run():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text[text.index("[project.scripts]\n"):].split("\n\n")[0]
    assert scripts.splitlines()[1:] == ['symalg = "symalg.cli:run"']
