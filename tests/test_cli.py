"""CLI surface: subcommands, JSON determinism, cache behaviour, exit codes."""

import json

import pytest

from symalg.cli import main
from symalg.superlie import heis, save_algebra


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


def test_verify_semidirect(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "verify", "semidirect", "--preset", "3,1")
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
])
def test_bad_input_exits_2(capsys, tmp_path, argv, message):
    code = main(["--cache-dir", str(tmp_path / "cache"), *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("symalg: error: ")
    assert message in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("content, message", [
    ('{"n": 3, "gamma": [[["1"]], [["0"]], [["0"]]]}', "lacks 's'"),
    ('{"n": 1, "s": 1, "gamma": [[["x"]]]}', "malformed presentation JSON"),
    ("not json", "is not JSON"),
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
    # polarization error report; anything else is a bug and propagates
    import symalg.cli

    def bug(*args):
        raise RuntimeError("bug")

    monkeypatch.setattr(symalg.cli, "derive_gamma_tilde", bug)
    monkeypatch.setattr(symalg.cli, "vergne_polarization", bug)
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
    ("algebra-not-json", "is not JSON"),
    ("functional-not-json", "is not JSON"),
    ("algebra-basis-3", "malformed algebra JSON"),
    ("algebra-no-brackets", "malformed algebra JSON"),
    ("functional-list", "malformed functional JSON"),
    ("functional-bad-rational", "malformed functional JSON"),
    ("functional-unknown-name", "malformed functional JSON"),
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
    }
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
    import symalg.cli

    def no_build(*args):
        raise AssertionError("the Lie model was built")

    monkeypatch.setattr(symalg.cli, "_lie_model", no_build)
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


def test_no_cache_bypasses_model_cache(capsys, tmp_path):
    # --no-cache neither reads a model pickle (a planted wrong model would
    # change the report) nor writes one
    import pickle

    from symalg import LieModel, build_relations, preset
    from symalg.cli import _hash

    args = ("basis", "--preset", "3,1", "--l", "5")
    code, want = run_cli(capsys, tmp_path / "clean", "--no-cache", *args)
    assert code == 0
    assert not (tmp_path / "clean" / "cache" / "models").exists()
    other = preset(2, 1)
    r0, r1 = build_relations(other)
    planted = pickle.dumps(LieModel(other.alphabet, r0 + r1, 5))
    models = tmp_path / "cache" / "models"
    models.mkdir(parents=True)
    path = models / f"{_hash(preset(3, 1))}-l5.pickle"
    path.write_bytes(planted)
    code, out = run_cli(capsys, tmp_path, "--no-cache", *args)
    assert (code, out) == (0, want)
    assert list(models.iterdir()) == [path] and path.read_bytes() == planted
    # without --no-cache the planted pickle is read
    for entry in (tmp_path / "cache").glob("*.json"):
        entry.unlink()
    code, out = run_cli(capsys, tmp_path, *args)
    assert json.loads(out)["dims"] != json.loads(want)["dims"]


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
