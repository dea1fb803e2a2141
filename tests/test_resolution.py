"""Per-weight verification of the length-three resolutions, both sides."""

from symalg.linalg import echelon
from symalg.resolution import SidedResolution, verify_resolution


def test_resolution_31_left_right(assoc31, p31):
    out = verify_resolution(assoc31, p31, 10)
    for side in ("left", "right"):
        for rep in out[side]:
            assert rep.ok, (side, rep.weight, rep.checks)


def test_resolution_22(assoc22, p22):
    out = verify_resolution(assoc22, p22, 8)
    for side in ("left", "right"):
        for rep in out[side]:
            assert rep.ok, (side, rep.weight, rep.checks)


def test_resolution_with_indefinite_metric(minkowski32):
    # b2 comes from the relations themselves, so the signature-(1,2)
    # metric enters it as it enters the relations
    from symalg import AssocModel, build_relations

    r0, r1 = build_relations(minkowski32)
    model = AssocModel(minkowski32.alphabet, r0 + r1, max_weight=9)
    out = verify_resolution(model, minkowski32, 9)
    for side in ("left", "right"):
        for rep in out[side]:
            assert rep.ok, (side, rep.weight, rep.checks)


def test_b1_echelon_has_no_fill(assoc31, p31):
    # b1 is onto Y_12 and every column is a normal form of y * v; inserted
    # sparsest first, each pivot row ends as a unit vector
    for side in ("left", "right"):
        res = SidedResolution(assoc31, p31, side)
        ech = echelon(res.b1_columns(12).values())
        nnz = sum(len(r) for r in ech.rows.values())
        assert ech.rank == res.degrees(12)[0] == 604
        assert nnz == ech.rank, side


def test_top_map_injectivity_ranks(assoc31, p31):
    res = SidedResolution(assoc31, p31, "left")
    for w in (8, 9, 10, 11):
        cols = res.b3_columns(w)
        from symalg.linalg import Echelon, intvec

        ech = Echelon()
        for col in cols.values():
            iv, _ = intvec(col)
            ech.insert(iv)
        assert ech.rank == assoc31.dim(w - 8)


def test_excluded_parameters_rejected():
    import pytest

    from symalg import AssocModel, build_relations, preset

    p = preset(1, 1)
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=6)
    with pytest.raises(ValueError):
        SidedResolution(model, p, "left")


def test_euler_identity_from_module_dims(assoc31, p31):
    res = SidedResolution(assoc31, p31, "left")
    for w in range(0, 13):
        d0, d1, d2, d3 = res.degrees(w)
        assert d0 - d1 + d2 - d3 == (1 if w == 0 else 0)
