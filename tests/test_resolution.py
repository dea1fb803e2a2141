"""Per-weight verification of the length-three resolutions, both sides,
and the scalar convention of their columns."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from symalg import AssocModel, SymPresentation, build_relations
from symalg.linalg import echelon
from symalg.presentation import check_nondegenerate, hilbert_series_YM
from symalg.resolution import SidedResolution, verify_resolution


def _all_green(out):
    for side in ("left", "right"):
        for rep in out[side]:
            assert rep.ok, (side, rep.weight, rep.checks)


def test_resolution_31_left_right(assoc31, p31):
    _all_green(verify_resolution(assoc31, p31, 10))


def test_resolution_22(assoc22, p22):
    _all_green(verify_resolution(assoc22, p22, 8))


def test_resolution_with_indefinite_metric(minkowski32):
    # b2 comes from the relations themselves, so the signature-(1,2)
    # metric enters it as it enters the relations
    r0, r1 = build_relations(minkowski32)
    model = AssocModel(minkowski32.alphabet, r0 + r1, max_weight=9)
    _all_green(verify_resolution(model, minkowski32, 9))


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

    from symalg import preset

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


# -- the scalar convention: integral values are ints, the others Fractions


def presentation31(g):
    return SymPresentation(3, 1, [[[c]] for c in g])


def model_and_values(p, max_weight):
    """The associative model of p, and every value of its normal forms
    (the reductions of all candidate words) and of its b1, b2, b3 columns
    on both sides, weight by weight."""
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=max_weight)
    values = []
    for w in range(1, max_weight + 1):
        for g in p.alphabet.generators:
            for n in model.normal.get(w - g.weight, ()):
                values.extend(model.normal_word((g.index,) + n).values())
    for side in ("left", "right"):
        res = SidedResolution(model, p, side)
        for w in range(max_weight + 1):
            for cols in (res.b1_columns(w), res.b2_columns(w), res.b3_columns(w)):
                for col in cols.values():
                    values.extend(col.values())
    return model, values


def test_integral_presentations_stay_int(p31):
    # the preset and one seeded draw in the benchmark's shape (G^1 = 1,
    # G^2 and G^3 from +-1..+-3): every pivot of the normal-form echelon is
    # a unit, so no value ever becomes a Fraction
    rng = random.Random(9)
    drawn = [1] + [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2)]
    for p in (p31, presentation31(drawn)):
        _, values = model_and_values(p, 11)
        assert values and all(type(v) is int for v in values), p


def test_rational_presentation_mixes_int_and_fraction():
    # ints and Fractions meet in the normal forms and the columns
    p = presentation31(["1", "1/2", "-3/2"])
    model, values = model_and_values(p, 12)
    assert {type(v) for v in values} == {int, Fraction}
    _all_green(verify_resolution(model, p, 12))


SMALL_INTEGER_31 = st.tuples(*[st.integers(-3, 3)] * 3).map(presentation31).filter(
    lambda p: check_nondegenerate(p)[0])


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(SMALL_INTEGER_31)
def test_random_integer_presentations(p):
    # the associative dims follow the Hilbert series and both resolutions
    # are exact to weight 10
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=10)
    ser = hilbert_series_YM(p, order=10)
    assert [model.dim(w) for w in range(11)] == [ser[w] for w in range(11)]
    _all_green(verify_resolution(model, p, 10))
