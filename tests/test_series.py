"""Series layer: coefficient lists and their reciprocal, the PBW
factorization read both ways, the free Lie algebra dimensions it gives
against the Lie engine, and the closed forms built on it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symalg.engine import LieModel, free_lie_dims
from symalg.presentation import (
    dims_ym,
    free_gen_series_k1s,
    free_gen_series_tym,
    free_gen_series_tym_hat,
    hilbert_series_YM,
    ym_denominator,
)
from symalg.series import dims_from_series, enveloping_series, reciprocal
from symalg.tensor import Alphabet


def test_dims_from_series_rejects_bad_constant():
    with pytest.raises(ValueError, match="constant term must be 1"):
        dims_from_series([2, 1], 3)


KNOWN_DIMS_31 = [0, 3, 1, 3, 2, 6, 6, 12, 15, 33, 42, 77, 114, 213, 314, 555,
                 876, 1540, 2460, 4242]


def test_dims_from_series_31():
    assert dims_from_series(ym_denominator(3, 1), 20) == KNOWN_DIMS_31


def test_dims_from_series_one_even_generator():
    # a single even generator sits in even degree (degree parity = parity)
    dims = dims_from_series([1, 0, -1], 8)
    assert dims == [0, 1, 0, 0, 0, 0, 0, 0]


def test_dims_from_series_one_odd_generator():
    # the polynomial algebra series 1/(1-t) resolves in the super reading
    # as one odd degree-1 and one even degree-2 generator
    assert dims_from_series([1, -1], 8) == [1, 1, 0, 0, 0, 0, 0, 0]


def test_dims_from_series_free_two_even_generators():
    # free Lie algebra on two even weight-2 generators: necklace counts
    # in even degrees.  Oracle: the Lie engine without relations.
    dims = dims_from_series([1, 0, -2], 12)
    assert [dims[2 * k - 1] for k in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert all(dims[2 * k] == 0 for k in range(6))
    A = Alphabet([("a", 0, 2), ("b", 0, 2)])
    free = LieModel(A, [], cutoff=11).dims()
    assert [free[w] for w in range(2, 13)] == dims[1:]


def test_dims_from_series_free_two_odd_generators():
    # the same series with weight-1 (odd) generators counts the free super
    # Lie algebra instead; the Lie engine confirms the symmetric squares
    dims = dims_from_series([1, -2], 6)
    A = Alphabet([("a", 1, 1), ("b", 1, 1)])
    free = LieModel(A, [], cutoff=5).dims()
    assert dims == [free[w] for w in range(1, 7)]
    assert dims[:2] == [2, 3]


def test_dims_from_series_rejects_inconsistent():
    # 1/(1+t) = 1 - t + ...: a negative dimension in degree 1
    with pytest.raises(ValueError, match="degree 1: nu=-1"):
        dims_from_series([1, 1], 4)
    # 1/(1 - t/2) = 1 + t/2 + ...: a fractional one
    with pytest.raises(ValueError, match="degree 1: nu=1/2"):
        dims_from_series([1, Fraction(-1, 2)], 4)
    # 1/(1 - t + t^2) = (1 + t)/(1 + t^3): nu_1 = 1 peels off and leaves
    # 1/(1 + t^3), so nu_3 = -1
    with pytest.raises(ValueError, match="degree 3: nu=-1"):
        dims_from_series([1, -1, 1], 4)


@st.composite
def alphabets(draw):
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    return Alphabet([(f"g{i}", w % 2, w) for i, w in enumerate(weights)])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(alphabets())
def test_free_lie_dims_match_the_engine(alphabet):
    # the factor convention (odd degree = odd parity, exterior powers)
    # checked against brackets counted by the Lie engine without relations
    dims = LieModel(alphabet, [], cutoff=6).dims()
    assert free_lie_dims(alphabet, 7) == [dims.get(w, 0) for w in range(1, 8)]


def _times(a, b, order):
    """The product of two coefficient lists to t^order."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def test_reciprocal_inverts():
    p = [1, 2, 3, 4, 0, 1]
    assert _times(p, reciprocal(p, 10), 10) == [1] + [0] * 10
    # 1/(1 - t) to t^3, and a p longer than the order
    assert reciprocal([1, -1], 3) == [1, 1, 1, 1]
    assert reciprocal(p, 1) == [1, -2]
    q = [1, Fraction(1, 3), -2]
    assert _times(q, reciprocal(q, 6), 6) == [1] + [0] * 6
    with pytest.raises(ValueError, match="constant term must be 1"):
        reciprocal([0, 1], 3)


def test_enveloping_series_product_formula():
    # one even degree-2 and one odd degree-3 generator:
    # (1+t^3)/(1-t^2)
    s = enveloping_series([0, 1, 1], 8)
    assert s == _times([1, 0, 0, 1], reciprocal([1, 0, -1], 8), 8)


def test_free_gen_series_tym_values():
    # 1 - D/(1-t^2)^n = ((1-t^2)^n - D)/(1-t^2)^n for D = ym_denominator
    f31 = free_gen_series_tym(3, 1, order=12)
    assert [f31(d) for d in range(13)] == [0, 0, 0, 1, 3, 2, 5, 3, 7, 4, 9, 5, 11]
    f30 = free_gen_series_tym(3, 0, order=12)
    assert [f30(d) for d in range(13)] == [0, 0, 0, 0, 3, 0, 5, 0, 7, 0, 9, 0, 11]
    # an order below the degree of D truncates it
    f2 = free_gen_series_tym(3, 1, order=4)
    assert [f2(d) for d in range(-1, 5)] == [0, 0, 0, 0, 1, 3]


def test_closed_forms_are_ints():
    # integer input gives integer coefficients: no Fraction anywhere
    series = [
        hilbert_series_YM(3, 1, order=16),
        hilbert_series_YM(0, 2, order=16),
        dims_ym(4, 2, max_j=16),
        enveloping_series(KNOWN_DIMS_31, 16),
        reciprocal([1, -3, 2], 16),
        free_lie_dims(Alphabet([("a", 0, 2), ("z", 1, 3)]), 16),
    ]
    for f in (free_gen_series_tym_hat(3, 1), free_gen_series_k1s(3),
              free_gen_series_tym(4, 2, order=16)):
        series.append([f(d) for d in range(17)])
    assert all(type(c) is int for ser in series for c in ser)
