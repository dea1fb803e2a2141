"""Series layer: coefficient lists and their reciprocal, the PBW
factorization read both ways, the free Lie algebra dimensions it gives
against the Lie engine, and the closed forms built on it."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symalg.engine import LieModel, free_lie_dims
from symalg.presentation import (
    dims_ym,
    free_gen_series,
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
    f31 = free_gen_series("tym", 3, 1, 12)
    assert f31 == [0, 0, 0, 1, 3, 2, 5, 3, 7, 4, 9, 5, 11]
    f30 = free_gen_series("tym", 3, 0, 12)
    assert f30 == [0, 0, 0, 0, 3, 0, 5, 0, 7, 0, 9, 0, 11]
    # an order below the degree of D truncates it
    assert free_gen_series("tym", 3, 1, 4) == [0, 0, 0, 1, 3]


# The paper's statements of the three generator series, the test oracle of
# the one formula V = 1 - D * H_U(g/K): two piecewise closed forms, and for
# tym 1 - D/(1-t^2)^n with (1-t^2)^(-n) = sum_k C(n+k-1, k) t^(2k).


def _paper_tym_hat(n, s, d):
    """(n-2) t^2 + (2n-3) t^4 + sum_{k>=3} (2n-4) t^2k + sum_{k>=1} s t^(2k+1)."""
    if d == 2:
        return n - 2
    if d == 4:
        return 2 * n - 3
    if d >= 6 and d % 2 == 0:
        return 2 * n - 4
    return s if d >= 3 and d % 2 else 0


def _paper_tym(n, s, d):
    D = [1, 0, -n, -s, 0, s, n, 0, -1]
    return int(d == 0) - sum(D[i] * comb(n + (d - i) // 2 - 1, (d - i) // 2)
                             for i in range(min(d, 8) + 1) if (d - i) % 2 == 0)


def _paper_k1s(n, s, d):
    """(s-2) t^3 + (2s-3) t^6 + sum_{k>=3} (2s-4) t^3k."""
    if d == 3:
        return s - 2
    if d == 6:
        return 2 * s - 3
    return 2 * s - 4 if d >= 9 and d % 3 == 0 else 0


def test_free_gen_series_matches_the_paper():
    cases = [(ideal, n, s, paper) for ideal, paper in (("tym-hat", _paper_tym_hat),
                                                       ("tym", _paper_tym))
             for n in range(2, 9) for s in range(8)]
    cases += [("k1s", 1, s, _paper_k1s) for s in range(3, 12)]
    assert len(cases) == 121
    for ideal, n, s, paper in cases:
        assert free_gen_series(ideal, n, s, 40) == [paper(n, s, d) for d in range(41)], (
            ideal, n, s)


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
    series += [free_gen_series(ideal, n, s, 16)
               for ideal, n, s in (("tym-hat", 3, 1), ("k1s", 1, 3), ("tym", 4, 2))]
    assert all(type(c) is int for ser in series for c in ser)
