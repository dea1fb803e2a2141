"""The exact linear-algebra kernel: properties of rank, rref, kernel and
inverse on small rational matrices (their scalar convention included), the
sparse accumulate `addmul`, and the presentation checks built on them."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symalg.linalg import addmul, echelon, inverse, kernel, rank, rref
from symalg.presentation import (
    PresentationError,
    SymPresentation,
    check_nondegenerate,
    derive_gamma_tilde,
)

ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(-5, 2)]),
).map(Fraction)

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return rows, ncols


def apply(rows, x):
    return [sum(c * x.get(j, 0) for j, c in enumerate(row)) for row in rows]


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


@SEEDED
@given(matrices())
def test_kernel_vectors_are_annihilated(mat):
    rows, ncols = mat
    for x in kernel(rows, ncols):
        assert all(v == 0 for v in apply(rows, x))


@SEEDED
@given(matrices())
def test_rank_nullity(mat):
    rows, ncols = mat
    assert rank(rows) + len(kernel(rows, ncols)) == ncols


@SEEDED
@given(matrices())
def test_row_rank_equals_column_rank(mat):
    rows, _ = mat
    assert rank(rows) == rank(list(zip(*rows)))


@SEEDED
@given(matrices())
def test_rref_shape_and_row_space(mat):
    rows, _ = mat
    red = rref(rows)
    assert len(red) == rank(rows)
    for p, r in red.items():
        assert r[p] == 1 and min(r) == p
        assert all(q == p or q not in r for q in red)
    # every row is the combination of the reduced rows read off its pivots
    for row in rows:
        acc = {}
        for p, r in red.items():
            for k, c in r.items():
                acc[k] = acc.get(k, 0) + row[p] * c
        assert [acc.get(j, 0) for j in range(len(row))] == row


@SEEDED
@given(matrices(square=True))
def test_inverse(mat):
    rows, n = mat
    inv = inverse(rows)
    if rank(rows) < n:
        assert inv is None
    else:
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert matmul(inv, rows) == identity


def conventional(v):
    """An integral value is an int, any other value a Fraction."""
    return type(v) is (int if v.denominator == 1 else Fraction)


@SEEDED
@given(matrices(square=True))
def test_values_are_ints_exactly_when_integral(mat):
    rows, ncols = mat
    values = [v for r in rref(rows).values() for v in r.values()]
    values += [v for x in kernel(rows, ncols) for v in x.values()]
    values += [v for row in inverse(rows) or () for v in row]
    assert values and all(conventional(v) for v in values)


@st.composite
def permuted(draw, square=False):
    """A matrix and a row order: reversed, or shuffled by a seeded
    permutation.  Returns (rows, ncols, perm), perm[k] the k-th row."""
    rows, ncols = draw(matrices(square))
    perm = list(range(len(rows)))[::-1]
    seed = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    if seed is not None:
        random.Random(seed).shuffle(perm)
    return rows, ncols, perm


def key_order(red):
    return [(p, list(r)) for p, r in red.items()]


@SEEDED
@given(permuted())
def test_rank_rref_kernel_ignore_row_order(mat):
    rows, ncols, perm = mat
    moved = [rows[k] for k in perm]
    assert rank(moved) == rank(rows)
    red, red_moved = rref(rows), rref(moved)
    assert red_moved == red and key_order(red_moved) == key_order(red)
    assert list(red) == sorted(red)
    ker, ker_moved = kernel(rows, ncols), kernel(moved, ncols)
    assert ker_moved == ker and [list(x) for x in ker_moved] == [list(x) for x in ker]


@SEEDED
@given(permuted(square=True))
def test_inverse_ignores_row_order(mat):
    # inverse(P M) = inverse(M) P^-1: column k of it is column perm[k]
    rows, n, perm = mat
    inv, inv_moved = inverse(rows), inverse([rows[k] for k in perm])
    if inv is None:
        assert inv_moved is None
    else:
        assert inv_moved == [[row[perm[k]] for k in range(n)] for row in inv]


@st.composite
def rows_and_vector(draw):
    """Integer rows and an integer vector over at most six columns: the
    vector is drawn at random or as a combination of the rows."""
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=0, max_size=6))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        vec = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
    else:
        vec = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    return rows, vec


@SEEDED
@given(rows_and_vector())
def test_reduce_residual_and_scale(mat):
    # scale * vec - residual lies in the row span, and the residual is empty
    # exactly when vec does
    rows, vec = mat
    v, s = echelon(rows).reduce({j: x for j, x in enumerate(vec) if x})
    assert s != 0
    diff = [s * x - v.get(j, 0) for j, x in enumerate(vec)]
    assert rank(rows + [diff]) == rank(rows)
    assert (v == {}) == (rank(rows + [vec]) == rank(rows))


# sparse rational dicts over keys 0..5, ints and Fractions mixed; small
# ints make cancellation frequent
VALUES = st.one_of(st.integers(-3, 3), st.sampled_from(
    [Fraction(1, 2), Fraction(-1, 2), Fraction(-2, 3), Fraction(3, 2)]))
SPARSE = st.dictionaries(st.integers(0, 5), VALUES, max_size=6)


@SEEDED
@given(SPARSE.map(lambda d: {k: v for k, v in d.items() if v}), VALUES, SPARSE)
def test_addmul_is_the_dense_sum_without_zeros(out, a, vec):
    # out holds no zero to begin with; vec may hold zeros
    want = [out.get(k, 0) + a * vec.get(k, 0) for k in range(6)]
    addmul(out, a, vec)
    assert [out.get(k, 0) for k in range(6)] == want
    assert all(out.values())


def test_singular_metric_rejected():
    gamma = [[["1"]], [["0"]]]
    with pytest.raises(PresentationError, match="singular metric"):
        SymPresentation(2, 1, gamma, metric=[["1", "2"], ["2", "4"]])


def test_metric_inverse():
    p = SymPresentation(2, 1, [[["1"]], [["0"]]], metric=[["2", "1"], ["1", "1"]])
    assert [[p.metric_upper(i, j) for j in range(2)] for i in range(2)] == [
        [1, -1], [-1, 2]]


def test_inconsistent_equivariance_system():
    # G^1 = G^2 = (1): the (1,1) and (2,2) equations force Gt^1 = Gt^2 = 1,
    # and then the (1,2) equation reads 2 = 0
    p = SymPresentation(2, 1, [[["1"]], [["1"]]])
    with pytest.raises(PresentationError, match="inconsistent"):
        derive_gamma_tilde(p)


def test_degenerate_gamma():
    # lambda o Gamma = (l1 + l2) E_11 never has full rank
    e11 = [["1", "0"], ["0", "0"]]
    assert check_nondegenerate(SymPresentation(2, 2, [e11, e11])) == (False, None)


def test_grid_witness_off_the_coordinate_directions():
    e11 = [["1", "0"], ["0", "0"]]
    e22 = [["0", "0"], ["0", "1"]]
    assert check_nondegenerate(SymPresentation(2, 2, [e11, e22])) == (True, [1, 1])
