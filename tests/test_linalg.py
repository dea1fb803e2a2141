"""The exact linear-algebra kernel: properties of rank, rref, kernel and
inverse on small rational matrices (their scalar convention included), the
sparse accumulate `addmul`, the integer vectors over one denominator
(`add_scaled`, `primitive`), the in-place elimination step against a
copying reference kernel, `solve`'s read-off of a reduced echelon, and the
presentation checks built on them."""

import itertools
import pickle
import random
import time
from collections.abc import Iterator
from unittest import mock
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symalg import engine, linalg
from symalg.linalg import (
    Echelon,
    _eliminate,
    add_scaled,
    addmul,
    echelon,
    intvec,
    inverse,
    kernel,
    primitive,
    rank,
    rref,
    solve,
    span,
)
from symalg.presentation import PresentationError, SymPresentation, check_nondegenerate
from symalg.susy import derive_gamma_tilde

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


def test_intvec_of_an_int_dict_is_its_zero_free_copy():
    vec = {0: 3, 2: 0, 5: -4}
    out, den = intvec(vec)
    assert den == 1 and out == {0: 3, 5: -4} and list(out) == [0, 5]
    assert all(type(v) is int for v in out.values())
    assert out is not vec and vec == {0: 3, 2: 0, 5: -4}


def test_intvec_clears_the_denominators_of_a_mixed_dict():
    vec = {1: 2, 3: Fraction(1, 6), 4: Fraction(-3, 4), 7: 0, 8: Fraction(4, 2)}
    out, den = intvec(vec)
    assert den == 12 and out == {1: 24, 3: 2, 4: -9, 8: 24}
    assert all(type(v) is int for v in out.values())


# integer vectors (den, {key: int}) over keys 0..5; small numerators make
# cancellation frequent, and the denominators meet in lcms
INTVEC = st.tuples(st.integers(1, 6), st.dictionaries(st.integers(0, 5), st.integers(-4, 4),
                                                      max_size=6))


@SEEDED
@given(st.lists(st.tuples(st.integers(-3, 3), INTVEC, st.integers(1, 4)), max_size=5))
def test_add_scaled_then_primitive_is_the_fraction_sum(terms):
    # sum (a / d_i) * vec_i: add_scaled accumulates it over one
    # denominator and primitive reduces it to lowest terms
    acc = [1, {}]
    want = {}
    for a, (vd, v), di in terms:
        add_scaled(acc, a, (vd, v), di)
        addmul(want, Fraction(a, vd * di), v)
    den, out = primitive(acc)
    assert {k: Fraction(x, den) for k, x in out.items()} == want
    assert den > 0 and gcd(den, *out.values()) == 1
    assert all(out.values())


# -- the in-place elimination step against a copying reference kernel


def _axpy(a, v, b, r):
    """a*v - b*r as a fresh dict: the kernel step before it was made in
    place, kept here as the reference."""
    out = {}
    for k, x in v.items():
        out[k] = a * x
    for k, y in r.items():
        val = out.get(k, 0) - b * y
        if val:
            out[k] = val
        else:
            out.pop(k, None)
    return out


class CopyingEchelon(Echelon):
    """`Echelon` with the reference step: every pivot step builds a new
    dict."""

    __slots__ = ()

    def reduce(self, vec):
        v = dict(vec)
        s = 1
        rows = self.rows
        step = 0
        while v:
            p = min(v)
            r = rows.get(p)
            if r is None:
                break
            a = r[p]
            v = _axpy(a, v, v[p], r)
            s *= a
            step += 1
            if a != 1 and step % 8 == 0:
                v, s = self._strip(v, s)
        return v, s

    def full_reduce(self):
        rows = self.rows
        for p in sorted(rows, reverse=True):
            r = rows[p]
            for q in [k for k in r if k != p and k in rows]:
                r = _axpy(rows[q][q], r, r[q], rows[q])
            r, _ = self._strip(r)
            rows[p] = r if r[p] > 0 else {k: -x for k, x in r.items()}


def _clearing(v, r, p):
    """The kernel step, checked to clear its pivot column: `reduce` would
    repeat a step that leaves it forever."""
    a = _eliminate(v, r, p)
    assert p not in v, f"the step left column {p}"
    return a


def _items(rows):
    """An echelon's rows with their pivot order and every row's key order."""
    return [(p, list(r.items())) for p, r in rows.items()]


# sparse integer rows over keys 0..7, drawn in any key order; entries up to
# 4 in size give pivots other than 1
NONZERO = st.integers(-4, 4).filter(bool)
INTROW = st.dictionaries(st.integers(0, 7), NONZERO, max_size=6)


@SEEDED
@given(INTROW, INTROW, st.integers(0, 7), NONZERO, NONZERO)
def test_eliminate_is_the_copying_step(v, r, p, a, b):
    # the same values in the same key order as a*v - b*r, with a = r[p] and
    # b = v[p] read before v is scaled
    v = {**v, p: b}
    r = {**r, p: a}
    want = _axpy(a, v, b, r)
    r_before = list(r.items())
    assert _eliminate(v, r, p) == a
    assert list(v.items()) == list(want.items())
    assert p not in v and list(r.items()) == r_before


@SEEDED
@given(st.lists(INTROW, max_size=10), st.lists(INTROW, max_size=4))
def test_echelon_rows_match_the_copying_kernel(rows, probes):
    # rows after span and after full_reduce, the residuals and scales of
    # reduce, and what insert returns all equal the reference's, key order
    # included; no call changes its argument dicts, and no echelon row is
    # one of them
    with mock.patch.object(linalg, "_eliminate", _clearing):
        before = [list(row.items()) for row in rows]
        ech = span(rows)
        ref = CopyingEchelon()
        for row in sorted(rows, key=len):
            ref.insert(row)
        assert _items(ech.rows) == _items(ref.rows)
        for vec in probes:
            vec_before = list(vec.items())
            v, s = ech.reduce(vec)
            want_v, want_s = ref.reduce(vec)
            assert (list(v.items()), s) == (list(want_v.items()), want_s)
            assert ech.insert(vec) == ref.insert(vec)
            assert list(vec.items()) == vec_before
            assert _items(ech.rows) == _items(ref.rows)
        assert not any(r is row for r in ech.rows.values() for row in rows + probes)
        ech.full_reduce()
        ref.full_reduce()
        assert _items(ech.rows) == _items(ref.rows)
        assert [list(row.items()) for row in rows] == before


@SEEDED
@given(st.lists(INTROW, max_size=10), st.booleans())
def test_solve_reads_the_reduced_echelon(rows, down):
    # keys 0..7 ascending, or negated and running downwards as the Lie
    # engine's candidate columns do
    keys = range(0, -8, -1) if down else range(8)
    sign = -1 if down else 1
    rows = [{sign * c: x for c, x in row.items()} for row in rows]
    free, vectors = solve(span(rows), keys)
    assert isinstance(vectors, Iterator)
    pivots = rref(rows)
    assert list(free) == [k for k in keys if k not in pivots]
    assert list(free.values()) == list(range(len(free)))
    vectors = dict(zip(keys, vectors))
    for k, t in free.items():
        assert vectors[k] == (1, {t: 1})
    # x = delta on the free key numbered t solves every row: M x = 0
    for t in free.values():
        x = {k: Fraction(v.get(t, 0), d) for k, (d, v) in vectors.items()}
        assert all(sum(c * x[k] for k, c in row.items()) == 0 for row in rows)


@pytest.mark.parametrize("case", ["31", "31-G(1,2,-3)"])
def test_lie_model_pickles_as_with_the_copying_kernel(case, monkeypatch):
    # a Lie build runs every step of its nilpotent-quotient echelons and
    # their full_reduce through the kernel; the reference kernel gives the
    # same pickle bytes
    from symalg.presentation import SymPresentation, build_relations, preset

    p = preset(3, 1) if case == "31" else SymPresentation(3, 1, [[[1]], [[2]], [[-3]]])
    r0, r1 = build_relations(p)
    monkeypatch.setattr(linalg, "_eliminate", _clearing)
    model = pickle.dumps(engine.LieModel(p.alphabet, r0 + r1, cutoff=11))
    # the model pickles its echelons, so the class itself takes the
    # reference methods
    monkeypatch.setattr(Echelon, "reduce", CopyingEchelon.reduce)
    monkeypatch.setattr(Echelon, "full_reduce", CopyingEchelon.full_reduce)
    assert pickle.dumps(engine.LieModel(p.alphabet, r0 + r1, cutoff=11)) == model


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


def test_degenerate_gamma_is_decided_fast():
    # the grid {0..s-1}^n has 2^6 points here, the grid {0..s*n}^n 13^6
    e11 = [["1", "0"], ["0", "0"]]
    t0 = time.perf_counter()
    assert check_nondegenerate(SymPresentation(6, 2, [e11] * 6)) == (False, None)
    assert time.perf_counter() - t0 < 1


def _first_full_rank_point(p, top):
    """The coordinate directions, then the grid {0..top}^n in
    lexicographic order: the first lambda with lambda o Gamma of full
    rank, or None."""
    units = [tuple(int(j == i) for j in range(p.n)) for i in range(p.n)]
    for lam in itertools.chain(units, itertools.product(range(top + 1), repeat=p.n)):
        m = [[sum(lam[i] * p.gamma[i][a][b] for i in range(p.n)) for b in range(p.s)]
             for a in range(p.s)]
        if rank(m) == p.s:
            return list(lam)
    return None


def _nondegenerate_by_recursion(p):
    """check_nondegenerate's search with the grid walked by a recursion
    over prefixes: the coordinate directions, then {0..s-1}^n in
    lexicographic order.  The oracle for the walk by `itertools.product`."""
    def full_rank_at(lam):
        m = [[sum(lam[i] * p.gamma[i][a][b] for i in range(p.n)) for b in range(p.s)]
             for a in range(p.s)]
        return rank(m) == p.s

    for i in range(p.n):
        lam = [Fraction(int(j == i)) for j in range(p.n)]
        if full_rank_at(lam):
            return True, lam
    grid = [Fraction(v) for v in range(p.s)]

    def find(prefix):
        if len(prefix) == p.n:
            return list(prefix) if full_rank_at(prefix) else None
        for v in grid:
            got = find(prefix + [v])
            if got:
                return got
        return None

    witness = find([])
    return (True, witness) if witness else (False, None)


def _singular_gamma(rng, n, s):
    """n symmetric s x s matrices, each a sum of s - 1 signed rank-one
    matrices, so no coordinate direction is a witness."""
    gamma = []
    for _ in range(n):
        g = [[0] * s for _ in range(s)]
        for _ in range(s - 1):
            v = [rng.randint(-1, 1) for _ in range(s)]
            sign = rng.choice((-1, 1))
            g = [[g[a][b] + sign * v[a] * v[b] for b in range(s)] for a in range(s)]
        gamma.append(g)
    return gamma


def test_grid_walk_equals_the_prefix_recursion():
    # every witness here is a grid point, as no G^i has full rank
    rng = random.Random(30)
    flags = []
    for _ in range(300):
        n, s = rng.randint(1, 3), rng.randint(1, 4)
        p = SymPresentation(n, s, _singular_gamma(rng, n, s))
        ok, witness = check_nondegenerate(p)
        assert (ok, witness) == _nondegenerate_by_recursion(p)
        assert ok is False or all(type(x) is Fraction for x in witness)
        flags.append(ok)
    assert flags.count(True) >= 100 and flags.count(False) >= 100


def test_grid_witness_equals_the_larger_grids():
    # no coordinate direction is a witness, so the grid search decides
    rng = random.Random(19)
    witnesses = []
    for _ in range(40):
        n, s = rng.randint(2, 3), rng.randint(2, 3)
        p = SymPresentation(n, s, _singular_gamma(rng, n, s))
        want = _first_full_rank_point(p, s * n)
        assert check_nondegenerate(p) == (want is not None, want)
        witnesses.append(want)
    assert witnesses.count(None) >= 3
    assert any(w and max(w) == 2 for w in witnesses)
