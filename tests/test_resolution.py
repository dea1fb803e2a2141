"""Per-weight verification of the length-three resolutions, both sides,
the scalar convention of their columns, and the checks of `b2` read block
by block against a whole-weight reference."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symalg import AssocModel, SymPresentation, build_relations, preset, resolution
from symalg.linalg import addmul, echelon, rank
from symalg.presentation import check_nondegenerate, hilbert_series_YM
from symalg.resolution import TOP, SidedResolution, certified_rank, verify_resolution


def whole_b2(res, w):
    """The union of `res`'s b2 blocks at weight w: every b2 column."""
    cols = {}
    for k in range(len(res.relations)):
        cols.update(res.b2_columns(w, k))
    return cols


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
    p = preset(1, 1)
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=6)
    with pytest.raises(ValueError):
        SidedResolution(model, p, "left")


def test_a_run_expands_the_relations_once(monkeypatch):
    # SidedResolution reads the relations its AssocModel was built from, so
    # one report expands them once; each side used to expand them again
    import sys

    from symalg import assoc, preset, presentation, reports

    real = presentation.build_relations
    calls = []

    def counted(p):
        calls.append(p)
        return real(p)

    assert assoc and resolution  # loaded before their names are wrapped
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "symalg" and vars(module).get("build_relations") is real:
            monkeypatch.setattr(module, "build_relations", counted)
    assert reports.verify_resolution(preset(3, 1), 6)["ok"]
    assert len(calls) == 1


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
            for cols in (res.b1_columns(w), whole_b2(res, w), res.b3_columns(w)):
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
    ser = hilbert_series_YM(p.n, p.s, order=10)
    assert [model.dim(w) for w in range(11)] == [ser[w] for w in range(11)]
    _all_green(verify_resolution(model, p, 10))


def _block_table_sizes(model, p):
    # column keys are the flat source positions and every value sits on a
    # flat target position, on both sides: len(b_k) = dim P_k and every
    # key lies below dim P_{k-1}
    for side in ("left", "right"):
        res = SidedResolution(model, p, side)
        for w in range(13):
            dims = res.degrees(w)
            for k, cols in enumerate(
                    (res.b1_columns(w), whole_b2(res, w), res.b3_columns(w)), 1):
                assert sorted(cols) == list(range(dims[k])), (side, w, k)
                assert all(key < dims[k - 1] for col in cols.values()
                           for key in col), (side, w, k)


def test_block_tables_31_22(assoc31, p31, assoc22, p22):
    _block_table_sizes(assoc31, p31)
    _block_table_sizes(assoc22, p22)


def test_block_tables_minkowski32(minkowski32):
    r0, r1 = build_relations(minkowski32)
    _block_table_sizes(AssocModel(minkowski32.alphabet, r0 + r1, max_weight=12),
                       minkowski32)


# -- the ranks of b1 and b2: the leading-position certificate and its
# fallback to the exact rank


@pytest.mark.parametrize("p, max_weight", [
    ("p31", 12),
    ("p22", 10),
    ("minkowski32", 10),
    (presentation31([2, -3, 1]), 12),  # non-unit G^1
    (presentation31(["1", "1/2", "-3/2"]), 12),  # Fraction values
], ids=["31", "22", "minkowski32", "G=2,-3,1", "G=1,1/2,-3/2"])
def test_certificate_agrees_with_exact_rank(p, max_weight, request, fallbacks):
    # r1 from certified_rank equals the exact rank.  Every normal word of
    # weight w > 0 is nf(y v) for a normal y, a column leading at that word,
    # so the leading positions cover Y_w and the certificate closes at
    # every such weight: only w = 0, with P1 empty, falls back
    if isinstance(p, str):
        p = request.getfixturevalue(p)
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=max_weight)
    for side in ("left", "right"):
        res = SidedResolution(model, p, side)
        for w in range(max_weight + 1):
            cols = res.b1_columns(w).values()
            d0 = res.degrees(w)[0]
            fallbacks.clear()
            assert certified_rank(cols, d0) == rank(cols) == d0 - (w == 0), (side, w)
            assert len(fallbacks) == (w == 0), (side, w)


def test_certificate_needs_single_entry_columns(fallbacks):
    # two columns leading at the same row count once: here the exact rank
    # is 2
    assert certified_rank([{0: 1}, {0: 1, 1: 1}], 2) == 2
    assert len(fallbacks) == 1
    # ... and here 1, though together the columns touch both rows
    assert certified_rank([{0: 1, 1: 1}, {0: -2, 1: -2}], 2) == 1
    assert len(fallbacks) == 2


def test_certificate_needs_every_row(fallbacks):
    # columns leading at row 0 only leave the rank to elimination
    assert certified_rank([{0: 3}, {0: 1}], 2) == 1
    assert len(fallbacks) == 1


def test_certificate_takes_any_nonzero_coefficient(fallbacks):
    assert certified_rank([{1: -2}, {0: 1, 1: 1}, {0: Fraction(1, 3)}], 2) == 2
    assert not fallbacks


def test_certificate_at_weight_zero(assoc31, p31, fallbacks):
    # P1 is empty and d0 = 1, so the certificate fails by itself and the
    # exact rank gives 0
    for side in ("left", "right"):
        res = SidedResolution(assoc31, p31, side)
        assert res.b1_columns(0) == {}
        fallbacks.clear()
        assert certified_rank(res.b1_columns(0).values(), res.degrees(0)[0]) == 0
        assert len(fallbacks) == 1
        assert res.verify_weight(0).ok


def test_certificate_counts_no_zero_leading_entry(fallbacks):
    # a stored zero leads nowhere: the first column alone does not lead at
    # row 0, so the two columns reach only one leading row
    assert certified_rank([{0: 0, 1: 1}, {1: 2}], 2) == 1
    assert len(fallbacks) == 1


NONZERO = st.one_of(st.integers(-3, 3).filter(bool),
                    st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3)]))


@st.composite
def columns_order_slack(draw):
    """Sparse int/Fraction columns over at most six rows, a sort key of the
    rows (None, or a permutation's position map) and the slack of the
    bound over the exact rank."""
    nrows = draw(st.integers(1, 6))
    cols = draw(st.lists(st.dictionaries(st.integers(0, nrows - 1), NONZERO,
                                         max_size=nrows), max_size=7))
    perm = draw(st.one_of(st.none(), st.permutations(range(nrows))))
    return cols, None if perm is None else perm.index, draw(st.integers(0, 2))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(columns_order_slack())
def test_certified_rank_is_the_exact_rank(case):
    # for any key order and any bound >= the exact rank the result is the
    # exact rank, and nothing is eliminated where the distinct leading
    # positions reach the bound
    cols, key, slack = case
    exact = rank(cols)
    leads = len({min(col, key=key) for col in cols if col})
    calls = []

    def spy(c):
        calls.append(1)
        return rank(c)

    with mock.patch.object(resolution, "rank", spy):
        assert certified_rank(cols, exact + slack, key) == exact
    assert len(calls) == (leads != exact + slack)


# -- where the b2 certificate closes


@pytest.mark.parametrize("p", ["p31", presentation31([1, -3, 2]), "p22", "minkowski32"],
                         ids=["31", "G=1,-3,2", "22", "minkowski32"])
def test_b2_certificate_closes_to_weight_12(p, request, fallbacks):
    # with P1 ordered as the words y v (left) and v y (right) in the model's
    # monomial order, the leading positions of b2 reach d1 - r1 at every
    # weight 1..12 on both sides: the one elimination per weight is r3
    if isinstance(p, str):
        p = request.getfixturevalue(p)
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=12)
    for side in ("left", "right"):
        res = SidedResolution(model, p, side)
        for w in range(1, 13):
            fallbacks.clear()
            assert res.verify_weight(w).ok, (side, w)
            assert fallbacks == [model.dim(w - 8)], (side, w)


def test_b2_certificate_falls_back_on_13_left(fallbacks):
    # (1,3) on the left at weight 12: the b2 columns lead at 16 distinct
    # positions for rank 17, so r2 is the exact rank; the right side closes
    p = preset(1, 3)
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=12)
    for side, r2 in (("left", [17]), ("right", [])):
        res = SidedResolution(model, p, side)
        d0, d1, d2, d3 = res.degrees(12)
        fallbacks.clear()
        assert res.verify_weight(12).ok
        assert d1 - d0 == 17
        assert fallbacks == r2 + [d3], side


# -- the failure path: a resolution that is not exact keeps its report


def test_gamma_zero_report_bytes():
    # with Gamma = 0 the (3,1) relations lose their cubic-quadratic
    # coupling and the resolution is not exact: exact_at_p2 and euler fail
    # at weights 5 and 7..12 on both sides, and the report, as the CLI
    # writes it, keeps these bytes
    import json

    from symalg import reports

    p = presentation31([0, 0, 0])
    bad = {str(w): ["exact_at_p2", "euler"] for w in (5, 7, 8, 9, 10, 11, 12)}
    expected = {
        "command": "verify",
        "target": "resolution",
        "presentation_sha256":
            "a036ec85073720bf4811b310a38284b2667c10114520a477371ff7faeb2b6a38",
        "ok": False,
        "sides": {"left": bad, "right": bad},
        "max_weight": 12,
    }
    got = reports.verify_resolution(p, 12)
    dump = lambda r: json.dumps(r, sort_keys=True, indent=1, default=str)  # noqa: E731
    assert dump(got) == dump(expected)


@pytest.mark.parametrize("w, checks", [
    (6, {"b1b2_zero": False, "b2b3_zero": True, "b3_injective": True,
         "exact_at_p2": True, "exact_at_p1": True, "exact_at_p0": True,
         "euler": True}),
    (10, {"b1b2_zero": False, "b2b3_zero": False, "b3_injective": True,
          "exact_at_p2": False, "exact_at_p1": False, "exact_at_p0": True,
          "euler": True}),
])
@pytest.mark.parametrize("side", ["left", "right"])
def test_b2_off_the_complex_records_the_exact_checks(assoc31, p31, side, w, checks,
                                                     monkeypatch, fallbacks):
    # one unit added to the first b2 column puts b2 off ker b1, so b1 o b2
    # is nonzero; the checks are those the exact ranks give
    res = SidedResolution(assoc31, p31, side)
    blocks = [res.b2_columns(w, k) for k in range(len(res.relations))]
    k = next(k for k, block in enumerate(blocks) if 0 in block)
    first = blocks[k][0]
    blocks[k] = {**blocks[k], 0: {**first, 0: first.get(0, 0) + 1}}
    monkeypatch.setattr(res, "b2_columns", lambda _, k: blocks[k])
    assert res.verify_weight(w).checks == checks
    if w >= 8:
        # P3 is not zero, so b2 is not injective and no certificate can
        # reach the column count: r2 takes the exact rank, as r3 does
        assert len(fallbacks) == 2


# -- b2 block by block, the right side off the tables: the checks equal
# those of whole-weight columns, each product read through `normal_word`


def reference_columns(res, w):
    """b1, b2 and b3 of `res` at weight w, each built whole, with every
    product y * u (left) or u * y (right) read through `normal_word`."""
    model = res.model
    left = res.side == "left"

    def nf(y, u):
        return model.normal_word(y + u if left else u + y)

    p1, p2 = res._p1(w), res._p2(w)
    b1 = {}
    for k, (wy, start) in enumerate(p1):
        for pos, y in enumerate(model.normal.get(wy, ()), start):
            b1[pos] = nf(y, (k,))
    b2 = {}
    for groups, (wy, start) in zip(res.relations, p2):
        for pos, y in enumerate(model.normal.get(wy, ()), start):
            col = {}
            for letter, tail in groups:
                acc = {}
                for rest, c in tail:
                    addmul(acc, c, nf(y, rest))
                for i, c in acc.items():
                    col[p1[letter][1] + i] = c
            b2[pos] = col
    b3 = {}
    odd_sign = 1 if left else -1
    for pos, y in enumerate(model.normal.get(w - TOP, ())):
        col = {}
        for k, (_, start) in enumerate(p2):
            sign = odd_sign if res.parities[k] else 1
            for i, c in nf(y, (k,)).items():
                col[start + i] = sign * c
        b3[pos] = col
    return b1, b2, b3


def reference_checks(res, w):
    """The checks at weight w, in record order, from whole columns: all of
    b2, then both composites, then the ranks."""
    d0, d1, d2, d3 = res.degrees(w)
    b1, b2, b3 = reference_columns(res, w)
    complex12 = resolution._composes_to_zero(b2.values(), b1)
    complex23 = resolution._composes_to_zero(b3.values(), b2)
    r1 = certified_rank(b1.values(), d0)
    bound2 = min(d1 - r1, d2) if complex12 else d2
    r2 = certified_rank(b2.values(), bound2, res._p1_key(w))
    r3 = rank(b3.values())
    return [("b1b2_zero", complex12), ("b2b3_zero", complex23),
            ("b3_injective", r3 == d3), ("exact_at_p2", r2 + r3 == d2),
            ("exact_at_p1", r1 + r2 == d1), ("exact_at_p0", r1 == d0 - (w == 0)),
            ("euler", d0 - d1 + d2 - d3 == (w == 0))]


def _draw(seed):
    # the benchmark's shape: G^1 = 1, G^2 and G^3 from +-1..+-3
    rng = random.Random(seed)
    return presentation31([1] + [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2)])


STREAMED = [
    ("p31", 12), ("p22", 12), (preset(4, 1), 11), (preset(1, 3), 12), ("minkowski32", 12),
    (_draw(1), 12), (_draw(2), 12), (_draw(3), 12),
]


@pytest.mark.parametrize("p, max_weight", STREAMED,
                         ids=["31", "22", "41", "13", "minkowski32", "seed1", "seed2", "seed3"])
def test_streamed_checks_equal_whole_weight(p, max_weight, request):
    # the blocks of b2 cover the whole-weight b2 column for column, each
    # block keyed inside its own P2 block, and verify_weight records the
    # reference's checks in the reference's order; the right side's b1
    # columns are the dicts normal_word(v + y) returns, read off the tables
    if isinstance(p, str):
        p = request.getfixturevalue(p)
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=max_weight)
    for side in ("left", "right"):
        res = SidedResolution(model, p, side)
        for w in range(max_weight + 1):
            b1, b2, b3 = reference_columns(res, w)
            got = res.b1_columns(w)
            assert got == b1 and res.b3_columns(w) == b3, (side, w)
            if side == "right":
                assert all(got[pos] is b1[pos] for pos in b1), w
            p2 = res._p2(w) + [(None, res.degrees(w)[2])]
            for k in range(len(res.relations)):
                block = res.b2_columns(w, k)
                assert all(p2[k][1] <= pos < p2[k + 1][1] for pos in block), (side, w, k)
            assert whole_b2(res, w) == b2, (side, w)
            assert list(res.verify_weight(w).checks.items()) == reference_checks(res, w), \
                (side, w)


@pytest.mark.parametrize("p", ["p31", preset(1, 3)], ids=["31", "13"])
def test_right_side_reads_the_tables(p, request):
    # on the right, nf(v_k y) for a normal word y is the table entry
    # left[k][|y|][position of y], the very dict normal_word(v_k + y)
    # returns, for b1 (|y| = w - |v_k|) and b3 (|y| = w - 8) alike; on the
    # left the products are the normal forms of y + v_k
    if isinstance(p, str):
        p = request.getfixturevalue(p)
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=12)
    for side in ("left", "right"):
        res = SidedResolution(model, p, side)
        for k in range(len(res.relations)):
            for wy in range(-3, 13 - p.alphabet.weights[k]):
                got = list(res._letter_products(k, wy))
                ys = model.normal.get(wy, ())
                assert len(got) == len(ys), (side, k, wy)
                for nf, y in zip(got, ys):
                    if side == "right":
                        assert nf is model.normal_word((k,) + y), (k, y)
                    else:
                        assert nf == model.normal_word(y + (k,)), (k, y)


@pytest.mark.parametrize("side", ["left", "right"])
def test_b2_off_b3_only_records_b2b3(assoc31, p31, side, monkeypatch):
    # a b2 column that b3 reads, doubled: b2 stays inside ker b1 with its
    # rank and leading positions, but b2 o b3 gains that column times its
    # b3 coefficients, so b2b3_zero alone fails
    w = 10
    res = SidedResolution(assoc31, p31, side)
    blocks = [res.b2_columns(w, k) for k in range(len(res.relations))]
    read = {pos for col in res.b3_columns(w).values() for pos in col}
    k, pos = next((k, pos) for k, block in enumerate(blocks) for pos in block
                  if pos in read and block[pos])
    blocks[k] = {**blocks[k], pos: {i: 2 * c for i, c in blocks[k][pos].items()}}
    monkeypatch.setattr(res, "b2_columns", lambda _, k: blocks[k])
    checks = res.verify_weight(w).checks
    assert [name for name, ok in checks.items() if not ok] == ["b2b3_zero"]
