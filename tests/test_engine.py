"""Lie quotient engine: free components, ideal closure, quotient bases,
structure constants, free-generator analyses.

The tensor-coordinate construction in `tensor_oracle` is the independent
route the quotient-coordinate build is checked against, and the all-pairs
bracket span in `generators_oracle` the one for the free-generator counts."""

import io
import pickle
import random
from fractions import Fraction
from functools import cache
from unittest import mock

import pytest
from generators_oracle import oracle_counts
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from tensor_oracle import TensorLieModel

from symalg import engine
from symalg.engine import EngineError, LieModel, free_lie_dims, rational
from symalg.freegens import SubalgebraGenerators, tym_hat_generators
from symalg.linalg import Echelon
from symalg.presentation import (
    FREE_IDEALS,
    SymPresentation,
    build_relations,
    check_nondegenerate,
    dims_ym,
    free_gen_series,
    free_ideal,
    preset,
)
from symalg.refdata import (
    DEPENDENCY_IDENTITIES_31,
    EXPECTED_CUMULATIVE_31,
    reference_basis_trees,
)
from symalg.semidirect import semidirect_relation
from symalg.tensor import Alphabet, bracket_word_name, lie_expand, lie_sum, super_commutator


def _labels(m, weights=None):
    """weight -> the bracket trees of the representatives, by `LieModel.label`."""
    return {w: [m.label(w, i) for i in range(m.dim(w))]
            for w in (m.weights() if weights is None else weights)}


def _names(m, w):
    """The bracket-word names of the representatives of weight w."""
    return [bracket_word_name(t) for t in _labels(m, [w])[w]]


@pytest.fixture(scope="module")
def oracle31(p31):
    """Tensor-coordinate quotient of the (3,1) presentation, weights <= 14."""
    r0, r1 = build_relations(p31)
    return TensorLieModel(p31.alphabet, r0 + r1, cutoff=13)


def test_free_lie_component_dims(p31):
    # without relations the engine builds the free super Lie algebra
    dims = LieModel(p31.alphabet, [], cutoff=5).dims()
    assert (dims[2], dims[4], dims[6]) == (3, 3, 9)


def test_free_lie_dims_oracle(p31):
    # the counting oracle sizes the free algebra from the tensor algebra's
    # Hilbert series
    for A, cutoff in [
        (p31.alphabet, 9),
        (Alphabet([("a", 1, 1), ("b", 1, 1)]), 7),
        (Alphabet([("a", 1, 1), ("b", 0, 2), ("c", 1, 3)]), 7),
    ]:
        dims = LieModel(A, [], cutoff).dims()
        free = free_lie_dims(A, cutoff + 1)
        assert [dims.get(w, 0) for w in range(1, cutoff + 2)] == free


def test_ideal_closure_dims(model31, oracle31):
    assert oracle31.ideal_dim(5) == 1
    assert oracle31.ideal_dim(6) == 3
    assert oracle31.ideal_dim(7) == 3
    for w in range(1, 15):
        assert model31.ideal_dim(w) == oracle31.ideal_dim(w), w


def test_dimension_ledger(model31, oracle31, p31):
    # dim(free) = dim(ideal) + dim(quotient) at every weight <= 12, with
    # the ideal closed in tensor coordinates
    free = free_lie_dims(p31.alphabet, 12)
    for w in range(2, 13):
        assert free[w - 1] == oracle31.ideal_dim(w) + model31.dim(w)


def test_quotient_dims_and_cumulative(model31):
    from symalg.presentation import dims_ym

    dims = dims_ym(3, 1, max_j=14)
    for w in range(1, 15):
        assert model31.dim(w) == dims[w - 1]
    cums = [sum(model31.dim(w) for w in range(2, l + 2)) for l in range(1, 8)]
    assert cums == [3, 4, 7, 9, 15, 21, 33]
    assert cums == [EXPECTED_CUMULATIVE_31[l] for l in range(1, 8)]


def test_l1_basis():
    p = preset(3, 1)
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff=1)
    assert {w: _names(m, w) for w in m.weights()} == {2: ["x1", "x2", "x3"]}


def test_reference_basis_reduces_independently(model31, p31):
    from symalg.linalg import Echelon, intvec

    for l in (5, 7):
        ech = Echelon()
        count = 0
        for tree in reference_basis_trees(l):
            poly = lie_expand(tree, p31.alphabet)
            coords = model31.project(poly)
            assert coords, f"reference element {tree} fell into the ideal"
            iv, _ = intvec(coords)
            shifted = {poly.weight() * 10**6 + k: v for k, v in iv.items()}
            if ech.insert(shifted) is not None:
                count += 1
        assert count == EXPECTED_CUMULATIVE_31[l]


def test_dependency_identities(model31, p31):
    for lhs, rhs in DEPENDENCY_IDENTITIES_31:
        assert model31.contains_ideal(
            lie_sum([(1, lhs)] + [(-c, tree) for c, tree in rhs], p31.alphabet))
        # each identity is a dependency, not a vanishing: its left side survives
        assert model31.project(lie_expand(lhs, p31.alphabet))


def test_project_and_membership(model31, p31):
    r0, r1 = build_relations(p31)
    assert model31.contains_ideal(r0[0])
    assert model31.contains_ideal(r1[0])
    coords = model31.project(lie_expand("x1", p31.alphabet))
    assert list(coords.values()) == [Fraction(1)]


def test_project_int_and_fraction_coefficients_agree(model31, p31):
    # an int coefficient is the same scalar as its Fraction, and a tree's
    # coefficient enters as an exact ratio, never by float division
    A = p31.alphabet
    cases = [
        [(1, ("x1", "x2"))],
        [(3, ("x2", "z1"))],
        # trees of two shapes at weight 6
        [(1, ("x1", ("x1", "x2"))), (1, ("z1", "z1"))],
        [(Fraction(1, 3), ("x1", ("x1", "x2"))), (Fraction(-1, 2), ("z1", "z1"))],
    ]
    for terms in cases:
        want = model31.project(lie_sum([(Fraction(c), t) for c, t in terms], A))
        assert want
        assert model31.project(lie_sum(terms, A)) == want
        # the same terms twice, each tree as a nested Lie element
        twice = lie_sum([(c, lie_expand(t, A)) for c, t in terms] * 2, A)
        assert model31.project(twice) == {k: 2 * v for k, v in want.items()}


def test_struct_antisymmetry(model31):
    # [b, b'] = -(-1)^(|b||b'|) [b', b] as quotient coordinates
    for (wu, iu, wv, iv) in [(2, 0, 2, 1), (2, 0, 3, 0), (3, 0, 3, 0), (2, 2, 4, 1)]:
        a = model31.struct(wu, iu, wv, iv)
        b = model31.struct(wv, iv, wu, iu)
        pu = wu & 1
        pv = wv & 1
        sign = -1 if not (pu and pv) else 1
        assert a == {k: sign * c for k, c in b.items()}


def test_export_struct_small():
    p = preset(3, 1)
    r0, r1 = build_relations(p)
    m2 = LieModel(p.alphabet, r0 + r1, cutoff=2)
    labels, parities, weights, brackets = m2.export_struct()
    assert labels == ["x1", "x2", "x3", "z1"]
    assert brackets == {}
    m1 = LieModel(p.alphabet, r0 + r1, cutoff=1)
    assert len(m1.export_struct()[0]) == 3


def _export_struct_by_weight_pairs(m):
    """export_struct as four nested loops over the pairs of weights and of
    their representatives, skipping the pairs with fi > fj: the oracle for
    the walk over flat positions."""
    offs = {}
    weights = []
    for w in m.weights():
        offs[w] = len(weights)
        weights += [w] * m.dim(w)
    labels = [name for w in m.weights() for name in _names(m, w)]
    parities = [w & 1 for w in weights]
    brackets = {}
    for wu in m.weights():
        for wv in m.weights():
            if wu + wv > m.max_weight:
                continue
            for i, _ in enumerate(m.reps[wu]):
                for j, _ in enumerate(m.reps[wv]):
                    fi = offs[wu] + i
                    fj = offs[wv] + j
                    if fi > fj:
                        continue
                    coords = m.struct(wu, i, wv, j)
                    if coords:
                        brackets[(fi, fj)] = {offs[wu + wv] + k: c for k, c in coords.items()}
    return labels, parities, weights, brackets


@pytest.mark.parametrize("case", ["31", "22", "41", "13", "33-generic-7"])
def test_export_struct_equals_the_weight_pair_loops(case):
    p, cutoff = {
        "31": (preset(3, 1), 13),
        "22": (preset(2, 2), 13),
        "41": (preset(4, 1), 11),
        "13": (preset(1, 3), 13),
        "33-generic-7": (_generic(3, 3, 7), 11),
    }[case]
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff=cutoff)
    got = m.export_struct()
    assert got == _export_struct_by_weight_pairs(m)
    assert got[3]


def test_tym_hat_generator_series(model31):
    got = tym_hat_generators(model31, 3, max_weight=10).counts()
    assert [got[w] for w in range(2, 11)] == [1, 1, 3, 1, 2, 1, 2, 1, 2]


def _generators(m, ideal, n, s, max_weight=None):
    return SubalgebraGenerators(m, *free_ideal(ideal, n, s), max_weight)


def test_tym_generator_series(model31):
    series = free_gen_series("tym", 3, 1, 9)
    got = _generators(model31, "tym", 3, 1, max_weight=9).counts()
    for w in range(2, 10):
        assert got.get(w, 0) == series[w], w


# (n, s, cutoff) per row of the table
CODIMENSION_CASES = {
    "tym-hat": [(3, 1, 13), (2, 2, 9), (4, 1, 9)],
    "tym": [(3, 1, 13), (2, 2, 9), (4, 1, 9)],
    "k1s": [(1, 3, 11), (1, 4, 11)],
}


@pytest.mark.parametrize("ideal, n, s, cutoff", [
    (ideal, *case) for ideal in FREE_IDEALS for case in CODIMENSION_CASES[ideal]])
def test_ideal_codimensions_match_the_table(model31, ideal, n, s, cutoff):
    # dim g_w - dim K_w, read off the engine for the row's seeds, is the
    # row's g/K in degree w: q, then 0; seeds that disagree with q fail
    if (n, s) == (3, 1):
        m = model31
    else:
        p = preset(n, s)
        r0, r1 = build_relations(p)
        m = LieModel(p.alphabet, r0 + r1, cutoff=cutoff)
    q, seeds = free_ideal(ideal, n, s)
    analysis = SubalgebraGenerators(m, q, seeds)
    for w in range(1, cutoff + 2):
        codim = m.dim(w) - len(analysis.k_basis.get(w, ()))
        assert codim == (q[w - 1] if w <= len(q) else 0), w


@pytest.mark.parametrize("s", [3, 4])
def test_k1s_seeds_generate_everything_above_weight_6(s):
    # K of k1s is declared full from weight len(q) + 1 = 7; the ideal its
    # seeds generate is already all of g there (g_7 = g_8 = 0 for n = 1,
    # and g_9, g_12 are spanned), so the declaration changes no count
    p = preset(1, s)
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff=11)
    q, seeds = free_ideal("k1s", 1, s)
    closure = SubalgebraGenerators(m, q + [0] * 6, seeds)
    codims = [m.dim(w) - len(closure.k_basis.get(w, ())) for w in range(1, 13)]
    assert codims == q + [0] * 6
    assert all(m.dim(w) for w in (9, 12))
    assert closure.counts() == SubalgebraGenerators(m, q, seeds).counts()


def test_tym30_weight4():
    p = preset(3, 0)
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff=7)
    got = _generators(m, "tym", 3, 0, max_weight=8).counts()
    assert got[4] == 3


def test_k13_generator_series():
    p = preset(1, 3)
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff=11)
    series = free_gen_series("k1s", 1, 3, 12)
    assert _generators(m, "k1s", 1, 3, max_weight=12).counts() == {
        w: series[w] for w in range(2, 13)}


def test_k13_below_the_seed_weight():
    # z1, z2 lie above a cutoff-1 truncation, so the [z1, z2] seed is zero
    p = preset(1, 3)
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff=1)
    assert _generators(m, "k1s", 1, 3, max_weight=2).counts() == {2: 0}


INTEGERS = st.integers(-3, 3)
RATIONALS = st.one_of(
    INTEGERS,
    st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2), Fraction(-5, 4)]),
)


@st.composite
def random_gamma(draw, n, s):
    """A nondegenerate (n, s) presentation with small random symmetric
    Gamma, integral or rational."""
    entries = draw(st.sampled_from([INTEGERS, RATIONALS]))
    gamma = []
    for _ in range(n):
        mat = [[0] * s for _ in range(s)]
        for a in range(s):
            for b in range(a, s):
                mat[a][b] = mat[b][a] = draw(entries)
        gamma.append(mat)
    p = SymPresentation(n, s, gamma)
    assume(check_nondegenerate(p)[0])
    return p


@pytest.mark.parametrize("n,s", [(3, 1), (2, 2), (3, 2), (4, 1), (2, 3)])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(data=st.data(), cutoff=st.sampled_from([8, 9]))
def test_dims_on_random_gamma(n, s, data, cutoff):
    # the dimensions depend only on (n, s): the closed form at every
    # weight, and the tensor-coordinate build's bases and ad columns at
    # the low weights it reaches quickly
    p = data.draw(random_gamma(n, s))
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff=cutoff)
    dims = dims_ym(p.n, p.s, max_j=cutoff + 1)
    assert [m.dim(w) for w in range(1, cutoff + 2)] == dims
    o = TensorLieModel(p.alphabet, r0 + r1, cutoff=5)
    assert _labels(m, o.reps) == o.labels()
    assert {c: rational(m.ad[c]) for c in o.ad} == o.ad


def test_ym20_engine_matches_formula():
    # the two-even-generator quotient is the three-dimensional Heisenberg
    # algebra: dims 2, 1 in weights 2, 4 and nothing else
    from symalg.presentation import dims_ym

    p = preset(2, 0)
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff=8)
    formula = dims_ym(2, 0, max_j=9)
    for j in range(1, 10):
        assert m.dim(j) == formula[j - 1]
    assert m.total_dim() == 3


def test_engine_rejects_parity_weight_mismatch():
    from symalg.tensor import Alphabet

    A = Alphabet([("a", 0, 1)])
    with pytest.raises(EngineError):
        LieModel(A, [], cutoff=3)


def test_empty_alphabet_is_the_zero_algebra():
    model = LieModel(Alphabet([]), [], cutoff=5)
    assert model.weights() == [] and model.total_dim() == 0
    assert all(model.dim(w) == 0 for w in range(7))
    assert model.project(lie_sum([], Alphabet([]))) == {}


def test_model_pickle_cache_roundtrip(tmp_path):
    from symalg.engine import load_or_build_model

    p = preset(2, 1)
    r0, r1 = build_relations(p)
    m1 = load_or_build_model(p.alphabet, r0 + r1, 5, tmp_path, "deadbeef")
    assert (tmp_path / "models" / "deadbeef-l5.pickle").is_file()
    m2 = load_or_build_model(p.alphabet, r0 + r1, 5, tmp_path, "deadbeef")
    assert m2.dims() == m1.dims()
    for w in m1.weights():
        assert _names(m2, w) == _names(m1, w)


class _OldRep:
    """The representative class `engine.Rep` of schemas 5 and 6: its bracket
    tree and the (weight, position) of its lower representative, and in
    schema 5 also its weight and parity.  It pickles under the name
    `symalg.engine.Rep`, which the engine no longer defines."""

    __module__ = "symalg.engine"
    __qualname__ = "Rep"
    __slots__ = ("label", "tail", "weight", "parity")


def _old_model_pickle(alphabet, relations, schema):
    model = LieModel(alphabet, relations, cutoff=5)
    if schema is None:
        del model.schema  # as pickled before the schema existed
    else:
        model.schema = schema
    if schema not in (5, 6):
        return pickle.dumps(model)
    reps = {}
    for w, keys in model.reps.items():
        reps[w] = []
        for i, key in enumerate(keys):
            r = _OldRep()
            r.label = model.label(w, i)
            r.tail = None if type(key) is str else key[1:]
            if schema == 5:
                r.weight, r.parity = w, w & 1
            reps[w].append(r)
    model.reps = reps
    if schema == 5:
        # schema 5 also memoized the rational brackets and the free dimensions
        model._struct_q = {}
        model._free_dims = free_lie_dims(alphabet, model.max_weight)
    # pickle resolves a class by its name, so the name must exist to write it
    with mock.patch.object(engine, "Rep", _OldRep, create=True):
        return pickle.dumps(model)


@pytest.mark.parametrize("content", ["garbage", "schemaless", "schema2", "schema3",
                                     "schema4", "schema5", "schema6", "foreign"])
def test_model_pickle_cache_rebuilds_unusable_pickle(tmp_path, content):
    from symalg.engine import MODEL_SCHEMA, load_or_build_model

    p = preset(2, 1)
    r0, r1 = build_relations(p)
    rels = r0 + r1
    path = tmp_path / "models" / "deadbeef-l5.pickle"
    path.parent.mkdir()
    path.write_bytes({
        "garbage": lambda: b"\x80\x04not a pickle",
        "schemaless": lambda: _old_model_pickle(p.alphabet, rels, None),
        "schema2": lambda: _old_model_pickle(p.alphabet, rels, 2),
        "schema3": lambda: _old_model_pickle(p.alphabet, rels, 3),
        "schema4": lambda: _old_model_pickle(p.alphabet, rels, 4),
        "schema5": lambda: _old_model_pickle(p.alphabet, rels, 5),
        "schema6": lambda: _old_model_pickle(p.alphabet, rels, 6),
        "foreign": lambda: pickle.dumps({"dims": {}}),
    }[content]())
    model = load_or_build_model(p.alphabet, rels, 5, tmp_path, "deadbeef")
    assert model.schema == MODEL_SCHEMA
    assert model.dims() == LieModel(p.alphabet, rels, cutoff=5).dims()
    # the unusable pickle was replaced atomically, with no temporary left
    assert list(path.parent.iterdir()) == [path]
    assert pickle.loads(path.read_bytes()).schema == MODEL_SCHEMA


def test_model_pickle_holds_builtins_and_four_classes(model31):
    # a representative is its candidate key, so the pickle names no class
    # of the package but these four: a new stored type is a MODEL_SCHEMA
    # decision
    seen = set()

    class Recording(pickle.Unpickler):
        def find_class(self, module, name):
            seen.add((module, name))
            return super().find_class(module, name)

    loaded = Recording(io.BytesIO(pickle.dumps(model31))).load()
    assert {c for c in seen if c[0] != "builtins"} == {
        ("symalg.engine", "LieModel"), ("symalg.linalg", "Echelon"),
        ("symalg.tensor", "Alphabet"), ("symalg.tensor", "Generator")}
    assert all(type(r) is str or type(r) is tuple for reps in loaded.reps.values()
               for r in reps)
    assert loaded.reps == model31.reps and _labels(loaded) == _labels(model31)


def test_model_pickle_write_is_atomic(monkeypatch, tmp_path):
    import symalg.cache as cache
    from symalg.engine import load_or_build_model

    p = preset(2, 1)
    r0, r1 = build_relations(p)
    path = tmp_path / "models" / "deadbeef-l5.pickle"
    path.parent.mkdir()
    path.write_bytes(b"old")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cache.os, "replace", fail)
    with pytest.raises(OSError):
        load_or_build_model(p.alphabet, r0 + r1, 5, tmp_path, "deadbeef")
    # the old bytes are intact and no temporary file is left
    assert list(path.parent.iterdir()) == [path]
    assert path.read_bytes() == b"old"


def _general_31():
    from symalg.presentation import SymPresentation

    return SymPresentation(3, 1, [[[1]], [[2]], [[-3]]])


def _relations(make):
    r0, r1 = build_relations(make())
    return make().alphabet, r0 + r1


def _semidirect():
    U, rho = semidirect_relation(3, 1)
    return U, [rho]


def _dependent_generators():
    # relations that make generators dependent: b = a, c = [a, e], d = 0
    A = Alphabet([("a", 0, 2), ("b", 0, 2), ("e", 0, 2), ("c", 0, 4), ("d", 1, 3)])
    rels = [lie_sum([(1, "b"), (-1, "a")], A),
            lie_sum([(1, "c"), (-1, ("a", "e"))], A),
            lie_expand("d", A)]
    return A, rels


@cache
def _has_tree(weights, w, depth):
    """Whether a bracket tree of weight w and depth <= depth exists over
    generators of the given weights."""
    return w in weights or depth > 0 and any(
        _has_tree(weights, u, depth - 1) and _has_tree(weights, w - u, depth - 1)
        for u in range(1, w))


def _tree(choose, A, w, depth):
    """A bracket tree of weight w and depth <= depth over A, which has one:
    `choose` picks a generator name or the weight of a left subtree."""
    names = [g.name for g in A.generators if g.weight == w]
    splits = [u for u in range(1, w) if depth > 0
              and _has_tree(A.weights, u, depth - 1)
              and _has_tree(A.weights, w - u, depth - 1)]
    pick = choose(names + splits)
    if isinstance(pick, str):
        return pick
    return (_tree(choose, A, pick, depth - 1), _tree(choose, A, w - pick, depth - 1))


def _random_case(seed):
    """A seeded alphabet of 2-4 generators of weights 1-3, parity = weight
    mod 2, listed in drawn order, and 0-3 relations, each one to three
    random bracket trees of one weight <= 6 with coefficients in +-1, +-2."""
    rng = random.Random(seed)
    weights = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
    A = Alphabet([(f"a{i}", w % 2, w) for i, w in enumerate(weights)])
    rels = []
    for _ in range(rng.randint(0, 3)):
        w = rng.choice([w for w in range(1, 7) if _has_tree(A.weights, w, 3)])
        rels.append(lie_sum([(rng.choice((-2, -1, 1, 2)), _tree(rng.choice, A, w, 3))
                             for _ in range(rng.randint(1, 3))], A))
    return A, rels


# seed: cutoff <= 9, at most about 3 000 tensor words at the top weight
RANDOM_CASES = {0: 9, 6: 7, 19: 8, 23: 9, 24: 7, 27: 9}

# alphabet and relations, cutoff: (3,1), (2,2), n = 1 cases
# `freegens --ideal k1s` accepts, (3,1) with general coefficients
# G = (1, 2, -3), the semidirect model U with its one relation, and
# relations that make generators dependent, and the seeded random cases
ORACLE_CASES = {
    "31": (lambda: _relations(lambda: preset(3, 1)), 13),
    "22": (lambda: _relations(lambda: preset(2, 2)), 10),
    "13": (lambda: _relations(lambda: preset(1, 3)), 11),
    "14": (lambda: _relations(lambda: preset(1, 4)), 9),
    "31-G(1,2,-3)": (lambda: _relations(_general_31), 11),
    "semidirect-31": (_semidirect, 9),
    "dependent-generators": (_dependent_generators, 9),
    **{f"random-{seed}": (lambda seed=seed: _random_case(seed), cutoff)
       for seed, cutoff in RANDOM_CASES.items()},
}


def test_random_cases_cover_the_left_out_rows():
    # the rows the step leaves out depend on the alphabet order and on
    # parity signs, and the mirrored and paired rows need their generators
    # kept: the seeds give odd generators, a weight shared by generators,
    # an order that disagrees with weight, 0-3 relations and a generator a
    # relation makes dependent
    cases = [_random_case(seed) for seed in RANDOM_CASES]
    assert any(any(A.parities) for A, _ in cases)
    assert any(len(set(A.weights)) < len(A.weights) for A, _ in cases)
    assert any(list(A.weights) != sorted(A.weights) for A, _ in cases)
    assert {len(rels) for _, rels in cases} == {0, 1, 2, 3}
    models = [LieModel(A, rels, RANDOM_CASES[seed])
              for seed, (A, rels) in zip(RANDOM_CASES, cases)]
    assert any(g.name not in _labels(m, [g.weight])[g.weight]
               for m in models for g in m.alphabet.generators)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_build_matches_tensor_oracle(case):
    # the same greedy representatives, every ad column, the generators'
    # coordinates and the ideal dimensions as the tensor-coordinate build
    make, cutoff = ORACLE_CASES[case]
    A, rels = make()
    m = LieModel(A, rels, cutoff)
    o = TensorLieModel(A, rels, cutoff)
    assert _labels(m) == o.labels()
    # the engine holds integer vectors (den, {position: int}); compare their
    # rational view
    assert {c: rational(v) for c, v in m.ad.items()} == o.ad
    for g in A.generators:
        if g.weight <= m.max_weight:
            assert rational(m.gen_coords[g.name]) == o.project(A.gen(g.name)), g.name
    for w in m.weights():
        assert m.ideal_dim(w) == o.ideal_dim(w), w


class _AllRows(LieModel):
    """The step with every super-antisymmetry and super-Jacobi row of the
    module docstring's list built, none left out."""

    def _implied(self, g, wb, ib, jacobi):
        return False


# presentation, cutoff
ALL_ROWS_CASES = {
    "31": (lambda: preset(3, 1), 13),
    "41": (lambda: preset(4, 1), 11),
    "22": (lambda: preset(2, 2), 11),
    "13": (lambda: preset(1, 3), 11),
    "33-generic-7": (lambda: _generic(3, 3, 7), 9),
}


@pytest.mark.parametrize("case", sorted(ALL_ROWS_CASES))
def test_left_out_rows_leave_the_model_unchanged(case):
    # the kernel's row space is the full row set's, so `solve` reads the
    # same reduced echelon: the same representatives and integer vectors
    make, cutoff = ALL_ROWS_CASES[case]
    p = make()
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff)
    full = _AllRows(p.alphabet, r0 + r1, cutoff)
    assert m.reps == full.reps
    assert _labels(m) == _labels(full)
    assert m.ad == full.ad
    assert m.gen_coords == full.gen_coords


def test_rows_handed_to_the_echelon(monkeypatch):
    # a deterministic work counter: the nonzero rows the (3,1) cutoff-13
    # build inserts, with the left-out rows and with every row
    inserts = []

    class Counting(Echelon):
        def insert(self, vec):
            inserts.append(vec)
            return super().insert(vec)

    monkeypatch.setattr(engine, "Echelon", Counting)
    p = preset(3, 1)
    r0, r1 = build_relations(p)
    LieModel(p.alphabet, r0 + r1, cutoff=13)
    assert len(inserts) == 534
    inserts.clear()
    _AllRows(p.alphabet, r0 + r1, cutoff=13)
    assert len(inserts) == 734


def test_dependent_generators_are_solved():
    # a generator a relation makes dependent is solved over the earlier
    # representatives rather than rejected; a generator that is kept
    # replaces the later bracket monomials it equals
    A, rels = _dependent_generators()
    m = LieModel(A, rels, cutoff=5)
    assert _names(m, 2) == ["a", "e"]
    assert rational(m.gen_coords["b"]) == {0: 1}
    assert m.dim(3) == 0 and rational(m.gen_coords["d"]) == {}
    assert _names(m, 4) == ["c"]
    assert m.project(lie_expand(("a", "e"), A)) == {0: 1}
    assert m.project(lie_expand(("b", "e"), A)) == {0: 1}
    assert m.project(lie_expand(("e", "d"), A)) == {}


# presentation, cutoff: (3,1), (2,2), an n = 1 case `freegens --ideal k1s`
# accepts, general coefficients G = (1, 2, -3) and the seeded generic (3,3)
# of `tests/golden/inputs/generic33-seed7.json`
STRUCT_CASES = {
    "31": (lambda: preset(3, 1), 11),
    "22": (lambda: preset(2, 2), 10),
    "13": (lambda: preset(1, 3), 11),
    "31-G(1,2,-3)": (_general_31, 11),
    "33-generic-7": (lambda: _generic(3, 3, 7), 9),
}


@pytest.mark.parametrize("case", sorted(STRUCT_CASES))
def test_struct_matches_tensor_oracle(case):
    # struct works in quotient coordinates only, and project evaluates the
    # bracket's tree; the oracle expands both representatives' labels in the
    # tensor algebra and projects the commutator in tensor coordinates
    make, cutoff = STRUCT_CASES[case]
    p = make()
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff=cutoff)
    o = TensorLieModel(p.alphabet, r0 + r1, cutoff=cutoff)
    polys = {(w, i): lie_expand(tree, p.alphabet)
             for w, trees in _labels(m).items() for i, tree in enumerate(trees)}
    pairs = [
        (wu, i, wv, j)
        for wu in m.weights()
        for wv in m.weights()
        if wu + wv <= m.max_weight
        for i in range(m.dim(wu))
        for j in range(m.dim(wv))
    ]
    oracle = {}
    values = []
    for wu, i, wv, j in pairs:
        # one tree whose two leaves are the representatives' Lie elements
        bracket = lie_expand((polys[(wu, i)], polys[(wv, j)]), p.alphabet)
        oracle[(wu, i, wv, j)] = o.project(bracket)
        assert m.struct(wu, i, wv, j) == oracle[(wu, i, wv, j)], (wu, i, wv, j)
        got = m.project(bracket)
        assert got == oracle[(wu, i, wv, j)], (wu, i, wv, j)
        values += m.struct(wu, i, wv, j).values()
        values += got.values()
    assert any(oracle.values())
    # super-antisymmetry: [b, a] = -(-1)^{|a||b|} [a, b]
    for wu, i, wv, j in pairs:
        odd = wu & 1 and wv & 1
        sign = 1 if odd else -1
        want = {k: sign * c for k, c in m.struct(wu, i, wv, j).items()}
        assert m.struct(wv, j, wu, i) == want
    # the exported table is the oracle's, over flat positions with i <= j
    offs = {}
    for w in m.weights():
        offs[w] = sum(m.dim(v) for v in m.weights() if v < w)
    table = {}
    for (wu, i, wv, j), coords in oracle.items():
        fi, fj = offs[wu] + i, offs[wv] + j
        if fi <= fj and coords:
            table[(fi, fj)] = {offs[wu + wv] + k: c for k, c in coords.items()}
    brackets = m.export_struct()[3]
    assert brackets == table
    # integral values leave the engine as ints, the others as Fractions
    values += [c for coords in brackets.values() for c in coords.values()]
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in values)
    if case == "31-G(1,2,-3)":
        assert any(type(c) is Fraction for c in values)


@pytest.mark.parametrize("case", ["31", "31-G(1,1/2,-3/2)", "semidirect-31"])
def test_struct_holds_quotient_positions_only(case):
    # while weight w is built, its brackets are over the keys of the
    # candidate columns (generators and symbols g (x) b_k); none of them
    # may reach `_struct`, which is pickled and backs `struct`, and the
    # step's key table goes with the step
    A, rels = {
        "31": lambda: _relations(lambda: preset(3, 1)),
        "31-G(1,1/2,-3/2)": lambda: _relations(
            lambda: SymPresentation(3, 1, [[[1]], [[Fraction(1, 2)]], [[Fraction(-3, 2)]]])),
        "semidirect-31": _semidirect,
    }[case]()
    m = LieModel(A, rels, cutoff=9)
    assert m._struct and not hasattr(m, "_open") and not hasattr(m, "_cols")
    m.export_struct()
    for (wu, _, wv, _), (d, v) in m._struct.items():
        assert type(d) is int and d > 0
        assert all(type(k) is int and 0 <= k < m.dim(wu + wv) for k in v)


@pytest.mark.parametrize("case", ["31", "33-generic-7"])
def test_open_step_vectors_are_keyed_by_column(monkeypatch, case):
    # at the weight being built, every vector `bracket` and `_ad` return is
    # over the candidate-column keys -k, ints <= 0, never over generator
    # names or (generator, weight, position) symbols
    p = {"31": lambda: preset(3, 1), "33-generic-7": lambda: _generic(3, 3, 7)}[case]()
    r0, r1 = build_relations(p)
    seen = []
    bracket, ad = LieModel.bracket, LieModel._ad

    def spy_bracket(self, wu, iu, wv, iv):
        out = bracket(self, wu, iu, wv, iv)
        if wu + wv not in self.reps and wu + wv <= self.max_weight:
            seen.append(out[1])
        return out

    def spy_ad(self, g, wl, vec, built):
        out = ad(self, g, wl, vec, built)
        if not built:
            seen.append(out[1])
        return out

    monkeypatch.setattr(LieModel, "bracket", spy_bracket)
    monkeypatch.setattr(LieModel, "_ad", spy_ad)
    LieModel(p.alphabet, r0 + r1, cutoff=9)
    assert any(seen)
    assert all(type(k) is int and k <= 0 for v in seen for k in v)


def test_free_generators_general_coefficients():
    # G = (1, 2, -3) gives brackets over denominators > 1, whose numerators
    # the analysis spans; the counts still follow the closed-form series
    p = _general_31()
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff=11)
    hat = tym_hat_generators(m, 3, max_weight=12).counts()
    assert any(d > 1 for d, _ in m._struct.values())
    series = free_gen_series("tym-hat", 3, 1, 12)
    assert hat == {w: series[w] for w in range(2, 13)}
    series = free_gen_series("tym", 3, 1, 12)
    assert _generators(m, "tym", 3, 1, max_weight=12).counts() == {
        w: series[w] for w in range(2, 13)}
    # n = 1 with a non-diagonal G^1: the [K, K] rows combine brackets over
    # different denominators
    p = SymPresentation(1, 3, [[[1, 1, 0], [1, 2, 1], [0, 1, -3]]])
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff=11)
    series = free_gen_series("k1s", 1, 3, 12)
    assert _generators(m, "k1s", 1, 3, max_weight=12).counts() == {
        w: series[w] for w in range(2, 13)}


def test_free_generators_max_weight_zero(model31):
    # max_weight 0 asks for no weight at all, not for the model's range
    assert tym_hat_generators(model31, 3, max_weight=0).counts() == {}


def _generic(n, s, seed):
    """G^1 = 1 and symmetric G^2..G^n with entries drawn from -3..3."""
    rng = random.Random(seed)
    gamma = [[[int(a == b) for b in range(s)] for a in range(s)]]
    for _ in range(n - 1):
        m = [[0] * s for _ in range(s)]
        for a in range(s):
            for b in range(a, s):
                m[a][b] = m[b][a] = rng.randint(-3, 3)
        gamma.append(m)
    return SymPresentation(n, s, gamma)


# (presentation, cutoff): every preset some row of FREE_IDEALS accepts,
# seeded generic Gamma, and the general coefficients above
GENERATOR_ORACLE_CASES = {
    "31": (lambda: preset(3, 1), 13),
    "22": (lambda: preset(2, 2), 11),
    "41": (lambda: preset(4, 1), 9),
    "32": (lambda: preset(3, 2), 11),
    "33": (lambda: preset(3, 3), 11),
    "13": (lambda: preset(1, 3), 11),
    "14": (lambda: preset(1, 4), 11),
    "30": (lambda: preset(3, 0), 11),
    "32-generic-7": (lambda: _generic(3, 2, 7), 11),
    "33-generic-7": (lambda: _generic(3, 3, 7), 11),
    "31-G(1,2,-3)": (_general_31, 11),
    "13-G1-nondiagonal": (
        lambda: SymPresentation(1, 3, [[[1, 1, 0], [1, 2, 1], [0, 1, -3]]]), 11),
}


@pytest.mark.parametrize("case", sorted(GENERATOR_ORACLE_CASES))
def test_generators_match_all_pairs_oracle(model31, case):
    # the annihilator recursion counts what the former route counts: K_w
    # against the span of the brackets of every pair of K's basis elements
    make, cutoff = GENERATOR_ORACLE_CASES[case]
    p = make()
    if case == "31":
        m = model31
    else:
        r0, r1 = build_relations(p)
        m = LieModel(p.alphabet, r0 + r1, cutoff=cutoff)
    ideals = [ideal for ideal, (_, holds, _) in FREE_IDEALS.items() if holds(p.n, p.s)]
    assert ideals
    for ideal in ideals:
        q, seeds = free_ideal(ideal, p.n, p.s)
        got = SubalgebraGenerators(m, q, seeds).counts()
        assert got == oracle_counts(m, q, seeds), ideal
        assert sorted(got) == m.weights()


@st.composite
def bracket_tree(draw, A, w, depth):
    """A bracket tree of weight w and depth <= depth over A, which has one."""
    return _tree(lambda options: draw(st.sampled_from(options)), A, w, depth)


@st.composite
def lie_terms(draw, A, max_weight, depth=4):
    """One to three (nonzero rational coefficient, bracket tree) terms of
    one weight <= max_weight, each tree of depth <= depth."""
    w = draw(st.sampled_from([w for w in range(1, max_weight + 1)
                              if _has_tree(A.weights, w, depth)]))
    return draw(st.lists(st.tuples(RATIONALS.filter(bool), bracket_tree(A, w, depth)),
                         min_size=1, max_size=3))


@pytest.fixture(scope="module")
def generic33():
    """The engine and the tensor-coordinate oracle on the seeded generic
    (3,3) presentation of the golden inputs, weights <= 10."""
    p = _generic(3, 3, 7)
    r0, r1 = build_relations(p)
    return LieModel(p.alphabet, r0 + r1, cutoff=9), TensorLieModel(p.alphabet, r0 + r1, cutoff=9)


def test_project_matches_oracle_on_random_lie_combinations(model31, oracle31, generic33):
    # combinations of bracket trees (depth <= 4, nonzero rational
    # coefficients, mixing x-trees and z-trees within a weight) over the
    # (3,1) preset and the seeded generic (3,3) alphabets: the engine
    # evaluates the trees and the oracle reduces the expanded tensor words.
    # Most draws must project nonzero, or the comparison says little
    nonzero = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(data=st.data())
    def check(data):
        m, o = data.draw(st.sampled_from([(model31, oracle31), generic33]))
        elem = lie_sum(data.draw(lie_terms(m.alphabet, o.max_weight)), m.alphabet)
        got = m.project(elem)
        assert got == o.project(elem)
        nonzero.append(bool(got))

    check()
    assert sum(nonzero) >= len(nonzero) / 2


@pytest.mark.parametrize("word, lie_part", [
    (("x1", "x2"), None),
    (("x1", "x1"), None),
    (("z1", "x1", "x1"), None),
    # a Lie part with its trees does not make the sum a Lie element
    (("x1", "x2", "x3"), ("z1", "z1")),
])
def test_project_rejects_non_lie_words(model31, p31, word, lie_part):
    # a Poly carries no bracket trees, so the engine refuses it
    A = p31.alphabet
    poly = A.poly({tuple(A.index(n) for n in word): Fraction(1)})
    if lie_part:
        poly = poly + lie_expand(lie_part, A)
    with pytest.raises(EngineError, match="bracket trees"):
        model31.project(poly)
    with pytest.raises(EngineError, match="bracket trees"):
        model31.contains_ideal(poly)


def test_a_poly_without_trees_is_refused(model31, p31):
    # refused even where it is a Lie element or zero; as the leaf of a
    # tree it is refused by lie_sum, so a LieElement is Lie by construction
    A = p31.alphabet
    commutator = super_commutator(A.gen("x1"), A.gen("x2"))
    for poly in (commutator, A.zero()):
        for query in (model31.project, model31.contains_ideal,
                      lambda q: LieModel(A, [q], cutoff=5)):
            with pytest.raises(EngineError, match="bracket trees"):
                query(poly)
    with pytest.raises(ValueError, match="malformed bracket tree"):
        lie_sum([(1, ("x3", commutator))], A)


def test_non_lie_relation_rejected(p31):
    A = p31.alphabet
    with pytest.raises(EngineError, match="bracket trees"):
        LieModel(A, [A.gen("x1") * A.gen("x2")], cutoff=3)


def test_zero_lie_elements_evaluate_to_zero(model31, p31):
    # a zero element, as a relation, as a query and as a leaf of a tree
    A = p31.alphabet
    zero = lie_sum([(1, ("x1", "x1"))], A)
    assert zero.is_zero() and zero.trees == ()
    r0, r1 = build_relations(p31)
    assert LieModel(A, r0 + r1 + [zero], cutoff=7).dims() == LieModel(A, r0 + r1, cutoff=7).dims()
    assert model31.project(zero) == {} and model31.contains_ideal(zero)
    elem = lie_sum([(1, ("x2", zero)), (2, (("x1", zero), "z1")), (1, ("x1", "x2"))], A)
    assert elem.trees == ((1, ("x1", "x2")),)
    assert model31.project(elem) == model31.project(lie_expand(("x1", "x2"), A))


def test_basis_report_shape(model31):
    from symalg.engine import basis_report

    records = basis_report(model31)
    assert records[0] == {"weight": 2, "dim": 3, "basis": ["x1", "x2", "x3"]}
    assert records[2]["basis"][0] == ["x1", "x2"]


def test_heis_relation_model():
    # the quotient defining the 2r+t+1 dimensional Heisenberg algebra
    from symalg.semidirect import semidirect_relation

    U, rho = semidirect_relation(3, 1)  # q2,q3,p2,p3,w1 with one relation
    m = LieModel(U, [rho], cutoff=5)
    # weight 4 holds p2, p3 and [q2,q3]; the relation first bites at weight 6
    assert m.dim(2) == 2 and m.dim(3) == 1 and m.dim(4) == 3
    assert m.ideal_dim(6) == 1
