"""The Clifford-Weyl surjection pipeline on truncated quotients."""

import pytest

from symalg import LieModel, SymPresentation, build_relations, preset, surjection
from symalg.engine import rational
from symalg.linalg import Echelon, intvec
from symalg.presentation import normalize
from symalg.superlie import FinDimSuperLieAlgebra, functional_from_json, heis, weight_of
from symalg.surjection import (
    SurjectionError,
    build_cw_surjection,
    check_input,
    model_cutoff,
    plan_assignment,
    reach,
)
from symalg.tensor import bracket_word_name


@pytest.fixture(scope="module")
def models():
    """Lie models of the presets, built once per (n, s, cutoff)."""
    built = {}

    def get(n, s, cutoff):
        if (n, s, cutoff) not in built:
            p = preset(n, s)
            r0, r1 = build_relations(p)
            built[(n, s, cutoff)] = LieModel(p.alphabet, r0 + r1, cutoff=cutoff)
        return built[(n, s, cutoff)]

    return get


def full_theta(p, r, t, l, model):
    """The reference: theta solved by elimination at every weight up to
    l + 1, with no weight skipped.  Each weight's rows are the bracket pairs
    [coords | image], sparsest first, then the pinned classes and the unit
    vectors the echelon does not yet span, in order; theta(b_j) is read
    off the reduced row with pivot j."""
    pinned, slots, _, l = check_input(p, r, t, l)
    target = heis(r, t)
    pos2 = {model.label(2, j): j for j in range(model.dim(2))}
    needs = {}
    for w, name in slots:
        needs.setdefault(w, []).append(name)

    def basis(w):
        if w == 2:
            return [j for lbl, j in pos2.items() if lbl not in ("x1", "x2")]
        return range(model.dim(w))

    theta = {}
    weights = [w for w in sorted(model.reps) if w <= l + 1]
    for w in weights:
        ncols = model.dim(w)

        def row(coords, image):
            out = dict(coords)
            out.update((ncols + k, c) for k, c in image.items())
            return intvec(out)[0]

        rows = [row(model.struct(wu, iu, w - wu, iv),
                    target.bracket_vec(theta[(wu, iu)], theta[(w - wu, iv)]))
                for wu in weights if 2 * wu <= w
                for iu in basis(wu) for iv in basis(w - wu)
                if wu < w - wu or iu <= iv]
        ech = Echelon()
        for vec in sorted((vec for vec in rows if vec), key=len):
            ech.insert(vec)
        assert max(ech.rows, default=-1) < ncols
        if w == 4:
            for name, (a, b) in pinned.items():
                ech.insert(row(model.struct(2, pos2[a], 2, pos2[b]),
                               {target.index(name): 1}))
        names = list(needs.get(w, ()))
        for j in basis(w):
            residual, _ = ech.reduce({j: 1})
            if residual and min(residual) < ncols:
                image = {target.index(names.pop(0)): 1} if names else {}
                ech.insert(row({j: 1}, image))
        assert not names
        ech.full_reduce()
        for j in basis(w):
            vec = ech.rows[j]
            theta[(w, j)] = rational((vec[j], {k - ncols: x for k, x in vec.items()
                                               if k >= ncols}))
    return theta


# (n, s), (r, t), l: l = 15 reaches two weights above 2 d' = 14 on (3,1)
FULL_SOLVE_TARGETS = [
    ((3, 1), (1, 1), 15), ((3, 1), (0, 2), 15), ((3, 1), (1, 0), 15),
    ((3, 1), (2, 0), 15),
    ((3, 2), (1, 2), 13), ((3, 2), (0, 3), 13), ((3, 2), (1, 1), 13),
    ((4, 1), (1, 1), 13), ((4, 1), (0, 2), 13), ((4, 1), (2, 1), 13),
]


@pytest.mark.parametrize("ns, rt, l", FULL_SOLVE_TARGETS, ids=[
    f"{n}{s}-r{r}t{t}-l{l}" for (n, s), (r, t), l in FULL_SOLVE_TARGETS])
def test_theta_matches_full_solve(models, ns, rt, l):
    # theta solved only on R, from a model at the minimum cutoff, equals
    # the full solve on a model at cutoff l at every weight up to l + 1
    p = preset(*ns)
    d_prime = plan_assignment(*ns, *rt)[2]
    res = build_cw_surjection(p, *rt, l=l, model=models(*ns, model_cutoff(d_prime)))
    ref = full_theta(p, *rt, l, models(*ns, l))
    assert set(res.theta) <= set(ref)
    assert {key: res.theta.get(key, {}) for key in ref} == ref
    assert res.ok, res.flags


def test_supplied_model_needs_the_minimum_cutoff(model31, p31):
    # the model only has to reach 2 d' - 1, not l: (1,1) has d' = 7, so a
    # cutoff-13 model serves l = 15; (2,0) has d' = 8 and needs cutoff 15
    assert build_cw_surjection(p31, 1, 1, l=15, model=model31).ok
    with pytest.raises(SurjectionError,
                       match="supplied model has cutoff 13, below the minimum 15"):
        build_cw_surjection(p31, 2, 0, model=model31)


def test_skipped_weights_recheck_catches_a_three_step_target(monkeypatch, models, p31):
    # theta = 0 outside R rests on heis being two-step nilpotent.  With
    # [z, c] = c the target is not: [c, theta(b_8)] is a nonzero multiple
    # of c at weight 15, outside R, so bracket_compatible must fail there
    def three_step(r, t):
        g = heis(r, t)
        z, c = g.index("z"), g.index("c")
        # [z, c] = c breaks heis's weights, so the algebra carries none
        return FinDimSuperLieAlgebra(g.names, g.parities,
                                     {**g.table, (z, c): {c: 1}})

    monkeypatch.setattr("symalg.surjection.heis", three_step)
    res = build_cw_surjection(p31, 1, 1, l=15, model=models(3, 1, 15))
    assert res.flags["bracket_compatible"] is False


@pytest.mark.parametrize("ns, rt", [((3, 1), (0, 2)), ((3, 0), (1, 0))])
def test_weight_of_the_reported_functional(models, ns, rt):
    # a second route to the weight: the reported functional, 0 on x1 and
    # x2, on the whole truncated quotient, through weight_of
    p = preset(*ns)
    model = models(*ns, model_cutoff(plan_assignment(*ns, *rt)[2]))
    res = build_cw_surjection(p, *rt, model=model)
    g = FinDimSuperLieAlgebra.from_model(model)
    # from_model lists the basis weight by weight, in the model's order
    keys = [f"w{w}#{j}" for w in model.weights() for j in range(model.dim(w))]
    name = dict(zip(keys, g.names))
    f = functional_from_json(g, {name[key]: value
                                 for key, value in res.functional["support"].items()})
    assert weight_of(g, f) == res.weight


def test_a_corrupted_theta_in_r_fails_the_certificate(monkeypatch, models, p31):
    # theta(b) + z at a weight w of R, for some b = [x3, b'] with b' in the
    # ideal: z is central, so no bracket image and no check outside R
    # changes; only the re-check of the pair rows at w sees it
    pinned, slots, d_prime = plan_assignment(3, 1, 1, 1)
    model = models(3, 1, model_cutoff(d_prime))
    w = max(reach(pinned, slots))
    x3 = [model.label(2, j) for j in range(model.dim(2))].index("x3")
    j = next(min(c) for i in range(model.dim(w - 2))
             if (c := model.struct(2, x3, w - 2, i)))
    z = heis(1, 1).index("z")

    class Corrupted(dict):
        def __setitem__(self, key, value):
            if key == (w, j):
                value = {**value, z: value.get(z, 0) + 1}
            super().__setitem__(key, value)

    class Result(surjection.CWSurjectionResult):
        def __init__(self):
            super().__init__()
            self.theta = Corrupted()

    assert build_cw_surjection(p31, 1, 1, model=model).ok
    monkeypatch.setattr(surjection, "CWSurjectionResult", Result)
    res = build_cw_surjection(p31, 1, 1, model=model)
    assert res.theta[(w, j)][z] != 0
    assert res.flags["bracket_compatible"] is False


def test_plan_assignment_31():
    pinned, slots, d = plan_assignment(3, 1, 1, 1)
    assert pinned == {"p1": ("x1", "x3"), "q1": ("x2", "x3")}
    assert slots == [(6, "z"), (7, "c")]
    assert d == 7
    pinned0, slots0, d0 = plan_assignment(3, 1, 0, 2)
    assert pinned0 == {}
    assert dict(slots0) == {5: "a1", 7: "b1", 6: "z"}
    assert d0 == 7


def test_plan_rejects_out_of_range():
    with pytest.raises(SurjectionError):
        plan_assignment(3, 1, 0, 1)
    with pytest.raises(SurjectionError):
        plan_assignment(2, 1, 1, 1)
    with pytest.raises(SurjectionError):
        plan_assignment(3, 0, 1, 1)
    with pytest.raises(SurjectionError, match="require s >= 1"):
        plan_assignment(3, 0, 0, 2)


def test_cutoff_floor():
    from symalg.presentation import preset

    with pytest.raises(SurjectionError):
        build_cw_surjection(preset(3, 1), 1, 1, l=5)


def test_requires_normalized_presentation():
    from symalg.presentation import SymPresentation

    p = SymPresentation(3, 1, [[[2]], [[0]], [[0]]])
    with pytest.raises(SurjectionError):
        build_cw_surjection(p, 1, 1)


def test_surjection_31_11(model31, p31):
    res = build_cw_surjection(p31, 1, 1, l=13, model=model31)
    assert (res.weight.weyl, res.weight.clifford) == (3, 1)
    assert res.ok, res.flags
    assert res.d_prime == 7


def test_surjection_31_02(model31, p31):
    res = build_cw_surjection(p31, 0, 2, l=13, model=model31)
    assert (res.weight.weyl, res.weight.clifford) == (2, 2)
    assert res.ok, res.flags


class _TamperedModel:
    """A Lie model whose bracket of one pair of representatives reads
    `value` (0 by default)."""

    def __init__(self, model, pair, value=None):
        self._model = model
        self._pair = pair
        self._value = value or {}

    def __getattr__(self, name):
        return getattr(self._model, name)

    def struct(self, *pair):
        return self._value if pair == self._pair else self._model.struct(*pair)


def test_inconsistent_bracket_rows_raise(model31, p31):
    # [x1,x3] -> p1 and [x2,x3] -> q1 force their bracket onto [p1,q1] = -z;
    # declaring that bracket zero gives the row [0 | -z], whose pivot sits
    # on an image column
    from symalg.tensor import lie_expand

    A = p31.alphabet
    (i,), (k,) = (model31.project(lie_expand((x, "x3"), A)) for x in ("x1", "x2"))
    model = _TamperedModel(model31, (4, min(i, k), 4, max(i, k)))
    with pytest.raises(SurjectionError, match="not a morphism at weight 8"):
        build_cw_surjection(p31, 1, 1, l=13, model=model)


def test_pinned_class_in_the_bracket_span_raises(model31, p31):
    # weight 4 has one bracket pair, [x3,x3] = 0; reading it as the class of
    # [x1,x3] puts the pinned class of p1 in the span of the bracket rows
    from symalg.tensor import lie_expand

    A = p31.alphabet
    p1 = model31.project(lie_expand(("x1", "x3"), A))
    x3 = [bracket_word_name(model31.label(2, j)) for j in range(model31.dim(2))].index("x3")
    model = _TamperedModel(model31, (2, x3, 2, x3), p1)
    with pytest.raises(SurjectionError, match="pinned target p1 is dependent"):
        build_cw_surjection(p31, 1, 1, l=13, model=model)


def test_generator_shortage_raises():
    # (4,1), (r,t) = (1,1): the odd target c takes the one free generator of
    # weight 7, [x2,[x2,z1]].  [z1,[x3,x4]] lies in the span of the other
    # weight-7 brackets [x3,[x4,z1]] and [x4,[x3,z1]]; reading it as that
    # generator leaves weight 7 without one
    from symalg import LieModel, build_relations, preset

    p = preset(4, 1)
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff=13)
    pos = {w: [bracket_word_name(m.label(w, i)) for i in range(m.dim(w))] for w in (3, 4, 7)}
    pair = (3, pos[3].index("z1"), 4, pos[4].index("[x3,x4]"))
    model = _TamperedModel(m, pair, {pos[7].index("[x2,[x2,z1]]"): 1})
    with pytest.raises(SurjectionError,
                       match=r"generator shortage at weight 7: unassigned \['c'\]"):
        build_cw_surjection(p, 1, 1, l=13, model=model)
    assert build_cw_surjection(p, 1, 1, l=13, model=m).ok


def test_plan_larger_r_spills_to_higher_slots():
    # (r,t) = (2,1): z and q2 fill the two weight-6 slots, p2 moves to
    # weight 8, so the odd target lands at weight 9
    _, slots, d = plan_assignment(3, 1, 2, 1)
    assert slots == [(6, "z"), (6, "q2"), (8, "p2"), (9, "c")]
    assert d == 9


def test_report_shape(model31, p31):
    res = build_cw_surjection(p31, 1, 1, l=13, model=model31)
    doc = res.report()
    assert doc["weight"] == {"weyl": 3, "clifford": 1}
    assert set(doc["flags"]) == {
        "bracket_compatible", "flzero", "surjective", "stabilizer_trivial",
    }
    assert "z" in doc["phi"] and "c" in doc["phi"]


def test_surjection_32_multiple_odd_slots():
    # s = 2 gives two odd generator slots per odd weight
    from symalg.presentation import preset

    p = preset(3, 2)
    res = build_cw_surjection(p, 0, 2, l=11)
    assert (res.weight.weyl, res.weight.clifford) == (2, 2)
    assert res.ok
    res2 = build_cw_surjection(p, 1, 2, l=13)
    assert (res2.weight.weyl, res2.weight.clifford) == (3, 2)
    assert res2.ok


def test_normalize_then_surject():
    # a rescaled coupling normalizes to the canonical form and runs
    p = SymPresentation(3, 1, [[[4]], [[0]], [[0]]])
    q, record = normalize(p)
    assert record["odd_change"] == [["1/2"]]
    res = build_cw_surjection(q, 0, 2, l=13)
    assert (res.weight.weyl, res.weight.clifford) == (2, 2)
    assert res.ok


def _with_first_matrix(n, s, m1):
    gamma = [m1] + [[[0] * s for _ in range(s)] for _ in range(n - 1)]
    return SymPresentation(n, s, gamma)


@pytest.mark.parametrize("p, r, t, weight", [
    (_with_first_matrix(3, 1, [[4]]), 1, 1, (3, 1)),
    (SymPresentation(3, 1, [[[9]], [[2]], [[-3]]]), 1, 1, (3, 1)),
    (_with_first_matrix(3, 2, [[1, 1], [1, 2]]), 1, 2, (3, 2)),
], ids=["31-rescaled", "31-general", "32-gram-schmidt"])
def test_normalize_keeps_what_the_pipeline_computes(models, p, r, t, weight):
    # normalize changes only the odd basis: the Lie dimensions stay those
    # of p and of the preset, and the normalized copy reaches the weight
    # (r + 2, t) that p itself is refused for
    def dims(pres):
        r0, r1 = build_relations(pres)
        return LieModel(pres.alphabet, r0 + r1, cutoff=11).dims()

    q, _ = normalize(p)
    assert dims(p) == dims(q) == models(p.n, p.s, 11).dims()
    res = build_cw_surjection(q, r, t)
    assert (res.weight.weyl, res.weight.clifford) == weight
    assert res.ok and all(res.flags.values()), res.flags
    with pytest.raises(SurjectionError, match="normalize first"):
        build_cw_surjection(p, r, t)


def test_surjection_general_coefficients():
    # G = (1, 2, -3): theta takes non-integral values, so it is read off
    # reduced rows whose pivot entry is not 1
    p = SymPresentation(3, 1, [[[1]], [[2]], [[-3]]])
    res = build_cw_surjection(p, 1, 1, l=13)
    assert (res.weight.weyl, res.weight.clifford) == (3, 1)
    assert res.ok, res.flags
    support = res.functional["support"]
    assert support["w14#129"] == "-117/16" and support["w14#139"] == "1/16"


def test_surjection_default_cutoff(models, p31):
    # the safe default cutoff 2 d' + 1 gives the same weight, and the
    # default model at cutoff 2 d' - 1 = 13 the same report as one at l = 15
    res = build_cw_surjection(p31, 1, 1)
    assert res.l == 15
    assert (res.weight.weyl, res.weight.clifford) == (3, 1)
    assert res.ok
    assert res.report() == build_cw_surjection(p31, 1, 1, model=models(3, 1, 15)).report()


def test_remark_coverage_22_smoke():
    # for the two-even-generator family the scan reaches Weyl index >= 4
    # together with Clifford index >= 3
    from fractions import Fraction

    from symalg.engine import LieModel
    from symalg.presentation import build_relations, preset
    from symalg.superlie import FinDimSuperLieAlgebra, weight_of

    p = preset(2, 2)
    r0, r1 = build_relations(p)
    m = LieModel(p.alphabet, r0 + r1, cutoff=11)
    g = FinDimSuperLieAlgebra.from_model(m)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107]
    f = {i: Fraction(primes[k % len(primes)]) for k, i in enumerate(g.even_indices())}
    w = weight_of(g, f)
    assert w.weyl >= 4 and w.clifford >= 3


@pytest.mark.parametrize("n, r, weyl", [(3, 1, 3), (3, 2, 4), (4, 1, 3)])
def test_yang_mills_surjection(n, r, weyl):
    # s = 0, the Yang-Mills algebras: no odd slots, so t = 0 only; the
    # pipeline reaches A_{r+2} with every flag, and on (3,0) the map is the
    # one of the (3,1) run at t = 0, which uses only even slots
    res = build_cw_surjection(preset(n, 0), r, 0)
    assert (res.weight.weyl, res.weight.clifford) == (weyl, 0)
    assert res.ok and set(res.flags) == {
        "bracket_compatible", "flzero", "surjective", "stabilizer_trivial"}
    if (n, r) == (3, 1):
        assert res.phi == build_cw_surjection(preset(3, 1), 1, 0).phi
