"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything is exact; the only tolerances are the
stated runtime targets, asserted generously.
"""

import random
import time
from fractions import Fraction

import pytest
from basis_change import scramble

from symalg import (
    AssocModel,
    FinDimSuperLieAlgebra,
    LieModel,
    build_cw_surjection,
    build_relations,
    ce_check_d_squared,
    ce_homology,
    dims_ym,
    even_functional,
    heis,
    hilbert_series_YM,
    preset,
    quartic_form,
    superpotential,
    susy_derivations,
    weight_of,
)
from symalg.freegens import SubalgebraGenerators, tym_hat_generators
from symalg.linalg import Echelon, intvec
from symalg.presentation import SymPresentation, free_gen_series, free_ideal
from symalg.refdata import (
    DEPENDENCY_IDENTITIES_31,
    EXPECTED_CUMULATIVE_31,
    reference_basis_trees,
)
from symalg.resolution import SidedResolution, verify_resolution
from symalg.tensor import (
    Alphabet,
    ODD,
    Poly,
    cyclic_derivative,
    lie_expand,
    lie_sum,
    super_commutator,
)

KNOWN_DIMS_31 = [0, 3, 1, 3, 2, 6, 6, 12, 15, 33, 42, 77, 114, 213, 314, 555,
                 876, 1540, 2460, 4242]


def _report(num, label, elapsed):
    print(f"ACCEPTANCE {num:02d} {label}: PASS ({elapsed:.1f}s)")


def test_criterion_01_dimension_table(model31):
    t0 = time.time()
    assert dims_ym(3, 1, max_j=20) == KNOWN_DIMS_31
    for j in range(1, 13):
        assert model31.dim(j) == KNOWN_DIMS_31[j - 1], j
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(1, "dimension table (formula + engine, j <= 12)", elapsed)


def test_criterion_02_reference_bases(model31, p31):
    t0 = time.time()
    cums = [sum(model31.dim(w) for w in range(2, l + 2)) for l in range(1, 8)]
    assert cums == [3, 4, 7, 9, 15, 21, 33]
    assert cums == [EXPECTED_CUMULATIVE_31[l] for l in range(1, 8)]
    for l in (5, 7):
        ech = Echelon()
        count = 0
        for tree in reference_basis_trees(l):
            poly = lie_expand(tree, p31.alphabet)
            coords = model31.project(poly)
            assert coords
            iv, _ = intvec(coords)
            shifted = {poly.weight() * 10**6 + k: v for k, v in iv.items()}
            if ech.insert(shifted) is not None:
                count += 1
        assert count == EXPECTED_CUMULATIVE_31[l]
    for lhs, rhs in DEPENDENCY_IDENTITIES_31:
        assert model31.contains_ideal(
            lie_sum([(1, lhs)] + [(-c, tree) for c, tree in rhs], p31.alphabet))
    _report(2, "explicit truncation bases and dependency identities", time.time() - t0)


def test_criterion_03_hilbert_identity(assoc31, p31):
    t0 = time.time()
    ser = hilbert_series_YM(3, 1, order=12)
    for w in range(13):
        assert assoc31.dim(w) == ser[w]
    res = SidedResolution(assoc31, p31, "left")
    for w in range(13):
        d0, d1, d2, d3 = res.degrees(w)
        assert d0 - d1 + d2 - d3 == (1 if w == 0 else 0)
    _report(3, "Hilbert identity (engine dims + per-weight Euler)", time.time() - t0)


def test_criterion_04_resolutions(assoc31, p31, assoc22, p22):
    t0 = time.time()
    for model, pres, tag in ((assoc31, p31, "(3,1)"), (assoc22, p22, "(2,2)")):
        out = verify_resolution(model, pres, 14)
        for side in ("left", "right"):
            for rep in out[side]:
                assert rep.ok, (tag, side, rep.weight, rep.checks)
    _report(4, "resolution complexes exact to weight 14, both sides", time.time() - t0)


def test_criterion_05_superpotential(p31):
    t0 = time.time()
    rng = random.Random(20260808)
    cases = [p31]
    for _ in range(10):
        g = [[[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
             for _ in range(3)]
        for m in g:
            m[0][1] = m[1][0]
        cases.append(SymPresentation(3, 2, g))
    for p in cases:
        r0, r1 = build_relations(p)
        W = superpotential(p)
        for i in range(p.n):
            assert cyclic_derivative(W, f"x{i+1}") == r0[i]
        for a in range(p.s):
            assert cyclic_derivative(W, f"z{a+1}") == r1[a]
        acc = p.alphabet.zero()
        for i in range(p.n):
            acc = acc + super_commutator(p.alphabet.gen(f"x{i+1}"), r0[i])
        for a in range(p.s):
            acc = acc + super_commutator(p.alphabet.gen(f"z{a+1}"), r1[a])
        assert acc.is_zero()
    _report(5, "superpotential derivatives and omega identity (11 cases)", time.time() - t0)


def test_criterion_06_susy_both_directions(assoc31, p31, minkowski32):
    t0 = time.time()
    # negative direction: canonical (3,1), quartic nonzero
    _, qzero = quartic_form(p31)
    assert not qzero
    from symalg.presentation import GammaTilde

    companion = GammaTilde(3, 1, [[[1]], [[0]], [[0]]])
    dW = susy_derivations(p31, companion)[0](superpotential(p31))
    names31 = ["x1", "x2", "x3", "z1"]
    assert not all(
        assoc31.contains(cyclic_derivative(dW, nm)) for nm in names31
    )
    # positive direction: equivariant fixture with vanishing quartic form
    _, qzero2 = quartic_form(minkowski32)
    assert qzero2
    r0, r1 = build_relations(minkowski32)
    model = AssocModel(minkowski32.alphabet, r0 + r1, max_weight=9)
    W = superpotential(minkowski32)
    for d in susy_derivations(minkowski32):
        dWf = d(W)
        for nm in ["x1", "x2", "x3", "z1", "z2"]:
            assert model.contains(cyclic_derivative(dWf, nm)), nm
    _report(6, "susy criterion, both directions", time.time() - t0)


def test_criterion_07_free_generator_series(model31):
    t0 = time.time()
    hat = tym_hat_generators(model31, 3, max_weight=10).counts()
    series = free_gen_series("tym-hat", 3, 1, 10)
    assert [hat[w] for w in range(2, 11)] == series[2:]
    assert [hat[w] for w in range(2, 11)] == [1, 1, 3, 1, 2, 1, 2, 1, 2]
    p13 = preset(1, 3)
    r0, r1 = build_relations(p13)
    m13 = LieModel(p13.alphabet, r0 + r1, cutoff=11)
    k13 = SubalgebraGenerators(m13, *free_ideal("k1s", 1, 3), max_weight=12).counts()
    ser13 = free_gen_series("k1s", 1, 3, 12)
    for w in range(2, 13):
        assert k13.get(w, 0) == ser13[w], w
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(7, "free-generator series (hat ideal and k(1,3))", elapsed)


def test_criterion_08_diamond_lemma_fixture():
    t0 = time.time()
    A = Alphabet([("z1", ODD, 3), ("z2", ODD, 3)])
    z1, z2 = A.gen("z1"), A.gen("z2")
    fm = AssocModel(A, [z1 * z1 + z2 * z2, z1 * z2 + z2 * z1], max_weight=18)
    for w in range(1, 19):
        assert fm.dim(w) == (2 if w % 3 == 0 else 0)
    for k in range(1, 7):
        names = [A.word_name(u) for u in fm.normal[3 * k]]
        assert names == ["*".join(["z1"] + ["z2"] * (k - 1)), "*".join(["z2"] * k)]

    def pw(*gens):
        return Poly(A, {tuple(A.index(g) for g in gens): Fraction(1)})

    for b in range(4):
        for bp in range(4):
            if 3 * (1 + b + bp) > 18:
                continue
            lhs = fm.normal_form(pw(*(["z2"] * b + ["z1"] + ["z2"] * bp)))
            rhs = fm.normal_form(pw(*(["z1"] + ["z2"] * (b + bp)))).scale((-1) ** b)
            assert lhs == rhs
    _report(8, "rewriting fixture: dims, normal words, sign law", time.time() - t0)


def test_criterion_09_ce_homology():
    t0 = time.time()
    h11 = FinDimSuperLieAlgebra(["w1"], [1], {}, [3])
    assert ce_homology(h11, 4) == {k: 1 for k in range(5)}
    rng = random.Random(424242)
    p = preset(3, 1)
    r0, r1 = build_relations(p)
    seeds = [
        heis(1, 1), heis(0, 2), heis(2, 1), heis(1, 3),
        FinDimSuperLieAlgebra.from_model(LieModel(p.alphabet, r0 + r1, cutoff=4)),
    ]
    checked = 0
    for base in seeds:
        for _ in range(4):
            _, g = scramble(base, rng)
            assert ce_check_d_squared(g, 3)
            checked += 1
    assert checked == 20
    _report(9, "CE homology of the odd line and d^2 = 0 on 20 algebras", time.time() - t0)


def test_criterion_10_dixmier_weights():
    t0 = time.time()
    for (r, t) in [(0, 1), (0, 2), (1, 1), (2, 3)]:
        g = heis(r, t)
        w = weight_of(g, even_functional(g, {"z": 1}))
        assert (w.weyl, w.clifford) == (r, t)
    p12 = preset(1, 2)
    r0, r1 = build_relations(p12)
    g12 = FinDimSuperLieAlgebra.from_model(LieModel(p12.alphabet, r0 + r1, cutoff=5))
    evens = g12.even_indices()
    seen = set()
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                f = {i: Fraction(v) for i, v in zip(evens, (a, b, c)) if v}
                w = weight_of(g12, f)
                seen.add((w.weyl, w.clifford))
    assert seen == {(0, 0), (0, 2)}
    # rank reasoning on the two-parameter odd block [[-b, c], [c, b]]
    i1, i2 = g12.index("[z1,z1]"), g12.index("[z1,z2]")
    for (b, c) in [(1, 0), (0, 1), (3, -2), (7, 5)]:
        assert weight_of(g12, {i1: Fraction(b), i2: Fraction(c)}).clifford == 2
    _report(10, "Kirillov weights: Heisenberg family and the (1,2) quotient", time.time() - t0)


def test_criterion_11_cw_surjection_pipeline(model31, p31):
    t0 = time.time()
    # minimal admissible cutoff for the planned assignment: 2 d' - 1 = 13
    res = build_cw_surjection(p31, 1, 1, l=13, model=model31)
    assert (res.weight.weyl, res.weight.clifford) == (3, 1)
    assert res.flags["surjective"] and res.flags["flzero"]
    assert res.flags["bracket_compatible"] and res.flags["stabilizer_trivial"]
    res2 = build_cw_surjection(p31, 0, 2, l=13, model=model31)
    assert (res2.weight.weyl, res2.weight.clifford) == (2, 2)
    assert res2.ok, res2.flags
    with pytest.raises(Exception):
        build_cw_surjection(p31, 0, 1)
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(11, "Clifford-Weyl surjection pipeline at minimal cutoff", elapsed)
