"""Chevalley-Eilenberg homology with trivial coefficients."""

import json
import random
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest
from basis_change import scramble
from hypothesis import given, settings
from hypothesis import strategies as st

from symalg.engine import LieModel
from symalg.homology import (
    _insert,
    ce_check_d_squared,
    ce_differential,
    ce_homology,
    wedge_basis,
)
from symalg.presentation import build_relations, preset
from symalg.superlie import FinDimSuperLieAlgebra, SuperLieError, heis


def test_one_odd_generator_all_degrees():
    g = FinDimSuperLieAlgebra(["w1"], [1], {}, [3])
    H = ce_homology(g, 4)
    assert H == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}


def test_abelian_even_line():
    g = FinDimSuperLieAlgebra(["x"], [0], {}, [2])
    assert ce_homology(g, 3) == {0: 1, 1: 1, 2: 0, 3: 0}


def test_truncated_quotient_h1_counts_generators():
    p = preset(3, 1)
    r0, r1 = build_relations(p)
    for cutoff in (2, 4):
        m = LieModel(p.alphabet, r0 + r1, cutoff=cutoff)
        g = FinDimSuperLieAlgebra.from_model(m)
        H = ce_homology(g, 1, weight_max=3)
        assert H[0] == {0: 1}
        assert H[1] == {2: 3, 3: 1}


def test_heisenberg_h1():
    g = heis(1, 0)  # q, p, z with [q,p] = z
    H = ce_homology(g, 2)
    assert H[0] == 1 and H[1] == 2


def test_truncated_31_homology_to_degree_four():
    # below the cutoff, H_k of the (3,1) truncation sits in the weights of
    # the length-three resolution's terms: 3t^2 + t^3, t^5 + 3t^6, t^8
    p = preset(3, 1)
    r0, r1 = build_relations(p)
    g = FinDimSuperLieAlgebra.from_model(LieModel(p.alphabet, r0 + r1, cutoff=14))
    assert ce_homology(g, 4, weight_max=14) == {
        0: {0: 1}, 1: {2: 3, 3: 1}, 2: {5: 1, 6: 3}, 3: {8: 1}, 4: {}}


def test_ce_differential_keeps_integral_constants_as_ints():
    # the (3,1) cutoff-8 truncation stores ints and halves; no half enters
    # d of a degree-3 wedge of weight <= 8
    doc = json.loads((Path(__file__).resolve().parent / "golden" / "inputs"
                      / "ym31-l8.json").read_text())
    g = FinDimSuperLieAlgebra.from_json(doc)
    values = [c for wedge in wedge_basis(g, 3, 8) for c in ce_differential(g, wedge).values()]
    assert len(values) == 44
    assert all(type(c) is int for c in values)


def test_d_squared_on_twenty_random_algebras():
    rng = random.Random(77)
    p = preset(3, 1)
    r0, r1 = build_relations(p)
    seeds = [
        heis(1, 1),
        heis(0, 2),
        heis(2, 1),
        heis(1, 3),
        FinDimSuperLieAlgebra.from_model(LieModel(p.alphabet, r0 + r1, cutoff=4)),
    ]
    count = 0
    for base in seeds:
        for _ in range(4):
            _, gs = scramble(base, rng)
            assert ce_check_d_squared(gs, 3)
            count += 1
    assert count == 20


def test_weights_must_grade_the_brackets():
    # heis's weights do not grade a random basis: such an algebra is
    # refused, and a scramble carries no weights, so ce_homology with
    # weight_max reads it ungraded.  The third scramble from this seed
    # once ended in a KeyError at degree 2
    rng = random.Random(5)
    gs = [scramble(heis(r, t), rng)[1] for r, t in [(1, 1), (0, 2), (2, 1)]][2]
    g = heis(2, 1)
    assert gs.weights is None
    with pytest.raises(SuperLieError, match="violates the weights"):
        FinDimSuperLieAlgebra(gs.names, gs.parities, gs.table, g.weights)
    assert ce_homology(gs, 3, weight_max=9) == ce_homology(g, 3)


def _filtered_wedges(g, k, weight_max):
    """Every wedge of degree k, then those of weight <= weight_max."""
    ev, od = g.even_indices(), g.odd_indices()
    return [(e, o) for ne in range(min(k, len(ev)), -1, -1)
            for e in combinations(ev, ne) for o in combinations_with_replacement(od, k - ne)
            if sum(g.weights[i] for i in e + o) <= weight_max]


def test_weight_pruned_wedges_equal_the_filtered_enumeration():
    # wedge_basis prunes while it enumerates; the wedges and their order
    # are those of filtering the full enumeration, also for weights <= 0
    p = preset(3, 1)
    r0, r1 = build_relations(p)
    cases = [(FinDimSuperLieAlgebra.from_model(LieModel(p.alphabet, r0 + r1, cutoff=8)), 8)]
    signed = FinDimSuperLieAlgebra(list("abcdefg"), [0, 1, 0, 1, 1, 0, 1], {},
                                   [-2, 0, 1, 3, -1, 2, 0])
    cases += [(signed, bound) for bound in (-3, 0, 2, 4)]
    for g, bound in cases:
        for k in range(6):
            assert wedge_basis(g, k, bound) == _filtered_wedges(g, k, bound), (bound, k)


# -- the signed insertion against the full sort it replaced


def _canonical(g, factors, coeff):
    """Sort a wedge into (evens ascending, odds ascending) with Koszul signs.

    factors: list of basis indices.  Returns (key, coeff) or None if zero
    (repeated even factor).
    """
    fs = list(factors)
    # insertion sort tracking the sign: swapping adjacent u, v costs
    # -(-1)^(|u||v|)
    for i in range(1, len(fs)):
        j = i
        while j > 0 and _order_key(g, fs[j - 1]) > _order_key(g, fs[j]):
            pu, pv = g.parities[fs[j - 1]], g.parities[fs[j]]
            coeff = coeff if (pu and pv) else -coeff
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            j -= 1
    esub = tuple(i for i in fs if g.parities[i] == 0)
    osub = tuple(i for i in fs if g.parities[i] == 1)
    for a, b in zip(esub, esub[1:]):
        if a == b:
            return None
    return (esub, osub), coeff


def _order_key(g, i):
    # evens before odds, then by index: matches wedge_basis enumeration
    return (g.parities[i], i)


@st.composite
def _wedge_and_factor(draw):
    """Random parities, a basis wedge of up to five factors and a factor."""
    parities = draw(st.lists(st.integers(0, 1), min_size=1, max_size=8))
    g = FinDimSuperLieAlgebra([f"e{i}" for i in range(len(parities))], parities, {})
    ev, od = g.even_indices(), g.odd_indices()
    esub = tuple(sorted(draw(st.sets(st.sampled_from(ev), max_size=3)) if ev else ()))
    osub = tuple(sorted(draw(st.lists(st.sampled_from(od), max_size=3)) if od else ()))
    return g, (esub, osub), draw(st.integers(0, g.dim - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_wedge_and_factor(), st.integers(-3, 3).filter(bool))
def test_insert_matches_the_full_sort(case, coeff):
    # the factors of a basis wedge are already sorted, so placing one more
    # factor is one pass: the key, the sign and the zero (a repeated even
    # factor) are those of sorting the whole wedge with its Koszul signs
    g, (esub, osub), y = case
    assert _insert(g, y, (esub, osub), coeff) == _canonical(g, [y, *esub, *osub], coeff)
