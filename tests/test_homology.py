"""Chevalley-Eilenberg homology with trivial coefficients."""

import random
from itertools import combinations, combinations_with_replacement

import pytest
from basis_change import scramble

from symalg.engine import LieModel
from symalg.homology import ce_check_d_squared, ce_homology, wedge_basis
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
