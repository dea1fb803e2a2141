"""Chevalley-Eilenberg homology with trivial coefficients."""

import random

import pytest
from basis_change import scramble

from symalg.engine import LieModel
from symalg.homology import ce_check_d_squared, ce_homology
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
