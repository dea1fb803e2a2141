"""Core tensor algebra: commutators, bracket trees, cyclic derivatives,
derivations, Koszul sign coherence."""

import random
from fractions import Fraction

import pytest
from tensor_oracle import random_poly, words_of_weight

from symalg.tensor import (
    Alphabet,
    Derivation,
    cyclic_derivative,
    lie_expand,
    lie_sum,
    super_commutator,
    sym_alphabet,
)


@pytest.fixture
def A():
    return sym_alphabet(3, 1)


def gen(A, name):
    return A.gen(name)


def test_commutator_even_even(A):
    x1, x2 = gen(A, "x1"), gen(A, "x2")
    assert super_commutator(x1, x2) == x1 * x2 - x2 * x1


def test_commutator_odd_odd_sign(A):
    z1 = gen(A, "z1")
    assert super_commutator(z1, z1) == (z1 * z1).scale(2)


def test_commutator_even_odd(A):
    x1, z1 = gen(A, "x1"), gen(A, "z1")
    assert super_commutator(x1, z1) == x1 * z1 - z1 * x1


def test_commutator_rejects_mixed_parity(A):
    mixed = gen(A, "x1") + gen(A, "z1")
    with pytest.raises(ValueError):
        super_commutator(mixed, gen(A, "x1")).parity()


def test_lie_expand_nested(A):
    got = lie_expand(("x2", ("x2", "x1")), A)
    x1, x2 = gen(A, "x1"), gen(A, "x2")
    want = x2 * x2 * x1 - (x2 * x1 * x2).scale(2) + x1 * x2 * x2
    assert got == want


def test_lie_expand_leaf_and_square(A):
    assert lie_expand("x1", A) == gen(A, "x1")
    z1 = gen(A, "z1")
    assert lie_expand(("z1", "z1"), A) == (z1 * z1).scale(2)


def test_super_antisymmetry_random(A):
    rng = random.Random(5)
    for _ in range(20):
        wu = rng.choice([2, 3, 4, 5])
        wv = rng.choice([2, 3, 4])
        u = random_poly(A, wu, rng)
        v = random_poly(A, wv, rng)
        if u.is_zero() or v.is_zero():
            continue
        sign = -1 if (u.parity() and v.parity()) else 1
        lhs = super_commutator(u, v)
        rhs = super_commutator(v, u).scale(-sign)
        assert lhs == rhs


def test_super_jacobi_random(A):
    # [u,[v,w]] = [[u,v],w] + (-1)^(|u||v|) [v,[u,w]]
    rng = random.Random(9)
    for _ in range(15):
        u = random_poly(A, rng.choice([2, 3]), rng, terms=2)
        v = random_poly(A, rng.choice([2, 3]), rng, terms=2)
        w = random_poly(A, rng.choice([2, 3, 4]), rng, terms=2)
        if u.is_zero() or v.is_zero() or w.is_zero():
            continue
        sign = -1 if (u.parity() and v.parity()) else 1
        lhs = super_commutator(u, super_commutator(v, w))
        rhs = super_commutator(super_commutator(u, v), w) + super_commutator(
            v, super_commutator(u, w)
        ).scale(sign)
        assert lhs == rhs


def test_cyclic_derivative_single_letter(A):
    assert cyclic_derivative(gen(A, "x1"), "x1") == A.unit()
    assert cyclic_derivative(gen(A, "x1"), "x2") == A.zero()


def test_cyclic_derivative_odd_cube(A):
    z1 = gen(A, "z1")
    assert cyclic_derivative(z1 * z1 * z1, "z1") == (z1 * z1).scale(3)


def test_cyclic_derivative_rotation_invariance(A):
    # d(uv)/dg = (-1)^(|u||v|) d(vu)/dg for parity-homogeneous u, v
    rng = random.Random(21)
    for _ in range(20):
        u = random_poly(A, rng.choice([2, 3, 4]), rng, terms=2)
        v = random_poly(A, rng.choice([2, 3, 5]), rng, terms=2)
        if u.is_zero() or v.is_zero():
            continue
        sign = -1 if (u.parity() and v.parity()) else 1
        for g in ("x1", "x2", "z1"):
            lhs = cyclic_derivative(u * v, g)
            rhs = cyclic_derivative((v * u).scale(sign), g)
            assert lhs == rhs, g


def test_lie_sum_values_follow_the_ratio_convention(A):
    got = lie_sum([(Fraction(1, 2), ("z1", "z1")), (Fraction(1, 2), ("z1", "z1")),
                   (Fraction(2, 3), ("x1", "x2")), (1, ("x2", "x1")),
                   (0, ("x3", "z1"))], A)
    want = (lie_expand(("z1", "z1"), A)
            + lie_expand(("x1", "x2"), A).scale(Fraction(-1, 3)))
    assert got == want
    z1, x1, x2 = (A.index(g) for g in ("z1", "x1", "x2"))
    assert type(got.terms[(z1, z1)]) is int
    assert type(got.terms[(x1, x2)]) is Fraction
    assert lie_sum([(1, ("x1", "x2")), (1, ("x2", "x1"))], A).is_zero()


def test_derivation_euler(A):
    # identity-like derivation x -> x, z -> z counts letters
    d = Derivation(
        A, {g.name: A.gen(g.name) for g in A.generators}, 0
    )
    x1, x2 = gen(A, "x1"), gen(A, "x2")
    assert d(x1 * x2) == (x1 * x2).scale(2)


def test_derivation_leibniz_square(A):
    z1 = gen(A, "z1")
    d = Derivation(A, {"x1": z1, "x2": A.zero(), "x3": A.zero(), "z1": A.zero()}, 1)
    x1 = gen(A, "x1")
    # d(x1 x1) = d(x1) x1 + x1 d(x1), |d||x1| sign is +
    assert d(x1 * x1) == z1 * x1 + x1 * z1


def test_odd_derivation_on_odd_square():
    # d odd with d(z1) = 1: the signed Leibniz rule gives
    # d(z1 z1) = 1*z1 + (-1)^(1*1) z1*1 = 0 (computed by hand from the rule)
    A = Alphabet([("z1", 1, 3)])
    d = Derivation(A, {"z1": A.unit()}, 1)
    z1 = A.gen("z1")
    assert d(z1 * z1) == A.zero()


def test_derivation_bracket_compatibility(A):
    # d([u,v]) = [d(u),v] + (-1)^(|d||u|) [u,d(v)]
    rng = random.Random(33)
    z1 = gen(A, "z1")
    d = Derivation(
        A,
        {"x1": z1, "x2": z1.scale(2), "x3": A.zero(),
         "z1": super_commutator(gen(A, "x1"), gen(A, "x2"))},
        1,
    )
    for _ in range(15):
        u = random_poly(A, rng.choice([2, 3]), rng, terms=2)
        v = random_poly(A, rng.choice([2, 3, 4]), rng, terms=2)
        if u.is_zero() or v.is_zero():
            continue
        sign = -1 if u.parity() else 1
        lhs = d(super_commutator(u, v))
        rhs = super_commutator(d(u), v) + super_commutator(u, d(v)).scale(sign)
        assert lhs == rhs


def test_derivation_rejects_bad_parity(A):
    with pytest.raises(ValueError):
        Derivation(A, {"x1": gen(A, "x2")}, 1)


def test_derivation_rejects_mixed_degree(A):
    imgs = {"x1": gen(A, "z1"), "x2": super_commutator(gen(A, "x1"), gen(A, "z1"))}
    with pytest.raises(ValueError):
        Derivation(A, imgs, 1)


def test_monomial_order_is_graded_colex(A):
    words = words_of_weight(A, 6)
    assert words == sorted(words, key=lambda u: tuple(reversed(u)))
    # weight-homogeneous enumeration covers the expected count: T(t)=1/(1-3t^2-t^3)
    assert [len(words_of_weight(A, w)) for w in range(0, 8)] == [1, 0, 3, 1, 9, 6, 28, 27]


def test_poly_weight_parity_queries(A):
    p = lie_expand(("x1", ("x2", "z1")), A)
    assert p.weight() == 7
    assert p.parity() == 1
    with pytest.raises(ValueError):
        (gen(A, "x1") + gen(A, "z1")).weight()
