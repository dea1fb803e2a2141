"""Clifford-Weyl normal-form arithmetic."""

import random
from fractions import Fraction

from symalg.cliffordweyl import CWAlgebra


def test_weyl_convention():
    A = CWAlgebra(1, 0)
    q, p = A.gen("q", 1), A.gen("p", 1)
    assert p * q - q * p == A.unit().scale(-1)
    assert q * p - p * q == A.unit()


def test_clifford_relations():
    A = CWAlgebra(0, 3)
    a, b, c = A.gen("a", 1), A.gen("b", 1), A.gen("c")
    assert a * b + b * a == A.unit()
    assert a * a == A.zero()
    assert b * b == A.zero()
    assert c * c == A.unit().scale(Fraction(1, 2))
    assert a * c + c * a == A.zero()


def test_unit_neutral():
    A = CWAlgebra(2, 1)
    for g in [A.gen("q", 2), A.gen("p", 1), A.gen("c")]:
        assert A.unit() * g == g
        assert g * A.unit() == g


def test_central_quotient():
    A = CWAlgebra(1, 1)
    assert A.from_heis_name("z") == A.unit()


def _random_element(A, gens, rng):
    e = A.zero()
    for _ in range(3):
        t = A.unit()
        for _ in range(rng.randint(1, 3)):
            t = t * gens[rng.randrange(len(gens))]
        e = e + t.scale(rng.randint(-3, 3))
    return e


def test_associativity_random():
    rng = random.Random(11)
    A = CWAlgebra(2, 3)
    gens = [
        A.gen("q", 1), A.gen("q", 2), A.gen("p", 1), A.gen("p", 2),
        A.gen("a", 1), A.gen("b", 1), A.gen("c"),
    ]
    for _ in range(20):
        x, y, z = (_random_element(A, gens, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_pbw_monomials_are_normal_forms():
    A = CWAlgebra(1, 2)
    m = A.gen("a", 1) * A.gen("b", 1) * A.gen("q", 1) * A.gen("p", 1)
    assert len(m.terms) == 1
    ((mono, coeff),) = m.terms.items()
    assert coeff == 1
    assert m.mono_name(mono) == "a1*b1*q1*p1"


def test_weyl_powers():
    # p q^3 = q^3 p - 3 q^2
    A = CWAlgebra(1, 0)
    q, p = A.gen("q", 1), A.gen("p", 1)
    q3 = q * q * q
    assert p * q3 == q3 * p - (q * q).scale(3)
