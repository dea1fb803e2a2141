"""Clifford-Weyl normal-form arithmetic."""

import random
from fractions import Fraction
from math import comb, factorial

from symalg.cliffordweyl import CWAlgebra
from symalg.superlie import heis


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
    assert A.gen("z") == A.unit()
    assert A.gen("q1") == A.gen("q", 1)


def test_letters_satisfy_the_heis_relations():
    # x y - (-1)^(|x||y|) y x = [x, y] at z = 1, for every ordered pair of
    # heis basis elements (z included), both orders of each pair
    for r, t in [(1, 0), (0, 3), (2, 2), (1, 5)]:
        g, A = heis(r, t), CWAlgebra(r, t)
        z = g.index("z")
        for i in range(g.dim):
            for j in range(g.dim):
                x, y = A.gen(g.names[i]), A.gen(g.names[j])
                sign = -1 if g.parities[i] and g.parities[j] else 1
                expected = A.unit().scale(g.bracket(i, j).get(z, 0))
                assert x * y - (y * x).scale(sign) == expected, (r, t, i, j)


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


def test_weyl_powers_closed_formula():
    # p^m q^k = sum_j (-1)^j j! C(m, j) C(k, j) q^(k-j) p^(m-j), on the
    # second Weyl pair of an algebra with other letters around it
    A = CWAlgebra(2, 1)
    q, p = A.gen("q", 2), A.gen("p", 2)

    def power(x, e):
        out = A.unit()
        for _ in range(e):
            out = out * x
        return out

    for m in range(5):
        for k in range(5):
            expected = A.zero()
            for j in range(min(m, k) + 1):
                coef = (-1) ** j * factorial(j) * comb(m, j) * comb(k, j)
                expected = expected + (power(q, k - j) * power(p, m - j)).scale(coef)
            assert power(p, m) * power(q, k) == expected, (m, k)
            assert len((power(q, k) * power(p, m)).terms) == 1
