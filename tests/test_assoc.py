"""Associative quotient: dimensions against the closed-form series, normal
forms, the two-odd-generator rewriting fixture, susy ideal membership."""

from fractions import Fraction

import pytest
from tensor_oracle import words_of_weight

from symalg.assoc import AssocModel
from symalg.presentation import build_relations, hilbert_series_YM
from symalg.susy import quartic_form, superpotential, susy_derivations
from symalg.tensor import ODD, Alphabet, Poly, cyclic_derivative


def test_dims_match_series(assoc31):
    ser = hilbert_series_YM(3, 1, order=14)
    for w in range(15):
        assert assoc31.dim(w) == ser[w]


def test_dims_match_series_22(assoc22):
    ser = hilbert_series_YM(2, 2, order=14)
    for w in range(15):
        assert assoc22.dim(w) == ser[w]


def test_low_weights_no_ideal(assoc31, p31):
    for w in range(5):
        assert assoc31.dim(w) == len(words_of_weight(p31.alphabet, w))


def test_relations_have_zero_normal_form(assoc31, p31):
    r0, r1 = build_relations(p31)
    for r in r0 + r1:
        assert assoc31.contains(r)
    assert assoc31.contains(p31.alphabet.zero())


def test_normal_form_identity_on_generators(assoc31, p31):
    x1 = p31.alphabet.gen("x1")
    assert assoc31.normal_form(x1) == x1


def test_normal_form_idempotent_linear(assoc31, p31):
    import random

    from tensor_oracle import random_poly

    rng = random.Random(4)
    for _ in range(10):
        u = random_poly(p31.alphabet, rng.choice([5, 6, 7]), rng)
        v = random_poly(p31.alphabet, rng.choice([5, 6, 7]), rng)
        nu = assoc31.normal_form(u)
        assert assoc31.normal_form(nu) == nu
        if u.weight() == v.weight() and u.weight() is not None:
            assert assoc31.normal_form(u + v) == assoc31.normal_form(u) + assoc31.normal_form(v)


@pytest.fixture(scope="module")
def fixture_quotient():
    A = Alphabet([("z1", ODD, 3), ("z2", ODD, 3)])
    z1, z2 = A.gen("z1"), A.gen("z2")
    rels = [z1 * z1 + z2 * z2, z1 * z2 + z2 * z1]
    return A, AssocModel(A, rels, max_weight=18)


def pw(A, *gens):
    word = tuple(A.index(g) for g in gens)
    return Poly(A, {word: Fraction(1)})


def test_fixture_dimension_two(fixture_quotient):
    A, fm = fixture_quotient
    for w in range(3, 19, 3):
        assert fm.dim(w) == 2, w
    for w in range(1, 19):
        if w % 3:
            assert fm.dim(w) == 0


def test_fixture_normal_words(fixture_quotient):
    A, fm = fixture_quotient
    for k in range(1, 7):
        names = [A.word_name(u) for u in fm.normal[3 * k]]
        z2s = "*".join(["z2"] * k)
        z1z2 = "*".join(["z1"] + ["z2"] * (k - 1))
        assert names == [z1z2, z2s]


def test_fixture_sign_law(fixture_quotient):
    # z2^b z1 z2^b' = (-1)^b z1 z2^(b+b')
    A, fm = fixture_quotient
    for b in range(4):
        for bp in range(4):
            if 3 * (1 + b + bp) > 18:
                continue
            lhs = fm.normal_form(pw(A, *(["z2"] * b + ["z1"] + ["z2"] * bp)))
            rhs = fm.normal_form(pw(A, *(["z1"] + ["z2"] * (b + bp)))).scale((-1) ** b)
            assert lhs == rhs


def test_fixture_second_law(fixture_quotient):
    # z1 z2^b z1 z2^b' = (-1)^(b+1) z2^(b+b'+2): the sign follows from
    # z1 z1 = -z2 z2, moving the inner z1 left across b letters
    A, fm = fixture_quotient
    for b in range(3):
        for bp in range(3):
            if 3 * (2 + b + bp) > 18:
                continue
            lhs = fm.normal_form(pw(A, *(["z1"] + ["z2"] * b + ["z1"] + ["z2"] * bp)))
            rhs = fm.normal_form(pw(A, *(["z2"] * (b + bp + 2)))).scale((-1) ** (b + 1))
            assert lhs == rhs


def test_susy_membership_negative_direction(assoc31, p31):
    # nonzero quartic: some cyclic derivative of d(W) escapes the ideal
    _, qzero = quartic_form(p31)
    assert not qzero
    # companion with G~^1 = (G^1)^(-1), zero where singular
    gt = [[[1]], [[0]], [[0]]]
    dW = susy_derivations(p31, gt)[0](superpotential(p31))
    names = ["x1", "x2", "x3", "z1"]
    results = [assoc31.contains(cyclic_derivative(dW, nm)) for nm in names]
    assert not all(results)


def test_susy_membership_positive_direction(minkowski32):
    _, qzero = quartic_form(minkowski32)
    assert qzero
    r0, r1 = build_relations(minkowski32)
    model = AssocModel(minkowski32.alphabet, r0 + r1, max_weight=9)
    W = superpotential(minkowski32)
    for d in susy_derivations(minkowski32):
        dW = d(W)
        for nm in ["x1", "x2", "x3", "z1", "z2"]:
            assert model.contains(cyclic_derivative(dW, nm)), nm


def test_overweight_rejected(assoc31, p31):
    word = Poly(p31.alphabet, {(0,) * 8: Fraction(1)})  # weight 16 > 14
    with pytest.raises(ValueError):
        assoc31.normal_form(word)
