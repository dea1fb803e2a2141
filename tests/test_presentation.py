"""Presentation layer: relations, superpotential calculus, predicates,
series, semidirect description."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from symalg.presentation import (
    PresentationError,
    SymPresentation,
    build_relations,
    check_nondegenerate,
    dims_ym,
    free_gen_series,
    hilbert_series_YM,
    preset,
    ym_denominator,
)
from symalg.semidirect import check_semidirect, semidirect_maps, semidirect_relation
from symalg.susy import (
    check_equivariance_identity,
    derive_gamma_tilde,
    quartic_form,
    superpotential,
    susy_derivations,
)
from symalg.series import enveloping_series
from symalg.tensor import Derivation, cyclic_derivative, lie_expand, super_commutator


def random_gamma(n, s, rng, lo=-3, hi=3):
    g = [[[Fraction(rng.randint(lo, hi)) for _ in range(s)] for _ in range(s)]
         for _ in range(n)]
    for m in g:
        for a in range(s):
            for b in range(a):
                m[a][b] = m[b][a]
    return g


def test_relations_31_match_closed_form(p31):
    r0, r1 = build_relations(p31)
    A = p31.alphabet
    want_r01 = (
        lie_expand(("x2", ("x2", "x1")), A)
        + lie_expand(("x3", ("x3", "x1")), A)
        - lie_expand(("z1", "z1"), A).scale(Fraction(1, 2))
    )
    assert r0[0] == want_r01
    assert r1[0] == lie_expand(("x1", "z1"), A)
    assert [r.weight() for r in r0] == [6, 6, 6]
    assert [r.parity() for r in r0] == [0, 0, 0]
    assert r1[0].weight() == 5 and r1[0].parity() == 1


def test_relations_s0_plain():
    p = preset(2, 0)
    r0, r1 = build_relations(p)
    assert r1 == []
    A = p.alphabet
    assert r0[0] == lie_expand(("x2", ("x2", "x1")), A)


def test_relations_11():
    p = preset(1, 1)
    r0, r1 = build_relations(p)
    A = p.alphabet
    z1 = A.gen("z1")
    assert r0[0] == -(z1 * z1)
    assert r1[0] == lie_expand(("x1", "z1"), A)


def test_relations_explicit_metric():
    metric = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    p = SymPresentation(3, 1, preset(3, 1).gamma, metric)
    r0, _ = build_relations(p)
    A = p.alphabet
    want = (
        -lie_expand(("x2", ("x2", "x1")), A)
        - lie_expand(("x3", ("x3", "x1")), A)
        - lie_expand(("z1", "z1"), A).scale(Fraction(1, 2))
    )
    # g^{jj} g^{11} weights: j=1 term vanishes, j=2,3 get (-1)(+1)
    assert r0[0] == want + lie_expand(("x1", ("x1", "x1")), A)


def _relations_oracle(p):
    """The relations as the loop of `build_relations` before `lie_sum`
    summed them: one Poly sum per bracket, values restored to the scalar
    convention of `linalg.ratio` at the end."""
    from symalg.linalg import ratio
    from symalg.tensor import Poly

    A = p.alphabet
    n, s = p.n, p.s
    x = [A.gen(f"x{i+1}") for i in range(n)]
    z = [A.gen(f"z{a+1}") for a in range(s)]
    r0 = []
    for i in range(n):
        acc = A.zero()
        for j in range(n):
            for l in range(n):
                gjl = p.metric_upper(j, l)
                if not gjl:
                    continue
                for m in range(n):
                    gim = p.metric_upper(i, m)
                    if gim:
                        acc = acc + super_commutator(
                            x[j], super_commutator(x[l], x[m])
                        ).scale(gjl * gim)
        for a in range(s):
            for b in range(s):
                c = p.gamma[i][a][b]
                if c:
                    acc = acc - super_commutator(z[a], z[b]).scale(Fraction(c) / 2)
        r0.append(acc)
    r1 = []
    for a in range(s):
        acc = A.zero()
        for i in range(n):
            for b in range(s):
                c = p.gamma[i][a][b]
                if c:
                    acc = acc + super_commutator(x[i], z[b]).scale(c)
        r1.append(acc)
    return [Poly(A, {u: ratio(c.numerator, c.denominator) for u, c in r.terms.items()})
            for r in r0 + r1]


def _random_rational_presentation(seed):
    """(n, s) in 1..4 x 0..3, Gamma with entries p/q (|p| <= 3, q <= 3),
    and every third draw a random symmetric invertible metric."""
    rng = random.Random(seed)
    n, s = rng.randint(1, 4), rng.randint(0, 3)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    gamma = [[[entry() for _ in range(s)] for _ in range(s)] for _ in range(n)]
    for m in gamma:
        for a in range(s):
            for b in range(a):
                m[a][b] = m[b][a]
    while True:
        metric = "orthonormal"
        if seed % 3 == 0:
            metric = [[entry() for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    metric[i][j] = metric[j][i]
        try:
            return SymPresentation(n, s, gamma, metric)
        except PresentationError:
            continue


@pytest.mark.parametrize("case", ["31", "22", "13", "41", "minkowski32",
                                  *(f"random-{k}" for k in range(30))])
def test_relations_match_the_bracket_loop(case, request):
    # equal terms in the same order, with the same value types (int where
    # integral, Fraction otherwise)
    if case == "minkowski32":
        p = request.getfixturevalue("minkowski32")
    elif case.startswith("random-"):
        p = _random_rational_presentation(int(case[7:]))
    else:
        p = preset(int(case[0]), int(case[1]))
    r0, r1 = build_relations(p)
    got = [list(r.terms.items()) for r in r0 + r1]
    want = [list(r.terms.items()) for r in _relations_oracle(p)]
    assert got == want
    assert [[type(c) for _, c in r] for r in got] == [[type(c) for _, c in r] for r in want]


def test_singular_metric_rejected():
    with pytest.raises(PresentationError):
        SymPresentation(2, 0, [[], []], [[1, 1], [1, 1]])


def test_nondegenerate_cases(p31):
    ok, lam = check_nondegenerate(p31)
    assert ok and lam == [1, 0, 0]
    zero = SymPresentation(3, 1, [[[0]], [[0]], [[0]]])
    assert check_nondegenerate(zero) == (False, None)
    assert check_nondegenerate(preset(2, 0))[0] is True


def test_equivariance_cases(minkowski32, p31):
    assert check_equivariance_identity(minkowski32) is True
    assert check_equivariance_identity(p31) is False
    # any gamma-tilde fails for the canonical (3,1): i=j=2 forces 0 = 2
    for val in (0, 1, -2):
        gt = [[[val]], [[val]], [[val]]]
        assert check_equivariance_identity(p31, gt) is False
    assert check_equivariance_identity(preset(2, 0)) is True


def test_derive_gamma_tilde(minkowski32):
    gt = derive_gamma_tilde(minkowski32)
    assert gt == minkowski32.gamma_tilde
    assert derive_gamma_tilde(preset(2, 0)) == [[], []]
    with pytest.raises(PresentationError):
        derive_gamma_tilde(preset(3, 1))


def test_superpotential_derivatives(p31):
    W = superpotential(p31)
    assert W.weight() == 8 and W.parity() == 0
    r0, r1 = build_relations(p31)
    for i in range(3):
        assert cyclic_derivative(W, f"x{i+1}") == r0[i]
    assert cyclic_derivative(W, "z1") == r1[0]


def test_superpotential_random_32():
    rng = random.Random(17)
    for _ in range(3):
        p = SymPresentation(3, 2, random_gamma(3, 2, rng))
        W = superpotential(p)
        r0, r1 = build_relations(p)
        for i in range(3):
            assert cyclic_derivative(W, f"x{i+1}") == r0[i]
        for a in range(2):
            assert cyclic_derivative(W, f"z{a+1}") == r1[a]


def test_superpotential_diagonal_metric(minkowski32):
    W = superpotential(minkowski32)
    r0, r1 = build_relations(minkowski32)
    for i in range(3):
        assert cyclic_derivative(W, f"x{i+1}") == r0[i]
    for a in range(2):
        assert cyclic_derivative(W, f"z{a+1}") == r1[a]


def test_superpotential_s0():
    p = preset(2, 0)
    W = superpotential(p)
    r0, _ = build_relations(p)
    for i in range(2):
        assert cyclic_derivative(W, f"x{i+1}") == r0[i]


def test_superpotential_rejects_nondiagonal():
    metric = [[1, 1], [1, 2]]
    p = SymPresentation(2, 0, [[], []], metric)
    with pytest.raises(PresentationError):
        superpotential(p)


def test_omega_identity(p31, minkowski32):
    rng = random.Random(2)
    presentations = [p31, minkowski32, preset(2, 0)]
    presentations += [SymPresentation(3, 2, random_gamma(3, 2, rng)) for _ in range(3)]
    for p in presentations:
        r0, r1 = build_relations(p)
        acc = p.alphabet.zero()
        for i in range(p.n):
            acc = acc + super_commutator(p.alphabet.gen(f"x{i+1}"), r0[i])
        for a in range(p.s):
            acc = acc + super_commutator(p.alphabet.gen(f"z{a+1}"), r1[a])
        assert acc.is_zero()


def test_quartic_form(p31, minkowski32):
    q, zero = quartic_form(p31)
    assert not zero and q[0][0][0][0] == 3
    _, zero2 = quartic_form(SymPresentation(3, 1, [[[0]], [[0]], [[0]]]))
    assert zero2
    q3, zero3 = quartic_form(minkowski32)
    assert zero3
    # full symmetry under all permutations of the four indices
    from itertools import permutations

    q31, _ = quartic_form(p31)
    for perm in permutations(range(4)):
        idx = [0, 0, 0, 0]
        assert q31[0][0][0][0] == q31[idx[perm[0]]][idx[perm[1]]][idx[perm[2]]][idx[perm[3]]]
    rng = random.Random(8)
    p = SymPresentation(2, 2, random_gamma(2, 2, rng))
    qq, _ = quartic_form(p)
    for perm in permutations((0, 1, 0, 1)):
        a, b, c, d = perm
        assert qq[a][b][c][d] == qq[0][1][0][1]


def test_susy_derivations_shapes(minkowski32):
    ds = susy_derivations(minkowski32)
    assert len(ds) == 2
    A = minkowski32.alphabet
    for c, d in enumerate(ds):
        assert d.parity == 1
        assert d.weight_step == 1
        for i in range(3):
            img = d.images[A.index(f"x{i+1}")]
            if img:
                assert img.parity() == 1 and img.weight() == 3
        for b in range(2):
            img = d.images[A.index(f"z{b+1}")]
            if img:
                assert img.parity() == 0 and img.weight() == 4
        # generator images match the defining formulas
        want = A.zero()
        for dd in range(2):
            coef = minkowski32.metric_lower(0, 0) * minkowski32.gamma[0][c][dd]
            if coef:
                want = want + A.gen(f"z{dd+1}").scale(coef)
        assert d.images[A.index("x1")] == want


def test_hilbert_series(p31):
    ser = hilbert_series_YM(3, 1, order=20)
    assert ser[0] == 1 and ser[1] == 0
    den = ym_denominator(3, 1)
    assert [sum(den[k] * ser[d - k] for k in range(min(d, 8) + 1))
            for d in range(21)] == [1] + [0] * 20
    # enveloping product formula over the Lie dimensions
    dims = dims_ym(3, 1, max_j=20)
    assert enveloping_series(dims, 20) == ser


def test_dims_ym(p31):
    assert dims_ym(3, 1, max_j=20) == [0, 3, 1, 3, 2, 6, 6, 12, 15, 33, 42,
                                       77, 114, 213, 314, 555, 876, 1540, 2460, 4242]
    assert dims_ym(2, 0, max_j=6)[0] == 0
    assert dims_ym(5, 3, max_j=1) == [0]


def test_semidirect_maps(p31):
    psi, psi_inv, d_action = semidirect_maps(p31)
    assert psi == {"x1": "d", "x2": "q2", "x3": "q3", "z1": "w1"}
    for name, img in psi.items():
        assert psi_inv[img] == name or isinstance(psi_inv[img], tuple)
    assert psi_inv["p2"] == ("x1", "x2")
    # the derivation maps the defining relation to zero, so into its ideal
    U, rho = semidirect_relation(3, 1)
    assert not Derivation(U, d_action, 0)(rho)


@pytest.mark.parametrize("case", ["31", "22", "41", "13", "33-generic-7"])
def test_the_derivation_kills_rho_in_the_free_algebra(case):
    # d(rho) = 0 in T(U), the identity `check_semidirect` reads as
    # relation_preserved, on the presets and the generic (3,3) of
    # `tests/golden/inputs/generic33-seed7.json`, where d itself is nonzero
    # on U but for (1,3): it has no q or p, and every image of its d is zero
    from test_engine import _generic

    p = {"31": lambda: preset(3, 1), "22": lambda: preset(2, 2),
         "41": lambda: preset(4, 1), "13": lambda: preset(1, 3),
         "33-generic-7": lambda: _generic(3, 3, 7)}[case]()
    _, _, d_action = semidirect_maps(p)
    U, rho = semidirect_relation(p.n, p.s)
    D = Derivation(U, d_action, 0)
    assert not D(rho)
    assert any(D(U.gen(u)) for u in U.names) == (case != "13")
    assert check_semidirect(p)[2:] == (True, True)


def test_round_trip_fails_when_a_map_misplaces_a_generator(p31, monkeypatch):
    from symalg import semidirect

    maps = semidirect.semidirect_maps

    def with_d_q2_as_d_q3(p):
        psi, psi_inv, d_action = maps(p)
        d_action["q2"] = d_action["q3"]
        return psi, psi_inv, d_action

    def with_q2_back_to_x3(p):
        psi, psi_inv, d_action = maps(p)
        psi_inv["q2"] = "x3"
        return psi, psi_inv, d_action

    assert semidirect.check_semidirect(p31)[2] is True
    for mutant in (with_d_q2_as_d_q3, with_q2_back_to_x3):
        monkeypatch.setattr(semidirect, "semidirect_maps", mutant)
        assert semidirect.check_semidirect(p31)[2] is False
    # d(q2) = p3 leaves [p3, p2] in d(rho)
    monkeypatch.setattr(semidirect, "semidirect_maps", with_d_q2_as_d_q3)
    assert semidirect.check_semidirect(p31)[3] is False


def test_semidirect_requires_normalized():
    p = SymPresentation(3, 1, [[[2]], [[0]], [[0]]])
    with pytest.raises(PresentationError):
        semidirect_maps(p)


@pytest.mark.parametrize("metric", [
    [[2, 1], [1, 1]],
    # diagonal, but the d-action would still drop the signs g^{jj}
    [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
])
def test_semidirect_requires_orthonormal_metric(metric):
    n = len(metric)
    p = SymPresentation(n, 1, [[[1]]] + [[[0]]] * (n - 1), metric)
    with pytest.raises(PresentationError, match="orthonormal metric"):
        semidirect_maps(p)


def test_generator_series():
    hat31 = free_gen_series("tym-hat", 3, 1, 10)
    assert hat31[2:] == [1, 1, 3, 1, 2, 1, 2, 1, 2]
    k13 = free_gen_series("k1s", 1, 3, 12)
    assert [k13[d] for d in (3, 6, 9, 12)] == [1, 3, 2, 2]
    assert free_gen_series("tym-hat", 2, 5, 4)[2] == 0
    assert free_gen_series("tym", 3, 0, 10)[4] == 3
    # each ideal's rule is checked before anything is computed
    for ideal, n, s in [("k1s", 1, 2), ("k1s", 3, 1), ("tym-hat", 1, 3), ("tym", 1, 3)]:
        with pytest.raises(PresentationError, match=f"--ideal {ideal} requires"):
            free_gen_series(ideal, n, s, 10)


GENERIC33 = Path(__file__).resolve().parent / "golden" / "inputs" / "generic33-seed7.json"


@pytest.mark.parametrize("source", ["preset31", "generic33", "minkowski32"])
def test_presentation_json_roundtrip(source, minkowski32):
    p = {"preset31": lambda: preset(3, 1),
         "generic33": lambda: SymPresentation.from_json(json.loads(GENERIC33.read_text())),
         "minkowski32": lambda: minkowski32}[source]()
    back = SymPresentation.from_json(p.to_json())
    assert back.canonical_json() == p.canonical_json()


def test_normalize_paths():
    from symalg.presentation import normalize

    q, rec = normalize(preset(3, 1))
    assert q.gamma == preset(3, 1).gamma
    # rescaling a multiple of the identity
    p2 = SymPresentation(2, 2, [[[4, 0], [0, 4]], [[0, 1], [1, 0]]])
    q2, rec2 = normalize(p2)
    assert q2.gamma[0] == [[1, 0], [0, 1]]
    assert q2.gamma[1] == [[0, Fraction(1, 4)], [Fraction(1, 4), 0]]
    # witness on the second coordinate: orthogonal swap
    p3 = SymPresentation(2, 1, [[[0]], [[1]]])
    q3, rec3 = normalize(p3)
    assert q3.gamma[0] == [[1]] and rec3["even_swap"] == [1, 2]
    # irrational normalizer is refused
    with pytest.raises(PresentationError):
        normalize(SymPresentation(1, 1, [[[2]]]))
    # symmetric gram-schmidt on a non-diagonal first matrix
    q5, _ = normalize(SymPresentation(1, 2, [[[1, 1], [1, 2]]]))
    assert q5.gamma[0] == [[1, 0], [0, 1]]
    # a nondegenerate first matrix with e1 isotropic: Gram-Schmidt takes
    # the unit vectors in order and stops at e1
    with pytest.raises(PresentationError, match="gram-schmidt stalled on an isotropic block"):
        normalize(SymPresentation(1, 2, [[[0, 1], [1, 1]]]))


def test_omega_check_function(p31, minkowski32):
    from symalg.presentation import omega_check

    assert omega_check(p31)
    assert omega_check(minkowski32)
    assert omega_check(preset(4, 0))
