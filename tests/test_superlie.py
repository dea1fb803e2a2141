"""Structure-constant algebras and the Kirillov-form toolkit."""

import random
from fractions import Fraction

import pytest
from basis_change import scramble

from symalg.engine import LieModel
from symalg.linalg import Echelon, addmul, echelon, extend, kernel, rank
from symalg.presentation import build_relations, preset
from symalg.superlie import (
    FieldExtensionRequired,
    FinDimSuperLieAlgebra,
    IdealWeight,
    SuperLieError,
    _is_subalgebra,
    apply_functional,
    default_flag,
    even_functional,
    heis,
    kirillov_weight,
    stabilizer_subspace,
    subordinate_check,
    vergne_polarization,
    weight_of,
)


def ymodel(n, s, cutoff):
    p = preset(n, s)
    r0, r1 = build_relations(p)
    return LieModel(p.alphabet, r0 + r1, cutoff=cutoff)


def test_readers_leave_the_structure_constants_unchanged():
    # `bracket` hands out the stored entries themselves; on the (3,1)
    # cutoff-8 truncation with its top-weight functional (the golden inputs)
    import copy
    import json
    from pathlib import Path

    from symalg.homology import ce_homology
    from symalg.superlie import functional_from_json

    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    g = FinDimSuperLieAlgebra.from_json(json.loads((inputs / "ym31-l8.json").read_text()))
    f = functional_from_json(g, json.loads((inputs / "ym31-l8-top.json").read_text()))
    table = copy.deepcopy(g.table)
    g.check_jacobi()
    assert vergne_polarization(g, f)
    assert ce_homology(g, 2, weight_max=10)
    assert g.table == table


def test_validate_examples():
    assert heis(1, 1).validate()["nilpotency_class"] == 2
    ab = FinDimSuperLieAlgebra(["x", "y"], [0, 0], {}, [2, 2])
    assert ab.validate()["nilpotency_class"] == 1
    g = FinDimSuperLieAlgebra.from_model(ymodel(3, 1, 5))
    report = g.validate()
    assert report["dim_even"] + report["dim_odd"] == 15


def test_validate_rejects_a_non_nilpotent_algebra():
    # [x, y] = y: C^2 = C^3 = span(y), so the series never reaches 0
    g = FinDimSuperLieAlgebra(["x", "y"], [0, 0], {(0, 1): {1: 1}})
    assert g.lower_central_series() is None
    with pytest.raises(SuperLieError, match="algebra is not nilpotent"):
        g.validate()


def test_validate_rejects_bad_jacobi():
    bad = FinDimSuperLieAlgebra(
        ["x", "y", "z"], [0, 0, 0], {(0, 1): {2: 1}, (0, 2): {1: 1}}, None
    )
    with pytest.raises(SuperLieError):
        bad.validate()


def _first_jacobi_failure(g):
    """The message of the first failing triple over all dim^3 triples."""
    for i in range(g.dim):
        for j in range(g.dim):
            for k in range(g.dim):
                lhs = g.bracket_vec({i: 1}, g.bracket(j, k))
                rhs = g.bracket_vec(g.bracket(i, j), {k: 1})
                sign = -1 if (g.parities[i] and g.parities[j]) else 1
                for m, c in g.bracket_vec({j: 1}, g.bracket(i, k)).items():
                    rhs[m] = rhs.get(m, 0) + sign * c
                if {m: c for m, c in lhs.items() if c} != {m: c for m, c in rhs.items() if c}:
                    return f"Jacobi fails at ({g.names[i]},{g.names[j]},{g.names[k]})"
    return None


def test_check_jacobi_matches_every_triple():
    # check_jacobi reads only the sorted triples that a stored bracket
    # reaches; on random tables, about a third of them broken, it names the
    # triple that the loop over all triples finds first
    rng = random.Random(3)
    broken = 0
    for _ in range(400):
        parities = [rng.randint(0, 1) for _ in range(rng.randint(1, 5))]
        table = {}
        for i in range(len(parities)):
            for j in range(i, len(parities)):
                same = [k for k, p in enumerate(parities) if p == parities[i] ^ parities[j]]
                if same and (i != j or parities[i]) and rng.random() < 0.3:
                    table[(i, j)] = {k: rng.randint(-2, 2)
                                     for k in rng.sample(same, rng.randint(1, len(same)))}
        g = FinDimSuperLieAlgebra([f"e{i}" for i in range(len(parities))], parities, table)
        expected = _first_jacobi_failure(g)
        broken += expected is not None
        try:
            g.check_jacobi()
            got = None
        except SuperLieError as exc:
            got = str(exc)
        assert got == expected, (parities, table)
    assert 50 < broken < 350


def _reference_bracket_vec(g, u, v):
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            addmul(out, a * b, g.bracket(i, j))
    return out


def test_bracket_vec_matches_the_signed_copy_loop():
    # the sign folded into the scalar gives the loop over signed copies of
    # the entries: the same dict, in the same key order, for int and
    # Fraction vectors with indices in random order
    rng = random.Random(17)
    algebras = [heis(r, t) for r in range(3) for t in range(4)]
    algebras += [FinDimSuperLieAlgebra.from_model(ymodel(n, s, cutoff))
                 for n, s, cutoff in POLARIZATION_TRUNCATIONS]

    def vector(g, exact):
        keys = rng.sample(range(g.dim), rng.randint(1, min(g.dim, 6)))
        if exact:
            return {k: Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4)) for k in keys}
        return {k: rng.choice((-2, -1, 1, 3)) for k in keys}

    for g in algebras:
        for exact in (False, True):
            for _ in range(60):
                u, v = vector(g, exact), vector(g, exact)
                got, want = g.bracket_vec(u, v), _reference_bracket_vec(g, u, v)
                assert list(got.items()) == list(want.items()), (g.names, u, v)
                assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


def test_kirillov_form_blocks():
    # B_f on heis(1, 1) with f = z*: the even block pairs q1 with p1, the
    # odd block is [c, c] = z
    pairing = {("q1", "p1"): 1, ("p1", "q1"): -1, ("c", "c"): 1}

    def form(a, b):
        return pairing.get((a, b), 0)

    assert kirillov_weight(form, ["q1", "p1", "z"], ["c"]) == IdealWeight(1, 1)
    assert kirillov_weight(form, [], []) == IdealWeight(0, 0)
    g = heis(1, 1)
    assert weight_of(g, even_functional(g, {"z": 1})) == IdealWeight(1, 1)
    assert weight_of(g, {}) == IdealWeight(0, 0)
    # an even block of odd rank is not antisymmetric
    with pytest.raises(SuperLieError, match="odd rank"):
        kirillov_weight(lambda a, b: 1, ["e"], [])


def test_kirillov_form_ym12():
    g = FinDimSuperLieAlgebra.from_model(ymodel(1, 2, 5))
    # charge the direction of [z1,z1]
    f = even_functional(g, {"[z1,z1]": 1})
    assert weight_of(g, f).clifford == 2


def test_weight_of_heis_family():
    for (r, t) in [(0, 1), (0, 2), (1, 1), (2, 3)]:
        g = heis(r, t)
        w = weight_of(g, even_functional(g, {"z": 1}))
        assert (w.weyl, w.clifford) == (r, t)
    g = heis(2, 2)
    w0 = weight_of(g, {})
    assert (w0.weyl, w0.clifford) == (0, 0)


def test_ideal_weight_record():
    # a value: equal and hashed by its fields, immutable, and printed with
    # its field names
    w = IdealWeight(weyl=1, clifford=0)
    assert w == IdealWeight(1, 0) and w != IdealWeight(0, 1)
    assert w != (1, 0)
    assert {w: "a"}[IdealWeight(1, 0)] == "a"
    assert repr(w) == "IdealWeight(weyl=1, clifford=0)"
    for mutate in (lambda: setattr(w, "weyl", 2), lambda: setattr(w, "extra", 0),
                   lambda: delattr(w, "clifford")):
        with pytest.raises(AttributeError):
            mutate()
    assert (w.weyl, w.clifford) == (1, 0)


def test_weight_scale_invariance():
    g = heis(2, 3)
    f = even_functional(g, {"z": 1, "q1": 2})
    for lam in (1, -2, Fraction(3, 7)):
        fl = {k: lam * v for k, v in f.items()}
        assert weight_of(g, fl) == weight_of(g, f)


def test_weight_basis_invariance():
    rng = random.Random(13)
    g = heis(1, 2)
    f = even_functional(g, {"z": 1})
    w0 = weight_of(g, f)
    for _ in range(5):
        n = g.dim
        mat, gs = scramble(g, rng)
        # transport f: f'(b_i) = f(sum mat[i][j] e_j)
        fs = {}
        for i in range(n):
            val = sum(mat[i][j] * f.get(j, Fraction(0)) for j in range(n))
            if val and gs.parities[i] == 0:
                fs[i] = val
        assert weight_of(gs, fs) == w0


def test_ym12_weights_exhaust_grid():
    g = FinDimSuperLieAlgebra.from_model(ymodel(1, 2, 5))
    evens = g.even_indices()
    seen = set()
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                f = {evens[0]: Fraction(a), evens[1]: Fraction(b), evens[2]: Fraction(c)}
                f = {k: v for k, v in f.items() if v}
                w = weight_of(g, f)
                seen.add((w.weyl, w.clifford))
    assert seen == {(0, 0), (0, 2)}


def test_ym12_weights_rank_reasoning():
    # the odd block is [[-b, c], [c, b]] for f = b.[z1,z1]* + c.[z1,z2]*:
    # determinant -(b^2 + c^2) vanishes over Q only at b = c = 0
    g = FinDimSuperLieAlgebra.from_model(ymodel(1, 2, 5))
    i1 = g.index("[z1,z1]")
    i2 = g.index("[z1,z2]")
    for (b, c) in [(1, 0), (0, 1), (2, 3), (-5, 7)]:
        f = {i1: Fraction(b), i2: Fraction(c)}
        assert weight_of(g, f).clifford == (2 if (b, c) != (0, 0) else 0)


def test_polarization_heis11():
    g = heis(1, 1)
    f = even_functional(g, {"z": 1})
    pol = vergne_polarization(g, f)
    names = {g.names[next(iter(v))] for v in pol}
    assert names == {"z", "q1"}
    assert subordinate_check(g, f, pol)


def test_polarization_along_the_default_flag():
    # the flag is one chain: g.dim independent homogeneous vectors, each
    # prefix spanning an ideal
    for g in (heis(1, 1), heis(2, 3), FinDimSuperLieAlgebra.from_model(ymodel(3, 1, 6)),
              scramble(heis(1, 2), random.Random(5))[1]):
        chain = default_flag(g)
        assert len(chain) == g.dim and rank(chain) == g.dim
        assert all(len({g.parities[i] for i in v}) == 1 for v in chain)
        for k in range(1, g.dim + 1):
            span = echelon(chain[:k])
            assert not any(extend(span, g.bracket_vec({i: Fraction(1)}, v))
                           for i in range(g.dim) for v in chain[:k])
    g = heis(1, 1)
    assert len(vergne_polarization(g, even_functional(g, {"z": 1}))) == 2


def _reference_flag(g):
    """The layers of the polarization before it was read off one Gram
    matrix: every prefix of the chain, built with a parity split."""
    series = g.lower_central_series()
    if series is None:
        raise SuperLieError("algebra is not nilpotent")
    layers = []
    chain = []
    probe = Echelon()
    for term in reversed([t for t in series if t]):
        cand = []
        for v in term:
            for par in (0, 1):
                part = {i: c for i, c in v.items() if g.parities[i] == par}
                if part:
                    cand.append(part)
        for v in sorted(cand, key=lambda d: sorted(d)):
            if extend(probe, v):
                chain.append(v)
                layers.append(list(chain))
    for i in range(g.dim):
        v = {i: Fraction(1)}
        if extend(probe, v):
            chain.append(v)
            layers.append(list(chain))
    return layers


def _reference_radical(g, f, layer_vectors):
    """{x in span(layer) : f([x, layer]) = 0}, from the layer's own form."""
    k = len(layer_vectors)
    rows = [[apply_functional(f, g.bracket_vec(u, v)) for u in layer_vectors]
            for v in layer_vectors]
    out = []
    for coeffs in kernel(rows, k):
        vec = {}
        for j, c in coeffs.items():
            addmul(vec, c, layer_vectors[j])
        for par in (0, 1):
            part = {i: c for i, c in vec.items() if g.parities[i] == par}
            if part:
                out.append(part)
    return out


def _reference_polarization(g, f):
    """vergne_polarization with the radicals recomputed on each layer."""
    span = Echelon()
    basis = []
    for layer in _reference_flag(g):
        for v in _reference_radical(g, f, layer):
            if extend(span, v):
                basis.append(v)
    w = weight_of(g, f)
    m1 = len(g.odd_indices())
    target_even = len(g.even_indices()) - w.weyl
    bound_odd = m1 - w.clifford + w.clifford // 2
    got_odd = sum(g.parities[next(iter(v))] for v in basis)
    got_even = len(basis) - got_odd
    if not subordinate_check(g, f, basis):
        raise SuperLieError("polarization is not subordinate")
    if not _is_subalgebra(g, basis):
        raise SuperLieError("polarization is not a subalgebra")
    if got_even != target_even:
        raise FieldExtensionRequired(
            f"even isotropic dimension {got_even} misses the target {target_even}"
        )
    if got_odd < m1 - w.clifford or got_odd < bound_odd:
        raise FieldExtensionRequired(
            f"odd isotropic dimension {got_odd} below the closed-field "
            f"bound {bound_odd}"
        )
    return basis


def _outcome(polarize, g, f):
    try:
        return polarize(g, f)
    except SuperLieError as exc:
        return type(exc), str(exc)


def _seeded_functional(g, rng):
    return {i: Fraction(rng.randint(-2, 2)) for i in g.even_indices()
            if rng.random() < 0.5}


POLARIZATION_TRUNCATIONS = [(3, 1, 6), (2, 2, 7), (1, 3, 8), (3, 2, 5), (4, 1, 4), (2, 1, 8)]


def test_polarization_matches_the_layerwise_reference():
    # heis(r, t) with r <= 2, t <= 3 and six truncated quotients, each with
    # seeded functionals, and scrambled bases of some: the same vectors in
    # the same order, or the same error
    rng = random.Random(11)
    cases = []
    for r in range(3):
        for t in range(4):
            g = heis(r, t)
            cases += [(g, even_functional(g, {"z": 1})), (g, {}),
                      (g, _seeded_functional(g, rng))]
    for n, s, cutoff in POLARIZATION_TRUNCATIONS:
        g = FinDimSuperLieAlgebra.from_model(ymodel(n, s, cutoff))
        cases += [(g, _seeded_functional(g, rng)) for _ in range(7)]
    for g in (heis(1, 2), heis(2, 1), FinDimSuperLieAlgebra.from_model(ymodel(2, 1, 6))):
        gs = scramble(g, rng)[1]
        cases += [(gs, _seeded_functional(gs, rng)) for _ in range(4)]
    failures = 0
    for g, f in cases:
        expected = _outcome(_reference_polarization, g, f)
        assert _outcome(vergne_polarization, g, f) == expected, (g.names, f)
        failures += isinstance(expected, tuple)
    assert 0 < failures < len(cases) // 2


def test_polarization_abelian():
    g = FinDimSuperLieAlgebra(["x", "y"], [0, 0], {}, None)
    pol = vergne_polarization(g, {0: Fraction(1)})
    assert len(pol) == 2


def test_polarization_heis02_uses_isotropic_pair():
    g = heis(0, 2)
    f = even_functional(g, {"z": 1})
    pol = vergne_polarization(g, f)
    odd = [v for v in pol if g.parities[next(iter(v))] == 1]
    assert len(odd) == 1  # hyperbolic plane: one isotropic direction


def test_polarization_field_extension_flagged():
    # odd block <1, 1>: anisotropic over Q, isotropic over C
    g = FinDimSuperLieAlgebra(
        ["z", "o1", "o2"],
        [0, 1, 1],
        {(1, 1): {0: Fraction(1)}, (2, 2): {0: Fraction(1)}},
        [6, 3, 3],
    )
    g.validate()
    with pytest.raises(FieldExtensionRequired):
        vergne_polarization(g, {0: Fraction(1)})


def test_polarization_truncated_quotient():
    g = FinDimSuperLieAlgebra.from_model(ymodel(3, 1, 3))
    f = even_functional(g, {"[x1,x2]": 1, "[x2,x3]": 3})
    pol = vergne_polarization(g, f)
    w = weight_of(g, f)
    even_dim = sum(1 for v in pol if g.parities[next(iter(v))] == 0)
    assert even_dim == len(g.even_indices()) - w.weyl
    assert subordinate_check(g, f, pol)
    # maximality oracle: any basis direction keeping the span isotropic
    # already lies in the span
    for i in range(g.dim):
        if subordinate_check(g, f, pol + [{i: Fraction(1)}]):
            assert rank(pol + [{i: Fraction(1)}]) == rank(pol)


def test_subordinate_check_cases():
    g = heis(1, 1)
    f = even_functional(g, {"z": 1})
    assert subordinate_check(g, f, [{g.index("q1"): Fraction(1)}])
    full = [{i: Fraction(1)} for i in range(g.dim)]
    assert not subordinate_check(g, f, full)
    assert subordinate_check(g, {}, full)


def test_stabilizer_subspace():
    g = heis(1, 1)
    center = [{g.index("z"): Fraction(1)}]
    f = even_functional(g, {"z": 1})
    st = stabilizer_subspace(g, center, f)
    assert len(st) == g.dim  # center brackets to zero with everything
    st0 = stabilizer_subspace(g, [{i: Fraction(1)} for i in range(g.dim)], {})
    assert len(st0) == g.dim  # f = 0 stabilizes everything
    f2 = even_functional(g, {"z": 1})
    st2 = stabilizer_subspace(g, [{g.index("q1"): Fraction(1)}], f2)
    # f([x, q1]) = 0 kills the p1 direction only
    assert len(st2) == g.dim - 1
    # against the abelian span(q1, z): full iff f(z) = 0
    h = [{g.index("q1"): Fraction(1)}, {g.index("z"): Fraction(1)}]
    assert len(stabilizer_subspace(g, h, {})) == g.dim
    assert len(stabilizer_subspace(g, h, f2)) == g.dim - 1


def test_heis_dimensions():
    assert heis(1, 1).dim == 4  # q, p, z | c
    g = heis(0, 2)
    assert (len(g.even_indices()), len(g.odd_indices())) == (1, 2)
    assert heis(0, 0).dim == 1
    assert heis(0, 0).validate()["nilpotency_class"] == 1


def _heis_name_by_name(r, t):
    """heis's names, parities, weights and table, each name appended in its
    own loop and each pair looked up by name: the oracle for the table
    written once."""
    names, parities, weights = [], [], []
    for i in range(1, r + 1):
        names.append(f"q{i}")
        parities.append(0)
        weights.append(2)
    for i in range(1, r + 1):
        names.append(f"p{i}")
        parities.append(0)
        weights.append(4)
    names.append("z")
    parities.append(0)
    weights.append(6)
    tprime = t // 2
    for i in range(1, tprime + 1):
        names.append(f"a{i}")
        parities.append(1)
        weights.append(3)
    for i in range(1, tprime + 1):
        names.append(f"b{i}")
        parities.append(1)
        weights.append(3)
    if t % 2:
        names.append("c")
        parities.append(1)
        weights.append(3)
    z = names.index("z")
    brackets = {}
    for i in range(1, r + 1):
        brackets[(names.index(f"q{i}"), names.index(f"p{i}"))] = {z: 1}
    for i in range(1, tprime + 1):
        brackets[(names.index(f"a{i}"), names.index(f"b{i}"))] = {z: 1}
    if t % 2:
        c = names.index("c")
        brackets[(c, c)] = {z: 1}
    return names, parities, weights, list(brackets.items())


def test_heis_equals_the_name_by_name_construction():
    for r in range(5):
        for t in range(7):
            g = heis(r, t)
            got = g.names, g.parities, g.weights, list(g.table.items())
            assert got == _heis_name_by_name(r, t), (r, t)


def test_json_roundtrip():
    g = heis(2, 3)
    doc = g.to_json()
    back = FinDimSuperLieAlgebra.from_json(doc)
    assert back.names == g.names
    assert back.table == g.table
    assert back.weights == g.weights


def test_even_functional_rejects_odd_charge():
    g = heis(1, 1)
    with pytest.raises(SuperLieError):
        even_functional(g, {"c": 1})
    # explicit zeros on odd entries are tolerated
    assert even_functional(g, {"c": 0, "z": 1}) == {g.index("z"): Fraction(1)}
