"""The semidirect description of a normalized presentation.

A nondegenerate presentation with the orthonormal metric, normalized so
that G^1 = 1, splits its Lie quotient as the distinguished even element
d = x1 acting by a derivation on an ideal.  The ideal is modelled on
q_i = x_i and p_i = [x1, x_i], i = 2..n (even, weights 2 and 4), and
w_a = z_a (odd, weight 3), with the one relation

    rho = sum_{i>=2} [q_i, p_i] + 1/2 sum_a [w_a, w_a].

The action of d is read off the relations r0_i and r1_a:

    d(q_i) = p_i
    d(p_i) = -sum_{j>=2} [q_j, [q_j, q_i]] + 1/2 sum_{a,b} G^i_ab [w_a, w_b]
    d(w_a) = -sum_{j>=2, b} G^j_ab [q_j, w_b]

Each of rho and the images of d is one `tensor.lie_sum`.
`check_semidirect` checks the isomorphism: the generator maps compose to
the identity both ways, and d maps rho into the ideal it generates.  It
does so by d(rho) = 0 in the free algebra, which holds because

    d(rho) = sum_i [p_i, p_i] - sum_{i,j} [q_i, [q_j, [q_j, q_i]]]
             + 1/2 sum G^i_ab [q_i, [w_a, w_b]] - sum G^j_ab [w_a, [q_j, w_b]]

vanishes: [p_i, p_i] = 0 for even p_i; the quartic sum T equals -T by the
Jacobi identity [q_i, [q_j, X]] = [[q_i, q_j], X] + [q_j, [q_i, X]] and
the swap of i and j; and the Jacobi identity [q, [w_a, w_b]] =
[w_b, [q, w_a]] + [w_a, [q, w_b]] with G^i symmetric (the presentation
checks it) makes the third sum sum G^i_ab [w_a, [q_i, w_b]], which the
fourth cancels.
"""

from fractions import Fraction

from .presentation import PresentationError, check_nondegenerate, is_identity
from .tensor import EVEN, ODD, Alphabet, Derivation, lie_sum


def semidirect_alphabet(n, s):
    """Generators of the codimension-one ideal complement model: q_i weight 2,
    p_i weight 4 (even), z'_a weight 3 (odd), i = 2..n."""
    gens = [(f"q{i}", EVEN, 2) for i in range(2, n + 1)]
    gens += [(f"p{i}", EVEN, 4) for i in range(2, n + 1)]
    gens += [(f"w{a}", ODD, 3) for a in range(1, s + 1)]
    return Alphabet(gens)


def semidirect_relation(n, s):
    """(U, rho): the model's alphabet and its relation
    rho = sum_{i>=2} [qi,pi] + 1/2 sum_a [w_a,w_a]."""
    U = semidirect_alphabet(n, s)
    return U, lie_sum([(1, (f"q{i}", f"p{i}")) for i in range(2, n + 1)]
                      + [(Fraction(1, 2), (f"w{a}", f"w{a}")) for a in range(1, s + 1)], U)


def semidirect_maps(p):
    """Generator-image tables of the isomorphism with the semidirect model.

    Returns (psi, psi_inv, d_action) where psi maps x/z names to the model,
    psi_inv maps model symbols back to bracket trees over x/z, and d_action
    gives the derivation images of the distinguished even element.
    Requires a nondegenerate presentation with the orthonormal metric,
    normalized so that G^1 = id: the d-action is read off the orthonormal
    relations.
    """
    if not p.is_orthonormal():
        raise PresentationError("semidirect maps require the orthonormal metric")
    ok, _ = check_nondegenerate(p)
    if not ok:
        raise PresentationError("presentation is degenerate")
    if p.s and not is_identity(p.gamma[0]):
        raise PresentationError("normalize first: G^1 must be the identity")
    n, s = p.n, p.s
    psi = ({"x1": "d"} | {f"x{i}": f"q{i}" for i in range(2, n + 1)}
           | {f"z{a}": f"w{a}" for a in range(1, s + 1)})
    psi_inv = ({"d": "x1"} | {f"q{i}": f"x{i}" for i in range(2, n + 1)}
               | {f"p{i}": ("x1", f"x{i}") for i in range(2, n + 1)}
               | {f"w{a}": f"z{a}" for a in range(1, s + 1)})
    U = semidirect_alphabet(n, s)
    G, even, odd = p.gamma, range(1, n), range(s)
    d_action = {f"q{i+1}": lie_sum([(1, f"p{i+1}")], U) for i in even}
    for i in even:
        d_action[f"p{i+1}"] = lie_sum(
            [(-1, (f"q{j+1}", (f"q{j+1}", f"q{i+1}"))) for j in even]
            + [(Fraction(G[i][a][b], 2), (f"w{a+1}", f"w{b+1}"))
               for a in odd for b in odd if G[i][a][b]], U)
    for a in odd:
        d_action[f"w{a+1}"] = lie_sum([(-G[j][a][b], (f"q{j+1}", f"w{b+1}"))
                                       for j in even for b in odd if G[j][a][b]], U)
    return psi, psi_inv, d_action


def check_semidirect(p):
    """(psi, psi_inv, round_trip, relation_preserved) for the maps of
    `semidirect_maps`, or None for a degenerate presentation, which has no
    semidirect model.  round_trip says that the two maps compose to the
    identity both ways on the generators, psi taking a pair ("x1", t) to
    d(psi(t)); relation_preserved that d(rho) = 0 in the free algebra
    (see the module docstring), so d maps rho into the ideal it
    generates."""
    if not check_nondegenerate(p)[0]:
        return None
    psi, psi_inv, d_action = semidirect_maps(p)
    U, rho = semidirect_relation(p.n, p.s)

    def image(t):
        return psi[t] if isinstance(t, str) else d_action[psi[t[1]]]

    round_trip = (all(psi_inv[v] == k for k, v in psi.items())
                  and all(image(t) == (u if isinstance(t, str) else U.gen(u))
                          for u, t in psi_inv.items()))
    return psi, psi_inv, round_trip, not Derivation(U, d_action, EVEN)(rho)
