"""Supersymmetry calculus of a presentation.

The weight-8 superpotential

    W = -1/4 sum g^{il} g^{jm} [xi,xj][xl,xm] + 1/2 sum G^i_ab za [xi,zb]

has the relations as its cyclic derivatives.  The companion tensor
Gamma-tilde solves the equivariance identity

    sum_b (G^i_ab Gt^{j,bc} + G^j_ab Gt^{i,bc}) = 2 g^{ij} delta_ac,

and with it the odd derivations d_c mirror supersymmetry transformations.
The quartic obstruction tensor decides whether they preserve the relation
ideal: `susy_criterion` checks that they do exactly when it vanishes.

The superpotential and the derivations need an orthonormal or diagonal
metric.  Indefinite rational diagonal metrics are the only way to realize
a vanishing quartic form without leaving the rationals (a sum of squares
of nonzero quadratics cannot vanish over Q).
"""

from fractions import Fraction

from .assoc import AssocModel
from .linalg import addmul, inverse, rref
from .presentation import PresentationError, build_relations
from .tensor import ODD, Derivation, Poly, cyclic_derivative, lie_sum, super_commutator


def check_equivariance_identity(p, gamma_tilde=None):
    """sum_b (G^i_ab Gt^{j,bc} + G^j_ab Gt^{i,bc}) == 2 g^{ij} delta_ac."""
    gt = p.gamma_tilde if gamma_tilde is None else gamma_tilde
    if p.s == 0:
        return True
    if gt is None:
        try:
            gt = derive_gamma_tilde(p)
        except PresentationError:
            return False
    G, g, r = p.gamma, p.metric_upper, range(p.s)
    return all(sum(G[i][a][b] * gt[j][b][c] + G[j][a][b] * gt[i][b][c] for b in r)
               == 2 * g(i, j) * (a == c)
               for i in range(p.n) for j in range(p.n) for a in r for c in r)


def derive_gamma_tilde(p):
    """Solve the equivariance identity for Gamma-tilde by exact elimination.

    The unknowns are the entries of n symmetric s x s matrices; returns
    them as n lists of rows.  Raises PresentationError if the system is
    inconsistent.
    """
    n, s = p.n, p.s
    if s == 0:
        return [[] for _ in range(n)]
    # unknown index: (i, b<=c) -> column
    cols = {}
    for i in range(n):
        for b in range(s):
            for c in range(b, s):
                cols[(i, b, c)] = len(cols)
    ncols = len(cols)

    def col(i, b, c):
        return cols[(i, min(b, c), max(b, c))]

    # augmented rows: the right-hand side sits in column ncols
    rows = []
    for i in range(n):
        for j in range(n):
            for a in range(s):
                for c in range(s):
                    row = {ncols: 2 * p.metric_upper(i, j) * int(a == c)}
                    for b in range(s):
                        for key, coef in ((col(j, b, c), p.gamma[i][a][b]),
                                          (col(i, b, c), p.gamma[j][a][b])):
                            row[key] = row.get(key, 0) + coef
                    rows.append(row)
    red = rref(rows)
    if ncols in red:
        raise PresentationError("equivariance system is inconsistent")
    # free unknowns are set to zero
    gt = [
        [[red.get(col(i, b, c), {}).get(ncols, 0) for c in range(s)] for b in range(s)]
        for i in range(n)
    ]
    if not check_equivariance_identity(p, gt):
        raise PresentationError("equivariance solution failed verification")
    return gt


def superpotential(p):
    """Weight-8 even element whose cyclic derivatives generate the relations.

    W = -1/4 sum g^{il} g^{jm} [xi,xj][xl,xm]
        + 1/2 sum G^i_ab za [xi,zb]

    Requires an orthonormal or diagonal metric.
    """
    if not p.is_diagonal_metric():
        raise PresentationError("superpotential requires an orthonormal or diagonal metric")
    A, n, s, G, g = p.alphabet, p.n, p.s, p.gamma, p.metric_upper
    x = [A.gen(f"x{i+1}") for i in range(n)]
    z = [A.gen(f"z{a+1}") for a in range(s)]
    W = {}
    for i in range(n):
        for j in range(n):
            br = super_commutator(x[i], x[j])
            addmul(W, -Fraction(g(i, i) * g(j, j), 4), (br * br).terms)
    for i in range(n):
        for a in range(s):
            for b in range(s):
                if G[i][a][b]:
                    addmul(W, Fraction(G[i][a][b], 2),
                           (z[a] * super_commutator(x[i], z[b])).terms)
    return Poly(A, W)


def quartic_form(p):
    """Fully symmetric tensor sum_{i,j} g_ij (G^i_ab G^j_cd + two pairings).

    Returns (tensor, is_zero).
    """
    G, r = p.gamma, range(p.s)
    pairs = [(i, j, p.metric_lower(i, j)) for i in range(p.n) for j in range(p.n)
             if p.metric_lower(i, j)]

    def entry(a, b, c, d):
        return sum((gij * (G[i][a][b] * G[j][c][d] + G[i][a][c] * G[j][b][d]
                           + G[i][a][d] * G[j][b][c]) for i, j, gij in pairs), Fraction(0))

    q = [[[[entry(a, b, c, d) for d in r] for c in r] for b in r] for a in r]
    return q, not any(v for qa in q for qb in qa for qc in qb for v in qc)


def susy_derivations(p, gamma_tilde=None):
    """Odd degree-1 derivations d_c, c = 1..s:

    d_c(xi) = g_ii sum_d G^i_cd zd
    d_c(zb) = 1/2 sum Gt^{i,b,d} G^j_dc [xi,xj]

    Requires Gamma-tilde (supplied or derivable) and a diagonal metric.
    """
    gt = p.gamma_tilde if gamma_tilde is None else gamma_tilde
    if gt is None:
        gt = derive_gamma_tilde(p)
    if not p.is_diagonal_metric():
        raise PresentationError("susy derivations require a diagonal metric")
    A, n, s, G = p.alphabet, p.n, p.s, p.gamma
    x = [f"x{i+1}" for i in range(n)]
    z = [f"z{a+1}" for a in range(s)]
    out = []
    for c in range(s):
        images = {x[i]: lie_sum([(p.metric_lower(i, i) * G[i][c][d], z[d])
                                 for d in range(s) if G[i][c][d]], A)
                  for i in range(n)}
        for b in range(s):
            images[z[b]] = lie_sum(
                [(Fraction(gt[i][b][d] * G[j][d][c], 2), (x[i], x[j]))
                 for d in range(s) for i in range(n) for j in range(n)
                 if gt[i][b][d] and G[j][d][c]], A)
        out.append(Derivation(A, images, ODD))
    return out


def _companion_fallback(p):
    """Blockwise inverse companion tensor for susy probing when the
    equivariance system is inconsistent: (G^i)^(-1), zero where singular."""
    return [inverse(m) or [[0] * p.s for _ in range(p.s)] for m in p.gamma]


def susy_criterion(p):
    """(quartic_zero, derivatives_in_ideal): whether the quartic form
    vanishes, and whether every cyclic derivative of every d_c(W) lies in
    the relation ideal (the associative quotient to weight 9).  The
    derivations use the derived Gamma-tilde, or `_companion_fallback`'s
    where the equivariance system is inconsistent."""
    _, qzero = quartic_form(p)
    try:
        gt = derive_gamma_tilde(p)
    except PresentationError:
        gt = _companion_fallback(p)
    ders = susy_derivations(p, gt)
    W = superpotential(p)
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=9)
    return qzero, all(model.contains(cyclic_derivative(dW, name))
                      for dW in (d(W) for d in ders) for name in p.alphabet.names)
