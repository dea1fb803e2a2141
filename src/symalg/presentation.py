"""Super Yang-Mills presentation data and presentation-level computations.

A presentation is (n, s, Gamma, metric, optional Gamma-tilde): n even
generators x1..xn of weight 2, s odd generators z1..zs of weight 3, a
symmetric tensor Gamma (n matrices of size s x s) and a metric on the even
part.  From it we build the defining relations

    r0_i = sum_j g^{jl} g^{im} [xj,[xl,xm]] - 1/2 sum_{a,b} G^i_ab [za,zb]
    r1_a = sum_{i,b} G^i_ab [xi,zb]

the degree-8 superpotential whose cyclic derivatives recover them, the
odd derivations mirroring supersymmetry transformations, the quartic
obstruction tensor, and the closed-form Hilbert/dimension series.

Metrics: "orthonormal" (the identity form) or an explicit symmetric
invertible matrix.  The superpotential and the supersymmetry derivations
are also provided for explicit *diagonal* metrics; indefinite rational
diagonal metrics are the only way to realize a vanishing quartic form
without leaving the rationals (a sum of squares of nonzero quadratics
cannot vanish over Q).
"""

import json
from fractions import Fraction

from .linalg import inverse, rank, ratio, rref
from .series import DensePolynomial, PowerSeries, dims_from_series
from .tensor import (
    EVEN,
    ODD,
    Alphabet,
    Derivation,
    Poly,
    lie_expand,
    super_commutator,
    sym_alphabet,
)


def rat(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)


def rat_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class PresentationError(ValueError):
    pass


class GammaTensor:
    """n symmetric s x s rational matrices G^i_ab."""

    def __init__(self, n, s, matrices):
        self.n = n
        self.s = s
        mats = []
        if len(matrices) != n:
            raise PresentationError(f"expected {n} matrices, got {len(matrices)}")
        for i, m in enumerate(matrices):
            mat = [[rat(m[a][b]) for b in range(s)] for a in range(s)]
            for a in range(s):
                for b in range(a):
                    if mat[a][b] != mat[b][a]:
                        raise PresentationError(f"gamma[{i}] is not symmetric")
            mats.append(mat)
        self.mats = mats

    def __getitem__(self, i):
        return self.mats[i]

    def is_zero(self):
        return all(not c for m in self.mats for row in m for c in row)

    def __eq__(self, other):
        return isinstance(other, GammaTensor) and self.mats == other.mats


class GammaTilde:
    """Companion tensor Gt^{i,a,b}, symmetric in (a, b)."""

    def __init__(self, n, s, matrices):
        inner = GammaTensor(n, s, matrices)
        self.n = n
        self.s = s
        self.mats = inner.mats

    def __getitem__(self, i):
        return self.mats[i]


class SymPresentation:
    """(n, s, Gamma, metric, optional Gamma-tilde)."""

    def __init__(self, n, s, gamma, metric="orthonormal", gamma_tilde=None):
        if n < 0 or s < 0 or n + s == 0:
            raise PresentationError("need n + s > 0 with n, s >= 0")
        self.n = n
        self.s = s
        if isinstance(gamma, GammaTensor):
            self.gamma = gamma
        else:
            self.gamma = GammaTensor(n, s, gamma)
        if metric == "orthonormal":
            self.metric = "orthonormal"
            self._metric_inv = None
        else:
            mat = [[rat(x) for x in row] for row in metric]
            if len(mat) != n or any(len(r) != n for r in mat):
                raise PresentationError("metric must be n x n")
            for i in range(n):
                for j in range(i):
                    if mat[i][j] != mat[j][i]:
                        raise PresentationError("metric is not symmetric")
            inv = inverse(mat)
            if inv is None:
                raise PresentationError("singular metric")
            self.metric = mat
            self._metric_inv = inv
        if gamma_tilde is None or isinstance(gamma_tilde, GammaTilde):
            self.gamma_tilde = gamma_tilde
        else:
            self.gamma_tilde = GammaTilde(n, s, gamma_tilde)
        self.alphabet = sym_alphabet(n, s)

    # -- metric access (lower and upper indices)

    def metric_lower(self, i, j):
        if self.metric == "orthonormal":
            return Fraction(int(i == j))
        return self.metric[i][j]

    def metric_upper(self, i, j):
        if self.metric == "orthonormal":
            return Fraction(int(i == j))
        return self._metric_inv[i][j]

    def is_orthonormal(self):
        return self.metric == "orthonormal"

    def is_diagonal_metric(self):
        if self.is_orthonormal():
            return True
        return all(
            self.metric[i][j] == 0 for i in range(self.n) for j in range(self.n) if i != j
        )

    # -- serialization

    def to_json(self):
        doc = {
            "n": self.n,
            "s": self.s,
            "gamma": [[[rat_str(c) for c in row] for row in m] for m in self.gamma.mats],
            "metric": "orthonormal"
            if self.is_orthonormal()
            else [[rat_str(c) for c in row] for row in self.metric],
        }
        if self.gamma_tilde is not None:
            doc["gamma_tilde"] = [
                [[rat_str(c) for c in row] for row in m] for m in self.gamma_tilde.mats
            ]
        return doc

    @classmethod
    def from_json(cls, doc):
        """Inverse of to_json; malformed documents raise PresentationError."""
        if not isinstance(doc, dict):
            raise PresentationError("presentation JSON must be an object")
        missing = [k for k in ("n", "s", "gamma") if k not in doc]
        if missing:
            raise PresentationError(
                "presentation JSON lacks " + ", ".join(repr(k) for k in missing)
            )
        if not all(type(doc[k]) is int for k in ("n", "s")):
            raise PresentationError("presentation JSON: n and s must be integers")
        try:
            return cls(
                doc["n"],
                doc["s"],
                doc["gamma"],
                doc.get("metric", "orthonormal"),
                doc.get("gamma_tilde"),
            )
        except PresentationError:
            raise
        except (LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise PresentationError(f"malformed presentation JSON: {exc}") from exc

    def canonical_json(self):
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def __repr__(self):
        return f"SymPresentation(n={self.n}, s={self.s})"


def preset(n, s):
    """Canonical nondegenerate presentation: G^1 = identity, G^{i>1} = 0."""
    gamma = [
        [[Fraction(int(a == b and i == 0)) for b in range(s)] for a in range(s)]
        for i in range(n)
    ]
    return SymPresentation(n, s, gamma)


def build_relations(p):
    """The defining relations, fully expanded in the tensor algebra.

    Returns ([r0_1..r0_n], [r1_1..r1_s]), integral coefficients as ints and
    the others as Fractions (the scalar convention of `linalg.ratio`).
    """
    A = p.alphabet
    n, s = p.n, p.s
    x = [A.gen(f"x{i+1}") for i in range(n)]
    z = [A.gen(f"z{a+1}") for a in range(s)]
    r0 = []
    for i in range(n):
        acc = A.zero()
        if p.is_orthonormal():
            for j in range(n):
                acc = acc + super_commutator(x[j], super_commutator(x[j], x[i]))
        else:
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
    return [_integral(r) for r in r0], [_integral(r) for r in r1]


def _integral(poly):
    return Poly(poly.alphabet, {
        u: ratio(c.numerator, c.denominator) for u, c in poly.terms.items()})


def check_nondegenerate(p):
    """Whether some lambda makes lambda o Gamma nondegenerate.

    Decided by testing det(sum_i li G^i) != 0, i.e. full rank, on the
    integer grid {0..s*n}^n (the determinant has degree <= s in each
    variable, so a nonzero polynomial cannot vanish on the whole grid).
    Returns (flag, witness-or-None).
    """
    if p.n == 0:
        return False, None
    if p.s == 0:
        return True, [Fraction(1)] + [Fraction(0)] * (p.n - 1)
    bound = p.s * p.n + 1

    def full_rank_at(lam):
        m = [
            [
                sum(lam[i] * p.gamma[i][a][b] for i in range(p.n))
                for b in range(p.s)
            ]
            for a in range(p.s)
        ]
        return rank(m) == p.s

    if p.gamma.is_zero():
        return False, None
    # try the coordinate directions first: the canonical witness is e1
    for i in range(p.n):
        lam = [Fraction(int(j == i)) for j in range(p.n)]
        if full_rank_at(lam):
            return True, lam
    grid = [Fraction(v) for v in range(bound)]

    def find(prefix):
        if len(prefix) == p.n:
            return list(prefix) if full_rank_at(prefix) else None
        for v in grid:
            got = find(prefix + [v])
            if got:
                return got
        return None

    witness = find([])
    return (True, witness) if witness else (False, None)


def check_equivariance_identity(p, gamma_tilde=None):
    """sum_b (G^i_ab Gt^{j,bc} + G^j_ab Gt^{i,bc}) == 2 g^{ij} delta_ac."""
    gt = gamma_tilde or p.gamma_tilde
    if p.s == 0:
        return True
    if gt is None:
        try:
            gt = derive_gamma_tilde(p)
        except PresentationError:
            return False
    for i in range(p.n):
        for j in range(p.n):
            for a in range(p.s):
                for c in range(p.s):
                    lhs = sum(
                        p.gamma[i][a][b] * gt[j][b][c] + p.gamma[j][a][b] * gt[i][b][c]
                        for b in range(p.s)
                    )
                    if lhs != 2 * p.metric_upper(i, j) * int(a == c):
                        return False
    return True


def derive_gamma_tilde(p):
    """Solve the equivariance identity for Gamma-tilde by exact elimination.

    The unknowns are the entries of n symmetric s x s matrices.  Raises
    PresentationError if the system is inconsistent.
    """
    n, s = p.n, p.s
    if s == 0:
        return GammaTilde(n, 0, [[] for _ in range(n)])
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
    mats = [
        [[red.get(col(i, b, c), {}).get(ncols, 0) for c in range(s)] for b in range(s)]
        for i in range(n)
    ]
    gt = GammaTilde(n, s, mats)
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
        raise PresentationError(
            "superpotential requires an orthonormal or diagonal metric"
        )
    A = p.alphabet
    n, s = p.n, p.s
    x = [A.gen(f"x{i+1}") for i in range(n)]
    z = [A.gen(f"z{a+1}") for a in range(s)]
    W = A.zero()
    for i in range(n):
        ei = p.metric_upper(i, i)
        for j in range(n):
            ej = p.metric_upper(j, j)
            br = super_commutator(x[i], x[j])
            W = W - (br * br).scale(Fraction(ei * ej, 4))
    for i in range(n):
        for a in range(s):
            for b in range(s):
                c = p.gamma[i][a][b]
                if c:
                    W = W + (z[a] * super_commutator(x[i], z[b])).scale(
                        Fraction(c) / 2
                    )
    return W


def quartic_form(p):
    """Fully symmetric tensor sum_{i,j} g_ij (G^i_ab G^j_cd + two pairings).

    Returns (tensor, is_zero).
    """
    n, s = p.n, p.s
    q = [[[[Fraction(0)] * s for _ in range(s)] for _ in range(s)] for _ in range(s)]
    zero = True
    for a in range(s):
        for b in range(s):
            for c in range(s):
                for d in range(s):
                    acc = Fraction(0)
                    for i in range(n):
                        for j in range(n):
                            gij = p.metric_lower(i, j)
                            if gij:
                                acc += gij * (
                                    p.gamma[i][a][b] * p.gamma[j][c][d]
                                    + p.gamma[i][a][c] * p.gamma[j][b][d]
                                    + p.gamma[i][a][d] * p.gamma[j][b][c]
                                )
                    q[a][b][c][d] = acc
                    if acc:
                        zero = False
    return q, zero


def susy_derivations(p, gamma_tilde=None):
    """Odd degree-1 derivations d_c, c = 1..s:

    d_c(xi) = g_ii sum_d G^i_cd zd
    d_c(zb) = 1/2 sum Gt^{i,b,d} G^j_dc [xi,xj]

    Requires Gamma-tilde (supplied or derivable) and a diagonal metric.
    """
    gt = gamma_tilde or p.gamma_tilde
    if gt is None:
        gt = derive_gamma_tilde(p)
    if not p.is_diagonal_metric():
        raise PresentationError("susy derivations require a diagonal metric")
    A = p.alphabet
    n, s = p.n, p.s
    x = [A.gen(f"x{i+1}") for i in range(n)]
    z = [A.gen(f"z{a+1}") for a in range(s)]
    out = []
    for c in range(s):
        images = {}
        for i in range(n):
            img = A.zero()
            for d in range(s):
                coef = p.metric_lower(i, i) * p.gamma[i][c][d]
                if coef:
                    img = img + z[d].scale(coef)
            images[f"x{i+1}"] = img
        for b in range(s):
            img = A.zero()
            for d in range(s):
                for i in range(n):
                    for j in range(n):
                        coef = gt[i][b][d] * p.gamma[j][d][c]
                        if coef:
                            img = img + super_commutator(x[i], x[j]).scale(
                                Fraction(coef) / 2
                            )
            images[f"z{b+1}"] = img
        out.append(Derivation(A, images, ODD))
    return out


def ym_denominator(n, s):
    """1 - n t^2 - s t^3 + s t^5 + n t^6 - t^8."""
    return DensePolynomial([1, 0, -n, -s, 0, s, n, 0, -1])


def hilbert_series_YM(p_or_n, s=None, order=20):
    """Hilbert series of the enveloping algebra, as a truncated series."""
    n = p_or_n.n if isinstance(p_or_n, SymPresentation) else p_or_n
    s = p_or_n.s if isinstance(p_or_n, SymPresentation) else s
    return ym_denominator(n, s).series(order).inverse()


def dims_ym(p_or_n, s=None, max_j=20):
    """Graded component dimensions of the quotient Lie algebra."""
    n = p_or_n.n if isinstance(p_or_n, SymPresentation) else p_or_n
    s = p_or_n.s if isinstance(p_or_n, SymPresentation) else s
    return dims_from_series(ym_denominator(n, s), max_j)


def _is_square(q):
    q = Fraction(q)
    if q < 0:
        return None
    rn = _isqrt(q.numerator)
    rd = _isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _isqrt(n):
    import math

    return math.isqrt(n)


def normalize(p):
    """Normalized copy: witness = first coordinate, G^1 = identity.

    The odd basis change diagonalizes lambda o Gamma by symmetric
    Gram-Schmidt and rescales by inverse square roots; entries whose
    diagonal is not a rational square cannot be normalized over Q and
    raise PresentationError.  Returns (presentation, change record).
    """
    ok, lam = check_nondegenerate(p)
    if not ok:
        raise PresentationError("degenerate presentation cannot be normalized")
    if p.s == 0:
        return p, {"witness": [rat_str(v) for v in lam]}
    n, s = p.n, p.s
    gamma = [[[Fraction(c) for c in row] for row in m] for m in p.gamma.mats]
    record = {"witness": [rat_str(v) for v in lam]}
    nonzero = [i for i, v in enumerate(lam) if v]
    if lam[0] != 1 or len(nonzero) != 1:
        if len(nonzero) == 1 and p.is_orthonormal() and lam[nonzero[0]] == 1:
            k = nonzero[0]
            gamma[0], gamma[k] = gamma[k], gamma[0]
            record["even_swap"] = [1, k + 1]
        else:
            raise PresentationError(
                "witness is not a coordinate direction; supply a presentation "
                "with an invertible first matrix"
            )
    m1 = gamma[0]
    # symmetric Gram-Schmidt: S^T m1 S diagonal
    basis = [[Fraction(int(i == j)) for j in range(s)] for i in range(s)]

    def form(u, v):
        return sum(u[a] * m1[a][b] * v[b] for a in range(s) for b in range(s))

    chosen = []
    pool = list(basis)
    while len(chosen) < s:
        cand = None
        for v in pool:
            u = list(v)
            for w in chosen:
                coef = form(u, w) / form(w, w)
                u = [x - coef * y for x, y in zip(u, w)]
            if form(u, u):
                cand = u
                break
        if cand is None:
            raise PresentationError("gram-schmidt stalled on an isotropic block")
        chosen.append(cand)
        pool = pool[1:]
    S = []
    for u in chosen:
        d = form(u, u)
        root = _is_square(d)
        if root is None:
            raise PresentationError(
                f"normalization requires sqrt({d}); not rational"
            )
        S.append([x / root for x in u])
    # columns of the change matrix are the new odd basis vectors
    new_gamma = []
    for i in range(n):
        mat = [
            [
                sum(
                    S[a][c] * gamma[i][c][d] * S[b][d]
                    for c in range(s)
                    for d in range(s)
                )
                for b in range(s)
            ]
            for a in range(s)
        ]
        new_gamma.append(mat)
    record["odd_change"] = [[rat_str(x) for x in row] for row in S]
    out = SymPresentation(n, s, new_gamma, p.metric if not p.is_orthonormal() else "orthonormal")
    if not _is_identity(out.gamma[0]):
        raise PresentationError("normalization failed verification")
    return out, record


def omega_check(p):
    """sum_i [xi, r0_i] + sum_a [za, r1_a] == 0 in the tensor algebra."""
    r0, r1 = build_relations(p)
    acc = p.alphabet.zero()
    for i in range(p.n):
        acc = acc + super_commutator(p.alphabet.gen(f"x{i+1}"), r0[i])
    for a in range(p.s):
        acc = acc + super_commutator(p.alphabet.gen(f"z{a+1}"), r1[a])
    return acc.is_zero()


# -- the semidirect description


def semidirect_alphabet(n, s):
    """Generators of the codimension-one ideal complement model: q_i weight 2,
    p_i weight 4 (even), z'_a weight 3 (odd), i = 2..n."""
    gens = [(f"q{i}", EVEN, 2) for i in range(2, n + 1)]
    gens += [(f"p{i}", EVEN, 4) for i in range(2, n + 1)]
    gens += [(f"w{a}", ODD, 3) for a in range(1, s + 1)]
    return Alphabet(gens)


def semidirect_relation(n, s):
    """sum_{i>=2} [qi,pi] + 1/2 sum_a [w_a,w_a] as a bracket tree list."""
    U = semidirect_alphabet(n, s)
    acc = U.zero()
    for i in range(2, n + 1):
        acc = acc + lie_expand((f"q{i}", f"p{i}"), U)
    for a in range(1, s + 1):
        acc = acc + lie_expand((f"w{a}", f"w{a}"), U).scale(Fraction(1, 2))
    return U, acc


def semidirect_maps(p):
    """Generator-image tables of the isomorphism with the semidirect model.

    Returns (psi, psi_inv, d_action) where psi maps x/z names to the model,
    psi_inv maps model symbols back to bracket trees over x/z, and d_action
    gives the derivation images of the distinguished even element.
    Requires a nondegenerate presentation normalized so that G^1 = id.
    """
    ok, _ = check_nondegenerate(p)
    if not ok:
        raise PresentationError("presentation is degenerate")
    if p.s and not _is_identity(p.gamma[0]):
        raise PresentationError("normalize first: G^1 must be the identity")
    n, s = p.n, p.s
    psi = {"x1": "d"}
    for i in range(2, n + 1):
        psi[f"x{i}"] = f"q{i}"
    for a in range(1, s + 1):
        psi[f"z{a}"] = f"w{a}"
    psi_inv = {"d": "x1"}
    for i in range(2, n + 1):
        psi_inv[f"q{i}"] = f"x{i}"
        psi_inv[f"p{i}"] = ("x1", f"x{i}")
    for a in range(1, s + 1):
        psi_inv[f"w{a}"] = f"z{a}"
    U = semidirect_alphabet(n, s)
    d_action = {}
    for i in range(2, n + 1):
        d_action[f"q{i}"] = U.gen(f"p{i}")
    for i in range(2, n + 1):
        acc = U.zero()
        for j in range(2, n + 1):
            acc = acc - lie_expand((f"q{j}", (f"q{j}", f"q{i}")), U)
        for a in range(1, s + 1):
            for b in range(1, s + 1):
                c = p.gamma[i - 1][a - 1][b - 1]
                if c:
                    acc = acc + lie_expand((f"w{a}", f"w{b}"), U).scale(
                        Fraction(c) / 2
                    )
        d_action[f"p{i}"] = acc
    for a in range(1, s + 1):
        acc = U.zero()
        for j in range(2, n + 1):
            for b in range(1, s + 1):
                c = p.gamma[j - 1][a - 1][b - 1]
                if c:
                    acc = acc - lie_expand((f"q{j}", f"w{b}"), U).scale(c)
        d_action[f"w{a}"] = acc
    return psi, psi_inv, d_action


def _is_identity(m):
    return all(
        m[a][b] == (1 if a == b else 0) for a in range(len(m)) for b in range(len(m))
    )


# -- closed-form generator series


def free_gen_series_tym_hat(n, s):
    """Coefficient extractor for the generator space of the hat ideal:
    (n-2) t^2 + (2n-3) t^4 + sum_{k>=3} (2n-4) t^{2k} + sum_{k>=1} s t^{2k+1}.
    """
    if n < 2:
        raise PresentationError("requires n >= 2")

    def coeff(d):
        if d == 2:
            return n - 2
        if d == 4:
            return 2 * n - 3
        if d >= 6 and d % 2 == 0:
            return 2 * n - 4
        if d >= 3 and d % 2 == 1:
            return s
        return 0

    return coeff


def free_gen_series_tym(n, s, order=40):
    """((1-t^2)^n - 1 + n t^2 + s t^3 - s t^5 - n t^6 + t^8) / (1-t^2)^n."""
    if n < 2:
        raise PresentationError("requires n >= 2")
    one_minus = PowerSeries([1, 0, -1], order)
    pw = PowerSeries([1], order)
    for _ in range(n):
        pw = pw * one_minus
    num = pw - PowerSeries([1, 0, -n, -s, 0, s, n, 0, -1], order)
    ser = num * pw.inverse()

    def coeff(d):
        return ser[d]

    return coeff


def free_gen_series_k1s(s):
    """(s-2) t^3 + (2s-3) t^6 + sum_{k>=3} (2s-4) t^{3k}."""
    if s < 3:
        raise PresentationError("requires s >= 3")

    def coeff(d):
        if d == 3:
            return s - 2
        if d == 6:
            return 2 * s - 3
        if d >= 9 and d % 3 == 0:
            return 2 * s - 4
        return 0

    return coeff
