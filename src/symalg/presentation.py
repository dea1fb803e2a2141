"""Super Yang-Mills presentation data and presentation-level computations.

A presentation is (n, s, Gamma, metric, optional Gamma-tilde): n even
generators x1..xn of weight 2, s odd generators z1..zs of weight 3, a
symmetric tensor Gamma (n matrices of size s x s) and a metric on the even
part.  From it we build the defining relations

    r0_i = sum_j g^{jl} g^{im} [xj,[xl,xm]] - 1/2 sum_{a,b} G^i_ab [za,zb]
    r1_a = sum_{i,b} G^i_ab [xi,zb]

each one `tensor.lie_sum` of (coefficient, bracket tree) terms, and the
closed-form Hilbert/dimension series.  The supersymmetry calculus of a
presentation is in `symalg.susy`, its semidirect model in
`symalg.semidirect`.

The enveloping algebra U(g) of the quotient Lie algebra g has Hilbert
series 1/D, D = `ym_denominator` (Connes and Dubois-Violette, Lett. Math.
Phys. 61 (2002), for s = 0), wherever `series_valid` holds.  An ideal K of
g that is free on a graded space V (for tym, Herscovich and Solotar, Ann.
of Math. 173 (2011)) splits it as U(g) = U(K) (x) U(g/K) with U(K) = T(V),
so 1/D = H_U(g/K) / (1 - V), that is

    V = 1 - D * H_U(g/K).

`free_gen_series` evaluates this from the Lie dimensions q of g/K (degree
1 first).  Each free ideal is one row of `FREE_IDEALS`: its rule, q, and
the seeds, K's generators of weight <= len(q) as names or bracket pairs
of names.  K is the ideal the seeds generate up to weight len(q), and all
of g above it:

    ideal    rule           g/K                 q                   seeds
    tym-hat  n >= 2         x1, x2              [0, 2]              x3..xn
    tym      n >= 2         x1..xn              [0, n]              none
    k1s      n = 1, s >= 3  x1, z1, z2 and one  [0, 1, 2, 0, 0, 1]  z3..zs, [z1, z2]
                            weight-6 class

Metrics: "orthonormal" (the identity form) or an explicit symmetric
invertible matrix.
"""

import json
from fractions import Fraction
from itertools import product
from math import isqrt

from .linalg import inverse, rank
from .series import dims_from_series, enveloping_series, reciprocal
from .tensor import lie_sum, sym_alphabet


def rat(x):
    """The exact scalar of an int, a Fraction or a string such as "p/q".
    Anything else raises TypeError: a float (JSON 0.1, or 1e400 read as
    inf) has no exact meant value, and a bool is no scalar."""
    if type(x) is bool or not isinstance(x, (int, Fraction, str)):
        raise TypeError(f"a scalar must be an integer or a string 'p/q', got {x!r}")
    return Fraction(x)


def rat_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class InputError(ValueError):
    """Input the library rejects: the base of PresentationError,
    SuperLieError and SurjectionError, so that a caller can tell them from
    a program bug without importing the modules that raise them."""


class PresentationError(InputError):
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


class GammaTilde(GammaTensor):
    """Companion tensor Gt^{i,a,b}, symmetric in (a, b)."""


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


def presentation_sha256(p):
    """SHA-256 of the canonical JSON: the reports' `presentation_sha256`
    and the key of the model pickle cache."""
    from .cache import sha256

    return sha256(p.canonical_json().encode()).hexdigest()


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
    n, s, G, g = p.n, p.s, p.gamma, p.metric_upper
    x = [f"x{i+1}" for i in range(n)]
    z = [f"z{a+1}" for a in range(s)]
    r0 = [lie_sum([(g(j, l) * g(i, m), (x[j], (x[l], x[m])))
                   for j in range(n) for l in range(n) if g(j, l)
                   for m in range(n) if g(i, m)]
                  + [(Fraction(-G[i][a][b], 2), (z[a], z[b]))
                     for a in range(s) for b in range(s) if G[i][a][b]], p.alphabet)
          for i in range(n)]
    r1 = [lie_sum([(G[i][a][b], (x[i], z[b]))
                   for i in range(n) for b in range(s) if G[i][a][b]], p.alphabet)
          for a in range(s)]
    return r0, r1


def check_nondegenerate(p):
    """Whether some lambda makes lambda o Gamma nondegenerate.

    Decided by testing det(sum_i li G^i) != 0, i.e. full rank, at the
    coordinate directions and then, in lexicographic order, on the integer
    grid {0..s-1}^n.  Once no coordinate direction is a witness, every
    det G^i, the coefficient of li^s, is 0, so the determinant has degree
    <= s - 1 in each variable, and by the Combinatorial Nullstellensatz
    (Alon 1999) a nonzero one cannot vanish on that grid.  The witness is
    also the lexicographically first full-rank point of any larger grid
    {0..N}^n: at each first coordinate below the witness's, the
    determinant vanishes on the grid of the other variables, hence
    identically in them; a nonzero polynomial of degree <= s - 1 in the
    first variable allows at most s - 1 such values, so the first
    coordinate is at most s - 1, and the same holds for each later
    coordinate in turn.
    Returns (flag, witness-or-None).
    """
    if p.n == 0:
        return False, None
    if p.s == 0:
        return True, [Fraction(1)] + [Fraction(0)] * (p.n - 1)

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
    for lam in product([Fraction(v) for v in range(p.s)], repeat=p.n):
        if full_rank_at(lam):
            return True, list(lam)
    return False, None


def ym_denominator(n, s):
    """1 - n t^2 - s t^3 + s t^5 + n t^6 - t^8, as a coefficient list."""
    return [1, 0, -n, -s, 0, s, n, 0, -1]


def series_valid(n, s):
    """Whether the trivial module has the length-three resolution, so that
    the closed-form Hilbert series holds: not for n = 0, where the
    relations vanish and the algebra is free, nor for (1,0) and (1,1)."""
    return n >= 1 and (n, s) not in ((1, 0), (1, 1))


def hilbert_series_YM(n, s, order=20):
    """Hilbert series of the enveloping algebra to t^order: 1 /
    ym_denominator where series_valid holds, and for n = 0, where the
    algebra is free on s odd weight-3 generators, 1 / (1 - s t^3).  (1,0)
    and (1,1) have no closed form here and raise ValueError."""
    if n == 0:
        return reciprocal([1, 0, 0, -s], order)
    if not series_valid(n, s):
        raise ValueError(f"no closed-form Hilbert series for ({n},{s})")
    return reciprocal(ym_denominator(n, s), order)


def dims_ym(n, s, max_j=20):
    """Graded component dimensions of the quotient Lie algebra."""
    return dims_from_series(ym_denominator(n, s), max_j)


# ideal -> (rule, whether (n, s) meets it, (n, s) -> (q, seeds)): the
# table of the module docstring
FREE_IDEALS = {
    "tym-hat": ("a presentation with n >= 2", lambda n, s: n >= 2,
                lambda n, s: ([0, 2], [f"x{i}" for i in range(3, n + 1)])),
    "tym": ("a presentation with n >= 2", lambda n, s: n >= 2,
            lambda n, s: ([0, n], [])),
    "k1s": ("an n = 1 presentation with s >= 3", lambda n, s: n == 1 and s >= 3,
            lambda n, s: ([0, 1, 2, 0, 0, 1],
                          [f"z{a}" for a in range(3, s + 1)] + [("z1", "z2")])),
}


def free_ideal(ideal, n, s):
    """(q, seeds) of the row `ideal` of FREE_IDEALS; PresentationError on
    a presentation outside the ideal's rule."""
    rule, holds, row = FREE_IDEALS[ideal]
    if not holds(n, s):
        raise PresentationError(f"--ideal {ideal} requires {rule}")
    return row(n, s)


def free_gen_series(ideal, n, s, order):
    """Dimensions of the free generator space V of `ideal`, to t^order, as
    the coefficient list of V = 1 - D * H_U(g/K) (module docstring)."""
    d = ym_denominator(n, s)
    u = enveloping_series(free_ideal(ideal, n, s)[0], order)
    return [int(k == 0) - sum(d[i] * u[k - i] for i in range(min(k + 1, len(d))))
            for k in range(order + 1)]


def _is_square(q):
    q = Fraction(q)
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def normalize(p):
    """Normalized copy: witness = first coordinate, G^1 = identity.

    The odd basis change diagonalizes lambda o Gamma by symmetric
    Gram-Schmidt in the order of the unit vectors, and rescales by inverse
    square roots.  A unit vector whose projection is isotropic raises
    PresentationError, as does a diagonal entry that is not a rational
    square.  Returns (presentation, change record).
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
        # check_nondegenerate tries the unit vectors first, so a witness
        # with one nonzero coordinate is a unit vector
        if len(nonzero) == 1 and p.is_orthonormal():
            k = nonzero[0]
            gamma[0], gamma[k] = gamma[k], gamma[0]
            record["even_swap"] = [1, k + 1]
        else:
            raise PresentationError(
                "witness is not a coordinate direction; supply a presentation "
                "with an invertible first matrix"
            )
    m1 = gamma[0]

    def form(u, v):
        return sum(u[a] * m1[a][b] * v[b] for a in range(s) for b in range(s))

    # symmetric Gram-Schmidt: S^T m1 S diagonal
    chosen = []
    for i in range(s):
        u = [Fraction(int(i == j)) for j in range(s)]
        for w in chosen:
            coef = form(u, w) / form(w, w)
            u = [x - coef * y for x, y in zip(u, w)]
        if not form(u, u):
            raise PresentationError("gram-schmidt stalled on an isotropic block")
        chosen.append(u)
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
    if not is_identity(out.gamma[0]):
        raise PresentationError("normalization failed verification")
    return out, record


def omega_check(p):
    """sum_i [xi, r0_i] + sum_a [za, r1_a] == 0 in the tensor algebra."""
    r0, r1 = build_relations(p)
    return lie_sum([(1, (f"x{i+1}", r)) for i, r in enumerate(r0)]
                   + [(1, (f"z{a+1}", r)) for a, r in enumerate(r1)], p.alphabet).is_zero()


def is_identity(m):
    return all(
        m[a][b] == (1 if a == b else 0) for a in range(len(m)) for b in range(len(m))
    )
