"""Clifford-Weyl algebras as PBW normal forms of U(heis)/(z - 1).

Monomials are a^eps b^eps' c^delta q^alpha p^beta with eps, eps' in
{0,1}^(t//2), delta in {0,1} (only for odd t), alpha, beta in N^r.
Multiplication rewrites to this order using exactly the quotiented
Heisenberg relations with z = 1:

    p_i q_i = q_i p_i - 1        (from [q_i, p_i] = z)
    b_i a_i = 1 - a_i b_i        (from [a_i, b_i] = z)
    c c     = 1/2                (from [c, c] = z)

with all the remaining pairs commuting or anticommuting by parity.
"""

from fractions import Fraction
from math import comb, factorial

from .linalg import addmul


class CWAlgebra:
    """The (r, t) Clifford-Weyl algebra: Weyl index r, Clifford index t."""

    def __init__(self, r, t):
        if r < 0 or t < 0:
            raise ValueError("need r, t >= 0")
        self.r = r
        self.t = t
        self.tprime = t // 2
        self.has_c = bool(t % 2)

    # -- monomial helpers: fermionic letters in normal order

    def _mono(self, eps, eps2, delta, alpha, beta):
        return (tuple(eps), tuple(eps2), delta, tuple(alpha), tuple(beta))

    def unit_mono(self):
        return self._mono(
            (0,) * self.tprime, (0,) * self.tprime, 0, (0,) * self.r, (0,) * self.r
        )

    def unit(self):
        return CWElement(self, {self.unit_mono(): Fraction(1)})

    def zero(self):
        return CWElement(self, {})

    def gen(self, name, i=None):
        m = list(self.unit_mono())
        eps, eps2, delta, alpha, beta = (
            list(m[0]),
            list(m[1]),
            m[2],
            list(m[3]),
            list(m[4]),
        )
        if name == "q":
            alpha[i - 1] = 1
        elif name == "p":
            beta[i - 1] = 1
        elif name == "a":
            eps[i - 1] = 1
        elif name == "b":
            eps2[i - 1] = 1
        elif name == "c":
            if not self.has_c:
                raise ValueError("no c generator for even t")
            delta = 1
        elif name == "z":
            return self.unit()
        else:
            raise ValueError(f"unknown generator {name}")
        return CWElement(
            self, {self._mono(eps, eps2, delta, alpha, beta): Fraction(1)}
        )

    def from_heis_name(self, name):
        """Image of a Heisenberg basis element under the z = 1 quotient."""
        if name == "z":
            return self.unit()
        kind = name[0]
        idx = int(name[1:]) if name[1:] else None
        return self.gen(kind, idx)

    # -- fermionic letter sequences

    def _fermi_letters(self, mono):
        eps, eps2, delta = mono[0], mono[1], mono[2]
        out = []
        for i, e in enumerate(eps):
            if e:
                out.append(("a", i))
        for i, e in enumerate(eps2):
            if e:
                out.append(("b", i))
        if delta:
            out.append(("c",))
        return out

    def _fermi_normalize(self, letters, coeff):
        """Normal-order a fermionic letter sequence.

        Returns {(eps, eps2, delta) -> Fraction}.
        """
        out = {}
        stack = [(list(letters), coeff)]
        order = {"a": 0, "b": 1, "c": 2}
        while stack:
            seq, c = stack.pop()
            # find the first out-of-order adjacent pair
            pos = None
            for k in range(len(seq) - 1):
                u, v = seq[k], seq[k + 1]
                if (order[u[0]], u[1] if len(u) > 1 else 0) > (
                    order[v[0]],
                    v[1] if len(v) > 1 else 0,
                ):
                    pos = k
                    break
                if u == v:
                    pos = k
                    break
            if pos is None:
                eps = [0] * self.tprime
                eps2 = [0] * self.tprime
                delta = 0
                for u in seq:
                    if u[0] == "a":
                        eps[u[1]] = 1
                    elif u[0] == "b":
                        eps2[u[1]] = 1
                    else:
                        delta = 1
                key = (tuple(eps), tuple(eps2), delta)
                val = out.get(key, Fraction(0)) + c
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
                continue
            u, v = seq[pos], seq[pos + 1]
            rest = seq[:pos], seq[pos + 2 :]
            if u == v:
                if u[0] == "c":
                    # c c = 1/2
                    stack.append((rest[0] + rest[1], c * Fraction(1, 2)))
                # a_i a_i = b_i b_i = 0: drop
                continue
            if u[0] == "b" and v[0] == "a" and u[1] == v[1]:
                # b a = 1 - a b
                stack.append((rest[0] + rest[1], c))
                stack.append((rest[0] + [v, u] + rest[1], -c))
                continue
            # distinct anticommuting letters
            stack.append((rest[0] + [v, u] + rest[1], -c))
        return out

    def _bose_mult(self, alpha, beta, alpha2, beta2):
        """(q^alpha p^beta) (q^alpha2 p^beta2) -> {(alpha', beta') -> coeff}.

        Independent per index: p^m q^k = sum_j (-1)^j j! C(m,j) C(k,j)
        q^(k-j) p^(m-j).
        """
        parts = [{((), ()): Fraction(1)}]
        for i in range(self.r):
            m, k = beta[i], alpha2[i]
            local = {}
            for j in range(min(m, k) + 1):
                coef = Fraction((-1) ** j * factorial(j) * comb(m, j) * comb(k, j))
                key = (alpha[i] + k - j, m - j + beta2[i])
                local[key] = local.get(key, Fraction(0)) + coef
            nxt = {}
            for (ta, tb), c in parts[-1].items():
                for (qa, pb), d in local.items():
                    key = (ta + (qa,), tb + (pb,))
                    nxt[key] = nxt.get(key, Fraction(0)) + c * d
            parts.append(nxt)
        return parts[-1]


class CWElement:
    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {k: Fraction(v) for k, v in terms.items() if v}

    def __eq__(self, other):
        return isinstance(other, CWElement) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        addmul(out, 1, other.terms)
        return CWElement(self.algebra, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        k = Fraction(k)
        return CWElement(self.algebra, {m: c * k for m, c in self.terms.items()})

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        alg = self.algebra
        out = {}
        for m1, c1 in self.terms.items():
            f1 = alg._fermi_letters(m1)
            for m2, c2 in other.terms.items():
                f2 = alg._fermi_letters(m2)
                # bosonic and fermionic parts commute
                fermi = alg._fermi_normalize(f1 + f2, c1 * c2)
                bose = alg._bose_mult(m1[3], m1[4], m2[3], m2[4])
                for (eps, eps2, delta), cf in fermi.items():
                    for (qa, pb), cb in bose.items():
                        key = (eps, eps2, delta, qa, pb)
                        val = out.get(key, Fraction(0)) + cf * cb
                        if val:
                            out[key] = val
                        else:
                            out.pop(key, None)
        return CWElement(alg, out)

    def __rmul__(self, k):
        return self.scale(k)

    def mono_name(self, mono):
        eps, eps2, delta, alpha, beta = mono
        bits = []
        for i, e in enumerate(eps):
            if e:
                bits.append(f"a{i+1}")
        for i, e in enumerate(eps2):
            if e:
                bits.append(f"b{i+1}")
        if delta:
            bits.append("c")
        for i, e in enumerate(alpha):
            if e:
                bits.append(f"q{i+1}" + (f"^{e}" if e > 1 else ""))
        for i, e in enumerate(beta):
            if e:
                bits.append(f"p{i+1}" + (f"^{e}" if e > 1 else ""))
        return "*".join(bits) if bits else "1"

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"{c}*{self.mono_name(m)}" for m, c in sorted(self.terms.items())
        ).replace("+ -", "- ")
