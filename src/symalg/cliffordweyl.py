"""Clifford-Weyl algebras as PBW normal forms of U(heis)/(z - 1).

The letters are the basis of heis(r, t) without the central z, in the
order a, b, c, q, p; a monomial is a tuple of exponents over the letters,
an odd letter's exponent being 0 or 1.  A product moves each letter of
the right factor leftward with one rule, read off heis's bracket table
at z = 1:

    x_k x_l = (-1)^(|k||l|) x_l x_k + [x_k, x_l],
    x_l x_l = [x_l, x_l] / 2       for odd l.

From [q_i, p_i] = [a_i, b_i] = [c, c] = z this gives p_i q_i = q_i p_i - 1,
b_i a_i = 1 - a_i b_i and c c = 1/2, all other pairs commuting or
anticommuting by parity.
"""

from fractions import Fraction

from .linalg import addmul
from .superlie import heis


class CWAlgebra:
    """The (r, t) Clifford-Weyl algebra U(heis(r, t))/(z - 1): Weyl index
    r, Clifford index t."""

    def __init__(self, r, t):
        g = heis(r, t)
        self.r = r
        self.t = t
        z = g.index("z")
        # heis lists q, p, z, a, b, c: the odd letters go first
        basis = sorted((i for i in range(g.dim) if i != z),
                       key=lambda i: -g.parities[i])
        self.names = [g.names[i] for i in basis]
        self.parities = [g.parities[i] for i in basis]
        # [x_k, x_l] at z = 1: heis brackets land in the span of z
        self.brackets = {}
        for k, i in enumerate(basis):
            for l, j in enumerate(basis):
                c = g.bracket(i, j).get(z)
                if c:
                    self.brackets[(k, l)] = c

    def unit(self):
        return CWElement(self, {(0,) * len(self.names): Fraction(1)})

    def zero(self):
        return CWElement(self, {})

    def gen(self, name, i=None):
        """The image of heis's basis element `name`, or `name` followed by
        the index i (gen("q", 1) is q1); gen("z") is 1."""
        if i is not None:
            name = f"{name}{i}"
        if name == "z":
            return self.unit()
        if name not in self.names:
            raise ValueError(f"unknown generator {name}")
        mono = [0] * len(self.names)
        mono[self.names.index(name)] = 1
        return CWElement(self, {tuple(mono): Fraction(1)})

    def _times_letter(self, mono, l):
        """{monomial: coefficient} of mono * x_l: x_l moves left past each
        larger letter x_k, and x_k^e x_l = (-1)^(e|k||l|) x_l x_k^e
        + e [x_k, x_l] x_k^(e-1)."""
        out = {}
        sign = 1
        odd = self.parities[l]
        for k in range(len(mono) - 1, l, -1):
            e = mono[k]
            if not e:
                continue
            c = self.brackets.get((k, l))
            if c:
                m = list(mono)
                m[k] -= 1
                out[tuple(m)] = sign * e * c
            if odd and self.parities[k]:
                sign = -sign
        m = list(mono)
        if odd and m[l]:
            c = self.brackets.get((l, l))
            if c:
                m[l] = 0
                out[tuple(m)] = sign * c / 2
        else:
            m[l] += 1
            out[tuple(m)] = Fraction(sign)
        return out

    def _times_mono(self, m1, m2):
        """{monomial: coefficient} of m1 * m2, multiplying by the letters of
        m2 one at a time."""
        terms = {m1: Fraction(1)}
        for l, e in enumerate(m2):
            for _ in range(e):
                nxt = {}
                for m, c in terms.items():
                    addmul(nxt, c, self._times_letter(m, l))
                terms = nxt
        return terms


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
            for m2, c2 in other.terms.items():
                addmul(out, c1 * c2, alg._times_mono(m1, m2))
        return CWElement(alg, out)

    def __rmul__(self, k):
        return self.scale(k)

    def mono_name(self, mono):
        names = self.algebra.names
        bits = [names[k] + (f"^{e}" if e > 1 else "")
                for k, e in enumerate(mono) if e]
        return "*".join(bits) if bits else "1"

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"{c}*{self.mono_name(m)}" for m, c in sorted(self.terms.items())
        ).replace("+ -", "- ")
