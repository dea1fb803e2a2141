"""Truncated power series, dense polynomials, and the PBW factorization
that ties the Lie dimensions to the enveloping algebra's Hilbert series.

By the PBW theorem, a graded super Lie algebra with dimension nu_i in
degree i (parity = degree mod 2) has an enveloping algebra with Hilbert
series

    h(t) = prod_i (1 - (-1)^i t^i)^(-(-1)^i nu_i),

a symmetric algebra (1 - t^i)^(-nu_i) on each even degree and an exterior
algebra (1 + t^i)^(nu_i) on each odd one.  `enveloping_series` multiplies
the factors out; `dims_from_series` reads the factorization backwards from
h = 1/p: nu_i is the coefficient of t^i once the factors of the lower
degrees are divided off.  Both use `_times_factor`, the one place the sign
and parity convention of a factor is written.

All coefficients are exact: ints where integral, Fractions otherwise;
dimensions are checked to be non-negative integers.
"""

from fractions import Fraction


class DensePolynomial:
    """Coefficient list, constant term first, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    def __getitem__(self, d):
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else Fraction(0)

    def degree(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, DensePolynomial) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"DensePolynomial({self.coeffs})"

    def series(self, order):
        return PowerSeries([self[d] for d in range(order + 1)], order)


class PowerSeries:
    """Power series truncated at a fixed order (inclusive)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        cs = [Fraction(c) for c in coeffs[: order + 1]]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.coeffs = cs
        self.order = order

    def __getitem__(self, d):
        if d < 0:
            return Fraction(0)
        if d > self.order:
            raise IndexError(f"coefficient {d} beyond truncation order {self.order}")
        return self.coeffs[d]

    def __eq__(self, other):
        return (
            isinstance(other, PowerSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"PowerSeries({self.coeffs}, order={self.order})"

    def __add__(self, other):
        n = min(self.order, other.order)
        return PowerSeries([self[d] + other[d] for d in range(n + 1)], n)

    def __sub__(self, other):
        n = min(self.order, other.order)
        return PowerSeries([self[d] - other[d] for d in range(n + 1)], n)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PowerSeries([c * other for c in self.coeffs], self.order)
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return PowerSeries(out, n)

    def inverse(self):
        if self.coeffs[0] == 0:
            raise ValueError("inverse requires a nonzero constant term")
        n = self.order
        inv = [Fraction(0)] * (n + 1)
        inv[0] = 1 / self.coeffs[0]
        for d in range(1, n + 1):
            acc = Fraction(0)
            for k in range(1, d + 1):
                if self.coeffs[k]:
                    acc += self.coeffs[k] * inv[d - k]
            inv[d] = -acc / self.coeffs[0]
        return PowerSeries(inv, n)


def _binomial(n, k):
    """n choose k for any integer n, negative included: each step's
    quotient is again a binomial coefficient, so floor division is exact."""
    out = 1
    for j in range(k):
        out = out * (n - j) // (j + 1)
    return out


def _times_factor(h, i, nu):
    """Multiply the coefficient list h in place by the PBW factor of nu
    generators in degree i: (1 - t^i)^(-nu) for even i, (1 + t^i)^nu for
    odd i.  The factor for -nu is its inverse."""
    order = len(h) - 1
    if i % 2:
        cs = [_binomial(nu, k) for k in range(order // i + 1)]
    else:
        cs = [_binomial(nu + k - 1, k) for k in range(order // i + 1)]
    # descending degrees read only coefficients not yet overwritten
    for d in range(order, i - 1, -1):
        acc = h[d]
        for k in range(1, d // i + 1):
            b = h[d - i * k]
            if b and cs[k]:
                acc += cs[k] * b
        h[d] = acc


def enveloping_series(dims, order):
    """Hilbert series of the free graded-supercommutative algebra on a
    graded space with dimension nu_i in degree i (odd degrees = odd
    parity): the PBW product of the factors (module docstring)."""
    h = [1] + [0] * order
    for i, nu in enumerate(dims[:order], start=1):
        if nu:
            _times_factor(h, i, nu)
    return PowerSeries(h, order)


def dims_from_series(p, max_j):
    """Graded Lie component dimensions nu_1..nu_max_j from the inverse
    Hilbert series p of the enveloping algebra, by peeling the PBW factors
    off h = 1/p in increasing degree.

    Raises ValueError if p(0) != 1 or some nu_i is negative or not an
    integer (then no graded super Lie algebra has 1/p as its series).
    """
    if not isinstance(p, DensePolynomial):
        p = DensePolynomial(p)
    if p[0] != 1:
        raise ValueError("constant term must be 1")
    h = [int(c) if c.denominator == 1 else c for c in p.series(max_j).inverse().coeffs]
    dims = []
    for i in range(1, max_j + 1):
        nu = h[i]
        if nu.denominator != 1 or nu < 0:
            raise ValueError(f"inconsistent Hilbert data at degree {i}: nu={nu}")
        nu = int(nu)
        dims.append(nu)
        if nu:
            _times_factor(h, i, -nu)
    return dims
