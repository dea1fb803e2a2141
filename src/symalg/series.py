"""Truncated series as coefficient lists, and the PBW factorization that
ties the Lie dimensions to the enveloping algebra's Hilbert series.

A truncated series is a plain list of coefficients, constant term first;
its length fixes the order.  Integer input gives integer coefficients:
`reciprocal` divides by nothing, and `_binomial` is exact.

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

The same product gives the generator series of a free ideal K of g: U(g) =
U(K) (x) U(g/K) and U(K) = T(V), so V = 1 - D * h with h the
`enveloping_series` of the Lie dimensions of g/K and 1/D the Hilbert
series of U(g).  `presentation.free_gen_series` evaluates it, reading the
Lie dimensions of g/K per ideal from `presentation.FREE_IDEALS`.

Dimensions are checked to be non-negative integers.
"""


def reciprocal(p, order):
    """The series 1/p to t^order of a coefficient list p with p[0] = 1:
    each coefficient is minus the convolution of p with the lower ones."""
    if p[0] != 1:
        raise ValueError("constant term must be 1")
    h = [1] + [0] * order
    for d in range(1, order + 1):
        h[d] = -sum(p[k] * h[d - k] for k in range(1, min(d + 1, len(p))) if p[k])
    return h


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
    return h


def dims_from_series(p, max_j):
    """Graded Lie component dimensions nu_1..nu_max_j from the inverse
    Hilbert series p of the enveloping algebra, by peeling the PBW factors
    off h = 1/p in increasing degree.

    Raises ValueError if p(0) != 1 or some nu_i is negative or not an
    integer (then no graded super Lie algebra has 1/p as its series).
    """
    h = reciprocal(p, max_j)
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
