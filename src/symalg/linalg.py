"""Exact sparse Gaussian elimination over the rationals.

This is the package's only elimination code: every rank, kernel, inverse,
linear solve, span test and normal-form table is computed here.

Rows are dicts column -> integer (a common denominator is cleared before
insertion; scale never matters for spans and ranks).  The core object is an
incremental echelon: vectors are reduced against the rows already present
and inserted if independent.  Pivots sit on the smallest column of each
row, so with columns listed in ascending monomial order the non-pivot
columns of a completed echelon are the canonical coset representatives.
`full_reduce` brings the rows to reduced echelon form, which is unique.

Rational vectors (dicts, or dense rows given as sequences) enter through
`extend`/`echelon`; `rank`, `rref`, `kernel` and `inverse` are built on
them.  Their values follow one scalar convention: an integral value is an
`int` and any other value a `Fraction`.  `ratio(x, d)` is that rule for a
quotient of ints, and `rref`, so `kernel` and `inverse` too, returns its
values through it; integral results never enter `fractions.py`.

`echelon` inserts a batch sparsest first, by a stable sort on the
nonzero count.  The cost of elimination is fill: a dense early row is
added into every later row that meets its pivot, while sparse rows keep
the echelon sparse (for the resolution ranks, the rows of a multiplication
map end as unit vectors).  The order is safe because the rank and the row
space do not depend on it, and the reduced echelon form is unique; `rref`
returns pivots and row keys in ascending order, so nothing a caller sees
depends on the order either.

`addmul` is the in-place sparse accumulate `out += a * vec` on rational
dicts (int and Fraction values alike); it stores no zero value.  The
elimination kernel keeps its own loop, `_axpy`, and the Lie engine's
integer vectors over one denominator keep theirs, `engine._add_scaled`.
"""

from fractions import Fraction
from math import gcd


def vec_gcd(values):
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def ratio(x, d):
    """x / d for ints x and d != 0: an int when d divides x, else a
    Fraction."""
    return x // d if x % d == 0 else Fraction(x, d)


def intvec(fracvec):
    """Clear denominators: dict col->rational to (dict col->int, scale)."""
    den = 1
    for c in fracvec.values():
        den = den * c.denominator // gcd(den, c.denominator)
    out = {}
    for k, c in fracvec.items():
        v = int(c * den)
        if v:
            out[k] = v
    return out, den


def addmul(out, a, vec):
    """out += a * vec in place, for dicts key -> number; an entry that
    cancels is removed, so out never holds a zero value."""
    for k, c in vec.items():
        x = out.get(k, 0) + a * c
        if x:
            out[k] = x
        else:
            out.pop(k, None)


def _axpy(a, v, b, r):
    """Return a*v - b*r for int dicts."""
    out = {}
    for k, x in v.items():
        out[k] = a * x
    for k, y in r.items():
        val = out.get(k, 0) - b * y
        if val:
            out[k] = val
        else:
            out.pop(k, None)
    return out


class Echelon:
    """Incremental sparse row echelon over Q with integer rows."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def _strip(self, v, s=None):
        g = vec_gcd(v.values())
        if s is not None:
            g = gcd(g, s)
        if g > 1:
            v = {k: x // g for k, x in v.items()}
            if s is not None:
                s //= g
        return v, s

    def reduce(self, vec):
        """Reduce vec against the echelon.

        Returns (residual, scale) with scale * vec - residual in the row
        span.  residual == {} means vec lies in the row span.
        """
        v = dict(vec)
        s = 1
        rows = self.rows
        step = 0
        while v:
            p = min(v)
            r = rows.get(p)
            if r is None:
                break
            a = r[p]
            v = _axpy(a, v, v[p], r)
            s *= a
            step += 1
            if a != 1 and step % 8 == 0:
                v, s = self._strip(v, s)
        return v, s

    def insert(self, vec):
        """Reduce and insert if independent.  Returns the pivot or None."""
        v, _ = self.reduce(vec)
        if not v:
            return None
        v, _ = self._strip(v)
        p = min(v)
        self.rows[p] = v if v[p] > 0 else {k: -x for k, x in v.items()}
        return p

    def full_reduce(self):
        """Clear every row at the other rows' pivots (reduced echelon form).

        Rows are cleared from the largest pivot down, so each row is reduced
        by rows that no longer hold other pivots.  Afterwards the row of a
        pivot column expresses it over the non-pivot columns alone.
        """
        rows = self.rows
        for p in sorted(rows, reverse=True):
            r = rows[p]
            for q in [k for k in r if k != p and k in rows]:
                r = _axpy(rows[q][q], r, r[q], rows[q])
            r, _ = self._strip(r)
            rows[p] = r if r[p] > 0 else {k: -x for k, x in r.items()}


# -- rational vectors and matrices (dicts col -> value, or dense rows)


def _introw(vec):
    """The integer row of a rational vector (dict, or dense row)."""
    if not isinstance(vec, dict):
        vec = dict(enumerate(vec))
    return intvec(vec)[0]


def extend(ech, vec):
    """Insert a rational vector (dict, or dense row) into ech; True if it
    was independent."""
    return ech.insert(_introw(vec)) is not None


def echelon(vectors):
    """The echelon of the span of rational vectors, inserted sparsest first
    (a stable sort, so ties keep input order)."""
    ech = Echelon()
    for row in sorted(map(_introw, vectors), key=len):
        ech.insert(row)
    return ech


def rank(vectors):
    """Dimension of the span of rational vectors."""
    return echelon(vectors).rank


def rref(vectors):
    """Reduced row echelon form: pivot column -> row with pivot entry 1 and
    zeros at the other pivots, with pivots and the keys of each row
    ascending.  Integral values are ints and the others Fractions (see
    `ratio`).  Pivots sit on the smallest column, so the result,
    key order included, depends only on the row space."""
    ech = echelon(vectors)
    ech.full_reduce()
    rows = ech.rows
    return {
        p: {k: ratio(x, rows[p][p]) for k, x in sorted(rows[p].items())}
        for p in sorted(rows)
    }


def kernel(rows, ncols):
    """Basis of {x : M x = 0} for M given by its rows, one dict per non-pivot
    column f (x[f] = 1, zero at the other non-pivot columns), f ascending."""
    red = rref(rows)
    out = []
    for f in range(ncols):
        if f not in red:
            x = {f: 1}
            x.update((p, -r[f]) for p, r in red.items() if f in r)
            out.append(dict(sorted(x.items())))
    return out


def inverse(m):
    """Inverse of a square matrix (list of rows), or None if it is singular."""
    n = len(m)
    red = rref({**dict(enumerate(row)), n + i: 1} for i, row in enumerate(m))
    if any(i not in red for i in range(n)):
        return None
    return [[red[i].get(n + j, 0) for j in range(n)] for i in range(n)]
