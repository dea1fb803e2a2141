"""Exact sparse Gaussian elimination over the rationals.

This is the package's only elimination code: every rank, kernel, inverse,
linear solve, span test and normal-form table is computed here.

Rows are dicts column -> integer (a common denominator is cleared before
insertion; scale never matters for spans and ranks).  The core object is an
incremental echelon: vectors are reduced against the rows already present
and inserted if independent.  Pivots sit on the smallest column of each
row, so with columns listed in ascending monomial order the non-pivot
columns of a completed echelon are the canonical coset representatives.
`full_reduce` brings the rows to reduced echelon form, which is unique;
`solve` reads it (the free columns, and each column over them) for the Lie
and associative steps, the free generators, the surjection and `kernel`.

Rational vectors (dicts, or dense rows given as sequences) enter through
`extend`/`echelon`; `rank`, `rref`, `kernel` and `inverse` are built on
them.  Their values follow one scalar convention: an integral value is an
`int` and any other value a `Fraction`.  `ratio(x, d)` is that rule for a
quotient of ints; `rref`, so `inverse` too, returns its values through
it (a row whose pivot entry is 1 is returned as it is), and `kernel`
through `rational`; integral results never enter `fractions.py`.  `intvec`
returns an all-int dict as its zero-free copy over scale 1, with no pass
over denominators.

`span` inserts a batch of integer rows sparsest first, by a stable sort
on the nonzero count; `echelon`, the Lie engine's generator spans and the
surjection's per-weight systems all go through it.  The cost of
elimination is fill: a dense early row is added into every later row that
meets its pivot, while sparse rows keep the echelon sparse.  (The
resolution mostly needs no echelon for `b1` and `b2`:
`resolution.certified_rank` counts their distinct leading positions, a
lower bound on the rank, and where the count reaches an upper bound on
the rank (d0 for `b1`, dim ker `b1` for `b2`) that bound is the rank.)
The order is safe because the rank and the row space do not depend on it,
and the reduced echelon form is unique; `rref` returns pivots and row keys
in ascending order, so nothing a caller sees depends on the order either.

`addmul` is the in-place sparse accumulate `out += a * vec` on rational
dicts (int and Fraction values alike); it stores no zero value.  The
elimination kernel eliminates in place through it: a pivot step
`v <- a*v - b*r` scales the working row only when the pivot entry `a` is
not 1 and then adds `-b*r`, so with a unit pivot it touches only the
pivot row's entries instead of copying the working row.

The Lie engine holds a rational vector as integers over one positive
denominator, a pair (den, {key: int}) with gcd(den, entries) = 1, in the
fraction-free style of Bareiss (Math. Comp. 22, 1968).  `add_scaled`
accumulates such vectors into an accumulator [den, {key: int}], rescaling
it to the lcm of the denominators it meets and then adding through
`addmul`; `primitive` turns an accumulator back into a vector, and
`rational` gives a vector's values under the scalar convention above.
"""

from fractions import Fraction
from math import gcd


def vec_gcd(values, g=0):
    """gcd(g, *values), stopping at the first 1."""
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
    """Clear denominators: dict col->rational to (dict col->int, scale).
    An all-int dict comes back as its zero-free copy with scale 1."""
    if all(type(c) is int for c in fracvec.values()):
        return {k: c for k, c in fracvec.items() if c}, 1
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


def add_scaled(acc, a, vec, d=1):
    """acc += (a / d) * vec for ints a and d > 0, with acc an accumulator
    [den, {key: int}] and vec a vector (den, {key: int}).  acc's
    numerators are rescaled first when vec's denominator does not divide
    acc's; an entry that cancels is removed."""
    vd, v = vec
    vd *= d
    den, out = acc
    if vd != den:
        if den % vd:
            m = vd // gcd(den, vd)
            for k in out:
                out[k] *= m
            den *= m
            acc[0] = den
        a *= den // vd
    addmul(out, a, v)


def primitive(acc):
    """The vector (den, {key: int}) of an accumulator, with
    gcd(den, entries) = 1."""
    den, out = acc
    g = vec_gcd(out.values(), den)
    if g > 1:
        return den // g, {k: x // g for k, x in out.items()}
    return den, out


def rational(vec):
    """The rational dict of a vector (den, {key: int}), its values as
    `ratio` gives them.  A vector over den 1 is returned as its own dict."""
    d, v = vec
    if d == 1:
        return v
    return {k: ratio(x, d) for k, x in v.items()}


def _eliminate(v, r, p):
    """v <- a*v - b*r in place, with a = r[p] and b = v[p], clearing column
    p of v; returns a.  Values and key order are those of a fresh dict
    built from a*v and then -b*r."""
    a = r[p]
    b = v[p]
    if a != 1:
        for k, x in v.items():
            v[k] = a * x
    addmul(v, -b, r)
    return a


class Echelon:
    """Incremental sparse row echelon over Q with integer rows.

    The rows are owned by the echelon: `insert` stores its own reduced
    copy of the vector, never the caller's dict, and `full_reduce`
    rewrites the rows in place.
    """

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
            a = _eliminate(v, r, p)
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
                _eliminate(r, rows[q], q)
            r, _ = self._strip(r)
            rows[p] = r if r[p] > 0 else {k: -x for k, x in r.items()}


def solve(ech, keys):
    """Fully reduce ech and read it off over `keys`, a sequence holding every
    column of its rows.  Returns (free, vectors): free numbers the non-pivot
    keys in `keys` order, and vectors is an iterator that yields, one at a
    time and in `keys` order, each key over the free keys as a vector
    (den, {free number: int}).  The reduced row r of a pivot p reads
    r[p] p = -sum r[f] f, so p gives (r[p], {free[f]: -r[f]})."""
    ech.full_reduce()
    rows = ech.rows
    free = {k: t for t, k in enumerate(k for k in keys if k not in rows)}

    def vector(k):
        r = rows.get(k)
        if r is None:
            return 1, {free[k]: 1}
        return r[k], {free[f]: -x for f, x in r.items() if f != k}

    return free, map(vector, keys)


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


def span(rows):
    """The echelon of integer rows, inserted sparsest first (a stable sort,
    so ties keep input order)."""
    ech = Echelon()
    for row in sorted(rows, key=len):
        ech.insert(row)
    return ech


def echelon(vectors):
    """The echelon of the span of rational vectors, by `span`."""
    return span(map(_introw, vectors))


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
    out = {}
    for p in sorted(ech.rows):
        row = sorted(ech.rows[p].items())
        a = ech.rows[p][p]
        out[p] = dict(row) if a == 1 else {k: ratio(x, a) for k, x in row}
    return out


def kernel(rows, ncols):
    """Basis of {x : M x = 0} for M given by its rows, one dict per non-pivot
    column f (x[f] = 1, zero at the other non-pivot columns), f ascending."""
    free, vectors = solve(echelon(rows), range(ncols))
    out = [{} for _ in free]
    for c, vec in enumerate(vectors):
        for t, x in rational(vec).items():
            out[t][c] = x
    return out


def inverse(m):
    """Inverse of a square matrix (list of rows), or None if it is singular."""
    n = len(m)
    red = rref({**dict(enumerate(row)), n + i: 1} for i, row in enumerate(m))
    if any(i not in red for i in range(n)):
        return None
    return [[red[i].get(n + j, 0) for j in range(n)] for i in range(n)]
