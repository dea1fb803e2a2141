"""Exact sparse Gaussian elimination over the rationals.

Rows are dicts column -> integer (a common denominator is cleared before
insertion; scale never matters for spans and ranks).  The core object is an
incremental echelon: vectors are reduced against the rows already present
and inserted if independent.  Pivots sit on the smallest column of each
row, so with columns listed in ascending monomial order the non-pivot
columns of a completed echelon are the canonical coset representatives.

An echelon can optionally carry per-row bookkeeping ("meta"): a row then
knows an exact expression of itself as (untracked rows) + sum_k meta[k] *
X_k over caller-chosen tags.  Reducing a vector to zero through such an
echelon recovers its coefficients over the tagged vectors, which is how
quotient coordinates and free-generator decompositions are solved for.
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


def intvec(fracvec):
    """Clear denominators: dict col->Fraction to (dict col->int, scale)."""
    den = 1
    for c in fracvec.values():
        den = den * c.denominator // gcd(den, c.denominator)
    out = {}
    for k, c in fracvec.items():
        v = int(c * den)
        if v:
            out[k] = v
    return out, den


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

    __slots__ = ("rows", "metas", "track")

    def __init__(self, track=False):
        self.rows = {}
        self.metas = {} if track else None
        self.track = track

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def _strip(self, v, meta, s):
        g = vec_gcd(v.values())
        if meta:
            g = gcd(g, vec_gcd(meta.values()))
        if s is not None:
            g = gcd(g, s)
        if g > 1:
            v = {k: x // g for k, x in v.items()}
            if meta:
                meta = {k: x // g for k, x in meta.items()}
            if s is not None:
                s //= g
        return v, meta, s

    def reduce(self, vec, meta=None):
        """Reduce vec against the echelon.

        Returns (residual, meta_acc, scale) with the exact identity
        scale * vec = residual + (combination of rows whose accumulated
        meta is meta_acc).  residual == {} means vec lies in the row span.
        """
        v = dict(vec)
        acc = dict(meta) if meta else {}
        s = 1
        rows = self.rows
        metas = self.metas
        step = 0
        while v:
            p = min(v)
            r = rows.get(p)
            if r is None:
                break
            a = r[p]
            b = v[p]
            v = _axpy(a, v, b, r)
            if metas is not None:
                m = metas[p]
                acc = _axpy(a, acc, b, m) if (acc or m) else {}
            s *= a
            step += 1
            if a != 1 and step % 8 == 0:
                v, acc, s = self._strip(v, acc, s)
        return v, acc, s

    def insert(self, vec, meta=None):
        """Reduce and insert if independent.  Returns the pivot or None."""
        v, acc, _ = self.reduce(vec, meta)
        if not v:
            return None
        return self._add(v, acc)

    def _add(self, v, acc):
        v, acc, _ = self._strip(v, acc, None)
        p = min(v)
        if v[p] < 0:
            v = {k: -x for k, x in v.items()}
            acc = {k: -x for k, x in acc.items()}
        self.rows[p] = v
        if self.track:
            self.metas[p] = acc
        return p

    def full_reduce(self):
        """Clear every row at the other rows' pivots (reduced echelon form).

        Rows are cleared from the largest pivot down, so each row is reduced
        by rows that no longer hold other pivots.  Afterwards the row of a
        pivot column expresses it over the non-pivot columns alone.
        """
        if self.track:
            raise ValueError("full reduction does not update meta")
        rows = self.rows
        for p in sorted(rows, reverse=True):
            r = rows[p]
            for q in [k for k in r if k != p and k in rows]:
                r = _axpy(rows[q][q], r, r[q], rows[q])
            r, _, _ = self._strip(r, None, None)
            rows[p] = r if r[p] > 0 else {k: -x for k, x in r.items()}

    def contains(self, vec):
        v, _, _ = self.reduce(vec)
        return not v

    def solve(self, vec):
        """Coefficients of vec over the tagged vectors, modulo untracked rows.

        Returns dict tag -> Fraction, or None if vec is not in the span.
        """
        if not self.track:
            raise ValueError("echelon does not track meta")
        v, acc, s = self.reduce(vec)
        if v:
            return None
        return {k: Fraction(-x, s) for k, x in acc.items() if x}


# -- small dense helpers (Fraction matrices as lists of lists)


def dense_rank(mat):
    if not mat:
        return 0
    m = [list(map(Fraction, row)) for row in mat]
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        inv = 1 / pr[col]
        for j in range(col, ncols):
            pr[j] *= inv
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                row = m[i]
                for j in range(col, ncols):
                    row[j] -= f * pr[j]
        rank += 1
        if rank == len(m):
            break
    return rank


def dense_kernel(mat, ncols):
    """Basis of {x : M x = 0} for M given as list of rows."""
    m = [list(map(Fraction, row)) for row in mat]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        inv = 1 / pr[col]
        for j in range(col, ncols):
            pr[j] *= inv
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                row = m[i]
                for j in range(col, ncols):
                    row[j] -= f * pr[j]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -m[r][fc]
        basis.append(x)
    return basis
