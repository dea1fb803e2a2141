"""Tensor-coordinate Lie quotient: the test oracle for `symalg.engine`.

This is the engine's former construction, kept so that the
quotient-coordinate build can be checked against an independent route.
Every element is expanded into tensor words; at weight w the ideal
component is spanned by the relations of weight w and by brackets of
generators with the lower ideal components, and coset representatives
are the generators of weight w, then the brackets [g, b_j] over lower
representatives, kept greedily when independent modulo the ideal.  Each
representative's row carries a tag column above the word columns, so the
reduction of a candidate reads off its quotient coordinates and the
oracle has the same `ad` columns as the engine (as rational dicts, which
the engine's integer vectors give through `symalg.linalg.rational`).  Row
counts grow with the number of tensor words, so keep cutoffs small (about
11).

`random_poly` draws the random tensor polynomials the tests feed to the
engines, and `words_of_weight` lists the tensor words of one weight.
"""

from fractions import Fraction
from functools import cache

from symalg.engine import EngineError
from symalg.linalg import Echelon, intvec
from symalg.tensor import Poly, super_commutator


@cache
def words_of_weight(alphabet, w):
    """All words of total weight w, in ascending monomial order."""
    if w < 0:
        return []
    if w == 0:
        return [()]
    # Building by appended last letter keeps colex order: the last letter
    # is the primary tiebreaker within a weight.
    return [u + (g.index,) for g in alphabet.generators
            for u in words_of_weight(alphabet, w - g.weight)]


class OracleRep:
    __slots__ = ("label", "poly", "parity")

    def __init__(self, label, poly, parity):
        self.label = label
        self.poly = poly
        self.parity = parity


class TensorLieModel:
    """Lie quotient truncated at weights <= cutoff + 1, in tensor words."""

    def __init__(self, alphabet, relations, cutoff):
        self.alphabet = alphabet
        self.max_weight = cutoff + 1
        self.rel_by_weight = {}
        for r in relations:
            if not r.is_zero():
                self.rel_by_weight.setdefault(r.weight(), []).append(r)
        self.reps = {}
        self.solvers = {}
        self.ideal_rows = {}
        # (generator name, weight, position) -> quotient coordinates of [g, b]
        self.ad = {}
        # weight -> position of each tensor word in words_of_weight
        self.word_index = {}
        self._build()

    def _build(self):
        A = self.alphabet
        min_w = min(g.weight for g in A.generators)
        for w in range(min_w, self.max_weight + 1):
            index = self.word_index[w] = {
                u: i for i, u in enumerate(words_of_weight(A, w))}
            solver = Echelon()
            for r in self.rel_by_weight.get(w, ()):
                solver.insert(_int_row(r, index))
            for g in A.generators:
                wl = w - g.weight
                lwords = words_of_weight(A, wl)
                for row in self.ideal_rows.get(wl, ()):
                    solver.insert(_bracket_row(g, row, wl & 1, lwords, index))
            self.ideal_rows[w] = [dict(r) for r in solver.rows.values()]
            # representative k enters as its word row plus a tag column
            # keyed len(index) + k, above the word columns
            nwords = len(index)
            reps = []
            for g in A.generators:
                if g.weight == w:
                    p = A.gen(g.name)
                    row = _int_row(p, index)
                    if _solve(solver, row, nwords) is None:
                        solver.insert({**row, nwords + len(reps): 1})
                        reps.append(OracleRep(g.name, p, g.parity))
            for g in A.generators:
                wl = w - g.weight
                for j, rep in enumerate(self.reps.get(wl, ())):
                    p = super_commutator(A.gen(g.name), rep.poly)
                    coords = {}
                    if not p.is_zero():
                        row = _int_row(p, index)
                        coords = _solve(solver, row, nwords)
                        if coords is None:
                            coords = {len(reps): Fraction(1)}
                            solver.insert({**row, nwords + len(reps): 1})
                            reps.append(OracleRep((g.name, rep.label), p,
                                                  (g.parity + rep.parity) % 2))
                    self.ad[(g.name, wl, j)] = coords
            self.reps[w] = reps
            self.solvers[w] = solver

    def dims(self):
        return {w: len(r) for w, r in sorted(self.reps.items())}

    def labels(self):
        return {w: [r.label for r in reps] for w, reps in sorted(self.reps.items())}

    def ideal_dim(self, w):
        return len(self.ideal_rows.get(w, ()))

    def project(self, poly):
        """Quotient coordinates of a homogeneous Lie element ({} in the ideal)."""
        if poly.is_zero():
            return {}
        w = poly.weight()
        if w > self.max_weight:
            return {}
        index = self.word_index[w]
        iv, den = intvec({index[u]: c for u, c in poly.terms.items()})
        sol = _solve(self.solvers[w], iv, len(index))
        if sol is None:
            raise EngineError(f"element of weight {w} is not in the Lie span")
        return {j: c / den for j, c in sol.items() if c}


def _solve(solver, row, nwords):
    """Coordinates of a word row over the tagged representatives, modulo
    the ideal rows; None if the row is independent of them.

    reduce gives scale * [row | 0] - residual in the span of the ideal rows
    and the tagged rows [rep_k | e_k], so a residual on tag columns alone
    reads off row = sum_k (-residual[tag k] / scale) rep_k.
    """
    v, s = solver.reduce(row)
    if v and min(v) < nwords:
        return None
    return {k - nwords: Fraction(-x, s) for k, x in v.items()}


def _bracket_row(g, row, row_parity, lower_words, upper_index):
    """Integer row of [g, row] from an integer row at a lower weight."""
    sign = -1 if (g.parity and row_parity) else 1
    out = {}
    for col, c in row.items():
        u = lower_words[col]
        for k, v in ((upper_index[(g.index,) + u], c),
                     (upper_index[u + (g.index,)], -sign * c)):
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _int_row(poly, index):
    iv, _ = intvec({index[u]: c for u, c in poly.terms.items()})
    return iv


def random_poly(alphabet, weight, rng, terms=3, scale=4):
    """Random homogeneous-weight polynomial."""
    words = words_of_weight(alphabet, weight)
    if not words:
        return alphabet.zero()
    out = {}
    for _ in range(terms):
        u = words[rng.randrange(len(words))]
        c = Fraction(rng.randint(-scale, scale))
        if c:
            out[u] = out.get(u, Fraction(0)) + c
    return Poly(alphabet, {u: c for u, c in out.items() if c})
