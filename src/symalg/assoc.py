"""Weight-truncated associative quotient: normal forms and dimensions.

The quotient of the tensor algebra by the two-sided ideal generated by a
homogeneous relation set is built one weight at a time.  At weight w the
ambient space is spanned by the candidate words g * n with n a normal word
of weight w - wt(g); the ideal contributes the rows r * y over relations r
and lower normal words y (left factors are already normalized, so these
rows span the whole weight-w component of the ideal).  Each relation is
split once by first letter, r = sum_g g * t_g, and the row r * y is read as
sum_g g * nf(t_g * y), one normal form per letter.  `linalg.solve` reads
the reduced echelon of these rows over the candidate columns, taken in
ascending monomial order: its free (pivot-free) candidates are the normal
words of weight w, listed in that order in `normal[w]`.

A normal form is keyed by position: the normal form of a word of weight w
is a dict {i: coeff} over the positions i of its normal words in
`normal[w]`.  `solve`'s vectors give, per letter g and weight w, the list
`left[g][w]` whose entry i is nf(g * normal[w][i]): the candidate over the
free candidates, a free candidate being its own position.  The row r * y
places the entry i of nf(t_g * y) at the candidate column of
g * normal[.][i], and any other word g * u reduces by the first-letter
recursion nf(g * u) = sum_i c_i left[g][|u|][i] over nf(u) = sum_i c_i e_i,
both read by list index.  A normal form is shared, never copied: where
nf(u) is one unit entry the result is the table's own dict, and the
resolution's b1 columns are these dicts themselves, so every normal form
is read-only.

The result is cached by word only where a later query can read it again:
at weight at most max_weight - m, m the lightest letter's weight.  The
recursion reads a word's proper suffixes, and a word with a proper suffix
of weight above max_weight - m weighs more than max_weight, which
`normal_word` rejects; so a heavier word is computed afresh at each
query, and its dict lives as long as its caller holds it (the
resolution's top-weight y * v products die with their weight's columns).
The build never asks for one: at weight w it reduces words t_g * y of
weight w - |g|.

Normal forms follow the scalar convention of `linalg.ratio`: an integral
value is an int, and only a non-integral value carries a denominator.
`linalg.rational` returns the reduction table that way, so when the
relations are integral and the pivot entries it divides by are units (as
for the presets and for `G^1 = 1` with small integer `G^2, G^3`), every
normal form, and every resolution column built from them, is an int dict.
"""

from .linalg import addmul, echelon, rational, solve


class AssocModel:
    def __init__(self, alphabet, relations, max_weight):
        self.alphabet = alphabet
        self.max_weight = max_weight
        self.relations = list(relations)  # in order, zero relations included
        self.rel_by_weight = {}
        for r in self.relations:
            if not r.is_zero():
                self.rel_by_weight.setdefault(r.weight(), []).append(r.split())
        self.normal = {0: [()]}
        # left[g][w][i] = nf(g * normal[w][i]), read-only
        self.left = [[] for _ in alphabet.generators]
        self._nf_cache = {(): {0: 1}}
        # the heaviest word a later query can read again (module docstring)
        self._memo_weight = max_weight - min(alphabet.weights, default=0)
        for w in range(1, max_weight + 1):
            self._build_weight(w)

    # -- construction

    def _build_weight(self, w):
        # the candidates g * n as (word, g, position of n), in ascending
        # monomial order; column[g][i] is the column of g * normal[wl][i]
        cands = []
        column = {}
        for g in self.alphabet.generators:
            wl = w - g.weight
            if wl >= 0:
                gi = g.index
                column[gi] = [0] * self.dim(wl)
                cands.extend(((gi,) + n, gi, i) for i, n in enumerate(self.normal[wl]))
        cands.sort(key=lambda c: c[0][::-1])
        for j, (_, g, i) in enumerate(cands):
            column[g][i] = j
        rows = []
        weights = self.alphabet.weights
        for q, rels in self.rel_by_weight.items():
            wl = w - q
            if wl < 0:
                continue
            for y in self.normal[wl]:
                for groups in rels:
                    row = {}
                    for g, tail in groups:
                        acc = {}
                        wt = w - weights[g]
                        for rest, c in tail:
                            addmul(acc, c, self._normal_word(rest + y, wt))
                        col = column[g]
                        for i, d in acc.items():
                            row[col[i]] = d
                    if row:
                        rows.append(row)
        free, vectors = solve(echelon(rows), range(len(cands)))
        self.normal[w] = [cands[j][0] for j in free]
        # nf(g * normal[wl][i]) is its candidate's vector over the
        # pivot-free candidates
        tabs = {g: [None] * len(col) for g, col in column.items()}
        for (_, g, i), vec in zip(cands, vectors):
            tabs[g][i] = rational(vec)
        for g, tab in tabs.items():
            self.left[g].append(tab)

    # -- normal forms

    def normal_word(self, word):
        """Normal-form coordinates {position in Y_w -> coeff} of a word of
        weight w.  The result is shared with the model's tables: read it,
        never change it."""
        got = self._nf_cache.get(word)
        if got is None:
            w = self.alphabet.word_weight(word)
            if w > self.max_weight:
                raise ValueError(f"word of weight {w} beyond truncation {self.max_weight}")
            got = self._normal_word(word, w)
        return got

    def _normal_word(self, word, w):
        # normal_word of a word of weight w <= max_weight, the weight of
        # each suffix read off the letter it drops
        got = self._nf_cache.get(word)
        if got is not None:
            return got
        g = word[0]
        wl = w - self.alphabet.weights[g]
        rest = self._normal_word(word[1:], wl)
        tab = self.left[g][wl]
        if len(rest) == 1 and 1 in rest.values():
            # g times a normal word: its entry of the table, shared
            out = tab[next(iter(rest))]
        else:
            out = {}
            for i, d in rest.items():
                addmul(out, d, tab[i])
        if w <= self._memo_weight:
            self._nf_cache[word] = out
        return out

    def normal_form(self, poly):
        """The canonical representative of a polynomial's coset."""
        out = {}
        for word, c in poly.terms.items():
            nf = self.normal_word(word)
            normal = self.normal[self.alphabet.word_weight(word)]
            addmul(out, c, {normal[i]: d for i, d in nf.items()})
        from .tensor import Poly

        return Poly(self.alphabet, out)

    def contains(self, poly):
        return self.normal_form(poly).is_zero()

    def dim(self, w):
        return len(self.normal.get(w, ()))

    def dims(self):
        return {w: len(n) for w, n in sorted(self.normal.items())}
