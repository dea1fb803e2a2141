"""Weight-truncated associative quotient: normal forms and dimensions.

The quotient of the tensor algebra by the two-sided ideal generated by a
homogeneous relation set is built one weight at a time.  At weight w the
ambient space is spanned by the candidate words g * n with n a normal word
of weight w - wt(g); the ideal contributes the rows r * y over relations r
and lower normal words y (left factors are already normalized, so these
rows span the whole weight-w component of the ideal).  Each relation is
split once by first letter, r = sum_g g * t_g, and the row r * y is read as
sum_g g * nf(t_g * y), one normal form per letter.  A full reduced row
echelon over the candidate columns, taken in ascending monomial order,
marks pivot words; the pivot-free candidates are the normal words of
weight w.  The reduced rows seed the one normal-form table: each candidate
word maps to its row (a normal word to itself), and any other word g * u
reduces recursively through the rows of g * n over the normal form of u,
and is then stored in the same table.

Normal forms follow the scalar convention of `linalg.ratio`: an integral
value is an int, and only a non-integral value carries a denominator.
`rref` returns the reduction table that way, so when the relations are
integral and the pivots it divides by are units (as for the presets and
for `G^1 = 1` with small integer `G^2, G^3`), every normal form, and every
resolution column built from them, is an int dict.
"""

from .linalg import addmul, rref


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
        self.normal_index = {0: {(): 0}}
        self._nf_cache = {(): {(): 1}}
        for w in range(1, max_weight + 1):
            self._build_weight(w)

    # -- construction

    def _candidates(self, w):
        out = []
        for g in self.alphabet.generators:
            wl = w - g.weight
            if wl < 0:
                continue
            for n in self.normal.get(wl, ()):
                out.append((g.index,) + n)
        out.sort(key=lambda u: tuple(reversed(u)))
        return out

    def _build_weight(self, w):
        cands = self._candidates(w)
        cindex = {u: i for i, u in enumerate(cands)}
        rows = []
        for q, rels in self.rel_by_weight.items():
            wl = w - q
            if wl < 0:
                continue
            for y in self.normal.get(wl, ()):
                for groups in rels:
                    row = {}
                    for g, tail in groups:
                        acc = {}
                        for rest, c in tail:
                            addmul(acc, c, self.normal_word(rest + y))
                        for n, d in acc.items():
                            row[cindex[(g,) + n]] = d
                    if row:
                        rows.append(row)
        pivots = rref(rows)
        normal = [u for i, u in enumerate(cands) if i not in pivots]
        self.normal[w] = normal
        self.normal_index[w] = {u: i for i, u in enumerate(normal)}
        # the candidates seed the normal-form table: a normal word reduces
        # to itself, pivot candidate i to -(tail over non-pivot candidates)
        nf = self._nf_cache
        for u in normal:
            nf[u] = {u: 1}
        for i, row in pivots.items():
            nf[cands[i]] = {cands[j]: -c for j, c in row.items() if j != i}

    # -- normal forms

    def normal_word(self, word):
        """Normal-form coordinates {normal word -> coeff} of a word."""
        got = self._nf_cache.get(word)
        if got is not None:
            return got
        w = self.alphabet.word_weight(word)
        if w > self.max_weight:
            raise ValueError(f"word of weight {w} beyond truncation {self.max_weight}")
        g = word[0]
        rest = self.normal_word(word[1:])
        out = {}
        nf = self._nf_cache
        for n, d in rest.items():
            addmul(out, d, nf[(g,) + n])
        self._nf_cache[word] = out
        return out

    def normal_form(self, poly):
        """The canonical representative of a polynomial's coset."""
        out = {}
        for word, c in poly.terms.items():
            addmul(out, c, self.normal_word(word))
        from .tensor import Poly

        return Poly(self.alphabet, out)

    def contains(self, poly):
        return self.normal_form(poly).is_zero()

    def dim(self, w):
        return len(self.normal.get(w, ()))

    def dims(self):
        return {w: len(n) for w, n in sorted(self.normal.items())}
