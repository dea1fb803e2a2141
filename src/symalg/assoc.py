"""Weight-truncated associative quotient: normal forms and dimensions.

The quotient of the tensor algebra by the two-sided ideal generated by a
homogeneous relation set is built one weight at a time.  At weight w the
ambient space is spanned by the candidate words g * n with n a normal word
of weight w - wt(g); the ideal contributes the rows r * y over relations r
and lower normal words y (left factors are already normalized, so these
rows span the whole weight-w component of the ideal).  A full reduced row
echelon over the candidate columns, taken in ascending monomial order,
marks pivot words; the pivot-free candidates are the normal words of
weight w and every word reduces recursively through this data.

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
        self.rel_by_weight = {}
        for r in relations:
            if r.is_zero():
                continue
            w = r.weight()
            self.rel_by_weight.setdefault(w, []).append(r)
        self.normal = {0: [()]}
        self._normal_index = {0: {(): 0}}
        self._candred = {}
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
                for r in rels:
                    row = {}
                    for m, c in r.terms.items():
                        g = m[0]
                        rest = m[1:] + y
                        for n, d in self.normal_word(rest).items():
                            cd = c * d
                            k = cindex[(g,) + n]
                            v = row.get(k, 0) + cd
                            if v:
                                row[k] = v
                            else:
                                row.pop(k, None)
                    if row:
                        rows.append(row)
        pivots = rref(rows)
        normal = [u for i, u in enumerate(cands) if i not in pivots]
        self.normal[w] = normal
        self._normal_index[w] = {u: i for i, u in enumerate(normal)}
        # a normal word reduces to itself
        candred = {u: {u: 1} for u in normal}
        for i, row in pivots.items():
            # row: pivot candidate i = -(tail over non-pivot candidates)
            candred[cands[i]] = {
                cands[j]: -c for j, c in row.items() if j != i
            }
        self._candred[w] = candred

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
        candred = self._candred[w]
        for n, d in rest.items():
            addmul(out, d, candred[(g,) + n])
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
