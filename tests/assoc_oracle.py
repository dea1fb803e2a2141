"""Word-keyed normal forms and resolution columns: the test oracle for
`symalg.assoc.AssocModel` and the column methods of
`symalg.resolution.SidedResolution`.

This is the engine's former reduction.  Every normal form is a dict
{normal word: coeff}, the one cache maps each word it has reduced to its
normal form, candidates are located through a {word: column} index, and
the resolution columns re-key the normal forms to flat positions through
a {normal word: position} index per weight.  It reaches the same normal
words and the same columns by a route that hashes words instead of
reading positions, so it checks the engine's position tables
independently.
"""

from symalg.linalg import addmul, rref
from symalg.resolution import TOP, SidedResolution


class WordAssocModel:
    """The associative quotient to `max_weight`, normal forms keyed by
    normal words."""

    def __init__(self, alphabet, relations, max_weight):
        self.alphabet = alphabet
        self.max_weight = max_weight
        self.relations = list(relations)
        self.rel_by_weight = {}
        for r in self.relations:
            if not r.is_zero():
                self.rel_by_weight.setdefault(r.weight(), []).append(r.split())
        self.normal = {0: [()]}
        self.normal_index = {0: {(): 0}}
        self.nf_cache = {(): {(): 1}}
        for w in range(1, max_weight + 1):
            self._build_weight(w)

    def candidates(self, w):
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
        cands = self.candidates(w)
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
        nf = self.nf_cache
        for u in normal:
            nf[u] = {u: 1}
        for i, row in pivots.items():
            nf[cands[i]] = {cands[j]: -c for j, c in row.items() if j != i}

    def normal_word(self, word):
        """{normal word: coeff} of a word."""
        got = self.nf_cache.get(word)
        if got is not None:
            return got
        w = self.alphabet.word_weight(word)
        if w > self.max_weight:
            raise ValueError(f"word of weight {w} beyond truncation {self.max_weight}")
        g = word[0]
        rest = self.normal_word(word[1:])
        out = {}
        for n, d in rest.items():
            addmul(out, d, self.nf_cache[(g,) + n])
        self.nf_cache[word] = out
        return out

    def dim(self, w):
        return len(self.normal.get(w, ()))


class WordResolution(SidedResolution):
    """`SidedResolution` over a `WordAssocModel`, its columns built by
    re-keying word-keyed normal forms to flat positions."""

    def b1_columns(self, w):
        model = self.model
        left = self.side == "left"
        idx = model.normal_index[w]
        cols = {}
        for k, (wy, start) in enumerate(self._p1(w)):
            v = (k,)
            for pos, y in enumerate(model.normal.get(wy, ())):
                nf = model.normal_word(y + v if left else v + y)
                cols[start + pos] = {idx[u]: c for u, c in nf.items()}
        return cols

    def b2_columns(self, w, k):
        model = self.model
        left = self.side == "left"
        p1 = self._p1(w)
        wy, start = self._p2(w)[k]
        cols = {}
        for pos, y in enumerate(model.normal.get(wy, ())):
            col = {}
            for letter, tail in self.relations[k]:
                acc = {}
                for rest, c in tail:
                    addmul(acc, c, model.normal_word(y + rest if left else rest + y))
                wl, base = p1[letter]
                idx = model.normal_index[wl]
                for u, c in acc.items():
                    col[base + idx[u]] = c
            cols[start + pos] = col
        return cols

    def b3_columns(self, w):
        model = self.model
        left = self.side == "left"
        p2 = self._p2(w)
        odd_sign = 1 if left else -1
        cols = {}
        for pos, y in enumerate(model.normal.get(w - TOP, ())):
            col = {}
            for k, (wk, start) in enumerate(p2):
                sign = odd_sign if self.parities[k] else 1
                idx = model.normal_index[wk]
                v = (k,)
                for u, c in model.normal_word(y + v if left else v + y).items():
                    col[start + idx[u]] = sign * c
            cols[pos] = col
        return cols
