"""Length-three free resolutions of the trivial module, verified per weight.

For the quotient algebra Y of the tensor algebra by the relation ideal,
the left resolution

    0 -> Y[-8] --b3--> Y (x) R --b2--> Y (x) V --b1--> Y --> k -> 0

has differentials (y in the Y factor, r0_i and r1_a the relations of
`build_relations`, metric included)

    b3(y)       = sum_i y xi (x) r0_i + sum_a y za (x) r1_a
    b2(y (x) r) = sum_uv c_uv y u (x) v   for r = sum_uv c_uv u v, v a letter
    b1(y (x) v) = y v

and a mirror resolution of right modules with the Y factor on the right
(b2 splits off the first letter), mapped through left multiplications
(with a relative sign between the even and odd rows of the top
differential).  Verification at a weight consists of the complex property,
injectivity of the top map, and rank-exactness at every spot; the
per-weight Euler characteristic of the verified modules recovers the
defining identity of the Hilbert series.
"""

from .linalg import addmul, rank
from .presentation import build_relations


class ResolutionReport:
    def __init__(self, weight):
        self.weight = weight
        self.checks = {}

    def record(self, name, ok):
        self.checks[name] = bool(ok)

    @property
    def ok(self):
        return all(self.checks.values())

    def __repr__(self):
        return f"ResolutionReport(weight={self.weight}, ok={self.ok})"


def _compose(cols_inner, outer_cols_by_key):
    """Columns of outer o inner, where inner columns map to keyed targets."""
    out = []
    for col in cols_inner:
        acc = {}
        for key, c in col.items():
            addmul(acc, c, outer_cols_by_key[key])
        out.append(acc)
    return out


def check_resolvable(presentation):
    """Raise ValueError for (1,0) and (1,1), which have no length-three
    resolution."""
    if (presentation.n, presentation.s) in ((1, 0), (1, 1)):
        raise ValueError(
            "no length-three resolution for (1,0) or (1,1): the trivial "
            "module has homology in every degree there"
        )


class SidedResolution:
    """Differentials of one side (left or right) against an AssocModel."""

    def __init__(self, model, presentation, side="left"):
        check_resolvable(presentation)
        self.model = model
        self.p = presentation
        self.side = side
        self.A = model.alphabet
        self.r0, self.r1 = build_relations(presentation)

    def _mult(self, y, word):
        """nf(y * word) or nf(word * y) depending on side, as coord dict."""
        if self.side == "left":
            full = y + word
        else:
            full = word + y
        w = self.A.word_weight(full)
        idx = self.model._normal_index[w]
        return {idx[u]: c for u, c in self.model.normal_word(full).items()}

    def degrees(self, w):
        """Component dimensions (P0, P1, P2, P3) at weight w."""
        n, s = self.p.n, self.p.s
        d = self.model.dim
        p1 = n * d(w - 2) + s * d(w - 3)
        p2 = n * d(w - 6) + s * d(w - 5)
        return (d(w), p1, p2, d(w - 8))

    def _p1_offsets(self, w):
        n, s = self.p.n, self.p.s
        offs = {}
        pos = 0
        for i in range(n):
            offs[("x", i)] = pos
            pos += self.model.dim(w - 2)
        for a in range(s):
            offs[("z", a)] = pos
            pos += self.model.dim(w - 3)
        return offs

    def _p2_offsets(self, w):
        n, s = self.p.n, self.p.s
        offs = {}
        pos = 0
        for i in range(n):
            offs[("r0", i)] = pos
            pos += self.model.dim(w - 6)
        for a in range(s):
            offs[("r1", a)] = pos
            pos += self.model.dim(w - 5)
        return offs

    def _gen_word(self, kind, idx):
        if kind == "x":
            return (self.A.index(f"x{idx+1}"),)
        return (self.A.index(f"z{idx+1}"),)

    def b1_columns(self, w):
        """Columns keyed by (block, y-position), valued over Y_w coords."""
        cols = {}
        n, s = self.p.n, self.p.s
        for i in range(n):
            word = self._gen_word("x", i)
            for pos, y in enumerate(self.model.normal.get(w - 2, ())):
                cols[(("x", i), pos)] = self._mult(y, word)
        for a in range(s):
            word = self._gen_word("z", a)
            for pos, y in enumerate(self.model.normal.get(w - 3, ())):
                cols[(("z", a), pos)] = self._mult(y, word)
        return cols

    def b2_columns(self, w):
        """Columns keyed by (block, y-position), valued over flat P1 coords.

        Each relation word is split into a letter (last on the left side,
        first on the right) and the rest, which multiplies y."""
        offs = self._p1_offsets(w)
        blocks = {}
        for kind, count in (("x", self.p.n), ("z", self.p.s)):
            for i in range(count):
                blocks[self._gen_word(kind, i)[0]] = offs[(kind, i)]
        cols = {}
        for kind, rels, wt in (("r0", self.r0, 6), ("r1", self.r1, 5)):
            for i, rel in enumerate(rels):
                for pos, y in enumerate(self.model.normal.get(w - wt, ())):
                    acc = {}
                    for word, c in rel.terms.items():
                        if self.side == "left":
                            letter, rest = word[-1], word[:-1]
                        else:
                            letter, rest = word[0], word[1:]
                        base = blocks[letter]
                        for k, d in self._mult(y, rest).items():
                            key = base + k
                            v = acc.get(key, 0) + c * d
                            if v:
                                acc[key] = v
                            else:
                                acc.pop(key, None)
                    cols[((kind, i), pos)] = acc
        return cols

    def b3_columns(self, w):
        """Columns keyed by y-position, valued over flat P2 coords."""
        n, s = self.p.n, self.p.s
        offs = self._p2_offsets(w)
        cols = {}
        odd_sign = 1 if self.side == "left" else -1
        for pos, y in enumerate(self.model.normal.get(w - 8, ())):
            acc = {}
            for i in range(n):
                base = offs[("r0", i)]
                for k, c in self._mult(y, self._gen_word("x", i)).items():
                    acc[base + k] = c
            for a in range(s):
                base = offs[("r1", a)]
                for k, c in self._mult(y, self._gen_word("z", a)).items():
                    acc[base + k] = c * odd_sign
            cols[pos] = acc
        return cols

    def verify_weight(self, w):
        rep = ResolutionReport(w)
        d0, d1, d2, d3 = self.degrees(w)
        b1 = self.b1_columns(w)
        b2 = self.b2_columns(w)
        b3 = self.b3_columns(w)
        # complex property
        offs1 = self._p1_offsets(w)
        flat_b1 = {}
        for (block, pos), col in b1.items():
            flat_b1[offs1[block] + pos] = col
        comp12 = _compose(list(b2.values()), flat_b1)
        rep.record("b1b2_zero", all(not c for c in comp12))
        offs2 = self._p2_offsets(w)
        flat_b2 = {}
        for (block, pos), col in b2.items():
            flat_b2[offs2[block] + pos] = col
        comp23 = _compose(list(b3.values()), flat_b2)
        rep.record("b2b3_zero", all(not c for c in comp23))
        r1 = rank(b1.values())
        r2 = rank(b2.values())
        r3 = rank(b3.values())
        rep.record("b3_injective", r3 == d3)
        rep.record("exact_at_p2", r2 + r3 == d2)
        rep.record("exact_at_p1", r1 + r2 == d1)
        rep.record("exact_at_p0", r1 == d0 - (1 if w == 0 else 0))
        rep.record(
            "euler", d0 - d1 + d2 - d3 == (1 if w == 0 else 0)
        )
        return rep


def verify_resolution(model, presentation, max_weight, sides=("left", "right")):
    """Run all per-weight checks; returns {side: [ResolutionReport]}."""
    out = {}
    for side in sides:
        res = SidedResolution(model, presentation, side)
        out[side] = [res.verify_weight(w) for w in range(0, max_weight + 1)]
    return out
