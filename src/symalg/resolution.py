"""Length-three free resolutions of the trivial module, verified per weight.

For the quotient algebra Y of the tensor algebra by the relation ideal,
the left resolution

    0 -> Y[-8] --b3--> Y (x) R --b2--> Y (x) V --b1--> Y --> k -> 0

has differentials (y in the Y factor, v_k the generator letters x1..xn,
z1..zs and r_k the relations r0 + r1 of `build_relations`, metric
included; relation k has weight 8 - |v_k|)

    b3(y)       = sum_k y v_k (x) r_k
    b2(y (x) r) = sum_uv c_uv y u (x) v   for r = sum_uv c_uv u v, v a letter
    b1(y (x) v) = y v

and a mirror resolution of right modules with the Y factor on the right
(b2 splits off the first letter), mapped through left multiplications
(with sign -1 on the odd rows of the top differential).  At weight w the
modules are laid out as one block table per side: P1 is the blocks
Y_{w-|v_k|}, P2 the blocks Y_{w-8+|v_k|}, each in letter order, and every
column is a dict over the flat positions of its target.  Verification at a
weight consists of the complex property, injectivity of the top map, and
rank-exactness at every spot; the per-weight Euler characteristic of the
verified modules recovers the defining identity of the Hilbert series.

The ranks of b2 and b3 are computed exactly.  The rank of b1 is certified
without elimination where it can be (`rank_onto`): normal words are
closed under prefixes and suffixes (Bergman's diamond lemma), so every
normal word u of weight w > 0 is nf(y v) for the normal word y = u minus
its last (left) or first (right) letter, and the single-entry columns of
b1 cover Y_w.  Where they do not, as at w = 0 with P1 empty, the exact
rank decides.
"""

from .linalg import addmul, rank
from .presentation import PresentationError, build_relations, series_valid

TOP = 8  # weight of the top module Y[-8]: |v_k| + |r_k| for every k


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


def _compose(cols_inner, outer_cols):
    """Columns of outer o inner, where inner columns are valued over the
    keys of outer_cols."""
    out = []
    for col in cols_inner:
        acc = {}
        for key, c in col.items():
            addmul(acc, c, outer_cols[key])
        out.append(acc)
    return out


def rank_onto(cols, d0):
    """Rank of columns valued over d0 rows.  Where the columns with a
    single nonzero entry hit every row, they hold a nonsingular diagonal
    d0 x d0 submatrix and the rank is d0 with no elimination; otherwise
    the exact `rank`."""
    hit = {key for col in cols if len(col) == 1 for key, c in col.items() if c}
    return d0 if len(hit) == d0 else rank(cols)


def check_resolvable(presentation):
    """Raise PresentationError where `series_valid` fails: n = 0, (1,0)
    and (1,1) have no length-three resolution."""
    n, s = presentation.n, presentation.s
    if not series_valid(n, s):
        raise PresentationError(
            f"no length-three resolution for ({n},{s}): it needs n >= 1 "
            "and (n,s) other than (1,0) and (1,1)"
        )


class SidedResolution:
    """Differentials of one side (left or right) against an AssocModel.

    Block k of P1 is Y_{w-|v_k|} (y (x) v_k), block k of P2 is
    Y_{w-8+|v_k|} (y (x) r_k), and b3 pairs letter k with relation k.
    `_blocks` lays a side's blocks end to end, so a column's key is its
    flat source position and its values sit on flat target positions;
    b2 composes with b1, and b3 with b2, key for key.
    """

    def __init__(self, model, presentation, side="left"):
        check_resolvable(presentation)
        self.model = model
        self.side = side
        self.weights = model.alphabet.weights
        self.parities = model.alphabet.parities
        r0, r1 = build_relations(presentation)
        self.relations = r0 + r1

    def _mult(self, y, word, w, start=0):
        """nf(y * word) (left) or nf(word * y) (right), of weight w, as a
        dict over positions start + i of Y_w."""
        full = y + word if self.side == "left" else word + y
        idx = self.model.normal_index[w]
        return {start + idx[u]: c for u, c in self.model.normal_word(full).items()}

    def _blocks(self, weights):
        """(weight, start) of blocks Y_weight laid end to end."""
        out, start = [], 0
        for wy in weights:
            out.append((wy, start))
            start += self.model.dim(wy)
        return out

    def _p1(self, w):
        return self._blocks(w - v for v in self.weights)

    def _p2(self, w):
        return self._blocks(w - TOP + v for v in self.weights)

    def degrees(self, w):
        """Component dimensions (P0, P1, P2, P3) at weight w."""
        d = self.model.dim
        p1 = sum(d(w - v) for v in self.weights)
        p2 = sum(d(w - TOP + v) for v in self.weights)
        return (d(w), p1, p2, d(w - TOP))

    def b1_columns(self, w):
        """Columns keyed by flat P1 position, valued over Y_w coords."""
        cols = {}
        for k, (wy, start) in enumerate(self._p1(w)):
            for pos, y in enumerate(self.model.normal.get(wy, ())):
                cols[start + pos] = self._mult(y, (k,), w)
        return cols

    def b2_columns(self, w):
        """Columns keyed by flat P2 position, valued over flat P1 coords.

        Each relation word is split into a letter (last on the left side,
        first on the right) and the rest, which multiplies y into the
        letter's P1 block."""
        p1 = self._p1(w)
        cols = {}
        for rel, (wy, start) in zip(self.relations, self._p2(w)):
            for pos, y in enumerate(self.model.normal.get(wy, ())):
                acc = {}
                for word, c in rel.terms.items():
                    if self.side == "left":
                        letter, rest = word[-1], word[:-1]
                    else:
                        letter, rest = word[0], word[1:]
                    wl, base = p1[letter]
                    addmul(acc, c, self._mult(y, rest, wl, base))
                cols[start + pos] = acc
        return cols

    def b3_columns(self, w):
        """Columns keyed by Y_{w-8} position, valued over flat P2 coords."""
        p2 = self._p2(w)
        odd_sign = 1 if self.side == "left" else -1
        cols = {}
        for pos, y in enumerate(self.model.normal.get(w - TOP, ())):
            acc = {}
            for k, (wk, start) in enumerate(p2):
                sign = odd_sign if self.parities[k] else 1
                addmul(acc, sign, self._mult(y, (k,), wk, start))
            cols[pos] = acc
        return cols

    def verify_weight(self, w):
        """The checks at weight w.  r1 is d0 by the single-entry-column
        certificate of `rank_onto` where it closes, else the exact rank;
        r2 and r3 are exact ranks."""
        rep = ResolutionReport(w)
        d0, d1, d2, d3 = self.degrees(w)
        b1 = self.b1_columns(w)
        b2 = self.b2_columns(w)
        b3 = self.b3_columns(w)
        rep.record("b1b2_zero", not any(_compose(b2.values(), b1)))
        rep.record("b2b3_zero", not any(_compose(b3.values(), b2)))
        r1 = rank_onto(b1.values(), d0)
        r2 = rank(b2.values())
        r3 = rank(b3.values())
        rep.record("b3_injective", r3 == d3)
        rep.record("exact_at_p2", r2 + r3 == d2)
        rep.record("exact_at_p1", r1 + r2 == d1)
        rep.record("exact_at_p0", r1 == d0 - (1 if w == 0 else 0))
        rep.record("euler", d0 - d1 + d2 - d3 == (1 if w == 0 else 0))
        return rep


def verify_resolution(model, presentation, max_weight):
    """Run all per-weight checks; returns {side: [ResolutionReport]}."""
    out = {}
    for side in ("left", "right"):
        res = SidedResolution(model, presentation, side)
        out[side] = [res.verify_weight(w) for w in range(max_weight + 1)]
    return out
