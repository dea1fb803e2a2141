"""Length-three free resolutions of the trivial module, verified per weight.

For the quotient algebra Y of the tensor algebra by the relation ideal,
the left resolution

    0 -> Y[-8] --b3--> Y (x) R --b2--> Y (x) V --b1--> Y --> k -> 0

has differentials (y in the Y factor, v_k the generator letters x1..xn,
z1..zs and r_k the model's relations, r0 + r1 of `build_relations`,
metric included; relation k has weight 8 - |v_k|)

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

The ranks of b1 and b2 are certified without elimination where they can
be (`certified_rank`): columns whose leading positions are pairwise
distinct are independent, so the count of distinct leading positions is a
lower bound on the rank, and where it reaches an upper bound that bound is
the rank.  For b1 the positions are flat and the bound is d0: normal words
are closed under prefixes and suffixes (Bergman's diamond lemma), so every
normal word u of weight w > 0 is nf(y v) for the normal word y = u minus
its last (left) or first (right) letter, and leads a column of its own.
For b2 a column leads at the P1 position whose word, y v (left) or v y
(right), is smallest in the model's monomial order, as in Anick's
resolution (Trans. AMS 296, 1986); the bound is the column count d2,
and d1 - r1 where that is smaller once b1 o b2 = 0 has been recorded (im
b2 then lies in ker b1).  Where the count falls short, as for b1 at w = 0
with P1 empty, the exact rank decides.  The rank of b3 is always exact.

Every column is built the same way, from the model's normal form of the
product y * u (left) or u * y (right); `normal_word` is the only code
that computes one.  On the right, the letter products v_k y of b1 and b3
are read by position off the model's table `left[k][|y|]`: they are the
dicts `normal_word(v_k + y)` returns, with no query and no memo entry.
A column's keys are positions inside the target block, so an entry at
position i lands at the block's start plus i: a b1 column, with its
block at 0, is the normal form itself, the model's dict shared and never
copied (read-only), and b2 and b3 shift each position by their block's
start.  b2 reads the relations the `AssocModel` was built from, so a run
expands them once, and sums the terms of one split letter in Y first, so
each (y, relation, letter) places one normal form.

A weight holds b1 and b3 whole but b2 one P2 block (one relation) at a
time: `verify_weight` checks each block against b1, counts its leading
positions, adds its share of b2 o b3 and drops it, and reads the blocks
again only where the certificate of r2 falls short.  Together with the
model's bounded memo (see `symalg.assoc`), a weight's top-weight normal
forms then die with its columns.
"""

from .linalg import addmul, rank
from .presentation import PresentationError, series_valid

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


def _composes_to_zero(inner, outer):
    """Whether outer o inner is zero, where inner columns are valued over
    the keys of outer.  Each inner column's image is accumulated inline,
    and the first nonzero image ends the loop."""
    for col in inner:
        acc = {}
        get = acc.get
        for key, c in col.items():
            for k, x in outer[key].items():
                acc[k] = get(k, 0) + c * x
        if any(acc.values()):
            return False
    return True


def _add_leads(lead, cols, key=None):
    """Add to the set `lead` the leading position of each column: its
    smallest key (under `key`, if given), where that entry is nonzero."""
    for col in cols:
        if col:
            p = min(col, key=key)
            if col[p]:
                lead.add(p)
    return lead


def certified_rank(cols, bound, key=None, lead=None):
    """Rank of a collection of columns, given an upper bound on it.

    A column's leading position is its smallest key (under `key`, if
    given).  Columns whose leading positions are pairwise distinct are
    linearly independent, so the number of distinct leading positions
    (a zero leading entry counts for none) is a lower bound on the rank.
    Where it reaches `bound`, that is the rank and nothing is eliminated;
    otherwise the exact `rank` decides.  A caller that has collected the
    leading positions already passes them as `lead`; `cols` is then read
    only by the exact rank."""
    if lead is None:
        lead = _add_leads(set(), cols, key)
    return bound if len(lead) == bound else rank(cols)


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
    b2 composes with b1, and b3 with b2, key for key.  Only
    `check_resolvable` reads `presentation`.
    """

    def __init__(self, model, presentation, side="left"):
        check_resolvable(presentation)
        self.model = model
        self.side = side
        self.weights = model.alphabet.weights
        self.parities = model.alphabet.parities
        # each of the model's relations split once by the letter b2 splits
        # off: the last on the left side, the first on the right
        self.relations = [r.split(last=side == "left") for r in model.relations]

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

    def _p1_key(self, w):
        """Sort key of the flat P1 positions at weight w that orders them
        as their words in the model's monomial order (ascending reversed
        tuple): y v_k on the left, v_k y on the right.  On the left that is
        the flat order itself, so the key is None; on the right a position
        maps to its reversed word."""
        if self.side == "left":
            return None
        words = []
        for k, (wy, _) in enumerate(self._p1(w)):
            words.extend(y[::-1] + (k,) for y in self.model.normal.get(wy, ()))
        return words.__getitem__

    def degrees(self, w):
        """Component dimensions (P0, P1, P2, P3) at weight w."""
        d = self.model.dim
        p1 = sum(d(w - v) for v in self.weights)
        p2 = sum(d(w - TOP + v) for v in self.weights)
        return (d(w), p1, p2, d(w - TOP))

    def _letter_products(self, k, wy):
        """The normal forms of y v_k (left) or v_k y (right) over the normal
        words y of weight wy, in order.  On the right they are read off the
        model's table `left[k][wy]`, the dicts `normal_word(v_k + y)`
        returns."""
        model = self.model
        if wy < 0:
            return ()
        if self.side == "left":
            v = (k,)
            return (model.normal_word(y + v) for y in model.normal[wy])
        return model.left[k][wy]

    def b1_columns(self, w):
        """Columns keyed by flat P1 position, valued over Y_w positions.
        Each column is the model's own normal form of y v (left) or v y
        (right), shared and never copied: read-only."""
        cols = {}
        for k, (wy, start) in enumerate(self._p1(w)):
            cols.update(enumerate(self._letter_products(k, wy), start))
        return cols

    def b2_columns(self, w, k):
        """The columns of P2 block k (relation k), keyed by flat P2
        position, valued over flat P1 coords.

        Each word of relation k is split into a letter (last on the left
        side, first on the right) and the rest, which multiplies y into the
        letter's P1 block."""
        model = self.model
        left = self.side == "left"
        p1 = self._p1(w)
        wy, start = self._p2(w)[k]
        cols = {}
        for pos, y in enumerate(model.normal.get(wy, ()), start):
            col = {}
            for letter, tail in self.relations[k]:
                acc = {}
                for rest, c in tail:
                    addmul(acc, c, model.normal_word(y + rest if left else rest + y))
                base = p1[letter][1]
                for i, c in acc.items():
                    col[base + i] = c
            cols[pos] = col
        return cols

    def b3_columns(self, w):
        """Columns keyed by Y_{w-8} position, valued over flat P2 coords."""
        odd_sign = 1 if self.side == "left" else -1
        cols = {pos: {} for pos in range(self.model.dim(w - TOP))}
        for k, (_, start) in enumerate(self._p2(w)):
            sign = odd_sign if self.parities[k] else 1
            for pos, nf in enumerate(self._letter_products(k, w - TOP)):
                col = cols[pos]
                for i, c in nf.items():
                    col[start + i] = sign * c
        return cols

    def verify_weight(self, w):
        """The checks at weight w.  r1 and r2 come from `certified_rank`:
        r1 against the bound d0, and r2, with P1 ordered as its words,
        against d2, or d1 - r1 where smaller once b1 o b2 = 0 puts im b2
        inside ker b1.  r3 is an exact rank.

        b2 is read one block at a time and dropped: each block is checked
        against b1, adds its leading positions to r2's count, and adds its
        share of b2 o b3, read through the transpose of b3 (P2 position ->
        its b3 entries).  Only an exact r2 reads the blocks again."""
        rep = ResolutionReport(w)
        d0, d1, d2, d3 = self.degrees(w)
        b1 = self.b1_columns(w)
        b3 = self.b3_columns(w)
        b3t = {}
        for j, col in b3.items():
            for p, c in col.items():
                b3t.setdefault(p, []).append((j, c))
        complex12 = True
        lead = set()
        key = self._p1_key(w)
        b23 = {j: {} for j in b3}  # b2 o b3, column by column
        blocks = range(len(self.relations))
        for k in blocks:
            block = self.b2_columns(w, k)
            complex12 = complex12 and _composes_to_zero(block.values(), b1)
            _add_leads(lead, block.values(), key)
            for p, col in block.items():
                for j, c in b3t.get(p, ()):
                    addmul(b23[j], c, col)
            del block  # before the next block is built
        rep.record("b1b2_zero", complex12)
        rep.record("b2b3_zero", not any(b23.values()))
        r1 = certified_rank(b1.values(), d0)
        bound2 = min(d1 - r1, d2) if complex12 else d2
        b2 = (col for k in blocks for col in self.b2_columns(w, k).values())
        r2 = certified_rank(b2, bound2, lead=lead)
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
