"""Weight-truncated Lie quotient engine.

The quotient L of a free graded super Lie algebra by the ideal generated by
a finite homogeneous relation set is built one weight at a time in
quotient coordinates, by the nilpotent-quotient step for graded Lie
algebras (W. A. de Graaf, Lie Algebras: Theory and Algorithms, 2000).
L_w is spanned by the generators of weight w and the brackets [g, b_j] of
a generator g with a representative b_j of L_{w-|g|}.  The step takes one
column per such candidate (the generators, then one symbol g (x) b_j),
keys column k by the int -k, and spans the kernel of the map onto L_w by
rows that are already identities over L_{<w}:

* each relation of weight w;
* super-antisymmetry A(g, x) = [x, g] + (-1)^{|x||g|} g (x) x for each
  generator g and representative x;
* super-Jacobi J(g, b, c) = g (x) [b, c] - [[g, b], c] - (-1)^{|g||b|} [b, [g, c]]
  for each generator g and representatives b, c with b a generator or b
  not after c in (weight, position) order.

The step leaves out four kinds of these rows, which cannot add rank
(`_implied`).  In L_{<w}, a Lie superalgebra, an element has unique
coordinates, so its identities hold between the coordinate vectors
exactly; at weight w the bracket [h, y] of a generator representative h
is the symbol h (x) y.

1. Definitions.  If g (x) b was kept as the representative u = [g, b]
   (its column key (g, weight, position of b)), ad_g(b) is the unit
   vector of u, and `bracket` expands [u, c] into exactly the other two
   terms of J(g, b, c): the row is zero.  Likewise A(g, x) for x =
   [g, c] and an even g: [g, g] = 0 and [c, g] = -[g, c] = -x, so [x, g]
   expands into g (x) [c, g] - [c, [g, g]] = -g (x) x.
2. Even squares.  J(g, g, c) for an even g: ad_g(g) = [g, g] = 0, and the
   first and third terms cancel, the representative b being g itself.
3. Mirrored generator pairs.  J(g, h, c) for a generator h before g in the
   alphabet, when g is a representative too.  ad_h(g) = -(-1)^{|g||h|}
   ad_g(h), and `bracket` is linear in its first argument, so J(g, h, c) =
   -(-1)^{|g||h|} J(h, g, c) term by term, and J(h, g, c) is built or is
   zero by 1.
4. Paired antisymmetry rows.  A(g, x) for x = [h, c] with h after g in
   the alphabet, when g, h and [g, c] (the column key (g, wc, ic)) are
   representatives too.  Let y = [g, h] and D(c, y) = [c, y] +
   (-1)^{|c||y|} [y, c], each bracket of weight w expanded by `bracket`.
   Expanding [x, g] as [[h, c], g] by the key of x, and using [g, c] =
   -(-1)^{|g||c|} [c, g] and [h, g] = -(-1)^{|g||h|} y in L_{<w},

       A(g, x) = (-1)^{|x||g|} J(g, h, c) + (-1)^{|h||c| + |g||h|} D(c, y),

   and the same with g and h swapped, where D(c, [h, g]) =
   -(-1)^{|g||h|} D(c, y) by linearity,

       A(h, [g, c]) = (-1)^{(|g| + |c|)|h|} J(h, g, c) - (-1)^{|g||c|} D(c, y).

   Eliminating D(c, y) writes A(g, x) over J(g, h, c), J(h, g, c) and
   A(h, [g, c]).  The last is built, since g comes before h, and each
   Jacobi row is built, zero by 1, or J(h, g, c), the mirror of
   J(g, h, c) by 3.

So each row left out is zero or a combination of rows that are built or
zero, the kernel's row space is that of the full row set, and so are the
reduced echelon `solve` reads and the model.  When [g, c] is not a
representative, D(c, y) is no row and no proof is known that A(g, [h, c])
is implied, so it is built.

Lie elements, the relations and the `project` input, enter as the
(coefficient, bracket tree) terms of a `tensor.LieElement`; a `Poly`
without them is refused.  A generator leaf reads `gen_coords` (its own
column at the weight being built), a nested element its own trees, and a
pair [a, b] the brackets of the representatives in a and b, by the one
recursion `bracket`,

    [[g, c], b] = [g, [c, b]] - (-1)^{|g||c|} [c, [g, b]],

down to brackets [g, b_k] with a generator.  At a built weight [g, b_k]
is the column of ad_g, and at the weight w being built it is the symbol
g (x) b_k, held by its column key from the start, so the step's rows and
the queries on a built model share one code path and every vector of the
step is over int keys.
Pivoting every row on its last candidate leaves the greedy
representatives as the non-pivot columns (the first generators and
bracket monomials independent modulo the ideal), and solving each
candidate over them gives the columns of ad_g, the matrix of bracketing
with the generator g.

Every quotient-coordinate vector inside the model (the ad columns,
`gen_coords`, the memo of the brackets) is a `linalg`
integer vector (den, {position: int}) over one positive denominator.  The
read-off is `linalg.solve`'s, which gives each candidate column over the
representatives as such a vector, and combinations go through
`linalg.add_scaled` and `linalg.primitive`, so the build does integer
arithmetic only; the kernel rows enter the echelon as they are, since only
their direction matters.
Values become rational at the edges alone: `project`, `struct` and
`export_struct` return them through `linalg.rational`, integral values as
ints and the others as Fractions.

The model stores nothing it can derive: a representative is its
candidate's column key, a generator name or (g, wl, j) for [g, b_j], from
which `label` derives its bracket tree; its weight is its key in `reps`
and its parity that weight mod 2 (the engine requires generator parity ==
weight parity), and the dimensions of the free algebra are counted when
`ideal_dim` asks for them.  The free-generator analysis of the ideals of
a model is in `symalg.freegens`.
"""

from pathlib import Path

from .linalg import Echelon, add_scaled, primitive, rational, solve
from .tensor import bracket_word_name


class EngineError(ValueError):
    pass


# Version of the pickled LieModel layout; a cached model of another
# version is rebuilt.  Version 2 added the ad columns and Rep.tail;
# version 3 dropped the tensor expansions and added gen_coords; version 4
# pickles the single-mode Echelon (slots: rows only); version 5 holds the
# coordinate vectors as (den, {position: int}); version 6 drops Rep's
# weight and parity and the memos of rational brackets and free dimensions;
# version 7 drops Rep: a representative is its candidate column key, a
# generator name or (g, weight, position), and its bracket tree is derived.
MODEL_SCHEMA = 7

# The zero coordinate vector (den, {}); shared, never mutated.
_ZERO = (1, {})


class LieModel:
    """Quotient of the free graded super Lie algebra on `alphabet` by the
    Lie ideal generated by `relations`, truncated at weights <= cutoff + 1
    (elements of weight >= cutoff + 2 are declared zero)."""

    def __init__(self, alphabet, relations, cutoff):
        for g in alphabet.generators:
            if g.parity != g.weight % 2:
                raise EngineError(
                    "engine requires generator parity == weight parity "
                    f"(violated by {g.name})"
                )
        self.schema = MODEL_SCHEMA
        self.alphabet = alphabet
        self.cutoff = cutoff
        self.max_weight = cutoff + 1
        rel_by_weight = {}
        for r in relations:
            # a zero element has no trees; weight() refuses an inhomogeneous one,
            # and with parity == weight mod 2 that makes its parity homogeneous
            if _trees(r):
                rel_by_weight.setdefault(r.weight(), []).append(r)
        # weight -> the representatives, each its candidate column key
        self.reps = {}
        # weight -> echelon of the kernel rows over the candidate columns
        self.solvers = {}
        # generator name -> its quotient coordinates at its own weight
        # (zero for a generator above the truncation)
        self.gen_coords = {g.name: _ZERO for g in alphabet.generators}
        # (generator name, weight, position) -> quotient coordinates of
        # [g, b] for the representative b at (weight, position)
        self.ad = {}
        # brackets at built weights, memoized by `bracket`
        self._struct = {}
        # an empty alphabet is the zero algebra: no weight is built
        min_w = min(alphabet.weights, default=self.max_weight + 1)
        for w in range(min_w, self.max_weight + 1):
            self._step(w, rel_by_weight.get(w, ()))

    # -- construction

    def _step(self, w, relations):
        """Build L_w from L_{<w}: one nilpotent-quotient step."""
        A = self.alphabet
        cols = [g.name for g in A.generators if g.weight == w]
        # column k is keyed -k: Echelon pivots on the smallest key, so every
        # row pivots on its last candidate.  Until the read-off a generator
        # of weight w has its column as `gen_coords`, and `_cols` gives the
        # keys of the symbols g (x) b_j at weight wl as the list
        # _cols[(g, wl)], so every vector of the step shares its key objects.
        self.gen_coords |= {c: (1, {-k: 1}) for k, c in enumerate(cols)}
        self._cols = {}
        for g in A.generators:
            rest = w - g.weight
            k = len(cols)
            cols += [(g.name, rest, j) for j in range(self.dim(rest))]
            self._cols[(g.name, rest)] = list(range(-k, -len(cols), -1))
        ech = Echelon()
        # memo of the brackets of weight w, over the candidate columns
        self._open = {}

        def insert(acc):
            # a kernel row's scale does not matter: insert its numerators
            # (the echelon stores its own reduced copy)
            if acc[1]:
                ech.insert(acc[1])

        # (a) relations, from their bracket trees
        for r in relations:
            insert(self._evaluate(r))
        for g in A.generators:
            rest = w - g.weight
            gd, gv = self.gen_coords[g.name]
            # (b) super-antisymmetry [x, g] + (-1)^{|x||g|} [g, x]
            sign = -1 if (g.parity and rest & 1) else 1
            for j, key in enumerate(self._cols[(g.name, rest)]):
                if self._implied(g, rest, j, False):
                    continue
                acc = [1, {key: sign}]
                for k, a in gv.items():
                    add_scaled(acc, a, self.bracket(rest, j, g.weight, k), gd)
                insert(acc)
            # (c) super-Jacobi g (x) [b,c] - [[g,b],c] - (-1)^{|g||b|} [b,[g,c]]
            for wb in self.weights():
                wc = rest - wb
                if wc not in self.reps:
                    continue
                sign = -1 if (g.parity and wb & 1) else 1
                for ib, b in enumerate(self.reps[wb]):
                    if self._implied(g, wb, ib, True):
                        continue
                    bd, bv = self.ad[(g.name, wb, ib)]
                    for ic in range(self.dim(wc)):
                        if not (type(b) is str or wb < wc or (wb == wc and ib <= ic)):
                            continue
                        acc = self._ad(g.name, rest, self.bracket(wb, ib, wc, ic), False)
                        for k, a in bv.items():
                            add_scaled(acc, -a, self.bracket(wb + g.weight, k, wc, ic), bd)
                        cd, cv = self.ad[(g.name, wc, ic)]
                        for k, a in cv.items():
                            add_scaled(acc, -sign * a,
                                       self.bracket(wb, ib, wc + g.weight, k), cd)
                        insert(acc)
        del self._open, self._cols
        # read off: the non-pivot columns (generator names and symbols
        # (g, wl, j)) are the representatives, held by their column keys;
        # `solve` gives each column over them
        free, vectors = solve(ech, range(0, -len(cols), -1))
        self.reps[w] = [cols[-key] for key in free]
        for c, v in zip(cols, vectors):
            if isinstance(c, str):
                self.gen_coords[c] = v
            else:
                self.ad[c] = v
        self.solvers[w] = ech

    def _implied(self, g, wb, ib, jacobi):
        """Whether the step leaves out the super-antisymmetry row of the
        generator g and the representative b at (wb, ib), or with `jacobi`
        the super-Jacobi rows J(g, b, c) for every c: the rows the module
        docstring proves zero, (1) and (2), or a combination of built
        rows, (3) and (4)."""
        b = self.reps[wb][ib]
        even = not g.parity
        if jacobi:
            return (even and b == g.name
                    or type(b) is str and self.alphabet.index(b) < g.index
                    and self._kept_generator(g.name)
                    or self._kept(wb + g.weight, (g.name, wb, ib)))
        if type(b) is str:
            return False
        h, wc, ic = b
        # (1) x = [g, c] for an even g; (4) x = [h, c] for h after g
        return (even and h == g.name
                or self.alphabet.index(h) > g.index
                and self._kept_generator(g.name) and self._kept_generator(h)
                and self._kept(wc + g.weight, (g.name, wc, ic)))

    def _kept(self, w, key):
        """Whether the candidate with this column key at the built weight w
        was kept as a representative: its coordinates are then the unit
        vector of the representative that is the key itself."""
        vec = self.gen_coords[key] if type(key) is str else self.ad[key]
        return any(self.reps[w][k] == key for k in vec[1])

    def _kept_generator(self, name):
        """Whether the generator `name` is a representative."""
        A = self.alphabet
        return self._kept(A.weights[A.index(name)], name)

    def _ad(self, g, wl, vec, built):
        """[g, x] for x = vec at weight wl, as an accumulator [den, {...}]:
        over the ad columns of g if wl + |g| is built, else over the
        column keys of the symbols g (x) b_k of the step building it."""
        d, v = vec
        if not built:
            keys = self._cols[(g, wl)]
            return [d, {keys[k]: a for k, a in v.items()}]
        acc = [1, {}]
        for k, a in v.items():
            add_scaled(acc, a, self.ad[(g, wl, k)], d)
        return acc

    def _evaluate(self, elem):
        """A Lie element as an integer vector at its weight, from its
        (coefficient, bracket tree) terms: over the candidate columns while
        that weight is being built, zero above the truncation."""
        trees = _trees(elem)
        acc = [1, {}]
        if trees and elem.weight() <= self.max_weight:
            for c, tree in trees:
                n, d = c.as_integer_ratio()
                add_scaled(acc, n, self.tree_vector(tree)[1], d)
        return primitive(acc)

    def tree_vector(self, tree):
        """(weight, integer vector) of a bracket tree: a generator name, a
        pair of trees or a nested Lie element."""
        if isinstance(tree, str):
            A = self.alphabet
            return A.weights[A.index(tree)], self.gen_coords[tree]
        if not isinstance(tree, tuple | list):
            return tree.weight(), self._evaluate(tree)
        (wa, (da, va)), (wb, (db, vb)) = map(self.tree_vector, tree)
        acc = [1, {}]
        for i, x in va.items():
            for j, y in vb.items():
                add_scaled(acc, x * y, self.bracket(wa, i, wb, j), da * db)
        return wa + wb, primitive(acc)

    # -- queries

    def weights(self):
        return sorted(self.reps)

    def label(self, w, i):
        """Bracket tree of the representative at (w, i): its generator name,
        or (g, tree of b_j) for the candidate key (g, wl, j) of [g, b_j]."""
        rep = self.reps[w][i]
        if type(rep) is str:
            return rep
        g, wl, j = rep
        return g, self.label(wl, j)

    def dim(self, w):
        return len(self.reps.get(w, ()))

    def dims(self):
        return {w: len(r) for w, r in sorted(self.reps.items())}

    def total_dim(self):
        return sum(len(r) for r in self.reps.values())

    def ideal_dim(self, w):
        """Dimension of the ideal's weight-w component in the free algebra."""
        if w not in self.reps:
            return 0
        return free_lie_dims(self.alphabet, w)[w - 1] - self.dim(w)

    def project(self, poly):
        """Quotient coordinates of a homogeneous Lie element, evaluated from
        the bracket trees of its `tensor.LieElement` (a `lie_sum` or
        `lie_expand`); a `Poly` without trees is refused.  Returns {rep
        position -> value} at the element's weight, each value an int if
        integral and a Fraction otherwise; {} means it lies in the ideal."""
        return rational(self._evaluate(poly))

    def contains_ideal(self, poly):
        return not self.project(poly)

    def struct(self, wu, iu, wv, iv):
        """Coordinates of [b, b'] for representatives (wu, iu), (wv, iv),
        integral values as ints and the others as Fractions: the rational
        view of `bracket`.

        The returned dict may be shared with later calls; do not mutate it.
        """
        return rational(self.bracket(wu, iu, wv, iv))

    def bracket(self, wu, iu, wv, iv):
        """[b, b'] as an integer vector (den, {position: int}); while its
        weight is being built, over the keys -k of the candidate columns
        and memoized in the step's `_open`, so `_struct` holds built
        weights only."""
        w = wu + wv
        built = w in self.reps or w > self.max_weight
        memo = self._struct if built else self._open
        key = (wu, iu, wv, iv)
        got = memo.get(key)
        if got is not None:
            return got
        u = self.reps[wu][iu]
        if w > self.max_weight:
            out = _ZERO
        elif type(u) is str:
            out = (self.ad[(u, wv, iv)] if built
                   else (1, {self._cols[(u, wv)][iv]: 1}))
        else:
            # u = [g, c]:  [[g,c],b] = [g,[c,b]] - (-1)^{|g||c|} [c,[g,b]]
            g, wc, ic = u
            wg = wu - wc
            sign = -1 if (wg & 1 and wc & 1) else 1
            acc = self._ad(g, wc + wv, self.bracket(wc, ic, wv, iv), built)
            d, v = self.ad[(g, wv, iv)]
            for k, a in v.items():
                add_scaled(acc, -sign * a, self.bracket(wc, ic, wv + wg, k), d)
            out = primitive(acc)
        memo[key] = out
        return out

    def export_struct(self):
        """Structure constants of the truncated quotient.

        Returns (labels, parities, weights, brackets) with brackets a dict
        (i, j) -> {k: value} over flat basis positions, i <= j, each value
        an int if integral and a Fraction otherwise.
        """
        flat = [(w, i) for w in self.weights() for i in range(self.dim(w))]
        weights = [w for w, _ in flat]
        offs = {w: weights.index(w) for w in set(weights)}
        labels = [bracket_word_name(self.label(w, i)) for w, i in flat]
        parities = [w & 1 for w in weights]
        brackets = {}
        # flat is in weight order, so a row ends at its first partner
        # above max_weight
        for fi, (wu, i) in enumerate(flat):
            for fj in range(fi, len(flat)):
                wv, j = flat[fj]
                if wu + wv > self.max_weight:
                    break
                coords = self.struct(wu, i, wv, j)
                if coords:
                    brackets[(fi, fj)] = {offs[wu + wv] + k: c for k, c in coords.items()}
        return labels, parities, weights, brackets


def _trees(elem):
    """The (coefficient, bracket tree) terms of a `tensor.LieElement`."""
    if not hasattr(elem, "trees"):
        raise EngineError("a Lie element enters with its bracket trees, as "
                          "tensor.lie_sum or lie_expand builds it; a Poly has none")
    return elem.trees


def label_tree(label):
    """Bracket label as nested lists (JSON-friendly)."""
    if isinstance(label, str):
        return label
    return [label_tree(label[0]), label_tree(label[1])]


def basis_report(model):
    """Per-weight dimension/basis records with nested-array brackets."""
    return [
        {
            "weight": w,
            "dim": model.dim(w),
            "basis": [label_tree(model.label(w, i)) for i in range(model.dim(w))],
        }
        for w in model.weights()
    ]


def load_or_build_model(alphabet, relations, cutoff, cache_directory=None,
                        presentation_hash=None):
    """LieModel, optionally backed by a pickle cache keyed by
    (presentation hash, cutoff).

    A cached pickle that fails to load, holds no LieModel, or holds one of
    another MODEL_SCHEMA or cutoff is rebuilt and replaced.  The pickle is
    written by `cache.write_atomic`, so readers never see a partial one.
    """
    if not (cache_directory and presentation_hash):
        return LieModel(alphabet, relations, cutoff)
    # only cached runs pay for these imports
    import pickle

    from . import cache

    path = Path(cache_directory) / "models" / f"{presentation_hash}-l{cutoff}.pickle"
    model = _load_model(path, cutoff)
    if model is not None:
        return model
    model = LieModel(alphabet, relations, cutoff)
    cache.write_atomic(path, lambda fh: pickle.dump(model, fh))
    return model


def _load_model(path, cutoff):
    """The usable LieModel pickled at `path`, else None."""
    import pickle

    try:
        with open(path, "rb") as fh:
            model = pickle.load(fh)
    except (OSError, EOFError, pickle.UnpicklingError, AttributeError,
            ImportError, LookupError, TypeError, ValueError):
        # missing, unreadable, truncated or foreign bytes: rebuild
        return None
    if (isinstance(model, LieModel)
            and getattr(model, "schema", None) == MODEL_SCHEMA
            and model.cutoff == cutoff):
        return model
    return None


def free_lie_dims(alphabet, max_w):
    """Dimensions of the free graded super Lie algebra components, from the
    Hilbert series of the tensor algebra (the independent counting oracle).

    The inversion formula reads parity off the degree, so it applies only
    to alphabets whose generators have parity == weight mod 2.
    """
    from .series import dims_from_series

    coeffs = [1] + [0] * max_w
    for g in alphabet.generators:
        if g.parity != g.weight % 2:
            raise EngineError(
                f"counting oracle needs parity == weight parity ({g.name})"
            )
        if g.weight <= max_w:
            coeffs[g.weight] -= 1
    return dims_from_series(coeffs, max_w)
