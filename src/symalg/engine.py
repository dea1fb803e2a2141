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

* each relation of weight w, through the Dynkin-Specht-Wever map
  theta(a1...an) = [a1, [a2, ..., an]], for which theta(P) = n P on
  length-n Lie polynomials;
* super-antisymmetry [x, g] + (-1)^{|x||g|} [g, x];
* super-Jacobi g (x) [b, c] - [[g, b], c] - (-1)^{|g||b|} [b, [g, c]].

Brackets are evaluated by one recursion, `bracket`,

    [[g, c], b] = [g, [c, b]] - (-1)^{|g||c|} [c, [g, b]],

down to brackets [g, b_k] with a generator; `_theta` takes the same last
step [a1, theta(a2...an)].  At a built weight [g, b_k] is the column of
ad_g, and at the weight w being built it is the symbol g (x) b_k, held by
its column key from the start, so the step's rows and the queries on a
built model share one code path and every vector of the step is over int
keys.
Pivoting every row on its last candidate leaves the greedy
representatives as the non-pivot columns (the first generators and
bracket monomials independent modulo the ideal), and solving each
candidate over them gives the columns of ad_g, the matrix of bracketing
with the generator g.  Tensor polynomials enter only as relations and
`project` input, through theta; the build never expands a tensor word.

Every quotient-coordinate vector inside the model (the ad columns,
`gen_coords`, the memos of theta and of the brackets) is a `linalg`
integer vector (den, {position: int}) over one positive denominator.  The
read-off takes the pivot entry of a fully reduced kernel row as the
denominator, and combinations go through `linalg.add_scaled` and
`linalg.primitive`, so the build does integer arithmetic only; the kernel
rows enter the echelon as they are, since only their direction matters.
Values become rational at the edges alone: `project`, `struct` and
`export_struct` return them through `linalg.rational`, integral values as
ints and the others as Fractions.

The model stores nothing it can derive: a representative's weight is its
key in `reps` and its parity that weight mod 2 (the engine requires
generator parity == weight parity), and the dimensions of the free
algebra are counted when `ideal_dim` asks for them.  The free-generator
analysis of the ideals of a model is in `symalg.freegens`.
"""

from fractions import Fraction
from pathlib import Path

from .linalg import Echelon, add_scaled, primitive, rational
from .tensor import bracket_word_name, super_commutator


class EngineError(ValueError):
    pass


# Version of the pickled LieModel layout; a cached model of another
# version is rebuilt.  Version 2 added the ad columns and Rep.tail;
# version 3 dropped the tensor expansions and added gen_coords; version 4
# pickles the single-mode Echelon (slots: rows only); version 5 holds the
# coordinate vectors as (den, {position: int}); version 6 drops Rep's
# weight and parity and the memos of rational brackets and free dimensions.
MODEL_SCHEMA = 6

# The zero coordinate vector (den, {}); shared, never mutated.
_ZERO = (1, {})


class Rep:
    """Coset representative: a bracket monomial.

    `tail` is the (weight, position) of the lower representative c when the
    label is (g, c), and None for a generator.  The weight is the key of
    the representative in `LieModel.reps`, and the parity that weight mod 2.
    """

    __slots__ = ("label", "tail")

    def __init__(self, label, tail=None):
        self.label = label
        self.tail = tail

    @property
    def name(self):
        return bracket_word_name(self.label)

    def __repr__(self):
        return f"Rep({self.name})"


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
            if r.is_zero():
                continue
            w = r.weight()
            r.parity()  # must be homogeneous
            rel_by_weight.setdefault(w, []).append(_lie_parts(r))
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
        # row pivots on its last candidate.  `_cols` gives the key of a
        # generator column by name, and those of the symbols g (x) b_j at
        # weight wl as the list _cols[(g, wl)], so every vector of the step
        # shares its key objects.
        self._cols = {c: -k for k, c in enumerate(cols)}
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

        # (a) relations, through theta
        for parts in relations:
            insert(self._evaluate(parts))
        for g in A.generators:
            rest = w - g.weight
            gd, gv = self.gen_coords[g.name]
            # (b) super-antisymmetry [x, g] + (-1)^{|x||g|} [g, x]
            sign = -1 if (g.parity and rest & 1) else 1
            for j, key in enumerate(self._cols[(g.name, rest)]):
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
                    bd, bv = self.ad[(g.name, wb, ib)]
                    for ic in range(self.dim(wc)):
                        if not (b.tail is None or wb < wc or (wb == wc and ib <= ic)):
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
        # read off: the non-pivot columns are the representatives, and the
        # reduced row of a pivot column solves it over them, its pivot entry
        # being the denominator (full_reduce leaves it positive and the row
        # primitive)
        ech.full_reduce()
        reps = []
        pos = {}
        for k, c in enumerate(cols):
            if -k in ech.rows:
                continue
            pos[-k] = len(reps)
            if isinstance(c, str):
                reps.append(Rep(c))
            else:
                g, wl, j = c
                reps.append(Rep((g, self.reps[wl][j].label), (wl, j)))
        for k, c in enumerate(cols):
            row = ech.rows.get(-k)
            if row is None:
                v = (1, {pos[-k]: 1})
            else:
                v = (row[-k], {pos[kk]: -x for kk, x in row.items() if kk != -k})
            if isinstance(c, str):
                self.gen_coords[c] = v
            else:
                self.ad[c] = v
        self.reps[w] = reps
        self.solvers[w] = ech

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

    def _theta(self, word, memo):
        """Coordinates of theta(word) = [a1, [a2, ..., an]], over the
        candidate columns if its weight is being built."""
        got = memo.get(word)
        if got is None:
            A = self.alphabet
            g = A.names[word[0]]
            tail = word[1:]
            wt = A.word_weight(tail)
            built = wt + A.weights[word[0]] in self.reps
            if tail:
                got = primitive(self._ad(g, wt, self._theta(tail, memo), built))
            else:
                got = self.gen_coords[g] if built else (1, {self._cols[g]: 1})
            memo[word] = got
        return got

    def _evaluate(self, parts):
        """The accumulator of the sum of theta(P_n) / n over the parts
        {n: {word: c}} of a Lie element (Dynkin-Specht-Wever)."""
        acc = [1, {}]
        memo = {}
        for n, terms in parts.items():
            for word, c in terms.items():
                q = Fraction(c, n)
                add_scaled(acc, q.numerator, self._theta(word, memo), q.denominator)
        return acc

    # -- queries

    def weights(self):
        return sorted(self.reps)

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
        """Quotient coordinates of a homogeneous Lie element.

        Returns {rep position -> value} at the element's weight, each value
        an int if integral and a Fraction otherwise; the empty dict means
        the element lies in the ideal.  Each length-n part P_n is evaluated
        as theta(P_n) / n; raises if some part is not a Lie polynomial.
        """
        if poly.is_zero():
            return {}
        w = poly.weight()
        if w > self.max_weight:
            return {}
        if w not in self.reps:
            raise EngineError(f"weight {w} not computed")
        return rational(primitive(self._evaluate(_lie_parts(poly))))

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
        elif u.tail is None:
            out = (self.ad[(u.label, wv, iv)] if built
                   else (1, {self._cols[(u.label, wv)][iv]: 1}))
        else:
            # u = [g, c]:  [[g,c],b] = [g,[c,b]] - (-1)^{|g||c|} [c,[g,b]]
            g = u.label[0]
            wc, ic = u.tail
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
        labels = [self.reps[w][i].name for w, i in flat]
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


def _lie_parts(poly):
    """The parts of a tensor polynomial by word length, {n: {word: c}}.

    Raises EngineError unless every part is a Lie polynomial, checked by
    theta(P_n) = n P_n in the tensor algebra (Dynkin-Specht-Wever).
    """
    A = poly.alphabet
    parts = {}
    for u, c in poly.terms.items():
        parts.setdefault(len(u), {})[u] = c
    memo = {}

    def theta(word):
        got = memo.get(word)
        if got is None:
            got = A.gen(A.names[word[0]])
            if len(word) > 1:
                got = super_commutator(got, theta(word[1:]))
            memo[word] = got
        return got

    for n, terms in parts.items():
        acc = A.zero()
        for word, c in terms.items():
            acc = acc + theta(word).scale(c)
        if acc.terms != {u: n * c for u, c in terms.items()}:
            raise EngineError(
                f"element of weight {poly.weight()} is not in the Lie span"
            )
    return parts


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
            "basis": [label_tree(rep.label) for rep in model.reps[w]],
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
