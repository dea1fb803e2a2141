"""Weight-truncated Lie quotient engine.

The quotient L of a free graded super Lie algebra by the ideal generated by
a finite homogeneous relation set is built one weight at a time in
quotient coordinates, by the nilpotent-quotient step for graded Lie
algebras (W. A. de Graaf, Lie Algebras: Theory and Algorithms, 2000).
L_w is spanned by the generators of weight w and the brackets [g, b_j] of
a generator g with a representative b_j of L_{w-|g|}.  The step takes one
column per such candidate (the generators, then one symbol g (x) b_j) and
spans the kernel of the map onto L_w by rows that are already identities
over L_{<w}:

* each relation of weight w, through the Dynkin-Specht-Wever map
  theta(a1...an) = [a1, [a2, ..., an]], for which theta(P) = n P on
  length-n Lie polynomials;
* super-antisymmetry [x, g] + (-1)^{|x||g|} [g, x];
* super-Jacobi g (x) [b, c] - [[g, b], c] - (-1)^{|g||b|} [b, [g, c]].

A bracket of total weight w is expanded into symbols by the recursion

    [[g, c], b] = [g, [c, b]] - (-1)^{|g||c|} [c, [g, b]]

over the lower brackets.  Pivoting every row on its last candidate leaves
the greedy representatives as the non-pivot columns (the first generators
and bracket monomials independent modulo the ideal), and solving each
candidate over them gives the columns of ad_g, the matrix of bracketing
with the generator g.  Structure constants use the same recursion with
those columns and never leave quotient coordinates.  Tensor polynomials
enter only as relations and `project` input, through theta; the build
never expands a tensor word.

Every quotient-coordinate vector inside the model (the ad columns,
`gen_coords`, the memos of theta, of the symbol expansions and of the
brackets) is held as integers over one positive denominator, a pair
(den, {position: int}) with gcd(den, entries) = 1, in the fraction-free
style of Bareiss (Math. Comp. 22, 1968).  The read-off takes the pivot
entry of a fully reduced kernel row as the denominator, and combinations
rescale to the lcm of the denominators they meet, so the build does
integer arithmetic only; the kernel rows enter the echelon as they are,
since only their direction matters.  Values become rational at the edges
alone: `project`, `struct` and `export_struct` return dicts whose
integral values are ints and whose other values are Fractions (see
`rational`, which applies `linalg.ratio`).  The free-generator analysis
(`SubalgebraGenerators`) stays integral: it reads the ad columns and
`_bracket` and spans their numerators.
"""

import os
from fractions import Fraction
from math import gcd
from pathlib import Path

from .linalg import Echelon, ratio
from .tensor import bracket_word_name, super_commutator


class EngineError(ValueError):
    pass


# Version of the pickled LieModel layout; a cached model of another
# version is rebuilt.  Version 2 added the ad columns and Rep.tail;
# version 3 dropped the tensor expansions and added gen_coords; version 4
# pickles the single-mode Echelon (slots: rows only); version 5 holds the
# coordinate vectors as (den, {position: int}).
MODEL_SCHEMA = 5

# The zero coordinate vector (den, {}); shared, never mutated.
_ZERO = (1, {})


class Rep:
    """Coset representative: a bracket monomial.

    `tail` is the (weight, position) of the lower representative c when the
    label is (g, c), and None for a generator.
    """

    __slots__ = ("label", "weight", "parity", "tail")

    def __init__(self, label, weight, parity, tail=None):
        self.label = label
        self.weight = weight
        self.parity = parity
        self.tail = tail

    @property
    def name(self):
        return bracket_word_name(self.label)

    def __repr__(self):
        return f"Rep({self.name}, weight={self.weight})"


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
        # brackets as integer vectors, and the rational view of the
        # non-integral ones
        self._struct = {}
        self._struct_q = {}
        self._free_dims = free_lie_dims(alphabet, self.max_weight)
        min_w = min(g.weight for g in alphabet.generators)
        for w in range(min_w, self.max_weight + 1):
            self._step(w, rel_by_weight.get(w, ()))

    # -- construction

    def _step(self, w, relations):
        """Build L_w from L_{<w}: one nilpotent-quotient step."""
        A = self.alphabet
        cols = [g.name for g in A.generators if g.weight == w]
        cols += [(g.name, w - g.weight, j) for g in A.generators
                 for j in range(self.dim(w - g.weight))]
        # column k is keyed -k: Echelon pivots on the smallest key, so every
        # row pivots on its last candidate
        key = {c: -k for k, c in enumerate(cols)}
        ech = Echelon()
        top = {}

        def insert(acc):
            # a kernel row's scale does not matter: insert its numerators
            if acc[1]:
                ech.insert({key[c]: v for c, v in acc[1].items()})

        # (a) relations: a1...an -> (1/n) a1 (x) theta(a2...an)
        for parts in relations:
            acc = [1, {}]
            memo = {}
            for n, terms in parts.items():
                for word, c in terms.items():
                    a1 = A.names[word[0]]
                    if n == 1:
                        symbols = (1, {a1: 1})
                    else:
                        wl = w - A.weights[word[0]]
                        d, v = self._theta(word[1:], memo)
                        symbols = (d, {(a1, wl, k): a for k, a in v.items()})
                    q = Fraction(c, n)
                    _add_scaled(acc, q.numerator, symbols, q.denominator)
            insert(acc)
        for g in A.generators:
            rest = w - g.weight
            gd, gv = self.gen_coords[g.name]
            # (b) super-antisymmetry [x, g] + (-1)^{|x||g|} [g, x]
            for j in range(self.dim(rest)):
                odd = g.parity and self.reps[rest][j].parity
                acc = [1, {(g.name, rest, j): -1 if odd else 1}]
                for k, a in gv.items():
                    _add_scaled(acc, a, self._top(rest, j, g.weight, k, top), gd)
                insert(acc)
            # (c) super-Jacobi g (x) [b,c] - [[g,b],c] - (-1)^{|g||b|} [b,[g,c]]
            for wb in self.weights():
                wc = rest - wb
                if wc not in self.reps:
                    continue
                for ib, b in enumerate(self.reps[wb]):
                    sign = -1 if (g.parity and b.parity) else 1
                    bd, bv = self.ad[(g.name, wb, ib)]
                    for ic in range(self.dim(wc)):
                        if not (b.tail is None or wb < wc or (wb == wc and ib <= ic)):
                            continue
                        d, v = self._bracket(wb, ib, wc, ic)
                        acc = [d, {(g.name, rest, k): a for k, a in v.items()}]
                        for k, a in bv.items():
                            _add_scaled(acc, -a, self._top(wb + g.weight, k, wc, ic, top), bd)
                        cd, cv = self.ad[(g.name, wc, ic)]
                        for k, a in cv.items():
                            _add_scaled(acc, -sign * a,
                                        self._top(wb, ib, wc + g.weight, k, top), cd)
                        insert(acc)
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
                reps.append(Rep(c, w, w & 1))
            else:
                g, wl, j = c
                reps.append(Rep((g, self.reps[wl][j].label), w, w & 1, (wl, j)))
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

    def _theta(self, word, memo):
        """Quotient coordinates of theta(word) = [a1, [a2, ..., an]]."""
        got = memo.get(word)
        if got is None:
            A = self.alphabet
            if len(word) == 1:
                got = self.gen_coords[A.names[word[0]]]
            else:
                g = A.names[word[0]]
                tail = word[1:]
                wt = A.word_weight(tail)
                d, v = self._theta(tail, memo)
                acc = [1, {}]
                for k, a in v.items():
                    _add_scaled(acc, a, self.ad[(g, wt, k)])
                got = _vector(acc, d)
            memo[word] = got
        return got

    def _top(self, wu, iu, wv, iv, memo):
        """[b_u, b_v] at the weight being built, over the symbols g (x) b_j."""
        key = (wu, iu, wv, iv)
        got = memo.get(key)
        if got is not None:
            return got
        u = self.reps[wu][iu]
        if u.tail is None:
            out = (1, {(u.label, wv, iv): 1})
        else:
            # u = [g, c]:  [[g,c],b] = g (x) [c,b] - (-1)^{|g||c|} [c,[g,b]]
            g = u.label[0]
            wc, ic = u.tail
            wg = wu - wc
            c_odd = self.reps[wc][ic].parity
            g_odd = u.parity ^ c_odd
            sign = -1 if (g_odd and c_odd) else 1
            d, v = self._bracket(wc, ic, wv, iv)
            acc = [d, {(g, wc + wv, k): a for k, a in v.items()}]
            d, v = self.ad[(g, wv, iv)]
            for k, a in v.items():
                _add_scaled(acc, -sign * a, self._top(wc, ic, wv + wg, k, memo), d)
            out = _vector(acc)
        memo[key] = out
        return out

    # -- queries

    def weights(self):
        return sorted(self.reps)

    def dim(self, w):
        return len(self.reps.get(w, ()))

    def dims(self):
        return {w: len(r) for w, r in sorted(self.reps.items())}

    def total_dim(self):
        return sum(len(r) for r in self.reps.values())

    def basis(self):
        """All representatives, ordered by weight then position."""
        out = []
        for w in self.weights():
            out.extend(self.reps[w])
        return out

    def ideal_dim(self, w):
        """Dimension of the ideal's weight-w component in the free algebra."""
        if w not in self.reps:
            return 0
        return self._free_dims[w - 1] - self.dim(w)

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
        acc = [1, {}]
        memo = {}
        for n, terms in _lie_parts(poly).items():
            for word, c in terms.items():
                q = Fraction(c, n)
                _add_scaled(acc, q.numerator, self._theta(word, memo), q.denominator)
        return rational(_vector(acc))

    def contains_ideal(self, poly):
        return not self.project(poly)

    def struct(self, wu, iu, wv, iv):
        """Coordinates of [b, b'] for representatives (wu, iu), (wv, iv),
        integral values as ints and the others as Fractions.

        The returned dict is shared with later calls; do not mutate it.
        """
        d, v = self._bracket(wu, iu, wv, iv)
        if d == 1:
            return v
        key = (wu, iu, wv, iv)
        got = self._struct_q.get(key)
        if got is None:
            got = self._struct_q[key] = rational((d, v))
        return got

    def _bracket(self, wu, iu, wv, iv):
        """[b, b'] as an integer vector (den, {position: int})."""
        key = (wu, iu, wv, iv)
        got = self._struct.get(key)
        if got is not None:
            return got
        u = self.reps[wu][iu]
        if wu + wv > self.max_weight:
            out = _ZERO
        elif u.tail is None:
            out = self.ad[(u.label, wv, iv)]
        else:
            # u = [g, c]:  [[g,c],b] = [g,[c,b]] - (-1)^{|g||c|} [c,[g,b]]
            g = u.label[0]
            wc, ic = u.tail
            wg = wu - wc
            c_odd = self.reps[wc][ic].parity
            g_odd = u.parity ^ c_odd
            sign = -1 if (g_odd and c_odd) else 1
            acc = [1, {}]
            d, v = self._bracket(wc, ic, wv, iv)
            for k, a in v.items():
                _add_scaled(acc, a, self.ad[(g, wc + wv, k)], d)
            d, v = self.ad[(g, wv, iv)]
            for k, a in v.items():
                _add_scaled(acc, -sign * a, self._bracket(wc, ic, wv + wg, k), d)
            out = _vector(acc)
        self._struct[key] = out
        return out

    def export_struct(self):
        """Structure constants of the truncated quotient.

        Returns (labels, parities, weights, brackets) with brackets a dict
        (i, j) -> {k: value} over flat basis positions, i <= j, each value
        an int if integral and a Fraction otherwise.
        """
        flat = []
        offs = {}
        for w in self.weights():
            offs[w] = len(flat)
            flat.extend(self.reps[w])
        labels = [r.name for r in flat]
        parities = [r.parity for r in flat]
        weights = [r.weight for r in flat]
        brackets = {}
        for wu in self.weights():
            for wv in self.weights():
                if wu + wv > self.max_weight:
                    continue
                for i, _ in enumerate(self.reps[wu]):
                    for j, _ in enumerate(self.reps[wv]):
                        fi = offs[wu] + i
                        fj = offs[wv] + j
                        if fi > fj:
                            continue
                        coords = self.struct(wu, i, wv, j)
                        if coords:
                            brackets[(fi, fj)] = {
                                offs[wu + wv] + k: c for k, c in coords.items()
                            }
        return labels, parities, weights, brackets


def _add_scaled(acc, a, vec, d=1):
    """acc += (a / d) * vec for ints a and d > 0, dropping zeros.

    acc is an accumulator [den, {position: int}] and vec a vector
    (den, {position: int}); acc's numerators are rescaled when its
    denominator grows to the lcm of the denominators it meets.
    """
    vd, v = vec
    vd *= d
    den, out = acc
    if vd != den:
        if den % vd:
            m = vd // gcd(den, vd)
            for k in out:
                out[k] *= m
            den *= m
            acc[0] = den
        a *= den // vd
    for k, c in v.items():
        x = out.get(k, 0) + a * c
        if x:
            out[k] = x
        else:
            out.pop(k, None)


def _vector(acc, d=1):
    """The vector (den, {position: int}) of an accumulator divided by d,
    with gcd(den, entries) = 1."""
    den, out = acc
    den *= d
    if den != 1:
        g = den
        for x in out.values():
            g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            den //= g
            out = {k: x // g for k, x in out.items()}
    return den, out


def rational(vec):
    """The rational dict of a vector (den, {position: int}): integral values
    as ints, the others as Fractions.  A vector over den 1 is returned as
    its own dict."""
    d, v = vec
    if d == 1:
        return v
    return {k: ratio(x, d) for k, x in v.items()}


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
    written to a temporary file and renamed, so readers never see a
    partial one.
    """
    if not (cache_directory and presentation_hash):
        return LieModel(alphabet, relations, cutoff)
    import pickle  # only cached runs pay for the import

    path = Path(cache_directory) / "models" / f"{presentation_hash}-l{cutoff}.pickle"
    model = _load_model(path, cutoff)
    if model is not None:
        return model
    model = LieModel(alphabet, relations, cutoff)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(model, fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
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
    from .series import DensePolynomial, dims_from_series

    coeffs = [Fraction(1)] + [Fraction(0)] * max_w
    for g in alphabet.generators:
        if g.parity != g.weight % 2:
            raise EngineError(
                f"counting oracle needs parity == weight parity ({g.name})"
            )
        if g.weight <= max_w:
            coeffs[g.weight] -= 1
    return dims_from_series(DensePolynomial(coeffs), max_w)


class SubalgebraGenerators:
    """Free-generator analysis of a graded Lie ideal inside a LieModel.

    The ideal K is described by seed subspaces per weight (integer rows
    over quotient positions) plus an optional weight from which K is
    everything.  Per weight this spans K_w by the seeds and the brackets
    [g, K_{w-|g|}] read off the ad columns, and [K,K]_w by the brackets of
    lower basis elements; the rows of K_w independent of [K,K]_w count the
    graded generator space of K (free by the structure theorems, which the
    dimension series confirms degree by degree).  Only spans matter, so
    each vector enters as the numerators of an engine vector, its
    denominator dropped, and each span is one Echelon filled a batch at a
    time, sparsest first.
    """

    def __init__(self, model, seeds=None, full_from=None, max_weight=None):
        self.model = model
        self.max_weight = model.max_weight if max_weight is None else max_weight
        self.seeds = seeds or {}
        self.full_from = full_from
        # weight -> basis of K_w, the rows of its echelon
        self.k_basis = {}
        self.gen_counts = {}
        self._build()

    def _build(self):
        model = self.model
        for w in sorted(model.reps):
            if w > self.max_weight:
                break
            if self.full_from is not None and w >= self.full_from:
                rows = [{j: 1} for j in range(model.dim(w))]
            else:
                rows = list(self.seeds.get(w, ()))
                for g in model.alphabet.generators:
                    wl = w - g.weight
                    for u in self.k_basis.get(wl, ()):
                        acc = [1, {}]
                        for j, c in u.items():
                            _add_scaled(acc, c, model.ad[(g.name, wl, j)])
                        rows.append(acc[1])
            basis = self.k_basis[w] = list(_span(rows).rows.values())
            # the bracket span [K, K]_w, then the generator complement
            pairs = []
            for wu, us in self.k_basis.items():
                wv = w - wu
                if wv < wu:
                    continue
                vs = self.k_basis.get(wv, ())
                for i, u in enumerate(us):
                    for v in vs[i if wu == wv else 0:]:
                        pairs.append(_pair(model, wu, u, wv, v))
            bech = _span(pairs)
            self.gen_counts[w] = sum(bech.insert(u) is not None for u in basis)

    def counts(self):
        return dict(sorted(self.gen_counts.items()))


def _span(rows):
    """The echelon of integer rows, inserted sparsest first."""
    ech = Echelon()
    for row in sorted(rows, key=len):
        ech.insert(row)
    return ech


def _pair(model, wu, u, wv, v):
    """Numerators of [u, v] for integer rows u at weight wu and v at wv."""
    acc = [1, {}]
    for i, a in u.items():
        for j, b in v.items():
            _add_scaled(acc, a * b, model._bracket(wu, i, wv, j))
    return acc[1]


def tym_hat_generators(model, n, max_weight=None):
    """Generator analysis of the ideal spanned by x3..xn and everything of
    weight >= 3 (the free complement of the first two even directions)."""
    seeds = {2: [{j: 1} for j in range(2, n)]}
    return SubalgebraGenerators(model, seeds=seeds, full_from=3, max_weight=max_weight)


def tym_generators(model, max_weight=None):
    """Generator analysis of the augmentation ideal (weights >= 3)."""
    return SubalgebraGenerators(model, seeds={}, full_from=3, max_weight=max_weight)


def k1s_generators(model, s, max_weight=None):
    """Generator analysis of the ideal generated by z3..zs and [z1,z2],
    together with everything of weight >= 9, inside the n = 1 quotient."""
    names = {f"z{a}" for a in range(3, s + 1)}
    seeds = {3: [{j: 1} for j, rep in enumerate(model.reps.get(3, ()))
                 if rep.label in names]}
    coords = _pair(model, 3, model.gen_coords["z1"][1], 3, model.gen_coords["z2"][1])
    if coords:
        seeds[6] = [coords]
    return SubalgebraGenerators(model, seeds=seeds, full_from=9, max_weight=max_weight)
