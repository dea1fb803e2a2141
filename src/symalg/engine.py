"""Weight-truncated Lie quotient engine.

The quotient of a free graded super Lie algebra by the ideal generated by a
finite homogeneous relation set is computed one weight at a time by exact
linear algebra on tensor-algebra coordinates:

* the ideal component at weight w is spanned by the relations of weight w
  together with brackets of generators against the ideal at lower weights
  (generators generate, so this closure is the full ideal);
* coset representatives are bracket monomials [g, b] over lower
  representatives (plus the generators themselves), kept greedily whenever
  they are independent modulo the ideal.

Reducing a candidate [g, b_j] through the weight's tracked echelon either
accepts it as a representative or solves it over the earlier ones, so the
build also records the columns of ad_g, the matrix of bracketing with the
generator g, in quotient coordinates.  Structure constants never leave
those coordinates: every representative is a generator or a bracket
[g, c] with c a lower representative, and

    [[g, c], b] = [g, [c, b]] - (-1)^{|g||c|} [c, [g, b]]

reduces every bracket to ad columns (the nilpotent-quotient approach of
de Graaf, Lie Algebras: Theory and Algorithms, 2000).  Arbitrary tensor
polynomials are still projected through the tracked echelons.
"""

import os
from fractions import Fraction
from pathlib import Path

from .linalg import Echelon, intvec
from .tensor import Poly, bracket_word_name, super_commutator


class EngineError(ValueError):
    pass


# Version of the pickled LieModel layout; a cached model of another
# version is rebuilt.  Version 2 added the ad columns and Rep.tail.
MODEL_SCHEMA = 2


class Rep:
    """Coset representative: a bracket monomial with its tensor expansion.

    `tail` is the (weight, position) of the lower representative c when the
    label is (g, c), and None for a generator.
    """

    __slots__ = ("label", "poly", "weight", "parity", "tail")

    def __init__(self, label, poly, weight, parity, tail=None):
        self.label = label
        self.poly = poly
        self.weight = weight
        self.parity = parity
        self.tail = tail

    @property
    def name(self):
        return bracket_word_name(self.label)

    def __repr__(self):
        return f"Rep({self.name}, weight={self.weight})"


def _bracket_vec(gen, gen_parity, row, row_parity, lower_words, upper_index):
    """Integer row of [g, row] from an integer row at a lower weight."""
    sign = -1 if (gen_parity and row_parity) else 1
    out = {}
    for col, c in row.items():
        u = lower_words[col]
        k1 = upper_index[(gen,) + u]
        out[k1] = out.get(k1, 0) + c
        k2 = upper_index[u + (gen,)]
        v = out.get(k2, 0) - sign * c
        if v:
            out[k2] = v
        else:
            out.pop(k2, None)
    return {k: v for k, v in out.items() if v}


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
        self.rel_by_weight = {}
        for r in relations:
            if r.is_zero():
                continue
            w = r.weight()
            r.parity()  # must be homogeneous
            self.rel_by_weight.setdefault(w, []).append(r)
        self.reps = {}
        self.solvers = {}
        self.ideal_rows = {}
        # (generator name, weight, position) -> quotient coordinates of
        # [g, b] for the representative b at (weight, position)
        self.ad = {}
        self._struct = {}
        self._build()

    # -- construction

    def _build(self):
        A = self.alphabet
        min_w = min(g.weight for g in A.generators)
        for w in range(min_w, self.max_weight + 1):
            index = A.word_index(w)
            words = A.words_of_weight(w)
            solver = Echelon(track=True)
            # ideal rows first: relations at this weight, then generator
            # brackets against the lower ideal components
            for r in self.rel_by_weight.get(w, ()):
                solver.insert(_poly_int_row(r, index))
            for g in A.generators:
                wl = w - g.weight
                lower = self.ideal_rows.get(wl)
                if not lower:
                    continue
                lwords = A.words_of_weight(wl)
                for row in lower:
                    bv = _bracket_vec(
                        g.index, g.parity, row, wl & 1, lwords, index
                    )
                    solver.insert(bv)
            self.ideal_rows[w] = [dict(r) for r in solver.rows.values()]
            # representatives: generators of this weight, then brackets of
            # generators with lower representatives, greedily
            reps = []
            for g in A.generators:
                if g.weight == w:
                    p = A.gen(g.name)
                    if solver.insert(_poly_int_row(p, index), {len(reps): 1}) is not None:
                        reps.append(Rep(g.name, p, w, g.parity))
            for g in A.generators:
                wl = w - g.weight
                for j, rep in enumerate(self.reps.get(wl, ())):
                    p = super_commutator(A.gen(g.name), rep.poly)
                    coords = {}
                    if not p.is_zero():
                        # bracket monomials have integer coefficients, so
                        # the row is p itself and coords are those of p
                        k = len(reps)
                        pivot, coords = solver.insert_or_solve(
                            _poly_int_row(p, index), k
                        )
                        if pivot is not None:
                            coords = {k: Fraction(1)}
                            reps.append(Rep((g.name, rep.label), p, w,
                                            (g.parity + rep.parity) % 2, (wl, j)))
                    self.ad[(g.name, wl, j)] = coords
            self.reps[w] = reps
            self.solvers[w] = solver

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
        return len(self.ideal_rows.get(w, ()))

    def project(self, poly):
        """Quotient coordinates of a homogeneous Lie element.

        Returns {rep position -> Fraction} at the element's weight; the
        empty dict means the element lies in the ideal.  Raises if the
        element is not in the Lie span of the computed weight.
        """
        if poly.is_zero():
            return {}
        w = poly.weight()
        if w > self.max_weight:
            return {}
        if w not in self.solvers:
            raise EngineError(f"weight {w} not computed")
        iv, den = intvec(_frac_row(poly, self.alphabet.word_index(w)))
        sol = self.solvers[w].solve(iv)
        if sol is None:
            raise EngineError(f"element of weight {w} is not in the Lie span")
        return {j: c / den for j, c in sol.items() if c}

    def contains_ideal(self, poly):
        return not self.project(poly)

    def struct(self, wu, iu, wv, iv):
        """Coordinates of [b, b'] for representatives (wu, iu), (wv, iv).

        The returned dict is shared with later calls; do not mutate it.
        """
        return self._bracket(wu, iu, wv, iv)

    def _bracket(self, wu, iu, wv, iv):
        key = (wu, iu, wv, iv)
        got = self._struct.get(key)
        if got is not None:
            return got
        u = self.reps[wu][iu]
        if wu + wv > self.max_weight:
            out = {}
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
            out = {}
            for k, a in self._bracket(wc, ic, wv, iv).items():
                _add_scaled(out, a, self.ad[(g, wc + wv, k)])
            for k, a in self.ad[(g, wv, iv)].items():
                _add_scaled(out, -sign * a, self._bracket(wc, ic, wv + wg, k))
        self._struct[key] = out
        return out

    def export_struct(self):
        """Structure constants of the truncated quotient.

        Returns (labels, parities, weights, brackets) with brackets a dict
        (i, j) -> {k: Fraction} over flat basis positions, i <= j.
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


def _add_scaled(out, a, coords):
    """out += a * coords on quotient-coordinate dicts, dropping zeros."""
    for k, c in coords.items():
        v = out.get(k, 0) + a * c
        if v:
            out[k] = v
        else:
            out.pop(k, None)


def _frac_row(poly, index):
    return {index[u]: c for u, c in poly.terms.items()}


def _poly_int_row(poly, index):
    iv, _ = intvec(_frac_row(poly, index))
    return iv


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


def free_lie_component(alphabet, w):
    """Echelon basis of the weight-w component of the free super Lie
    algebra inside the tensor algebra, with its bracket-monomial labels.

    Returns (echelon, labels).  The dimension is checked against the
    counting oracle.
    """
    index = alphabet.word_index(w)
    ech = Echelon()
    labels = []
    basis_polys = {}

    def component(v):
        if v not in basis_polys:
            basis_polys[v] = []
            idx = alphabet.word_index(v)
            e = Echelon()
            for g in alphabet.generators:
                if g.weight == v:
                    p = alphabet.gen(g.name)
                    if e.insert(_poly_int_row(p, idx)) is not None:
                        basis_polys[v].append((g.name, p))
            for g in alphabet.generators:
                vl = v - g.weight
                if vl <= 0:
                    continue
                for lbl, q in component(vl):
                    p = super_commutator(alphabet.gen(g.name), q)
                    if p.is_zero():
                        continue
                    if e.insert(_poly_int_row(p, idx)) is not None:
                        basis_polys[v].append(((g.name, lbl), p))
        return basis_polys[v]

    for lbl, p in component(w):
        if ech.insert(_poly_int_row(p, index)) is not None:
            labels.append(lbl)
    expected = free_lie_dims(alphabet, w)[w - 1]
    if ech.rank != expected:
        raise EngineError(
            f"free Lie dimension mismatch at weight {w}: {ech.rank} != {expected}"
        )
    return ech, labels


class SubalgebraGenerators:
    """Free-generator analysis of a graded Lie ideal inside a LieModel.

    The ideal K is described by seed subspaces per weight (quotient
    coordinates) plus an optional weight from which K is everything.  Per
    weight this computes dim K_w, dim [K,K]_w and a complement basis, i.e.
    the graded generator space of K (free by the structure theorems, which
    the dimension series confirms degree by degree).
    """

    def __init__(self, model, seeds=None, full_from=None, max_weight=None):
        self.model = model
        self.max_weight = max_weight or model.max_weight
        self.seeds = seeds or {}
        self.full_from = full_from
        self.k_basis = {}
        self.gen_counts = {}
        self.gen_reps = {}
        self._build()

    def _coord_echelon_insert(self, ech, coords, tag=None):
        iv, den = intvec(coords)
        return ech.insert(iv, {tag: den} if tag is not None else None)

    def _build(self):
        model = self.model
        A = model.alphabet
        for w in sorted(model.reps):
            if w > self.max_weight:
                break
            dimw = model.dim(w)
            kech = Echelon()
            kvecs = []

            def add(coords, kech=kech, kvecs=kvecs):
                iv, _ = intvec(coords)
                if iv and kech.insert(iv) is not None:
                    kvecs.append(coords)

            if self.full_from is not None and w >= self.full_from:
                for j in range(dimw):
                    add({j: Fraction(1)})
            else:
                for coords in self.seeds.get(w, ()):
                    add(coords)
                for g in A.generators:
                    wl = w - g.weight
                    gi = self._gen_rep_position(g, model)
                    if gi is None:
                        continue
                    for coords in self.k_basis.get(wl, ()):
                        add(self._bracket_coords(gi, wl, coords))
            self.k_basis[w] = kvecs
            # bracket span [K, K]_w and the generator complement
            bech = Echelon()
            for wu in sorted(self.k_basis):
                wv = w - wu
                if wv < wu or wv not in self.k_basis:
                    continue
                for i, cu in enumerate(self.k_basis[wu]):
                    vs = self.k_basis[wv]
                    jstart = i if wu == wv else 0
                    for cv in vs[jstart:]:
                        bc = self._pair_bracket_coords(wu, cu, wv, cv)
                        if bc:
                            iv, _ = intvec(bc)
                            bech.insert(iv)
            count = 0
            reps = []
            for coords in kvecs:
                iv, _ = intvec(coords)
                if bech.insert(iv) is not None:
                    count += 1
                    reps.append(coords)
            self.gen_counts[w] = count
            self.gen_reps[w] = reps

    def _gen_rep_position(self, g, model):
        # position of the generator among the weight-w representatives
        for j, rep in enumerate(model.reps.get(g.weight, ())):
            if rep.label == g.name:
                return (g.weight, j)
        return None

    def _bracket_coords(self, gpos, wl, coords):
        gw, gj = gpos
        out = {}
        for j, c in coords.items():
            _add_scaled(out, c, self.model.struct(gw, gj, wl, j))
        return out

    def _pair_bracket_coords(self, wu, cu, wv, cv):
        out = {}
        for i, a in cu.items():
            for j, b in cv.items():
                _add_scaled(out, a * b, self.model.struct(wu, i, wv, j))
        return out

    def counts(self):
        return dict(sorted(self.gen_counts.items()))


def tym_hat_generators(model, n, max_weight=None):
    """Generator analysis of the ideal spanned by x3..xn and everything of
    weight >= 3 (the free complement of the first two even directions)."""
    seeds = {2: [{j: Fraction(1)} for j in range(2, n)]}
    return SubalgebraGenerators(model, seeds=seeds, full_from=3, max_weight=max_weight)


def tym_generators(model, max_weight=None):
    """Generator analysis of the augmentation ideal (weights >= 3)."""
    return SubalgebraGenerators(model, seeds={}, full_from=3, max_weight=max_weight)


def k1s_generators(model, s, max_weight=None):
    """Generator analysis of the ideal generated by z3..zs and [z1,z2],
    together with everything of weight >= 9, inside the n = 1 quotient."""
    A = model.alphabet
    z_positions = []
    for j, rep in enumerate(model.reps.get(3, ())):
        if rep.label in {f"z{a}" for a in range(3, s + 1)}:
            z_positions.append(j)
    seeds = {3: [{j: Fraction(1)} for j in z_positions]}
    z1z2 = super_commutator(A.gen("z1"), A.gen("z2"))
    coords = model.project(z1z2)
    if coords:
        seeds[6] = [coords]
    return SubalgebraGenerators(model, seeds=seeds, full_from=9, max_weight=max_weight)
