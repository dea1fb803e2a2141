"""Free generators of a graded Lie ideal K of a LieModel g.

K is given as a row of `presentation.FREE_IDEALS`: up to weight len(q),
K_w is spanned by the row's seeds (generator names or bracket pairs of
names) and by [x, K_{w-|x|}] over the generators x; above it, K_w = g_w.
K is free (the dimension series checks this degree by degree), with
dim K_w - dim [K, K]_w free generators in weight w.  The count is read
off A_w, the annihilator of [K, K]_w in the dual of g_w, whose dimension
is dim V_w + dim (g/K)_w: small where [K, K]_w is most of g_w, as for
tym-hat.  The step below is the transpose of the `LieModel` step (de
Graaf's nilpotent quotient):

1. A complement V_w of [K, K]_w in K_w generates K.  By induction on the
   weight: K is positively graded, and K_w = V_w + [K, K]_w, whose
   brackets have lower weights.
2. So [K, K] is spanned by the right-normed brackets [v1, [v2, ...]] of
   elements of V of length >= 2.  [K, K] is an ideal of g by super-Jacobi,
   and by induction on the length it is the ideal of g generated by
   [V, V].  The generators x generate g, so
   [K, K]_w = span [V, V]_w + sum_x ad_x [K, K]_{w-|x|}.
3. Hence phi is in A_w iff phi([V, V]_w) = 0 and, for every generator x,
   phi o ad_x is in A_{w-|x|}: phi o ad_x = sum_i lam_{x,i} alpha_i over
   a basis alpha of A_{w-|x|}.
4. A representative b = [x, c_j] of g_w has the unit vector at b as its
   ad column, so phi(b) = sum_i lam_{x,i} alpha_i(c_j); phi takes a free
   value mu_b at a generator representative b.  phi fixes lam, as alpha is
   a basis, so A_w is the solution space in (lam, mu) of phi([V, V]_w) = 0
   and of (3) at every other ad column of every x.  At a representative's
   own tail (3) is an identity, and it is skipped.
5. `linalg.solve` reads A_w off these equations, one basis functional per
   free unknown, all scaled to integers by one common factor.  The rows of
   K_w whose values on A_w are independent span a V_w, whose pairs enter
   (3) at the higher weights.

The unknowns number sum_x dim A_{w-|x|} plus the generator
representatives of weight w: at most a dozen per weight for tym-hat on
(3,1).  Only spans and kernels matter, so every vector is held as
integers, its denominator dropped.
"""

from itertools import count
from math import lcm

from .linalg import Echelon, add_scaled, addmul, solve, span
from .presentation import free_ideal


class SubalgebraGenerators:
    """The free-generator counts of the ideal K of `model` given by the
    row (q, seeds) of FREE_IDEALS, to max_weight (default: the model's)."""

    def __init__(self, model, q, seeds, max_weight=None):
        max_weight = model.max_weight if max_weight is None else max_weight
        A = model.alphabet
        seed_rows = {}
        for seed in seeds:
            w, (_, row) = model.tree_vector(seed)
            seed_rows.setdefault(w, []).append(row)
        # weight -> basis of K_w (the rows of its echelon)
        self.k_basis = {}
        self.gen_counts = {}
        # weight -> A_w as `_annihilator` returns it, and rows spanning V_w
        ann = {}
        free = {}
        for w in sorted(model.reps):
            if w > max_weight:
                break
            if w > len(q):
                basis = [{j: 1} for j in range(model.dim(w))]
            else:
                rows = seed_rows.pop(w, [])
                for g in A.generators:
                    wl = w - g.weight
                    rows += [_numerators((c, model.ad[(g.name, wl, j)]) for j, c in u.items())
                             for u in self.k_basis.get(wl, ())]
                basis = list(span(rows).rows.values())
            self.k_basis[w] = basis
            dim_a, values = ann[w] = _annihilator(model, w, ann, free)
            ech = Echelon()
            free[w] = [u for u in basis if ech.rank < dim_a
                       and ech.insert(_combine(u, values)) is not None]
            self.gen_counts[w] = len(free[w])

    def counts(self):
        return dict(sorted(self.gen_counts.items()))


def _annihilator(model, w, ann, free):
    """(dim A_w, values), with values[b] the integer vector of the values of
    a basis of A_w at the representative b of g_w, from A and V at the
    lower weights (steps 3-4 of the module docstring)."""
    reps = model.reps[w]
    if not reps:
        return 0, []
    # the unknowns: mu, one per generator representative, then lam_{x,i},
    # the last generator first (its rows fill in least); lam[x][j] is
    # sum_i lam_{x,i} alpha_i(c_j) and forms[b] is phi(b), over them
    lam = {}
    n = sum(type(rep) is str for rep in reps)
    for g in reversed(model.alphabet.generators):
        dim_a, values = ann.get(w - g.weight, (0, ()))
        lam[g.name] = [{n + i: c for i, c in v.items()} for v in values]
        n += dim_a
    mu = count()
    forms = [{next(mu): 1} if type(rep) is str else lam[rep[0]][rep[2]]
             for rep in reps]
    own = set(reps)
    live = {b for b, f in enumerate(forms) if f}
    # (3) at the ad column [x, c_k] = v / d: phi(v) - d lam[x][k] = 0,
    # skipped where it has no unknown or is a representative's own tail
    eqs = []
    for g in model.alphabet.generators:
        for k, rhs in enumerate(lam[g.name]):
            key = (g.name, w - g.weight, k)
            d, v = model.ad[key]
            if (rhs or not live.isdisjoint(v)) and key not in own:
                eqs.append(_combine(v, forms))
                addmul(eqs[-1], -d, rhs)
    # phi([u, v]) = 0 for the pairs of V
    for wa, us in free.items():
        vs = free.get(w - wa, ()) if 2 * wa <= w else ()
        for i, u in enumerate(us):
            eqs += [_combine(_pair(model, wa, u, w - wa, v), forms)
                    for v in vs[i if 2 * wa == w else 0:]]
    # the kernel, scaled by the lcm m of the denominators of `solve`'s
    # vectors: kt[u] holds unknown u's integer values over the free unknowns
    params, vectors = solve(span(eqs), range(n))
    vecs = list(vectors)
    m = lcm(*(d for d, _ in vecs))
    kt = [{t: x * (m // d) for t, x in v.items()} for d, v in vecs]
    return len(params), [_combine(f, kt) for f in forms]


def _combine(u, vecs):
    """The integer vector sum_j u[j] * vecs[j]."""
    out = {}
    for j, c in u.items():
        addmul(out, c, vecs[j])
    return out


def _numerators(terms):
    """Numerators of sum a * vec over pairs of an int a and an engine vector
    (den, {position: int})."""
    acc = [1, {}]
    for a, vec in terms:
        add_scaled(acc, a, vec)
    return acc[1]


def _pair(model, wu, u, wv, v):
    """Numerators of [u, v] for integer rows u at weight wu and v at wv."""
    return _numerators((a * b, model.bracket(wu, i, wv, j))
                       for i, a in u.items() for j, b in v.items())


def tym_hat_generators(model, n, max_weight=None):
    """Generator analysis of the ideal tym-hat (its row does not read s)."""
    return SubalgebraGenerators(model, *free_ideal("tym-hat", n, 0), max_weight)
