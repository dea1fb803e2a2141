"""Surjections of truncated quotients onto Clifford-Weyl algebras.

Pipeline: the ideal complementing the first two even directions is free on
a graded generator space with infinitely many even and odd slots.  Mapping
a finite set of those free generators onto a basis of a Heisenberg super
Lie algebra (and everything else to zero) induces a surjective morphism of
the truncated quotient onto the Heisenberg algebra, hence of enveloping
algebras onto the Clifford-Weyl quotient U(heis)/(z-1).  Pulling the
central character back along this map and extending by zero on the two
distinguished directions yields an even functional whose Kirillov-form
ranks give the weight of the corresponding primitive quotient: Weyl index
r + 2, Clifford index t.

The target assignment follows the existence proof: the two weight-4
classes [x1,x3], [x2,x3] are sent to p1, q1 when r >= 1; the remaining
even targets take even generator slots of weight >= 6 and the odd targets
take odd slots above them (from weight 5 when r = 0).

The map theta is solved one weight at a time, and only at the weights it
can reach.  Let T be the target weights (4 when the classes are pinned,
and the slot weights) and R = T together with the sums of two elements of
T.  heis is two-step nilpotent: [heis, heis] lies in k z and z is central.
So for w outside T the ideal's weight-w part, spanned by generators sent
to 0 and by brackets, maps into k z, and a bracket with a nonzero image
needs both factors at weights in T.  By induction on w, theta vanishes at
every weight outside R; there it is set to 0 without any elimination.
Since max R = 2 d', the Lie model is never read above weight 2 d' and is
built at cutoff 2 d' - 1 (model_cutoff), whatever cutoff l the report
names.

At a weight w in R every bracket [b_u, b_v] of lower ideal basis elements
gives a row [coordinates | -image], the image being [theta(b_u), theta(b_v)]
on heis coordinates keyed above the quotient columns; these rows enter one
echelon, sparsest first.  A pivot on an image column means the rows force
a nonzero image of zero: no morphism extends the assignment, and
SurjectionError names the weight.  The generators of weight w are then
the pinned classes and the unit vectors e_j that the same echelon does not
yet span (the residual of e_j has a coordinate entry), in the greedy
order; a generator row [e_j | -its target], or [e_j | 0] when it gets
none, is inserted as it is chosen.  Each row [c | -y] says theta(c) = y,
so theta(b_j) is the solution of coordinate column j over the image
columns, as `linalg.solve` reads it off the reduced echelon.

Every structural property the argument needs is verified exactly: the
map respects all brackets up to weight l + 1 (at a weight in R each
bracket row is re-checked against theta as soon as theta is read off
there; at the others [theta(b_u), theta(b_v)] = 0 over the pairs of
nonzero images), images beyond the cutoff vanish, the images span, and
the two distinguished directions meet the stabilizer trivially.

The weight is read off the Kirillov form f([a, b]) of the functional
f = f0 . theta extended by zero on x1, x2 (f0 the z coordinate), over
x1, x2 and the ideal basis elements f pairs with anything: on two ideal
elements it is f0([theta(a), theta(b)]), and with x1 or x2 it is
f0(theta([x, b])).
"""

from .engine import LieModel
from .linalg import addmul, intvec, rank, rational, solve, span
from .presentation import (InputError, build_relations, free_gen_series, free_ideal,
                           is_identity)
from .superlie import heis, kirillov_weight
from .tensor import bracket_word_name


class SurjectionError(InputError):
    pass


def plan_assignment(n, s, r, t):
    """Weights for every Heisenberg basis element.

    Returns (pinned, slots, d_prime): pinned maps heis names to weight-4
    bracket trees; slots is a list of (weight, heis name) filled in order
    against the free generator slots of that weight.  s = 0, the
    Yang-Mills case, has no odd slots and so takes only t = 0.
    """
    if n < 3:
        raise SurjectionError("pipeline requires n >= 3")
    if s < 1 and t:
        raise SurjectionError("odd targets (t >= 1) require s >= 1")
    if r < 0 or t < 0 or not (r >= 1 or t >= 2):
        raise SurjectionError(
            "target out of range: need r, t >= 0, and r >= 1 or t >= 2"
        )
    tprime = t // 2
    odd_names = []
    for i in range(1, tprime + 1):
        odd_names += [f"a{i}", f"b{i}"]
    if t % 2:
        odd_names.append("c")
    even_names = ["z"]
    for i in range(2, r + 1):
        even_names += [f"q{i}", f"p{i}"]
    # n >= 3, and s >= 1 when t >= 1, so each slot weight from 5 on holds a
    # name: none lands above weight 6 + 2 * (number of names)
    order = 6 + 2 * (len(even_names) + len(odd_names))
    series = free_gen_series("tym-hat", n, s, order)
    slots = []

    def fill(names, w):
        # each name takes the next free generator slot of weight w, w + 2, ...
        used = 0
        for name in names:
            while used >= series[w]:
                w, used = w + 2, 0
            slots.append((w, name))
            used += 1

    if r >= 1:
        pinned = {"p1": ("x1", "x3"), "q1": ("x2", "x3")}
        fill(even_names, 6)
        # the odd slots start just above the last (even) weight used
        fill(odd_names, slots[-1][0] + 1)
    else:
        pinned = {}
        fill(odd_names, 5)
        fill(even_names, 6)
    d_prime = max(
        [wt for wt, _ in slots] + [4 if pinned else 0]
    )
    return pinned, slots, d_prime


class CWSurjectionResult:
    def __init__(self):
        self.phi = {}
        # (weight, basis position) -> heis coordinates of the image; not
        # reported
        self.theta = {}
        self.flags = {}
        self.weight = None
        self.l = None
        self.d_prime = None
        self.functional = None

    @property
    def ok(self):
        return all(self.flags.values())

    def report(self):
        return {
            "l": self.l,
            "d_prime": self.d_prime,
            "phi": self.phi,
            "flags": dict(self.flags),
            "weight": {"weyl": self.weight.weyl, "clifford": self.weight.clifford},
            "functional": self.functional,
        }


def model_cutoff(d_prime):
    """The smallest cutoff the pipeline accepts, 2 d' - 1.  It is also the
    cutoff of the Lie model it reads: theta vanishes above weight 2 d'."""
    return 2 * d_prime - 1


def reach(pinned, slots):
    """R: the target weights T (4 when classes are pinned, and the slot
    weights) together with the sums of two of them.  theta vanishes at
    every weight outside R (module docstring)."""
    targets = {w for w, _ in slots} | ({4} if pinned else set())
    return targets | {u + v for u in targets for v in targets}


def check_input(p, r, t, l=None):
    """Check the normalization, the target and the cutoff before any build.

    Returns plan_assignment's (pinned, slots, d_prime) and the cutoff
    (default 2 d' + 1, at least model_cutoff(d_prime)); raises
    SurjectionError on bad input.
    """
    if p.s and not is_identity(p.gamma[0]):
        raise SurjectionError("normalize first: the pipeline assumes G^1 = id")
    pinned, slots, d_prime = plan_assignment(p.n, p.s, r, t)
    if l is None:
        l = 2 * d_prime + 1
    if l < model_cutoff(d_prime):
        raise SurjectionError(f"cutoff {l} below the minimum {model_cutoff(d_prime)}")
    return pinned, slots, d_prime, l


def build_cw_surjection(p, r, t, l=None, model=None):
    """Run the pipeline for the presentation p and target indices (r, t).

    Returns a CWSurjectionResult whose weight should be (r + 2, t).  The
    default cutoff is the safe 2 d' + 1; the construction only needs
    images of weight > 2 d' to vanish, so any l >= 2 d' - 1 works and the
    verification flags certify the choice.  The cutoff l sets the weights
    up to l + 1 that the flags check; the Lie model only has to reach
    model_cutoff(d') = 2 d' - 1, since theta vanishes above weight 2 d'.
    Without a model one is built at that cutoff; a supplied model below it
    raises SurjectionError.  theta is solved by one augmented echelon per
    weight of R and is 0 at every other weight (see the module
    docstring); raises SurjectionError if the rows of some weight are
    inconsistent.
    """
    pinned, slots, d_prime, l = check_input(p, r, t, l)
    cutoff = model_cutoff(d_prime)
    if model is None:
        r0, r1 = build_relations(p)
        model = LieModel(p.alphabet, r0 + r1, cutoff=cutoff)
    elif model.cutoff < cutoff:
        raise SurjectionError(
            f"supplied model has cutoff {model.cutoff}, below the minimum {cutoff}"
        )
    target = heis(r, t)
    res = CWSurjectionResult()
    res.l = l
    res.d_prime = d_prime
    max_w = l + 1
    reached = reach(pinned, slots)

    # positions of x1..xn among the weight-2 representatives
    pos2 = {rep: j for j, rep in enumerate(model.reps.get(2, ()))}
    for name in ("x1", "x2", "x3"):
        if name not in pos2:
            raise SurjectionError(f"missing weight-2 representative {name}")
    # -- the ideal tym-hat's basis positions per weight: its seeds up to
    # weight len(q) = 2 (the first weight with representatives), and
    # everything above
    q, seeds = free_ideal("tym-hat", p.n, p.s)
    hat2 = sorted(pos2[name] for name in seeds)

    def hat_positions(w):
        return hat2 if w <= len(q) else list(range(model.dim(w)))

    # -- assignment bookkeeping
    slot_needs = {}
    for w, name in slots:
        slot_needs.setdefault(w, []).append(name)
    pinned_vecs = {}
    for name, tree in pinned.items():
        coords = model.struct(2, pos2[tree[0]], 2, pos2[tree[1]])
        if not coords:
            raise SurjectionError(f"pinned class {tree} vanishes in the quotient")
        pinned_vecs.setdefault(4, []).append((name, coords))

    # -- theta weight by weight: one augmented echelon per weight, each
    # bracket row re-checked against theta as soon as theta is read off
    theta = res.theta
    compatible = True
    phi_desc = {}

    def theta_of_coords(w, coords):
        out = {}
        for j, c in coords.items():
            addmul(out, c, theta[(w, j)])
        return out

    weights = [w for w in sorted(model.reps) if w <= max_w]
    for w in weights:
        if w not in reached:
            theta.update(((w, j), {}) for j in hat_positions(w))
            continue
        ncols = model.dim(w)

        def augmented(coords, image):
            # the integer row [coords | -image], heis coordinate k keyed ncols + k
            row = dict(coords)
            row.update((ncols + k, -c) for k, c in image.items())
            return intvec(row)[0]

        # bracket rows: pairs of lower-weight ideal basis elements
        pairs = []
        for wu in weights:
            if wu > w - 2:
                break
            wv = w - wu
            if wv < wu:
                continue
            for iu in hat_positions(wu):
                for iv in hat_positions(wv):
                    if wu == wv and iv < iu:
                        continue
                    coords = model.struct(wu, iu, wv, iv)
                    image = target.bracket_vec(theta[(wu, iu)], theta[(wv, iv)])
                    pairs.append((coords, image))
        ech = span(augmented(c, im) for c, im in pairs if c or im)
        # a pivot on an image column is a nonzero image forced on zero
        if max(ech.rows, default=-1) >= ncols:
            raise SurjectionError(
                f"assignment is not a morphism at weight {w}: "
                "the bracket rows force a nonzero image of zero"
            )
        # generators: the pinned classes, then the unit vectors completing
        # the span, the first of them taking this weight's slot targets
        for name, coords in pinned_vecs.get(w, ()):
            pivot = ech.insert(augmented(coords, {target.index(name): 1}))
            if pivot is None or pivot >= ncols:
                raise SurjectionError(f"pinned target {name} is dependent")
            phi_desc[name] = f"weight-{w} class (pinned)"
        needs = list(slot_needs.get(w, ()))
        for j in hat_positions(w):
            residual, _ = ech.reduce({j: 1})
            if residual and min(residual) < ncols:
                image = {}
                if needs:
                    name = needs.pop(0)
                    image = {target.index(name): 1}
                    phi_desc[name] = f"weight-{w} slot {bracket_word_name(model.label(w, j))}"
                ech.insert(augmented({j: 1}, image))
        if needs:
            raise SurjectionError(
                f"generator shortage at weight {w}: unassigned {needs}; the "
                "model has fewer free generators there than the closed-form "
                "series counts"
            )
        # every coordinate column now has a pivot, so the free columns are
        # the image columns, numbered by heis index, and coordinate column j
        # solves to theta(b_j)
        _, vectors = solve(ech, range(ncols + target.dim))
        for j, vec in zip(range(ncols), vectors):
            theta[(w, j)] = rational(vec)
        compatible = compatible and all(
            theta_of_coords(w, coords) == image for coords, image in pairs)
        # the rows of the last weight in R would otherwise live through the
        # checks below, where the run's memory peaks
        del ech, vectors, pairs

    res.phi = phi_desc

    # -- verification: morphism property on every bracket up to max_w, and
    # images beyond the cutoff vanish.  The weights in R were re-checked as
    # they were solved; outside R theta is 0, so there the bracket of every
    # two nonzero images must vanish
    support = [(w, j) for (w, j), v in theta.items() if v]
    flzero = True
    for wu, iu in support:
        for wv, jv in support:
            w = wu + wv
            if w in reached or not target.bracket_vec(theta[(wu, iu)],
                                                      theta[(wv, jv)]):
                continue
            if w > max_w:
                flzero = False
            else:
                compatible = False
    res.flags["bracket_compatible"] = compatible
    res.flags["flzero"] = flzero

    # -- surjectivity: the images span the Heisenberg algebra
    res.flags["surjective"] = rank(theta.values()) == target.dim

    # -- the functional f = f0 . theta, extended by zero on x1, x2, with f0
    # the z coordinate, and its Kirillov form f([a, b]).  x1, x2 lie outside
    # the ideal, so theta has no entry for them; [x, b] for b of weight w
    # has weight w + 2, where theta vanishes unless w + 2 lies in R, so
    # f([x, b]) is read once at those weights
    zc = target.index("z")
    xs = [(2, pos2["x1"]), (2, pos2["x2"])]
    xform = {}
    for x in xs:
        for w in weights:
            if w + 2 in reached:
                for j in range(model.dim(w)):
                    val = theta_of_coords(w + 2, model.struct(*x, w, j)).get(zc, 0)
                    if val:
                        xform[x, (w, j)] = val

    def form(a, b):
        if a in theta and b in theta:
            return target.bracket_vec(theta[a], theta[b]).get(zc, 0)
        # the even x1, x2 pair antisymmetrically
        return xform.get((a, b), 0) if a in xs else -xform.get((b, a), 0)

    ideal_even = sorted({key for key in support if key[0] % 2 == 0}
                        | {key for _, key in xform if key not in xs})
    res.weight = kirillov_weight(form, xs + ideal_even,
                                 [key for key in support if key[0] % 2])
    # -- stabilizer: no combination of the two directions pairs to zero
    # with the ideal
    res.flags["stabilizer_trivial"] = rank(
        [[form(x, key) for key in ideal_even] for x in xs]) == 2
    res.functional = {
        "description": "central character pulled back along the surjection, "
        "extended by zero on x1, x2",
        "support": {
            f"w{w}#{j}": str(v[zc]) for (w, j), v in sorted(theta.items()) if v.get(zc)
        },
    }
    return res
