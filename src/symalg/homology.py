"""Homology of finite-dimensional (or weight-truncated) super Lie algebras
with trivial coefficients, via the Chevalley-Eilenberg complex.

The k-th chain space is the super exterior power: antisymmetric on even
elements, symmetric on odd ones, so a basis is indexed by (strictly
increasing even subsets) x (weakly increasing odd multisets).  With trivial
coefficients the differential keeps only the bracket terms:

  d(y1 ^ ... ^ yk) = sum_{i<j} (-1)^E [yi,yj] ^ y1 ^ ... ^ yi^ ... ^ yj^ ... ^ yk
  E = |yi| (|y1|+..+|y_{i-1}|) + |yj| (|y1|+..+|y_{j-1}|) + |yi||yj| + i + j

and homology ranks are dim - rank(d_k) - rank(d_{k+1}) per degree (and per
weight when the algebra is weight-graded).  The factors left after dropping
yi and yj stay in basis order, so each term of [yi, yj] takes its place
among them in one signed insertion.  d preserves weight, so each d_k is
ranked weight block by weight block.
"""

from bisect import bisect_left

from .linalg import addmul, rank


def wedge_basis(g, k, weight_max=None):
    """Basis wedges as (even tuple, odd tuple), each part in `itertools`
    order; optionally only those of weight <= weight_max, pruned while they
    are enumerated: the even part may use what the odd part's least weight
    leaves, and the odd part what the even part leaves."""
    ev = g.even_indices()
    od = g.odd_indices()
    if weight_max is None or g.weights is None:
        w, weight_max = [0] * g.dim, 0
    else:
        w = g.weights
    least_even, least_odd = (min((w[i] for i in part), default=0) for part in (ev, od))
    out = []
    for ne in range(min(k, len(ev)), -1, -1):
        no = k - ne
        for esub in _combinations(ev, ne, w, least_even, weight_max - no * least_odd, False):
            rest = weight_max - sum(w[i] for i in esub)
            out += [(esub, osub) for osub in _combinations(od, no, w, least_odd, rest, True)]
    return out


def _combinations(items, r, weights, least, budget, repeat):
    """The r-combinations of `items` (with repetition if `repeat`) of total
    weight <= budget, in `itertools` order, where `least` is the least
    weight of an item.  An item is skipped once the partial weight, its
    own and (r - 1) times `least` exceed the budget, a lower bound on every
    completion whatever the signs."""
    out = []
    prefix = []

    def extend(start, r, budget):
        if r == 0:
            if budget >= 0:
                out.append(tuple(prefix))
            return
        for pos in range(start, len(items)):
            i = items[pos]
            if weights[i] + (r - 1) * least <= budget:
                prefix.append(i)
                extend(pos if repeat else pos + 1, r - 1, budget - weights[i])
                prefix.pop()

    extend(0, r, budget)
    return out


def wedge_weight(g, wedge):
    esub, osub = wedge
    if g.weights is None:
        return 0
    return sum(g.weights[i] for i in esub) + sum(g.weights[i] for i in osub)


def _insert(g, y, wedge, coeff):
    """Place the factor y into a basis wedge (evens, odds) with its Koszul
    sign.  y starts in front and moves right past every factor that sorts
    before it (evens before odds, then by index, the `wedge_basis` order);
    each swap with u multiplies coeff by -(-1)^(|u||y|), so an odd y passes
    the evens with a sign each and the odds without.  Returns (wedge,
    coeff), or None where y is even and already a factor (y ^ y = 0)."""
    esub, osub = wedge
    if g.parities[y]:
        at = bisect_left(osub, y)
        return (esub, osub[:at] + (y,) + osub[at:]), -coeff if len(esub) % 2 else coeff
    at = bisect_left(esub, y)
    if esub[at:at + 1] == (y,):
        return None
    return (esub[:at] + (y,) + esub[at:], osub), -coeff if at % 2 else coeff


def ce_differential(g, wedge):
    """d of a basis wedge, as {basis wedge -> coefficient}: each stored
    structure constant times +-1, so integral constants give ints."""
    esub, osub = wedge
    ys = tuple(esub) + tuple(osub)
    ne, k = len(esub), len(ys)
    out = {}
    pref = [0] * (k + 1)
    for idx, y in enumerate(ys):
        pref[idx + 1] = (pref[idx] + g.parities[y]) & 1
    for i in range(k):
        for j in range(i + 1, k):
            br = g.bracket(ys[i], ys[j])
            if not br:
                continue
            exp = (
                g.parities[ys[i]] * pref[i]
                + g.parities[ys[j]] * pref[j]
                + g.parities[ys[i]] * g.parities[ys[j]]
                + (i + 1)
                + (j + 1)
            )
            sign = -1 if exp % 2 else 1
            rest = ys[:i] + ys[i + 1:j] + ys[j + 1:]
            m = ne - (i < ne) - (j < ne)
            for tgt, c in br.items():
                got = _insert(g, tgt, (rest[:m], rest[m:]), sign * c)
                if got is None:
                    continue
                key, coeff = got
                val = out.get(key, 0) + coeff
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
    return out


def ce_check_d_squared(g, degree_max, weight_max=None):
    """d o d == 0 on all basis wedges up to the given degree."""
    for k in range(2, degree_max + 1):
        for wedge in wedge_basis(g, k, weight_max):
            acc = {}
            for mid, c in ce_differential(g, wedge).items():
                addmul(acc, c, ce_differential(g, mid))
            if acc:
                return False
    return True


def ce_homology(g, degree_max, weight_max=None):
    """Betti numbers of the (weight-truncated) complex.

    Returns {degree: total dim} when the algebra carries no weights, else
    {degree: {weight: dim}} with zero entries dropped.  Both come from one
    computation: every wedge is keyed by its weight when graded and by 0
    otherwise.  The constructor refuses brackets that break the weights, so
    d preserves the key, and each degree-k block is ranked against the
    degree-(k - 1) block of its key alone.
    """
    graded = g.weights is not None and weight_max is not None
    blocks = {}
    for k in range(degree_max + 2):
        blocks[k] = {}
        for wedge in wedge_basis(g, k, weight_max):
            key = wedge_weight(g, wedge) if graded else 0
            blocks[k].setdefault(key, []).append(wedge)
    ranks = {0: {}}
    for k in range(1, degree_max + 2):
        ranks[k] = {key: _matrix_rank(g, ws, blocks[k - 1].get(key, ()))
                    for key, ws in blocks[k].items()}
    out = {}
    for k in range(degree_max + 1):
        betti = {}
        for key, ws in sorted(blocks[k].items()):
            b = len(ws) - ranks[k].get(key, 0) - ranks[k + 1].get(key, 0)
            if b:
                betti[key] = b
        out[k] = betti if graded else betti.get(0, 0)
    return out


def _matrix_rank(g, wedges, target_basis):
    index = {wedge: i for i, wedge in enumerate(target_basis)}
    return rank(
        {index[t]: c for t, c in ce_differential(g, wedge).items()} for wedge in wedges
    )
