"""All-pairs free-generator counts: the test oracle for
`symalg.freegens.SubalgebraGenerators`.

This is the analysis's former construction.  Per weight w it spans K_w
by the seeds and the brackets [g, K_{w-|g|}], spans [K, K]_w by the
brackets of every pair of lower basis elements of K, and counts the rows
of K_w independent of [K, K]_w.  It needs no annihilator, so it checks the
engine's recursion by an independent route; its echelons grow with
dim g_w, so keep cutoffs small.
"""

from symalg.linalg import add_scaled, span


def oracle_counts(model, q, seeds, max_weight=None):
    """{weight: dim V_w} for the ideal given as in `presentation.FREE_IDEALS`."""
    max_weight = model.max_weight if max_weight is None else max_weight
    A = model.alphabet

    def coords(g):
        return A.weights[A.index(g)], model.gen_coords[g][1]

    seed_rows = {}
    for seed in seeds:
        if isinstance(seed, str):
            w, row = coords(seed)
        else:
            (wa, a), (wb, b) = map(coords, seed)
            w, row = wa + wb, _pair(model, wa, a, wb, b)
        seed_rows.setdefault(w, []).append(row)
    k_basis = {}
    counts = {}
    for w in sorted(model.reps):
        if w > max_weight:
            break
        if w > len(q):
            rows = [{j: 1} for j in range(model.dim(w))]
        else:
            rows = seed_rows.pop(w, [])
            for g in A.generators:
                wl = w - g.weight
                for u in k_basis.get(wl, ()):
                    acc = [1, {}]
                    for j, c in u.items():
                        add_scaled(acc, c, model.ad[(g.name, wl, j)])
                    rows.append(acc[1])
        basis = k_basis[w] = list(span(rows).rows.values())
        pairs = []
        for wu, us in k_basis.items():
            wv = w - wu
            if wv < wu:
                continue
            vs = k_basis.get(wv, ())
            for i, u in enumerate(us):
                for v in vs[i if wu == wv else 0:]:
                    pairs.append(_pair(model, wu, u, wv, v))
        bech = span(pairs)
        counts[w] = sum(bech.insert(u) is not None for u in basis)
    return counts


def _pair(model, wu, u, wv, v):
    """Numerators of [u, v] for integer rows u at weight wu and v at wv."""
    acc = [1, {}]
    for i, a in u.items():
        for j, b in v.items():
            add_scaled(acc, a * b, model.bracket(wu, i, wv, j))
    return acc[1]
