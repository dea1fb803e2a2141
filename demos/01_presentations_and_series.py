"""Presentations, defining relations and dimension series.

A presentation is (n, s, Gamma, metric): n even weight-2 generators, s odd
weight-3 generators, and a symmetric tensor coupling the odd pairs back to
the even directions.  The canonical preset takes Gamma^1 = id and the rest
zero, which is the normalized form every higher pipeline assumes.
"""

from symalg import (
    build_relations,
    check_nondegenerate,
    dims_ym,
    hilbert_series_YM,
    preset,
)

p = preset(3, 1)
print(f"presentation: n={p.n}, s={p.s}, metric={p.metric}")

r0, r1 = build_relations(p)
print("\neven relations (weight 6):")
for i, r in enumerate(r0, start=1):
    print(f"  r0_{i} = {r}")
print("odd relations (weight 5):")
for a, r in enumerate(r1, start=1):
    print(f"  r1_{a} = {r}")

ok, witness = check_nondegenerate(p)
print(f"\nnondegenerate: {ok}, witness = {witness}")

# The enveloping algebra has Hilbert series 1/(1 - 3t^2 - t^3 + t^5 + 3t^6 - t^8).
# By PBW it is a product of one factor per degree, (1 - t^i)^(-nu_i) for even i
# and (1 + t^i)^(nu_i) for odd i; peeling the factors off in increasing degree
# recovers the graded Lie algebra dimensions nu_i.
ser = hilbert_series_YM(3, 1, order=12)
print("\nenveloping dimensions by weight:", [int(ser[w]) for w in range(13)])
print("Lie algebra dimensions by weight:", dims_ym(3, 1, max_j=20))
