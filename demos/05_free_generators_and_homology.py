"""Free-generator series of distinguished ideals, and CE homology.

Dropping the first two even directions leaves a free graded Lie algebra K;
its generator space V has the closed-form series V = 1 - D * H_U(g/K),
where 1/D is the Hilbert series of U(g) and g/K is spanned by x1, x2.  The
engine re-derives it weight by weight as dim(K_w) - dim([K,K]_w).  The
same formula with g/K spanned by x1, z1, z2 and one weight-6 class gives
the series of the n = 1 ideal k(1,s).  Chevalley-Eilenberg homology of
small truncations is computed exactly as well.
"""

from symalg import (
    FinDimSuperLieAlgebra,
    LieModel,
    SubalgebraGenerators,
    build_relations,
    ce_homology,
    free_gen_series,
    free_ideal,
    preset,
    tym_hat_generators,
)

p = preset(3, 1)
r0, r1 = build_relations(p)
model = LieModel(p.alphabet, r0 + r1, cutoff=9)
hat = tym_hat_generators(model, 3, max_weight=10).counts()
series = free_gen_series("tym-hat", 3, 1, 10)
print("hat-ideal generator dimensions (weights 2..10):")
print("  engine:", [hat[w] for w in range(2, 11)])
print("  series:", series[2:])

p13 = preset(1, 3)
r0b, r1b = build_relations(p13)
m13 = LieModel(p13.alphabet, r0b + r1b, cutoff=11)
k13 = SubalgebraGenerators(m13, *free_ideal("k1s", 1, 3), max_weight=12).counts()
ser13 = free_gen_series("k1s", 1, 3, 12)
print("\nk(1,3) generator dimensions (weights 3..12):")
print("  engine:", {w: c for w, c in k13.items() if c})
print("  series:", {w: c for w, c in enumerate(ser13) if c})

# homology of the one-odd-generator line: one class in every degree
line = FinDimSuperLieAlgebra(["w1"], [1], {}, [3])
print("\nCE homology of the odd line:", ce_homology(line, 4))

g = FinDimSuperLieAlgebra.from_model(LieModel(p.alphabet, r0 + r1, cutoff=4))
H = ce_homology(g, 2, weight_max=8)
print("CE homology of the cutoff-4 truncation (degree -> weight -> dim):")
for k in sorted(H):
    print(f"  H_{k} = {H[k]}")
