"""Weight-graded bases of nilpotent truncations.

The quotient by the ideal of elements of weight >= l + 2 is a
finite-dimensional nilpotent super Lie algebra; the engine produces a
basis of bracket monomials per weight together with exact projections, so
known closed-form bases can be re-derived and checked.
"""

from symalg import LieModel, build_relations, preset
from symalg.refdata import DEPENDENCY_IDENTITIES_31, reference_basis_trees
from symalg.tensor import bracket_word_name, lie_expand, lie_sum

p = preset(3, 1)
r0, r1 = build_relations(p)
model = LieModel(p.alphabet, r0 + r1, cutoff=7)

print("dimensions per weight:", model.dims())
for w in model.weights():
    names = [bracket_word_name(model.label(w, i)) for i in range(model.dim(w))]
    print(f"  weight {w}: {names}")

cums = [sum(model.dim(w) for w in range(2, l + 2)) for l in range(1, 8)]
print("cumulative dimensions for cutoffs 1..7:", cums)

# the reference monomials reduce to a basis of the same span
count = sum(
    1 for tree in reference_basis_trees(7) if model.project(lie_expand(tree, p.alphabet))
)
print(f"reference monomials surviving projection: {count} of {model.total_dim()}")

# weight-8 dependency identities hold exactly in the quotient
for lhs, rhs in DEPENDENCY_IDENTITIES_31:
    assert model.contains_ideal(lie_sum([(1, lhs)] + [(-c, tree) for c, tree in rhs], p.alphabet))
print("all dependency identities verified")
