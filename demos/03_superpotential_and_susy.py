"""The superpotential calculus and the odd-symmetry criterion.

The degree-8 superpotential reproduces all defining relations through
cyclic derivatives.  The odd derivations mirroring supersymmetry
transformations preserve the relation ideal exactly when the quartic
obstruction tensor vanishes; over the rationals that forces an indefinite
metric (a sum of squares of nonzero quadratics has no rational zeros).
"""

from symalg import (
    AssocModel,
    SymPresentation,
    build_relations,
    preset,
    quartic_form,
    superpotential,
    susy_derivations,
)
from symalg.tensor import cyclic_derivative

p = preset(3, 1)
W = superpotential(p)
print("superpotential:", W)
r0, r1 = build_relations(p)
assert cyclic_derivative(W, "x1") == r0[0]
assert cyclic_derivative(W, "z1") == r1[0]
print("cyclic derivatives reproduce the relations\n")

_, qzero = quartic_form(p)
print(f"(3,1): quartic form vanishes: {qzero}")
model = AssocModel(p.alphabet, r0 + r1, max_weight=9)
companion = [[[1]], [[0]], [[0]]]
dW = susy_derivations(p, companion)[0](W)
escaped = [
    nm
    for nm in ("x1", "x2", "x3", "z1")
    if not model.contains(cyclic_derivative(dW, nm))
]
print(f"derivatives of d(W) escaping the ideal: {escaped}\n")

# an equivariant fixture with vanishing quartic form: 2-dimensional odd
# part over a signature (1,2) metric
fx = SymPresentation(
    3,
    2,
    [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]],
    [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
    [[[1, 0], [0, 1]], [[-1, 0], [0, 1]], [[0, -1], [-1, 0]]],
)
_, qzero2 = quartic_form(fx)
print(f"fixture: quartic form vanishes: {qzero2}")
fr0, fr1 = build_relations(fx)
fmodel = AssocModel(fx.alphabet, fr0 + fr1, max_weight=9)
Wf = superpotential(fx)
all_in = all(
    fmodel.contains(cyclic_derivative(d(Wf), nm))
    for d in susy_derivations(fx)
    for nm in ("x1", "x2", "x3", "z1", "z2")
)
print(f"fixture: all derivatives of d(W) stay in the ideal: {all_in}")
