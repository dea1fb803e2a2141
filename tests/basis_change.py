"""Random changes of basis of a finite-dimensional super Lie algebra, for
tests of quantities that do not depend on the basis (CE homology, the
Kirillov weight)."""

from symalg.linalg import addmul, inverse
from symalg.superlie import FinDimSuperLieAlgebra


def change_basis(g, mat, minv):
    """g in the basis e'_i = sum_j mat[i][j] e_j, given minv = mat^-1;
    mat must preserve parity (block structure over the even/odd split).
    The result carries no weights: a random basis mixes weight spaces."""
    n = g.dim
    rows = [{k: c for k, c in enumerate(row) if c} for row in mat]
    brackets = {}
    for i in range(n):
        for j in range(i, n):
            coords = {}
            for k, c in g.bracket_vec(rows[i], rows[j]).items():
                addmul(coords, c, dict(enumerate(minv[k])))
            if coords:
                brackets[(i, j)] = coords
    return FinDimSuperLieAlgebra(
        [f"b{i}" for i in range(n)], list(g.parities), brackets, None
    )


def scramble(g, rng):
    """(mat, g in the basis of mat) for a random invertible
    parity-preserving mat with entries in -2..2."""
    n = g.dim
    while True:
        mat = [[rng.randint(-2, 2) if g.parities[i] == g.parities[j] else 0
                for j in range(n)] for i in range(n)]
        minv = inverse(mat)
        if minv is not None:  # else a singular draw
            return mat, change_basis(g, mat, minv)
