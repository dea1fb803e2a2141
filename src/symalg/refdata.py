"""Reference low-weight basis monomials for the canonical (3,1) quotient.

The cumulative bases below (one block of new elements per cutoff step) are
known closed-form bases of the truncations at cutoffs 1..7; the engine
re-derives the dimensions independently, and the listed weight-8
dependency identities hold as exact normal-form relations.
"""

from fractions import Fraction

# new elements appearing at each cutoff l = 1..7 (weights 2..8)
REFERENCE_BASIS_31 = {
    1: ["x1", "x2", "x3"],
    2: ["z1"],
    3: [("x1", "x2"), ("x1", "x3"), ("x2", "x3")],
    4: [("x2", "z1"), ("x3", "z1")],
    5: [
        ("x1", ("x1", "x2")),
        ("x2", ("x2", "x1")),
        ("x1", ("x1", "x3")),
        ("x1", ("x2", "x3")),
        ("x3", ("x1", "x2")),
        ("z1", "z1"),
    ],
    6: [
        ("x1", ("x2", "z1")),
        ("x1", ("x3", "z1")),
        ("x2", ("x2", "z1")),
        ("x2", ("x3", "z1")),
        ("x3", ("x2", "z1")),
        ("x3", ("x3", "z1")),
    ],
    7: [
        ("x1", ("x1", ("x1", "x2"))),
        ("x1", ("x2", ("x2", "x1"))),
        ("x1", ("x1", ("x1", "x3"))),
        ("x1", ("x1", ("x2", "x3"))),
        ("x2", ("x2", ("x2", "x1"))),
        ("x2", ("x1", ("x1", "x3"))),
        ("x2", ("x3", ("x1", "x2"))),
        ("x3", ("x1", ("x1", "x2"))),
        ("x3", ("x2", ("x2", "x1"))),
        ("x3", ("x3", ("x1", "x2"))),
        ("x2", ("z1", "z1")),
        ("x3", ("z1", "z1")),
    ],
}

EXPECTED_CUMULATIVE_31 = {0: 0, 1: 3, 2: 4, 3: 7, 4: 9, 5: 15, 6: 21, 7: 33}


def _quad(i, j, k, m):
    return (f"x{i}", (f"x{j}", (f"x{k}", f"x{m}")))


# weight-8 dependency identities: lhs = sum of (coeff, tree)
DEPENDENCY_IDENTITIES_31 = [
    (_quad(3, 1, 1, 3), [(Fraction(1), _quad(1, 2, 2, 1))]),
    (_quad(2, 1, 1, 2), [(Fraction(-1), _quad(1, 2, 2, 1))]),
    (
        _quad(2, 1, 2, 3),
        [
            (Fraction(1), _quad(3, 2, 2, 1)),
            (Fraction(1), _quad(2, 3, 1, 2)),
            (Fraction(-1), _quad(1, 1, 1, 3)),
        ],
    ),
    (
        _quad(1, 3, 1, 2),
        [
            (Fraction(1, 2), _quad(3, 1, 1, 2)),
            (Fraction(1, 2), _quad(2, 1, 1, 3)),
            (Fraction(-1, 2), _quad(1, 1, 2, 3)),
        ],
    ),
    (
        _quad(3, 1, 2, 3),
        [
            (Fraction(1, 2), _quad(1, 1, 1, 2)),
            (Fraction(1, 2), _quad(2, 2, 2, 1)),
            (Fraction(-1, 2), _quad(3, 3, 1, 2)),
            (Fraction(-1, 4), ("x2", ("z1", "z1"))),
        ],
    ),
]


def reference_basis_trees(l):
    """All reference basis trees for the cutoff-l truncation (l <= 7)."""
    out = []
    for step in range(1, l + 1):
        out.extend(REFERENCE_BASIS_31[step])
    return out
