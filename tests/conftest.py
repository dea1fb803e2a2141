import pytest

from symalg import AssocModel, LieModel, build_relations, preset


@pytest.fixture(scope="session")
def p31():
    return preset(3, 1)


@pytest.fixture(scope="session")
def model31(p31):
    """Lie quotient of the canonical (3,1) presentation, weights <= 14."""
    r0, r1 = build_relations(p31)
    return LieModel(p31.alphabet, r0 + r1, cutoff=13)


@pytest.fixture(scope="session")
def assoc31(p31):
    """Associative quotient of the canonical (3,1) presentation, weights <= 14."""
    r0, r1 = build_relations(p31)
    return AssocModel(p31.alphabet, r0 + r1, max_weight=14)


@pytest.fixture(scope="session")
def p22():
    return preset(2, 2)


@pytest.fixture(scope="session")
def assoc22(p22):
    r0, r1 = build_relations(p22)
    return AssocModel(p22.alphabet, r0 + r1, max_weight=14)


@pytest.fixture(scope="session")
def minkowski32():
    """Equivariant (3,2) presentation with vanishing quartic form.

    Over the rationals this forces an indefinite diagonal metric: with the
    orthonormal one the quartic tensor is a sum of squares of quadratics
    and vanishes only for Gamma = 0.
    """
    from symalg import SymPresentation

    gamma = [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]]
    gamma_tilde = [[[1, 0], [0, 1]], [[-1, 0], [0, 1]], [[0, -1], [-1, 0]]]
    metric = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    return SymPresentation(3, 2, gamma, metric, gamma_tilde)


@pytest.fixture
def fallbacks(monkeypatch):
    """The ranks the resolution module computes by elimination, in call
    order: the fallbacks of `certified_rank`, and r3."""
    from symalg import resolution
    from symalg.linalg import rank

    calls = []

    def spy(cols):
        calls.append(rank(cols))
        return calls[-1]

    monkeypatch.setattr(resolution, "rank", spy)
    return calls
