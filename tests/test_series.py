"""Series layer: Moebius function, power-sum extraction, dimension recovery."""

import pytest

from symalg.series import (
    DensePolynomial,
    PowerSeries,
    dims_from_series,
    enveloping_series,
    log_power_sums,
    mobius,
    newton_power_sums,
)
from symalg.presentation import ym_denominator


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_log_power_sums_single_root():
    assert log_power_sums([1, -1], 6) == [1] * 6


def test_log_power_sums_geometric():
    assert log_power_sums([1, -2], 8) == [2**d for d in range(1, 9)]


def test_log_power_sums_crosscheck_newton():
    p = ym_denominator(3, 1)
    assert log_power_sums(p, 20) == newton_power_sums(p, 20)
    q = DensePolynomial([1, 2, -5, 0, 3])
    assert log_power_sums(q, 12) == newton_power_sums(q, 12)


def test_log_rejects_bad_constant():
    with pytest.raises(ValueError):
        log_power_sums([2, 1], 3)


KNOWN_DIMS_31 = [0, 3, 1, 3, 2, 6, 6, 12, 15, 33, 42, 77, 114, 213, 314, 555,
                 876, 1540, 2460, 4242]


def test_dims_from_series_31():
    assert dims_from_series(ym_denominator(3, 1), 20) == KNOWN_DIMS_31


def test_dims_from_series_one_even_generator():
    # a single even generator sits in even degree (degree parity = parity)
    dims = dims_from_series([1, 0, -1], 8)
    assert dims == [0, 1, 0, 0, 0, 0, 0, 0]


def test_dims_from_series_one_odd_generator():
    # the polynomial algebra series 1/(1-t) resolves in the super reading
    # as one odd degree-1 and one even degree-2 generator
    assert dims_from_series([1, -1], 8) == [1, 1, 0, 0, 0, 0, 0, 0]


def test_dims_from_series_free_two_even_generators():
    # free Lie algebra on two even weight-2 generators: necklace counts
    # in even degrees.  Oracle: the Lie engine without relations.
    from symalg.engine import LieModel
    from symalg.tensor import Alphabet

    dims = dims_from_series([1, 0, -2], 12)
    assert [dims[2 * k - 1] for k in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert all(dims[2 * k] == 0 for k in range(6))
    A = Alphabet([("a", 0, 2), ("b", 0, 2)])
    free = LieModel(A, [], cutoff=11).dims()
    assert [free[w] for w in range(2, 13)] == dims[1:]


def test_dims_from_series_free_two_odd_generators():
    # the same series with weight-1 (odd) generators counts the free super
    # Lie algebra instead; the Lie engine confirms the symmetric squares
    from symalg.engine import LieModel
    from symalg.tensor import Alphabet

    dims = dims_from_series([1, -2], 6)
    A = Alphabet([("a", 1, 1), ("b", 1, 1)])
    free = LieModel(A, [], cutoff=5).dims()
    assert dims == [free[w] for w in range(1, 7)]
    assert dims[:2] == [2, 3]


def test_dims_from_series_rejects_inconsistent():
    with pytest.raises(ValueError):
        dims_from_series([1, 1], 4)  # 1/(1+t) has negative coefficients


def test_power_series_ring_ops():
    p = PowerSeries([1, 2, 3, 4, 0, 1], 10)
    assert (p * p.inverse()).coeffs == [1] + [0] * 10
    lg = p.log()
    assert lg.exp() == p


def test_enveloping_series_product_formula():
    # one even degree-2 and one odd degree-3 generator:
    # (1+t^3)/(1-t^2)
    s = enveloping_series([0, 1, 1], 8)
    want = PowerSeries([1, 0, 0, 1], 8) * PowerSeries(
        [1, 0, -1], 8
    ).inverse()
    assert s == want


def test_dense_polynomial_trims():
    p = DensePolynomial([1, 0, 2, 0, 0])
    assert p.degree() == 2
    assert p[7] == 0
