"""Pairwise kernel primitives against direct formulas."""

import numpy as np
import numpy.testing as npt
import pytest

from shellbound import kernels
from shellbound.errors import PreconditionError


def _clouds(seed, n, m, dim):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)), rng.standard_normal((m, dim))


def test_squared_distances_against_direct_loop():
    p, q = _clouds(0, 7, 5, 3)
    out = kernels.squared_distances(p, q)
    direct = np.array([[np.sum((pi - qj) ** 2) for qj in q] for pi in p])
    npt.assert_allclose(out, direct, rtol=1e-13, atol=1e-13)


def test_squared_distances_diagonal_and_symmetry():
    p, _ = _clouds(1, 40, 1, 2)
    out = kernels.squared_distances(p, p)
    assert np.all(out >= 0.0)
    assert np.all(np.diag(out) <= 1e-12)
    npt.assert_allclose(out, out.T, atol=1e-12)


def test_gaussian_mix_against_direct_formula():
    p, q = _clouds(4, 11, 9, 2)
    amplitudes = np.array([-1.0, 0.4])
    rates = np.array([0.5, 2.0])
    d2 = kernels.squared_distances(p, q)
    expected = -1.0 * np.exp(-0.5 * d2) + 0.4 * np.exp(-2.0 * d2)
    out = kernels.gaussian_mix(p, q, amplitudes, rates)
    npt.assert_allclose(out, expected, rtol=1e-13, atol=1e-14)


def test_gaussian_mix_single_term_is_a_gaussian():
    p, q = _clouds(5, 6, 6, 3)
    out = kernels.gaussian_mix(p, q, np.array([2.0]), np.array([1.0]))
    npt.assert_allclose(
        out, 2.0 * np.exp(-kernels.squared_distances(p, q)), rtol=1e-12
    )


def test_cloud_validation():
    p, q = _clouds(6, 4, 4, 2)
    with pytest.raises(PreconditionError):
        kernels.squared_distances(p[:, :1], q)
    with pytest.raises(PreconditionError):
        kernels.squared_distances(p.ravel(), q)
    with pytest.raises(PreconditionError):
        kernels.gaussian_mix(p, q, np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(PreconditionError):
        kernels.gaussian_mix(p, q, np.array([[1.0]]), np.array([[1.0]]))
