"""Pairwise kernel primitives against direct formulas."""

import random
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from shellbound import kernels, potentials
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


# The expressions the in-place primitives replaced, kept verbatim: the
# fused passes must give the same values bit for bit.
def _old_squared_distances(p, q):
    pp = np.einsum("ij,ij->i", p, p)
    qq = np.einsum("ij,ij->i", q, q)
    out = pp[:, None] + qq[None, :] - 2.0 * (p @ q.T)
    np.maximum(out, 0.0, out=out)
    return out


def _old_gaussian_mix(p, q, amplitudes, rates):
    d2 = _old_squared_distances(p, q)
    out = np.zeros_like(d2)
    for amp, rate in zip(amplitudes, rates):
        out += amp * np.exp(-rate * d2)
    return out


@pytest.mark.parametrize("n, m, dim", [(37, 23, 2), (50, 144, 3), (1, 9, 3),
                                        (300, 700, 3), (12, 3456, 3), (1, 512, 2)])
def test_fused_squared_distances_equal_the_plain_expression(n, m, dim):
    p, q = _clouds(7, n, m, dim)
    assert np.array_equal(kernels.squared_distances(p, q), _old_squared_distances(p, q))
    assert np.array_equal(kernels.squared_distances(p, p), _old_squared_distances(p, p))


def test_squared_distances_take_one_output_sized_buffer():
    # the 2-D channel slice of a 512-node circle: 12 tube radii against
    # 12 x 512 points; the sums go into the GEMM's output a few rows at a time
    p, q = _clouds(12, 12, 6144, 2)
    tracemalloc.start()
    try:
        out = kernels.squared_distances(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * out.nbytes
    assert np.array_equal(out, _old_squared_distances(p, q))


@pytest.mark.parametrize("amplitudes, rates", [
    ([], []),
    ([-1.0], [0.5]),
    ([-1.0, 0.4], [0.5, 2.0]),
    ([0.3, -2.0, 1.1], [1.0, 0.2, 3.0]),
])
def test_fused_gaussian_mix_equals_the_plain_expression(amplitudes, rates):
    p, q = _clouds(8, 41, 29, 3)
    amplitudes, rates = np.array(amplitudes), np.array(rates)
    out = kernels.gaussian_mix(p, q, amplitudes, rates)
    assert np.array_equal(out, _old_gaussian_mix(p, q, amplitudes, rates))


@pytest.mark.parametrize("dimension", [2, 3])
def test_kernel_matrix_without_q_equals_the_plain_expression(dimension):
    # q is None: the potential pairs the cloud with itself
    p, _ = _clouds(9, 33, 1, dimension)
    well = potentials.gaussian_well(1.5, 0.8, dimension)
    expected = _old_gaussian_mix(p, p.copy(), [-1.5 * 0.8**dimension], [0.5 * 0.8**2])
    assert np.array_equal(well.kernel_matrix(p), expected)
    mix = potentials.gaussian_dimple_mix(1.0, 1.0, 0.5, 0.3, dimension)
    amplitudes = [-1.0, 0.5 * 0.3**dimension]
    rates = [0.5, 0.5 * 0.3**2]
    assert np.array_equal(mix.kernel_matrix(p), _old_gaussian_mix(p, p.copy(), amplitudes, rates))


def test_near_coincident_points_clip_to_zero():
    # cancellation in |p|^2 + |q|^2 - 2 p.q leaves tiny negatives; both forms clip them
    rng = np.random.default_rng(10)
    p = 1e3 * rng.standard_normal((20, 3))
    q = p + 1e-9 * rng.standard_normal(p.shape)
    old = _old_squared_distances(p, q)
    new = kernels.squared_distances(p, q)
    assert np.array_equal(new, old)
    unclipped = (np.einsum("ij,ij->i", p, p)[:, None] + np.einsum("ij,ij->i", q, q)[None, :]
                 - 2.0 * (p @ q.T))
    assert unclipped.min() < 0.0  # the case is really exercised
    assert new.min() == 0.0
    assert np.array_equal(kernels.gaussian_mix(p, q, np.array([-1.0]), np.array([0.5])),
                          _old_gaussian_mix(p, q, np.array([-1.0]), np.array([0.5])))


def test_uniform_block_is_seeded_and_in_range():
    block = kernels.uniform(random.Random(7), (500, 4))
    assert block.shape == (500, 4) and block.dtype == np.float64
    assert block.min() >= -1.0 and block.max() < 1.0
    # about uniform: the mean is near 0 and each quarter of [-1, 1) is hit
    assert abs(block.mean()) < 0.05
    assert np.all(np.histogram(block, bins=4, range=(-1.0, 1.0))[0] > 400)
    assert np.array_equal(block, kernels.uniform(random.Random(7), (500, 4)))
    # each entry is one little-endian 32-bit word of the stream
    words = random.Random(7).randbytes(8)
    assert kernels.uniform(random.Random(7), 2).tolist() == [
        int.from_bytes(words[i : i + 4], "little") * 2.0**-31 - 1.0 for i in (0, 4)]
    # draws go on along the stream
    stream = random.Random(7)
    first, second = kernels.uniform(stream, 3), kernels.uniform(stream, 3)
    assert np.array_equal(np.concatenate([first, second]), kernels.uniform(random.Random(7), 6))
