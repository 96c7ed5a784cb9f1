"""Potential constructors, the Fourier convention, and the tabulated path."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad
from scipy.special import j0

from shellbound import potentials
from shellbound.errors import (
    ConfigurationError,
    InvalidInputError,
    OutOfBandError,
)


def _analytic_zoo():
    return [
        potentials.gaussian_well(1.0, 1.0, dimension=2),
        potentials.gaussian_well(2.0, 0.5, dimension=3),
        potentials.ball_well(1.0, 1.0, dimension=2),
        potentials.ball_well(0.7, 1.3, dimension=3),
        potentials.gaussian_dimple_mix(1.0, 1.0, 2.0, 0.5, dimension=2),
        potentials.zero(dimension=2),
    ]


# ------------------------------------------------------------- closed forms


def test_gaussian_well_transform_values():
    pot2 = potentials.gaussian_well(1.0, 1.0, dimension=2)
    assert pot2.fourier(np.zeros(2)) == -1.0
    pot3 = potentials.gaussian_well(2.0, 0.5, dimension=3)
    assert pot3.fourier(np.zeros(3)) == -0.25
    k = np.array([0.3, -1.1])
    npt.assert_allclose(
        pot2.fourier(k), -np.exp(-0.5 * (0.3**2 + 1.1**2)), rtol=1e-14
    )


def test_gaussian_well_real_space_values():
    pot = potentials.gaussian_well(1.5, 2.0, dimension=2)
    assert pot.evaluate(np.zeros(2)) == -1.5
    npt.assert_allclose(
        pot.evaluate(np.array([2.0, 0.0])), -1.5 * np.exp(-0.5), rtol=1e-14
    )


def test_gaussian_well_transform_matches_quadrature():
    # independent oracle: the symmetric-convention transform computed by
    # 1-D quadrature per separable factor
    pot = potentials.gaussian_well(1.0, 1.0, dimension=2)
    k = np.array([0.7, -0.3])

    def factor(k1):
        return quad(lambda x: np.exp(-0.5 * x * x) * np.cos(k1 * x), -12.0, 12.0)[0]

    oracle = -factor(k[0]) * factor(k[1]) / (2.0 * np.pi)
    npt.assert_allclose(pot.fourier(k), oracle, rtol=1e-10)


def test_ball_well_transform_matches_quadrature_2d():
    # vhat(k) = -integral_0^R J0(|k| r) r dr after the angular integral
    pot = potentials.ball_well(1.0, 1.0, dimension=2)
    oracle = -quad(lambda r: j0(1.0 * r) * r, 0.0, 1.0)[0]
    assert abs(oracle - (-0.4400505857449335)) < 1e-12
    npt.assert_allclose(pot.fourier(np.array([1.0, 0.0])), oracle, rtol=1e-12)
    npt.assert_allclose(
        pot.fourier(np.array([0.6, -0.8])), oracle, rtol=1e-12
    )


def test_ball_well_transform_matches_quadrature_3d():
    # vhat(k) = -(2 pi)^(-3/2) (4 pi / |k|) integral_0^R r sin(|k| r) dr
    pot = potentials.ball_well(1.0, 1.0, dimension=3)
    kr = 2.0
    oracle = (
        -((2.0 * np.pi) ** -1.5)
        * (4.0 * np.pi / kr)
        * quad(lambda r: r * np.sin(kr * r), 0.0, 1.0)[0]
    )
    assert abs(oracle - (-0.1736985812322277)) < 1e-12
    npt.assert_allclose(pot.fourier(np.array([0.0, 0.0, 2.0])), oracle, rtol=1e-12)


@pytest.mark.parametrize("dimension", [2, 3])
def test_ball_well_series_branch_is_continuous(dimension):
    pot = potentials.ball_well(1.0, 1.0, dimension=dimension)
    below = 1e-2 * (1.0 - 1e-8)
    above = 1e-2 * (1.0 + 1e-8)
    k_lo = np.zeros(dimension)
    k_hi = np.zeros(dimension)
    k_lo[0] = below
    k_hi[0] = above
    assert abs(pot.fourier(k_lo) - pot.fourier(k_hi)) < 1e-12


def test_ball_well_real_space_indicator():
    pot = potentials.ball_well(2.0, 1.5, dimension=3)
    assert pot.evaluate(np.zeros(3)) == -2.0
    assert pot.evaluate(np.array([1.5, 0.0, 0.0])) == -2.0
    assert pot.evaluate(np.array([1.6, 0.0, 0.0])) == 0.0


def test_dimple_mix_reference_configuration():
    pot = potentials.gaussian_dimple_mix(1.0, 1.0, 2.0, 0.5)
    assert pot.sign == "sign-changing"
    # repulsive core, attractive tail, negative total mass
    assert pot.evaluate(np.zeros(2)) == 1.0
    assert pot.evaluate(np.array([2.0, 0.0])) < 0.0
    npt.assert_allclose(pot.fourier(np.zeros(2)), -0.5, rtol=1e-14)
    npt.assert_allclose(pot.integral(), -np.pi, rtol=1e-14)


def test_dimple_mix_exact_cancellation_has_zero_integral():
    pot = potentials.gaussian_dimple_mix(1.0, 1.0, 4.0, 0.5)
    assert pot.integral() == 0.0
    assert abs(pot.fourier(np.zeros(2))) < 1e-15


def test_zero_potential_is_identically_zero():
    pot = potentials.zero(dimension=2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, (10, 2))
    assert np.all(pot.evaluate(pts) == 0.0)
    assert np.all(pot.fourier(pts) == 0.0)
    assert np.all(pot.kernel_matrix(pts) == 0.0)
    assert pot.integral() == 0.0
    assert pot.sign == "nonpositive"


# ------------------------------------------------------- shared conventions


@pytest.mark.parametrize("pot", _analytic_zoo(), ids=lambda p: f"{p.kind}-{p.dimension}d")
def test_transform_is_conjugate_symmetric_and_real(pot):
    rng = np.random.default_rng(5)
    k = rng.uniform(-3.0, 3.0, (64, pot.dimension))
    forward = pot.fourier(k)
    backward = pot.fourier(-k)
    npt.assert_allclose(backward, np.conj(forward), rtol=1e-13, atol=1e-15)
    # every built-in analytic kind is even and real, hence real transform
    assert np.abs(forward.imag).max() <= 1e-12


@pytest.mark.parametrize("pot", _analytic_zoo(), ids=lambda p: f"{p.kind}-{p.dimension}d")
def test_integral_equals_scaled_transform_at_zero(pot):
    n = pot.dimension
    lhs = pot.integral()
    rhs = (2.0 * np.pi) ** (n / 2.0) * pot.fourier(np.zeros(n))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_integral_closed_forms():
    npt.assert_allclose(
        potentials.gaussian_well(1.0, 1.0, dimension=2).integral(), -2.0 * np.pi
    )
    npt.assert_allclose(
        potentials.ball_well(1.0, 1.0, dimension=3).integral(), -4.0 * np.pi / 3.0
    )


@pytest.mark.parametrize("pot", _analytic_zoo(), ids=lambda p: f"{p.kind}-{p.dimension}d")
def test_kernel_matrix_matches_pointwise_transform(pot):
    rng = np.random.default_rng(11)
    p = rng.uniform(-1.0, 1.0, (8, pot.dimension))
    q = rng.uniform(-1.0, 1.0, (5, pot.dimension))
    out = pot.kernel_matrix(p, q)
    direct = np.array([[complex(pot.fourier(pi - qj)) for qj in q] for pi in p])
    npt.assert_allclose(out, direct, rtol=1e-12, atol=1e-14)
    square = pot.kernel_matrix(p)
    npt.assert_allclose(square, np.conj(square.T), atol=1e-13)


@pytest.mark.parametrize(
    "pot", _analytic_zoo() + [potentials.tabulated(np.full((16, 16), -1.0), 10.5)],
    ids=lambda p: f"{p.kind}-{p.dimension}d",
)
def test_empty_batches_give_empty_kernels(pot):
    points = np.zeros((3, pot.dimension))
    empty = np.zeros((0, pot.dimension))
    assert pot.kernel_matrix(empty, points).shape == (0, 3)
    assert pot.kernel_matrix(points, empty).shape == (3, 0)
    assert pot.fourier(empty).shape == (0,)


def test_require_band():
    well = potentials.gaussian_well(1.0, 1.0)
    potentials.require_band(well, 1e6)  # analytic kinds resolve everything
    table = potentials.tabulated(np.full((16, 16), -1.0), 8.0)
    with pytest.raises(ConfigurationError):
        potentials.require_band(table, table.band * 1.01)
    potentials.require_band(table, table.band * 0.99)


# ----------------------------------------------------------- tabulated kind


def test_tabulated_matches_closed_form_on_band(tabulated_gaussian_2d):
    pot = tabulated_gaussian_2d
    band = pot.band
    lin = np.concatenate([np.linspace(-band, band, 101), np.linspace(-4, 4, 201)])
    k = np.stack(np.meshgrid(lin, lin, indexing="ij"), axis=-1).reshape(-1, 2)
    k = k[np.abs(k).max(axis=1) <= band]
    exact = -np.exp(-0.5 * np.sum(k * k, axis=1))
    assert np.abs(pot.fourier(k) - exact).max() < 1e-6


def test_tabulated_metadata(tabulated_gaussian_2d):
    pot = tabulated_gaussian_2d
    step = 128.0 / 1024
    npt.assert_allclose(pot.band, 0.5 * np.pi / step)
    assert pot.params == {"edge": 128.0, "samples": 1024}
    assert pot.sign == "nonpositive"
    assert not pot.is_radial
    npt.assert_allclose(pot.integral(), -2.0 * np.pi, rtol=1e-10)


def test_tabulated_interior_conjugate_symmetry(tabulated_gaussian_2d):
    pot = tabulated_gaussian_2d
    rng = np.random.default_rng(3)
    d = rng.uniform(-2.5, 2.5, (200, 2))
    npt.assert_allclose(
        pot.fourier(-d), np.conj(pot.fourier(d)), rtol=0, atol=1e-13
    )


def test_tabulated_out_of_band_queries_fail(tabulated_gaussian_2d):
    pot = tabulated_gaussian_2d
    with pytest.raises(OutOfBandError):
        pot.fourier(np.array([pot.band * 1.01, 0.0]))
    far = np.array([[0.0, 0.0], [2.1 * pot.band, 0.0]])
    with pytest.raises(OutOfBandError):
        pot.kernel_matrix(far)


def test_tabulated_kernel_is_real_for_even_tables(tabulated_gaussian_2d):
    rng = np.random.default_rng(17)
    p = rng.uniform(-1.2, 1.2, (24, 2))
    out = tabulated_gaussian_2d.kernel_matrix(p)
    assert out.dtype == np.float64
    exact = -np.exp(-0.5 * ((p[:, None, :] - p[None, :, :]) ** 2).sum(-1))
    assert np.abs(out - exact).max() < 1e-6


def test_tabulated_evaluate_interpolates_and_vanishes_outside(tabulated_gaussian_2d):
    pot = tabulated_gaussian_2d
    rng = np.random.default_rng(19)
    x = rng.uniform(-3.0, 3.0, (100, 2))
    exact = -np.exp(-0.5 * np.sum(x * x, axis=1))
    # real-space cubic interpolation at step 0.125 carries a few 1e-6
    assert np.abs(pot.evaluate(x) - exact).max() < 5e-6
    assert pot.evaluate(np.array([200.0, 0.0])) == 0.0


def test_tabulated_offcenter_table_has_complex_transform():
    # shifting the well breaks evenness; the transform picks up the
    # plane-wave phase exp(-i <k, a>) and must stay conjugate-symmetric
    samples, edge = 256, 32.0
    shift = np.array([1.5, 0.0])
    step = edge / samples
    axis = (np.arange(samples) - samples // 2) * step
    x, y = np.meshgrid(axis, axis, indexing="ij")
    r2 = (x - shift[0]) ** 2 + (y - shift[1]) ** 2
    pot = potentials.tabulated(-np.exp(-r2 / 2.0), edge)
    rng = np.random.default_rng(23)
    k = rng.uniform(-2.0, 2.0, (100, 2))
    values = pot.fourier(k)
    exact = -np.exp(-0.5 * np.sum(k * k, axis=1)) * np.exp(-1j * (k @ shift))
    assert np.abs(values - exact).max() < 1e-4
    assert np.abs(values.imag).max() > 0.1
    npt.assert_allclose(pot.fourier(-k), np.conj(values), rtol=0, atol=1e-10)


def _offcentre_table(samples, edge, shift):
    """Samples of a unit Gaussian well centred at ``shift`` on the tabulated grid."""
    axis = (np.arange(samples) - samples // 2) * (edge / samples)
    points = np.stack(np.meshgrid(*[axis] * len(shift), indexing="ij"), axis=-1)
    return points, -np.exp(-0.5 * np.sum((points - np.asarray(shift)) ** 2, axis=-1))


def test_tabulated_is_exact_at_the_samples_and_the_lattice():
    samples, edge = 64, 16.0
    points, values = _offcentre_table(samples, edge, (1.3, -0.7))
    pot = potentials.tabulated(values, edge)
    assert np.abs(pot.evaluate(points) - values).max() <= 1e-12
    # the symmetric-convention sum over the samples x_j = (j - G//2) h at the
    # dual lattice points k_m = 2 pi m / edge: an FFT times exp(i k_m h G//2)
    step = edge / samples
    k_axis = 2.0 * np.pi * np.fft.fftfreq(samples, d=step)
    phase = np.exp(1j * k_axis * step * (samples // 2))
    table = np.fft.fft2(values) * np.outer(phase, phase) * step**2 / (2.0 * np.pi)
    k = np.stack(np.meshgrid(k_axis, k_axis, indexing="ij"), axis=-1)
    inside = np.abs(k).max(axis=-1) <= pot.band
    scale = np.abs(table).max()
    assert np.abs(pot.fourier(k[inside]) - table[inside]).max() <= 1e-12 * scale


@pytest.mark.parametrize("values, edge", [
    pytest.param(np.full((16, 16), -1.0), 10.5, id="constant-16-edge-10.5"),
    pytest.param(np.full((16, 16), -1.0), 8.0, id="constant-16-edge-8"),
    pytest.param(np.full((17, 17), -1.0), 10.5, id="constant-17"),
    pytest.param(_offcentre_table(64, 16.0, (1.3, -0.7))[1], 16.0, id="offcentre-64"),
    pytest.param(_offcentre_table(20, 10.0, (0.4, -0.3, 0.2))[1], 10.0, id="offcentre-3d"),
])
def test_tabulated_transform_is_conjugate_symmetric(values, edge):
    # V is real, so vhat(-k) = conj vhat(k) on the whole band, also on
    # an even grid, whose dual axis the table closes at +G/2
    pot = potentials.tabulated(values, edge, values.ndim)
    rng = np.random.default_rng(31)
    k = rng.uniform(-pot.band, pot.band, (400, values.ndim))
    values_k = pot.fourier(k)
    scale = np.abs(values_k).max()
    assert np.abs(pot.fourier(-k) - np.conj(values_k)).max() <= 1e-13 * scale


def test_tabulated_sign_flag_detects_sign_changes():
    samples, edge = 64, 20.0
    step = edge / samples
    axis = (np.arange(samples) - samples // 2) * step
    x, y = np.meshgrid(axis, axis, indexing="ij")
    r2 = x**2 + y**2
    dimple = -np.exp(-r2 / 2.0) + 2.0 * np.exp(-r2 / 0.5)
    assert potentials.tabulated(dimple, edge).sign == "sign-changing"
    assert potentials.tabulated(np.zeros((16, 16)) - 1.0, 8.0).sign == "nonpositive"
    # a table with no negative sample makes no claim
    assert potentials.tabulated(np.zeros((16, 16)) + 1.0, 8.0).sign == "unknown"
    # the sign is read from the samples, not from the cubic interpolant,
    # which overshoots above zero between these samples of a narrow well
    axis = np.linspace(-10.0, 10.0, 41)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    assert potentials.tabulated(-np.exp(-(x**2 + y**2)), 20.0).sign == "nonpositive"


def test_tabulated_from_file_roundtrip(tmp_path):
    rng = np.random.default_rng(29)
    samples, edge = 16, 10.0
    values = -rng.random((samples, samples))
    path = tmp_path / "table.txt"
    with path.open("w") as handle:
        handle.write(f"2 {edge} {samples}\n")
        np.savetxt(handle, values.ravel()[None, :])
    loaded = potentials.tabulated_from_file(path)
    direct = potentials.tabulated(values, edge)
    assert loaded.params == direct.params
    k = rng.uniform(-1.0, 1.0, (20, 2))
    npt.assert_array_equal(loaded.fourier(k), direct.fourier(k))


def test_tabulated_from_file_validation(tmp_path):
    bad_header = tmp_path / "bad_header.txt"
    bad_header.write_text("2 10.0\n1.0\n")
    with pytest.raises(ConfigurationError):
        potentials.tabulated_from_file(bad_header)
    bad_count = tmp_path / "bad_count.txt"
    bad_count.write_text("2 10.0 16\n" + " ".join(["-1.0"] * 17) + "\n")
    with pytest.raises(ConfigurationError):
        potentials.tabulated_from_file(bad_count)


def test_tabulated_table_validation():
    with pytest.raises(ConfigurationError):
        potentials.tabulated(np.zeros((8, 8)) - 1.0, 4.0)  # too few samples
    with pytest.raises(ConfigurationError):
        potentials.tabulated(np.zeros((16, 8)) - 1.0, 4.0)  # not a hypercube
    bad = np.zeros((16, 16)) - 1.0
    bad[3, 3] = np.nan
    with pytest.raises(ConfigurationError):
        potentials.tabulated(bad, 4.0)
    with pytest.raises(ConfigurationError):
        potentials.tabulated(np.zeros((16, 16)) - 1.0, -4.0)


# ------------------------------------------------------------------ validation


def test_constructor_parameter_validation():
    with pytest.raises(ConfigurationError):
        potentials.gaussian_well(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        potentials.gaussian_well(1.0, -1.0)
    with pytest.raises(ConfigurationError):
        potentials.ball_well(1.0, 1.0, dimension=4)
    with pytest.raises(ConfigurationError):
        potentials.gaussian_dimple_mix(1.0, 1.0, np.inf, 0.5)


def test_point_validation():
    pot = potentials.gaussian_well(1.0, 1.0, dimension=2)
    with pytest.raises(InvalidInputError):
        pot.fourier(np.zeros(3))
    with pytest.raises(InvalidInputError):
        pot.evaluate(np.array([np.nan, 0.0]))
    with pytest.raises(InvalidInputError):
        pot.kernel_matrix(np.array([[0.0, np.inf]]))
    batch = pot.evaluate(np.zeros((4, 7, 2)))
    assert batch.shape == (4, 7)
