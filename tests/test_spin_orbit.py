"""Band-projected spin-orbit operators: frames, spectra, certification."""

import dataclasses

import numpy as np
import pytest
from scipy.special import iv

from shellbound import potentials, rayleigh_ritz, spin_orbit, surface, surface_operator
from shellbound.errors import (
    ConfigurationError,
    ConsistencyError,
    GaugeSingularityError,
    PreconditionError,
)

WELL = potentials.gaussian_well(1.0, 1.0, dimension=2)


@pytest.fixture(scope="module")
def circle():
    # alpha = 2 puts the lower-band minimum -1 on the unit circle
    return surface.build_mesh(1.0, 2, 64)


def test_lower_band_values():
    sym = spin_orbit.rashba(1.0)
    assert sym.lower_band(np.array([0.5, 0.0])) == pytest.approx(-0.25)
    assert sym.find_minimum() == (-0.25, 0.5)
    assert spin_orbit.rashba(2.0).find_minimum() == (-1.0, 1.0)
    batch = np.array([[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(sym.lower_band(batch), [0.0, 2.0])


def test_band_decompose_closed_form():
    sym = spin_orbit.rashba(1.3)
    p = np.array([0.4, -0.7])
    low, high, u = spin_orbit.band_decompose(sym, p)
    r = np.hypot(*p)
    assert high - low == pytest.approx(2.0 * 1.3 * r, rel=1e-14)
    assert low == pytest.approx(r * r - 1.3 * r, rel=1e-14)
    matrix = sym.matrix(p)
    np.testing.assert_allclose(np.linalg.eigvalsh(matrix), [low, high], rtol=1e-14)
    assert np.linalg.norm(matrix @ u - low * u) < 1e-12
    assert u[0] == pytest.approx(1.0 / np.sqrt(2.0))  # gauge: first component real
    assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(PreconditionError):
        spin_orbit.band_decompose(sym, np.zeros((2, 2)))


def test_matrix_is_hermitian():
    sym = spin_orbit.dresselhaus(0.7)
    m = sym.matrix(np.array([0.3, 0.9]))
    np.testing.assert_allclose(m, m.conj().T, atol=0.0)


def test_gauge_singularity_at_origin():
    sym = spin_orbit.rashba(1.0)
    with pytest.raises(GaugeSingularityError):
        spin_orbit.band_frame(sym, np.zeros((1, 2)))
    with pytest.raises(GaugeSingularityError):
        spin_orbit.band_decompose(sym, np.zeros(2))


def test_alpha_validation():
    with pytest.raises(ConfigurationError):
        spin_orbit.rashba(0.0)
    with pytest.raises(ConfigurationError):
        spin_orbit.dresselhaus(np.inf)


def test_spectrum_matches_circulant_interleave(circle):
    # uniform circle: overlap (1 + e^{i dtheta}) / 2 turns the scalar
    # circulant values c_m into pairwise means (c_m + c_{m+1}) / 2
    op = spin_orbit.assemble_spin_kernel(spin_orbit.rashba(2.0), circle, WELL)
    row = WELL.fourier(circle.nodes[0] - circle.nodes)
    c_by_m = (circle.weights[0] * np.fft.fft(row)).real
    predicted = np.sort(0.5 * (c_by_m + np.roll(c_by_m, -1)))
    np.testing.assert_allclose(op.eigenvalues, predicted, atol=1e-12)


def test_spectrum_matches_continuum(circle):
    op = spin_orbit.assemble_spin_kernel(spin_orbit.rashba(2.0), circle, WELL)
    em = lambda m: -2.0 * np.pi * np.exp(-1.0) * iv(m, 1.0)
    continuum = np.sort([0.5 * (em(m) + em(m + 1)) for m in range(-4, 4)])
    np.testing.assert_allclose(op.eigenvalues[:8], continuum, atol=1e-10)
    assert op.eigenvalues[0] == pytest.approx(-2.116396795, abs=1e-8)
    # every level is a Kramers-like double
    np.testing.assert_allclose(op.eigenvalues[0::2][:4], op.eigenvalues[1::2][:4],
                               atol=1e-12)


def test_dresselhaus_spectrum_equals_rashba(circle):
    a = spin_orbit.assemble_spin_kernel(spin_orbit.rashba(2.0), circle, WELL)
    b = spin_orbit.assemble_spin_kernel(spin_orbit.dresselhaus(2.0), circle, WELL)
    np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)


@pytest.mark.parametrize("alpha", [1.0, -1.0, 0.7, -0.7])
@pytest.mark.parametrize("kind", ["rashba", "dresselhaus"])
def test_sector_spin_assembly_matches_dense(kernel_calls, assert_same_operator, kind, alpha):
    symbol = getattr(spin_orbit, kind)(alpha)
    mesh = surface.build_mesh(symbol.find_minimum()[1], 2, 64)
    fast = spin_orbit.assemble_spin_kernel(symbol, mesh, WELL)
    assert kernel_calls == [(mesh.size, 1)]  # no (M, M) kernel
    dense = spin_orbit.assemble_spin_kernel(symbol, dataclasses.replace(mesh, rings=0), WELL)
    assert_same_operator(fast, dense)


def test_sector_spin_assembly_needs_a_turn_covariant_frame(circle, monkeypatch):
    # random per-node phases leave the spectrum alone but make the
    # overlap depend on more than the azimuth difference
    symbol = spin_orbit.rashba(2.0)
    reference = spin_orbit.assemble_spin_kernel(symbol, circle, WELL).eigenvalues
    phases = np.exp(2j * np.pi * np.random.default_rng(5).random(circle.size))
    correct = spin_orbit.band_frame
    monkeypatch.setattr(spin_orbit, "band_frame",
                        lambda sym, points: correct(sym, points) * phases[:, None])
    with pytest.raises(ConsistencyError, match="azimuth difference"):
        spin_orbit.assemble_spin_kernel(symbol, circle, WELL)
    dense = spin_orbit.assemble_spin_kernel(symbol, dataclasses.replace(circle, rings=0), WELL)
    np.testing.assert_allclose(dense.eigenvalues, reference, atol=1e-12)


def test_spectrum_is_gauge_invariant(circle):
    dev = spin_orbit.gauge_deviation(spin_orbit.rashba(2.0), circle, WELL, trials=10)
    assert dev < 1e-10


def _without_conjugate(weighted, frame, out=None):
    # <u_i, u_j> computed as u_i . u_j; averaged by hand, since the
    # result is complex symmetric and the Hermitian test would reject it
    a = weighted * (frame @ frame.T)
    return 0.5 * (a + a.conj().T)


def _conjugate_on_the_wrong_factor(weighted, frame, out=None):
    # Hermitian and a unitary similarity of the right matrix, so its
    # spectrum is gauge invariant; only the matrix itself is wrong
    return weighted * (frame @ frame.conj().T)


@pytest.mark.parametrize("broken", [_without_conjugate, _conjugate_on_the_wrong_factor])
def test_gauge_deviation_detects_a_broken_overlap(circle, monkeypatch, broken):
    monkeypatch.setattr(spin_orbit, "_band_matrix", broken)
    assert spin_orbit.gauge_deviation(spin_orbit.rashba(2.0), circle, WELL) >= 0.1


def _weighted(mesh):
    sqrt_w = np.sqrt(mesh.weights)
    return sqrt_w[:, None] * np.asarray(WELL.kernel_matrix(mesh.nodes)) * sqrt_w[None, :]


def test_gauge_deviation_bounds_the_dense_deviation(circle, monkeypatch):
    # a fixed 1e-6 entry does not follow the regauging; Weyl's inequality
    # says the returned norm is at least the largest eigenvalue shift
    correct = spin_orbit._band_matrix

    def perturbed(weighted, frame, out=None):
        a = correct(weighted, frame, out).copy()
        a[0, 1] += 1e-6
        a[1, 0] += 1e-6
        return a

    monkeypatch.setattr(spin_orbit, "_band_matrix", perturbed)
    symbol = spin_orbit.rashba(2.0)
    bound = spin_orbit.gauge_deviation(symbol, circle, WELL, trials=20, seed=3)
    weighted = _weighted(circle)
    frame = spin_orbit.band_frame(symbol, circle.nodes)
    base = np.linalg.eigvalsh(perturbed(weighted, frame))
    rng = np.random.default_rng(3)
    dense = 0.0
    for _ in range(20):
        phases = np.exp(2j * np.pi * rng.random(circle.size))
        spectrum = np.linalg.eigvalsh(perturbed(weighted, frame * phases[:, None]))
        dense = max(dense, float(np.abs(spectrum - base).max()))
    assert dense > 1e-8
    assert bound >= dense
    assert bound <= 2.0 * np.sqrt(2.0) * 1e-6 * 1.01


def _dense_gauge_deviation(symbol, mesh, trials, seed):
    # the check before its buffers, kept verbatim: a fresh hermitized band
    # matrix and a fresh outer product per trial
    def band_matrix(kernel, frame):
        sqrt_w = np.sqrt(mesh.weights)
        projected = frame.conj() @ frame.T
        projected *= kernel
        projected *= sqrt_w[:, None]
        projected *= sqrt_w[None, :]
        return surface_operator._hermitize(projected, "band-projected operator matrix")

    kernel = np.asarray(WELL.kernel_matrix(mesh.nodes))
    frame = spin_orbit.band_frame(symbol, mesh.nodes)
    base = band_matrix(kernel, frame)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        phases = np.exp(2j * np.pi * rng.random(mesh.size))
        difference = np.outer(phases.conj(), phases)
        difference *= base
        difference -= band_matrix(kernel, frame * phases[:, None])
        worst = max(worst, float(np.linalg.norm(difference)))
    return worst


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_buffered_gauge_check_equals_the_dense_formula(seed):
    symbol = spin_orbit.rashba(1.0)
    mesh = surface.build_mesh(0.5, 2, 256)
    buffered = spin_orbit.gauge_deviation(symbol, mesh, WELL, seed=seed)
    dense = _dense_gauge_deviation(symbol, mesh, 20, seed)
    assert buffered < 1e-10
    assert abs(buffered - dense) <= 1e-15


def test_gauge_deviation_rejects_a_non_hermitian_regauging(circle, monkeypatch):
    # the base matrix is right; every regauged one gains a one-sided 1e-6 entry
    correct = spin_orbit._band_matrix
    calls = []

    def one_sided(weighted, frame, out=None):
        a = correct(weighted, frame, out)
        if calls:
            a[0, 1] += 1e-6
        calls.append(frame)
        return a

    monkeypatch.setattr(spin_orbit, "_band_matrix", one_sided)
    with pytest.raises(ConsistencyError, match="Hermitian"):
        spin_orbit.gauge_deviation(spin_orbit.rashba(2.0), circle, WELL)
    assert len(calls) == 2  # raised at the first regauging


def test_gauge_deviation_hermitizes_each_regauging(circle, monkeypatch):
    # a one-sided 1e-14 entry passes the Hermitian test; hermitized, it is
    # 5e-15 on both sides, so the norm is 5e-15 sqrt(2), not 1e-14
    correct = spin_orbit._band_matrix
    calls = []

    def one_sided(weighted, frame, out=None):
        a = correct(weighted, frame, out)
        if calls:
            a[0, 1] += 1e-14
        calls.append(frame)
        return a

    monkeypatch.setattr(spin_orbit, "_band_matrix", one_sided)
    bound = spin_orbit.gauge_deviation(spin_orbit.rashba(2.0), circle, WELL, trials=3)
    assert abs(bound - 5e-15 * np.sqrt(2.0)) <= 1e-15


def test_gauge_deviation_needs_a_trial(circle):
    with pytest.raises(PreconditionError, match="trial"):
        spin_orbit.gauge_deviation(spin_orbit.rashba(2.0), circle, WELL, trials=0)


def test_unit_overlap_reproduces_scalar_operator(circle):
    frame = np.zeros((circle.size, 2), dtype=np.complex128)
    frame[:, 0] = 1.0
    projected = surface_operator.assemble(circle, WELL, lambda points: frame)
    scalar = surface_operator.assemble(circle, WELL)
    np.testing.assert_allclose(projected.matrix, scalar.matrix, atol=1e-15)
    np.testing.assert_allclose(projected.eigenvalues, scalar.eigenvalues, atol=1e-13)


def test_overlap_cannot_enlarge_entries(circle):
    spin = spin_orbit.assemble_spin_kernel(spin_orbit.rashba(2.0), circle, WELL)
    scalar = surface_operator.assemble(circle, WELL)
    assert np.all(np.abs(spin.matrix) <= np.abs(scalar.matrix) + 1e-15)


def test_nonpositive_well_gives_nonpositive_spectrum(circle):
    op = spin_orbit.assemble_spin_kernel(spin_orbit.rashba(2.0), circle, WELL)
    assert op.eigenvalues.max() <= 1e-10 * abs(op.eigenvalues.min())


def test_zero_potential_gives_zero_operator(circle):
    op = spin_orbit.assemble_spin_kernel(spin_orbit.rashba(2.0), circle, potentials.zero(2))
    assert np.all(op.eigenvalues == 0.0)


def test_assembly_preconditions(circle):
    with pytest.raises(PreconditionError, match="circle"):
        spin_orbit.assemble_spin_kernel(spin_orbit.rashba(1.0), circle, WELL)
    sphere = surface.build_mesh(1.0, 3, 8)
    with pytest.raises(PreconditionError, match="2-D"):
        spin_orbit.assemble_spin_kernel(spin_orbit.rashba(2.0), sphere, WELL)


def test_certify_spin(circle):
    cert = spin_orbit.certify_spin(spin_orbit.rashba(2.0), WELL, circle, 2)
    assert cert.certified
    assert cert.certified_count == 2
    assert cert.certified_eps == 0.2  # negative definite already at the largest eps
    op = spin_orbit.assemble_spin_kernel(spin_orbit.rashba(2.0), circle, WELL)
    np.testing.assert_allclose(cert.limit_values, op.eigenvalues[:2], atol=1e-12)
    errors = np.asarray(cert.max_errors)
    assert np.all(np.diff(errors) < 0.0)
    with pytest.raises(PreconditionError, match="negative eigenvalues"):
        spin_orbit.certify_spin(spin_orbit.rashba(2.0), WELL, circle, 99)


def _dense_spin_forms(symbol, mesh, n_states):
    # h(eps) with the band-projected tube kernel K(x, y) <u(x), u(y)>
    # formed as one dense matrix over the whole tube cloud
    operator = spin_orbit.assemble_spin_kernel(symbol, mesh, WELL)
    psi = operator.eigenfunctions[:, :n_states]
    chart = surface.tubular_chart(mesh, 0.25)
    profile = rayleigh_ritz.TransverseProfile.build(12)
    minimum = symbol.find_minimum()[0]
    forms = []
    for eps in rayleigh_ritz.DEFAULT_SCHEDULE:
        tube = rayleigh_ritz._tube(chart, profile, eps)
        _, cloud, rho = tube
        points = cloud.reshape(-1, 2)
        frame = spin_orbit.band_frame(symbol, points)
        kernel = WELL.kernel_matrix(points) * (frame.conj() @ frame.T)
        weights = rayleigh_ritz._cloud_weights(mesh, profile, rho)
        columns = weights[:, None] * np.repeat(psi, profile.order, axis=0)
        h = (rayleigh_ritz._kinetic(symbol.lower_band, minimum, mesh, psi, profile, tube)
             + columns.conj().T @ kernel @ columns)
        forms.append(0.5 * (h + h.conj().T))
    return forms


@pytest.mark.parametrize("layout", [True, False])
@pytest.mark.parametrize("alpha", [1.0, -1.0, 0.7, -0.7])
@pytest.mark.parametrize("kind", ["rashba", "dresselhaus"])
def test_certify_spin_matches_dense_tube_kernel(kind, alpha, layout):
    symbol = getattr(spin_orbit, kind)(alpha)
    mesh = surface.build_mesh(symbol.find_minimum()[1], 2, 64)
    if not layout:
        mesh = dataclasses.replace(mesh, rings=0)
    n_states = 4
    cert = spin_orbit.certify_spin(symbol, WELL, mesh, n_states)
    reference = _dense_spin_forms(symbol, mesh, n_states)
    scale = max(np.abs(h).max() for h in reference)
    for h, expected in zip(cert.matrices, reference, strict=True):
        assert np.abs(h - expected).max() <= 1e-12 * scale
    tops = [np.linalg.eigvalsh(h)[-1] for h in reference]
    np.testing.assert_allclose(cert.top_eigenvalues, tops, rtol=0.0, atol=1e-12 * scale)
    certified = [eps for eps, top in zip(cert.eps_schedule, tops) if top < 0.0]
    assert cert.certified_eps == (max(certified) if certified else None)
    assert cert.certified_count == (n_states if certified else 0)


def test_certify_spin_kernel_calls_are_bounded(kernel_calls):
    # the tube forms take the scalar slice for azimuths 0..n/2 against
    # the azimuth-0 points; only the operator's (M, rings) column is taller
    symbol = spin_orbit.dresselhaus(-0.7)
    mesh = surface.build_mesh(symbol.find_minimum()[1], 2, 64)
    transverse = 12
    cert = spin_orbit.certify_spin(symbol, WELL, mesh, 4, transverse_order=transverse)
    assert cert.certified
    rings = mesh.rings
    half = mesh.size // rings // 2 + 1
    slice_shape = (rings * half * transverse, rings * transverse)
    assert kernel_calls == [(mesh.size, rings)] + [slice_shape] * len(cert.eps_schedule)
