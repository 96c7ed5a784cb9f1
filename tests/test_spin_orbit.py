"""Band-projected spin-orbit operators: frames, spectra, certification."""

import dataclasses
import random

import numpy as np
import pytest
from scipy.special import iv

from shellbound import kernels, potentials, rayleigh_ritz, spin_orbit, surface, surface_operator
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
    assert sym.evaluate(np.array([0.5, 0.0])) == pytest.approx(-0.25)
    assert sym.find_minimum() == (-0.25, 0.5)
    assert spin_orbit.rashba(2.0).find_minimum() == (-1.0, 1.0)
    batch = np.array([[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(sym.evaluate(batch), [0.0, 2.0])
    np.testing.assert_array_equal(sym.frame(batch), spin_orbit.band_frame(sym, batch))


def test_band_frame_is_the_lower_eigenvector():
    sym = spin_orbit.rashba(1.3)
    p = np.array([[0.4, -0.7], [-1.1, 0.2]])
    u = spin_orbit.band_frame(sym, p)
    np.testing.assert_array_equal(sym.frame(p), u)
    r = np.hypot(p[:, 0], p[:, 1])
    low = sym.evaluate(p)
    np.testing.assert_allclose(low, r * r - 1.3 * r, rtol=1e-14)
    for point, vector, energy, radius in zip(p, u, low, r):
        matrix = sym.matrix(point)
        bands = np.linalg.eigvalsh(matrix)
        assert bands[1] - bands[0] == pytest.approx(2.0 * 1.3 * radius, rel=1e-14)
        assert bands[0] == pytest.approx(energy, rel=1e-14)
        assert np.linalg.norm(matrix @ vector - energy * vector) < 1e-12
        assert vector[0] == 1.0 / np.sqrt(2.0)  # gauge: first component real
        assert np.linalg.norm(vector) == pytest.approx(1.0, rel=1e-14)


def test_matrix_is_hermitian():
    sym = spin_orbit.dresselhaus(0.7)
    m = sym.matrix(np.array([0.3, 0.9]))
    np.testing.assert_allclose(m, m.conj().T, atol=0.0)


def test_gauge_singularity_at_origin():
    sym = spin_orbit.rashba(1.0)
    with pytest.raises(GaugeSingularityError):
        spin_orbit.band_frame(sym, np.zeros((1, 2)))
    with pytest.raises(GaugeSingularityError):
        sym.frame(np.array([[0.5, 0.0], [0.0, 0.0]]))


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
def test_sector_spin_assembly_matches_dense(kernel_calls, assert_same_spectrum, kind, alpha):
    # the channel values of the band-projected row against the dense operator
    symbol = getattr(spin_orbit, kind)(alpha)
    mesh = surface.build_mesh(symbol.find_minimum()[1], 2, 64)
    fast = spin_orbit.assemble_spin_kernel(symbol, mesh, WELL)
    assert kernel_calls == [(1, mesh.size)]  # no (M, M) kernel
    assert_same_spectrum(fast, _dense_reference(mesh, spin_orbit.band_frame(symbol, mesh.nodes)))


def test_sector_spin_assembly_needs_a_turn_covariant_frame(circle, monkeypatch):
    # a random phase per azimuth leaves the spectrum alone but makes the
    # overlap depend on more than the azimuth difference; the channels of
    # the row then come out complex, and the channel route refuses them
    symbol = spin_orbit.rashba(2.0)
    reference = spin_orbit.assemble_spin_kernel(symbol, circle, WELL).eigenvalues
    phases = np.exp(2j * np.pi * np.random.default_rng(5).random(circle.size))
    correct = spin_orbit.band_frame

    def regauged(sym, points):
        azimuth = np.arctan2(points[:, 1], points[:, 0]) * circle.size / (2.0 * np.pi)
        return correct(sym, points) * phases[np.rint(azimuth).astype(int) % circle.size, None]

    monkeypatch.setattr(spin_orbit, "band_frame", regauged)
    with pytest.raises(ConsistencyError, match="Hermitian"):
        spin_orbit.assemble_spin_kernel(symbol, circle, WELL)
    dense = spin_orbit.assemble_spin_kernel(symbol, dataclasses.replace(circle, rings=0), WELL)
    np.testing.assert_allclose(dense.eigenvalues, reference, atol=1e-12)


def test_spectrum_is_gauge_invariant(circle):
    dev = spin_orbit.gauge_deviation(spin_orbit.rashba(2.0), circle, WELL)
    assert dev < 1e-10


def _without_conjugate(weighted, frame, columns):
    # <u_i, u_j> computed as u_i . u_j: complex symmetric, not Hermitian
    return weighted * (frame @ columns.swapaxes(-1, -2))


def _conjugate_on_the_wrong_factor(weighted, frame, columns):
    # Hermitian and a unitary similarity of the right matrix, so its
    # spectrum is gauge invariant; only the matrix itself is wrong
    return weighted * (frame @ columns.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("broken", [_without_conjugate, _conjugate_on_the_wrong_factor])
def test_gauge_deviation_detects_a_broken_overlap(circle, monkeypatch, broken):
    monkeypatch.setattr(surface_operator, "_band_matrix", broken)
    if broken is _without_conjugate:
        with pytest.raises(ConsistencyError, match="Hermitian"):
            spin_orbit.gauge_deviation(spin_orbit.rashba(2.0), circle, WELL)
    else:
        assert spin_orbit.gauge_deviation(spin_orbit.rashba(2.0), circle, WELL) >= 0.1


def _regaugings(mesh, trials, seed):
    # the phases d(p) = exp(i phi) exp(2 pi i s p / n) of gauge_deviation on
    # the circle, drawn in its order, with their windings s
    n = mesh.size
    p = np.arange(n)
    rng = random.Random(seed)
    for _ in range(trials):
        phase = np.exp(1j * np.pi * kernels.uniform(rng, 1))
        winding = rng.randrange(n)
        yield phase * np.exp(2j * np.pi * ((winding * p) % n) / n), winding


def _one_sided_after_the_base(value):
    # _band_matrix plus ``value`` at row entry (0, 1) alone, on every row of
    # the stack after the first, which is the base row
    correct = surface_operator._band_matrix
    calls = []

    def one_sided(weighted, frame, columns):
        a = correct(weighted, frame, columns)
        a[1:, 0, 1] += value
        calls.append(frame)
        return a

    return one_sided, calls


def _perturbed_row(value):
    # _band_matrix plus ``value`` at row entries (0, 1) and (0, n - 1) of
    # every row of the stack: the entries next to the diagonal of the
    # circulant operator, which do not follow the regauging
    correct = surface_operator._band_matrix

    def perturbed(weighted, frame, columns):
        a = correct(weighted, frame, columns)
        a[..., 0, [1, -1]] += value
        return a

    return perturbed


def _perturbed_dense(symbol, mesh, d, value):
    # the dense operator of the regauged frame plus the perturbation of
    # _perturbed_row, w value at every entry next to the diagonal (cyclically)
    dense = surface_operator._hermitize(
        _dense_reference(dataclasses.replace(mesh, rings=0), symbol.frame(mesh.nodes) * d[:, None]),
        "reference")
    shift = np.roll(np.eye(mesh.size), 1, axis=1)
    return dense + mesh.weights[0] * value * (shift + shift.T)


def test_gauge_deviation_bounds_the_dense_deviation(circle, monkeypatch):
    # a 1e-6 perturbation next to the diagonal does not follow the
    # regauging; Weyl's inequality says the returned norm is at least the
    # largest eigenvalue shift of the dense operator
    n = circle.size
    symbol = spin_orbit.rashba(2.0)
    base = np.linalg.eigvalsh(_perturbed_dense(symbol, circle, np.ones(n), 1e-6))
    shift = 0.0
    for d, _ in _regaugings(circle, 20, 3):
        regauged = np.linalg.eigvalsh(_perturbed_dense(symbol, circle, d, 1e-6))
        shift = max(shift, float(np.abs(regauged - base).max()))
    monkeypatch.setattr(surface_operator, "_band_matrix", _perturbed_row(1e-6))
    bound = spin_orbit.gauge_deviation(symbol, circle, WELL, seed=3)
    assert shift > 1e-9
    assert bound >= shift
    # the perturbation of A has Frobenius norm 1e-6 w sqrt(2n); D^H A D doubles it at most
    assert bound <= 2.0 * 1e-6 * circle.weights[0] * np.sqrt(2.0 * n) * 1.01


def test_channel_deviation_is_the_dense_frobenius_deviation(circle, monkeypatch):
    # by Parseval the channel check is ||A_theta - D^H A D||_F of the dense
    # operators, on the same regaugings; a perturbation that does not follow
    # the regauging makes the deviation large enough to compare
    symbol = spin_orbit.rashba(2.0)
    base = _perturbed_dense(symbol, circle, np.ones(circle.size), 1e-6)
    worst = 0.0
    for d, _ in _regaugings(circle, 20, 4):
        regauged = _perturbed_dense(symbol, circle, d, 1e-6)
        worst = max(worst, float(np.linalg.norm(regauged - d.conj()[:, None] * base * d)))
    monkeypatch.setattr(surface_operator, "_band_matrix", _perturbed_row(1e-6))
    check = spin_orbit.gauge_deviation(symbol, circle, WELL, seed=4)
    assert worst > 1e-8
    assert check == pytest.approx(worst, rel=1e-9)


def _dense_gauge_deviation(symbol, mesh, trials, seed):
    # the dense check, kept as the reference: a fresh hermitized M x M band
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
def test_gauge_check_without_rings_equals_the_dense_formula(seed):
    # one azimuth per ring: a random phase per node on the dense matrix
    symbol = spin_orbit.rashba(1.0)
    mesh = dataclasses.replace(surface.build_mesh(0.5, 2, 256), rings=0)
    check = spin_orbit.gauge_deviation(symbol, mesh, WELL, seed=seed)
    dense = _dense_gauge_deviation(symbol, mesh, 20, seed)
    assert check < 1e-10
    assert abs(check - dense) <= 1e-15


def test_gauge_check_evaluates_one_kernel_column(kernel_calls, circle, tabulated_gaussian_2d):
    # the certify-radial spin job: one (1, M) row, and no M x M array
    mesh = surface.build_mesh(0.5, 2, 256)
    assert spin_orbit.gauge_deviation(spin_orbit.rashba(1.0), mesh, WELL) <= 1e-15
    assert kernel_calls == [(1, mesh.size)]
    kernel_calls.clear()
    # a tabulated V is not radial, so it takes the dense route on the same mesh
    deviation = spin_orbit.gauge_deviation(spin_orbit.rashba(2.0), circle, tabulated_gaussian_2d)
    assert deviation < 1e-10
    assert kernel_calls == [(circle.size, circle.size)]


def _looped_gauge_deviation(symbol, mesh, seed):
    # the channel check one regauging at a time: a fresh band-projected row
    # and FFT per trial, on the phases of _regaugings
    rows, points, _ = surface_operator._channel_points(mesh, [mesh.radius])
    row = np.asarray(WELL.kernel_matrix(rows, points))
    frame = spin_orbit.band_frame(symbol, points)

    def channels(d):
        frames = (frame[:1] * d[0], frame * d[:, None])
        return surface_operator._channels(mesh, row, frames=frames)

    base = channels(np.ones(mesh.size))
    return max(float(np.linalg.norm(channels(d) - np.roll(base, winding)))
               for d, winding in _regaugings(mesh, 20, seed))


@pytest.mark.parametrize("perturbation", [0.0, 1e-6])
@pytest.mark.parametrize("seed", [0, 5])
def test_stacked_gauge_check_equals_the_looped_check(circle, monkeypatch, seed, perturbation):
    # the 20 regaugings go through _band_matrix and the FFT as one stack;
    # one trial at a time gives the same bound
    monkeypatch.setattr(surface_operator, "_band_matrix", _perturbed_row(perturbation))
    symbol = spin_orbit.rashba(2.0)
    stacked = spin_orbit.gauge_deviation(symbol, circle, WELL, seed=seed)
    looped = _looped_gauge_deviation(symbol, circle, seed)
    assert stacked == looped or abs(stacked - looped) <= 1e-15 * max(1.0, looped)


def test_gauge_deviation_rejects_a_non_hermitian_regauging(circle, monkeypatch):
    # the base row is right; every regauged one gains a one-sided 1e-6 entry
    one_sided, calls = _one_sided_after_the_base(1e-6)
    monkeypatch.setattr(surface_operator, "_band_matrix", one_sided)
    with pytest.raises(ConsistencyError, match="Hermitian"):
        spin_orbit.gauge_deviation(spin_orbit.rashba(2.0), circle, WELL)
    # one stacked call: the base row and the 20 regaugings
    assert len(calls) == 1 and calls[0].shape[0] == 21


def test_gauge_deviation_hermitizes_each_regauging(circle, monkeypatch):
    # a one-sided row entry e passes the Hermitian test; the real part of
    # its channels, w e cos(2 pi c / n), is that of w e / 2 at row entries 1
    # and -1, so the deviation is sqrt(n) sqrt(2) w e / 2, not the
    # sqrt(n) w e of the entry left one-sided
    one_sided, _ = _one_sided_after_the_base(1e-12)
    monkeypatch.setattr(surface_operator, "_band_matrix", one_sided)
    bound = spin_orbit.gauge_deviation(spin_orbit.rashba(2.0), circle, WELL)
    scale = np.sqrt(circle.size) * circle.weights[0] * 1e-12
    assert abs(bound - scale / np.sqrt(2.0)) <= 0.01 * scale


def _dense_reference(mesh, frame):
    # the band-projected operator, assembled densely and independently
    # of the channel route
    return surface_operator._band_matrix(surface_operator._weighted_kernel(mesh, WELL), frame)


def _unit_frame(points):
    frame = np.zeros((len(points), 2), dtype=np.complex128)
    frame[:, 0] = 1.0
    return frame


def test_unit_overlap_reproduces_scalar_operator(circle):
    scalar = surface_operator._weighted_kernel(circle, WELL)
    assert np.array_equal(_dense_reference(circle, _unit_frame(circle.nodes)), scalar)
    projected = surface_operator.assemble(circle, WELL, _unit_frame)
    np.testing.assert_allclose(projected.eigenvalues,
                               surface_operator.assemble(circle, WELL).eigenvalues, atol=1e-13)


def test_overlap_cannot_enlarge_entries(circle):
    spin = _dense_reference(circle, spin_orbit.band_frame(spin_orbit.rashba(2.0), circle.nodes))
    scalar = surface_operator._weighted_kernel(circle, WELL)
    assert np.all(np.abs(spin) <= np.abs(scalar) + 1e-15)


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


@pytest.mark.parametrize("kind", ["rashba", "dresselhaus"])
def test_certify_reads_the_band_structure_from_a_matrix_symbol(circle, kind):
    # certify_spin is certify after the geometry checks: the same
    # certificate, bit for bit, from the symbol's evaluate and frame
    symbol = getattr(spin_orbit, kind)(2.0)
    spin = spin_orbit.certify_spin(symbol, WELL, circle, 4)
    plain = rayleigh_ritz.certify(symbol, WELL, circle, 4)
    assert plain.certified_eps == spin.certified_eps == 0.2
    assert plain.certified_count == spin.certified_count == 4
    assert np.array_equal(plain.limit_values, spin.limit_values)
    assert plain.top_eigenvalues == spin.top_eigenvalues
    assert plain.max_errors == spin.max_errors
    for a, b in zip(plain.matrices, spin.matrices, strict=True):
        assert np.array_equal(a, b)


def _channel_modes(symbol, mesh, n_states):
    # the states of the channel route, sampled on the mesh: the Fourier mode
    # exp(-i c theta) / sqrt(2 pi R) of each listed channel c
    _, channel = surface_operator._shell_channels(mesh, WELL, symbol.frame)
    angles = 2.0 * np.pi * np.arange(mesh.size) / mesh.size
    return np.exp(-1j * np.outer(angles, channel[:n_states])) / np.sqrt(2.0 * np.pi * mesh.radius)


def _dense_spin_forms(symbol, mesh, n_states):
    # h(eps) with the band-projected tube kernel K(x, y) <u(x), u(y)>
    # formed as one dense matrix over the whole tube cloud, on the states
    # of the route that certify takes
    if mesh.rings:
        psi = _channel_modes(symbol, mesh, n_states)
    else:
        psi = spin_orbit.assemble_spin_kernel(symbol, mesh, WELL).eigenfunctions[:, :n_states]
    chart = surface.tubular_chart(mesh, 0.25)
    profile = rayleigh_ritz.TransverseProfile.build(12)
    minimum = symbol.find_minimum()[0]
    forms = []
    for eps in rayleigh_ritz.DEFAULT_SCHEDULE:
        eps_abs, _, rho, x = rayleigh_ritz._tube(chart, profile, eps)
        cloud = chart.map(mesh.nodes[:, None, :], (eps_abs * profile.nodes)[None, :])
        points = cloud.reshape(-1, 2)
        frame = spin_orbit.band_frame(symbol, points)
        kernel = WELL.kernel_matrix(points) * (frame.conj() @ frame.T)
        weights = (mesh.weights[:, None] * x[None, :]).ravel()
        columns = weights[:, None] * np.repeat(psi, profile.order, axis=0)
        # the kinetic form node by node, from H0 - m at every cloud point
        shifted = symbol.evaluate(cloud) - minimum
        node_factor = 2.0 * np.pi * mesh.weights * (
            shifted @ (profile.weights * profile.values**2 * rho)) / eps_abs
        h = (psi.conj().T * node_factor) @ psi + columns.conj().T @ kernel @ columns
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
    # the channel route takes the scalar shell row of M points and, per
    # eps, the T radii against T circles of M points; the band overlap
    # multiplies the kernel before the FFT
    symbol = spin_orbit.dresselhaus(-0.7)
    mesh = surface.build_mesh(symbol.find_minimum()[1], 2, 64)
    transverse = 12
    cert = spin_orbit.certify_spin(symbol, WELL, mesh, 4, transverse_order=transverse)
    assert cert.certified
    steps = len(cert.eps_schedule)
    assert kernel_calls == [(1, mesh.size)] + [(transverse, transverse * mesh.size)] * steps
