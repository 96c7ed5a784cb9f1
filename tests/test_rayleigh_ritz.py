"""Trial-function forms and the negative-definiteness certificate."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from shellbound import potentials, surface, surface_operator as so
from shellbound import rayleigh_ritz as rr
from shellbound import spin_orbit, symbols
from shellbound.errors import ConfigurationError, ConsistencyError, PreconditionError
from shellbound.potentials import Potential
from shellbound.symbols import DispersionSymbol


def _constant_kernel_potential(value, dimension=2):
    return Potential(
        dimension=dimension,
        kind="custom",
        sign="unknown",
        params={},
        is_radial=True,
        band=None,
        _evaluate=lambda x: np.zeros(x.shape[:-1]),
        _kernel=lambda p, q: np.full((p.shape[0], q.shape[0]), value),
    )


def _flat_symbol(level, dimension=2, radius=1.0):
    return DispersionSymbol(
        dimension=dimension,
        kind="custom-radial",
        params={},
        _radial=lambda r: np.full_like(np.asarray(r, dtype=np.float64), level),
        _minimum=(level, radius),
    )


# -------------------------------------------------------- transverse profile


def test_profile_quadrature_normalization_is_exact():
    profile = rr.TransverseProfile.build(12)
    # the defining property: the stored rule integrates the bump to 1
    assert abs(profile.weights @ profile.values - 1.0) < 1e-15
    npt.assert_allclose(profile.normalizer, 2.2523392042388726, rtol=1e-13)


def test_profile_bump_support_and_node_consistency():
    profile = rr.TransverseProfile.build(10)
    npt.assert_allclose(profile.bump(profile.nodes), profile.values, rtol=1e-15)
    assert np.all(profile.bump(np.array([-1.0, 1.0, 1.3, -250.0])) == 0.0)
    assert profile.bump(np.array([0.0]))[0] == pytest.approx(
        profile.normalizer * np.exp(-1.0)
    )


def test_profile_rejects_tiny_order():
    with pytest.raises(PreconditionError):
        rr.TransverseProfile.build(3)


# -------------------------------------------------------------- kinetic form
#
# The kinetic form of a tube function depends on its transverse offset
# alone, so on any span it is K(eps) times the span's surface Gram
# matrix; certify's spans are orthonormal, and it adds K(eps) I. K is
# read off _kinetic_integral, the potential form off _potential.


def _kinetic(sym, mesh, eps, transverse_order=12):
    """K(eps) of ``sym`` on the tube of certify's default chart around ``mesh``."""
    profile = rr.TransverseProfile.build(transverse_order)
    chart = surface.tubular_chart(mesh)
    tube = rr._tube(chart, profile, eps)
    return rr._kinetic_integral(sym, sym.find_minimum()[0], profile, tube, mesh.dimension)


def _cloud_kinetic_form(sym, mesh, psi, eps):
    """The kinetic form on the columns ``psi``, integrated node by node over the tube cloud.

    H0 - m is evaluated at every point s_i (1 + t_a / R) of the cloud, so
    nothing assumes that the node factor is the same at every node.
    """
    profile = rr.TransverseProfile.build(12)
    eps_abs = eps * 0.25 * mesh.radius
    t = eps_abs * profile.nodes
    cloud = mesh.nodes[:, None, :] * (1.0 + t / mesh.radius)[None, :, None]
    rho = (1.0 + t / mesh.radius) ** (mesh.dimension - 1)
    shifted = sym.evaluate(cloud) - sym.find_minimum()[0]
    node_factor = (2.0 * np.pi) ** (mesh.dimension / 2.0) * mesh.weights * (
        shifted @ (profile.weights * profile.values**2 * rho)) / eps_abs
    return (psi.conj().T * node_factor) @ psi


def test_kinetic_form_is_exactly_linear_in_eps_for_parabolic_profile():
    # H0 - m = t^2 in the tube and the odd rho correction cancels on the
    # symmetric rule, so the form is eps_abs * const exactly
    mesh = surface.build_mesh(1.0, 2, 32)
    values = np.array([_kinetic(symbols.mexican_hat(1.0), mesh, eps) for eps in (0.2, 0.1, 0.05)])
    assert np.all(values > 0.0)
    npt.assert_allclose(values[1] / values[0], 0.5, rtol=1e-12)
    npt.assert_allclose(values[2] / values[1], 0.5, rtol=1e-12)


def test_kinetic_form_vanishes_for_orthogonal_states_of_radial_symbol():
    # a radial symbol shifts every surface point identically, so the
    # form factorizes through sum w conj(Psi_j) Psi_k = 0
    mesh = surface.build_mesh(1.0, 2, 32)
    theta = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
    psi = np.stack([np.exp(1j * theta), np.exp(-1j * theta)], axis=1)
    h = _cloud_kinetic_form(symbols.mexican_hat(1.0), mesh, psi, 0.2)
    assert abs(h[0, 1]) < 1e-14


def test_kinetic_form_is_zero_for_flat_symbol():
    mesh = surface.build_mesh(1.0, 2, 16)
    assert _kinetic(_flat_symbol(5.0), mesh, 0.5, transverse_order=8) == 0.0


@pytest.mark.parametrize("dimension, resolution", [(2, 24), (3, 6)])
def test_dense_kinetic_form_is_k_times_the_gram_matrix(dimension, resolution):
    # on any span h_kin is K(eps) psi^H diag(w) psi, against the node by
    # node integral over the tube cloud
    mesh = dataclasses.replace(surface.build_mesh(1.3, dimension, resolution), rings=0)
    sym = _shell_symbol(dimension, 1.3)
    rng = np.random.default_rng(5)
    psi = rng.standard_normal((mesh.size, 3)) + 1j * rng.standard_normal((mesh.size, 3))
    gram = (psi.conj().T * mesh.weights) @ psi
    for eps in (0.2, 0.05):
        h = _kinetic(sym, mesh, eps) * gram
        expected = _cloud_kinetic_form(sym, mesh, psi, eps)
        assert np.abs(h - expected).max() <= 1e-12 * np.abs(expected).max()


def test_tube_eps_validation():
    mesh = surface.build_mesh(1.0, 2, 16)
    for bad in (0.0, -0.1, 1.01):
        with pytest.raises(PreconditionError):
            rr.certify(symbols.mexican_hat(1.0), potentials.gaussian_well(1.0, 1.0), mesh, 1,
                       (bad,), transverse_order=8)


# ------------------------------------------------------------ potential form


def _potential_form(pot, mesh, psi, eps, transverse_order=12):
    """``_potential`` on the columns ``psi`` in the tube of certify's default chart."""
    profile = rr.TransverseProfile.build(transverse_order)
    chart = surface.tubular_chart(mesh)
    psi = np.asarray(psi).reshape(mesh.size, -1)
    return rr._potential(pot, chart, psi, profile, rr._tube(chart, profile, eps))


def test_potential_form_constant_kernel_is_eps_independent():
    # (sum_a v_a phi_a rho_a) = 1 exactly on the circle because the odd
    # rho part integrates to zero, leaving I = -v (sum w Psi)^2 = -2 pi R v
    mesh = surface.build_mesh(1.0, 2, 32)
    psi = np.full(mesh.size, 1.0 / np.sqrt(2.0 * np.pi))
    pot = _constant_kernel_potential(-0.7)
    for eps in (1.0, 0.2, 0.05):
        h = _potential_form(pot, mesh, psi, eps)
        npt.assert_allclose(h[0, 0], -0.7 * 2.0 * np.pi, rtol=1e-12)


def test_potential_form_zero_potential_is_zero():
    mesh = surface.build_mesh(1.0, 2, 16)
    h = _potential_form(potentials.zero(), mesh, np.ones(mesh.size), 0.3, transverse_order=8)
    assert h[0, 0] == 0.0


def test_potential_form_converges_to_discrete_eigenvalues():
    # the flat symbol leaves h(eps) = the potential form on the two
    # lowest eigenfunctions of the shell operator certify assembles
    mesh = surface.build_mesh(1.0, 2, 32)
    pot = potentials.gaussian_well(1.0, 1.0)
    cert = rr.certify(_flat_symbol(0.0), pot, mesh, 2, (0.2, 0.05))
    errors = [abs(h[0, 0] - cert.limit_values[0]) for h in cert.matrices]
    off = [abs(h[0, 1]) for h in cert.matrices]
    assert errors[1] < 0.3 * errors[0]
    assert off[1] < max(0.5 * off[0], 1e-12)
    assert errors[1] < 5e-4


def test_potential_form_hermitian_pairing():
    mesh = surface.build_mesh(1.0, 2, 24)
    pot = potentials.gaussian_well(1.0, 1.0)
    rng = np.random.default_rng(7)
    psi = rng.standard_normal((mesh.size, 2)) + 1j * rng.standard_normal((mesh.size, 2))
    profile = rr.TransverseProfile.build(12)
    chart = surface.tubular_chart(mesh)
    h = rr._potential(pot, chart, psi, profile, rr._tube(chart, profile, 0.1))
    assert abs(h[0, 1] - np.conj(h[1, 0])) < 1e-12 * max(1.0, abs(h[0, 1]))


def test_potential_form_enforces_band_with_tube_margin():
    # queries reach 2 (R + half_width) = 2.5, above this table's band,
    # while the shell operator's reach 2 R = 2 and assemble accepts it
    samples, edge = 32, 21.0
    axis = (np.arange(samples) - samples // 2) * (edge / samples)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    table = potentials.tabulated(-np.exp(-0.5 * (x**2 + y**2)), edge)
    assert 2.0 <= table.band < 2.5
    mesh = surface.build_mesh(1.0, 2, 16)
    assert so.count_negative(so.assemble(mesh, table)) >= 1
    with pytest.raises(ConfigurationError, match="momentum range 2.5"):
        rr.certify(_flat_symbol(0.0), table, mesh, 1, (0.2,), transverse_order=8)


# ----------------------------------------------------------------- certify


def test_certify_reference_benchmark():
    sym = symbols.mexican_hat(1.0)
    mesh = surface.build_mesh(1.0, 2, 64)
    pot = potentials.gaussian_well(1.0, 1.0)
    cert = rr.certify(sym, pot, mesh, 3)
    assert cert.certified
    assert cert.certified_count == 3
    assert cert.certified_eps == 0.2  # the whole default schedule works
    op = so.assemble(mesh, pot)
    npt.assert_allclose(cert.limit_values, op.eigenvalues[:3], rtol=1e-12)
    errors = np.array(cert.max_errors)
    assert np.all(np.diff(errors) < 0.0)
    ratios = errors[1:] / errors[:-1]
    assert np.all(ratios[-2:] <= 0.75)
    # the smallest-eps form is strictly negative definite
    assert np.linalg.eigvalsh(cert.matrices[-1])[-1] < 0.0
    for h in cert.matrices:
        npt.assert_allclose(h, h.conj().T, atol=1e-14)


def test_certify_reports_largest_working_eps():
    sym = symbols.mexican_hat(1.0)
    mesh = surface.build_mesh(1.0, 2, 64)
    weak = potentials.gaussian_well(1e-3, 1.0)
    cert = rr.certify(sym, weak, mesh, 1, eps_schedule=(1.0, 0.2, 0.025, 0.0125))
    assert cert.certified_eps == 0.0125
    assert cert.certified_count == 1
    assert cert.matrices[0][0, 0].real > 0.0  # eps too wide, kinetic wins
    assert cert.matrices[2][0, 0].real > 0.0  # +1.2e-4 at the physical scale
    assert cert.matrices[3][0, 0].real < 0.0


def test_certify_failure_is_a_result_not_an_exception():
    sym = symbols.mexican_hat(1.0)
    mesh = surface.build_mesh(1.0, 2, 32)
    weak = potentials.gaussian_well(1e-3, 1.0)
    cert = rr.certify(sym, weak, mesh, 1, (1.0,))
    assert not cert.certified
    assert cert.certified_count == 0
    assert cert.certified_eps is None
    # at the widest tube the kinetic form outweighs the weak well
    assert all(h[0, 0].real > 0.0 for h in cert.matrices)


def test_certify_zero_states_is_trivially_certified():
    sym = symbols.mexican_hat(1.0)
    mesh = surface.build_mesh(1.0, 2, 32)
    cert = rr.certify(sym, potentials.gaussian_well(1.0, 1.0), mesh, 0)
    assert cert.certified
    assert cert.certified_count == 0
    assert cert.certified_eps == 0.2
    assert cert.matrices[0].shape == (0, 0)


def test_certify_zero_states_builds_no_tube_kernel(kernel_calls):
    # the empty span's form is (0, 0): only the shell operator's kernel is built
    mesh = _without_layout(surface.build_mesh(1.0, 2, 64))
    cert = rr.certify(symbols.mexican_hat(1.0), potentials.gaussian_well(1.0, 1.0), mesh, 0)
    assert cert.certified
    assert [h.shape for h in cert.matrices] == [(0, 0)] * 4
    assert kernel_calls == [(64, 64)]


def test_certify_count_precondition():
    sym = symbols.mexican_hat(1.0)
    mesh = surface.build_mesh(1.0, 2, 16)
    with pytest.raises(PreconditionError):
        rr.certify(sym, potentials.gaussian_well(1.0, 1.0), mesh, 50)
    with pytest.raises(PreconditionError):
        rr.certify(sym, potentials.gaussian_well(1.0, 1.0), mesh, -1)
    with pytest.raises(PreconditionError):
        rr.certify(sym, potentials.gaussian_well(1.0, 1.0), mesh, 1, eps_schedule=())


# ----------------------------------------- radial problems by angular channel


def _radial_potential(kind, dimension):
    if kind == "gaussian-well":
        return potentials.gaussian_well(1.0, 1.0, dimension)
    if kind == "ball-well":
        return potentials.ball_well(1.0, 1.0, dimension)
    return potentials.gaussian_dimple_mix(1.0, 1.0, 0.5, 0.3, dimension)


def _shell_symbol(dimension, radius=1.0):
    return symbols.mexican_hat(radius) if dimension == 2 else symbols.roton(1.0, 0.5, radius)


def _without_layout(mesh):
    # same nodes and weights, no recorded layout: the dense reference
    return dataclasses.replace(mesh, rings=0)


def _assert_same_certificate(fast, dense):
    assert len(fast.matrices) == len(dense.matrices)
    for a, b in zip(fast.matrices, dense.matrices):
        assert a.shape == b.shape
        assert a.dtype == b.dtype
        if b.size:
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    assert fast.certified_eps == dense.certified_eps
    assert fast.certified_count == dense.certified_count


def test_build_mesh_records_ring_layout():
    assert surface.build_mesh(1.0, 2, 32).rings == 1
    assert surface.build_mesh(1.0, 3, 8).rings == 8
    hand_built = surface.SurfaceMesh(2, 1.0, np.eye(2), np.ones(2))
    assert hand_built.rings == 0


@pytest.mark.parametrize("kind", ["gaussian-well", "ball-well", "dimple-mix"])
@pytest.mark.parametrize("dimension, resolution", [(2, 32), (2, 64), (3, 8)])
def test_block_circulant_certify_matches_dense(dimension, resolution, kind):
    mesh = surface.build_mesh(1.0, dimension, resolution)
    sym = _shell_symbol(dimension)
    pot = _radial_potential(kind, dimension)
    fast = rr.certify(sym, pot, mesh, 3)
    dense = rr.certify(sym, pot, _without_layout(mesh), 3)
    _assert_same_certificate(fast, dense)
    assert fast.matrices[0].dtype == np.float64  # real states keep a real form
    for h, top in zip(fast.matrices, fast.top_eigenvalues):
        assert top == float(np.linalg.eigvalsh(h)[-1])


@pytest.mark.parametrize("dimension, resolution, n_states",
                         [(2, 63, 2), (2, 64, 4), (3, 8, 2), (3, 12, 2)])
def test_sector_certify_matches_dense(dimension, resolution, n_states):
    # n_states splits a degenerate pair of the shell operator: its
    # eigenvectors differ from the dense ones within that pair, the form
    # restricted to the pair is a multiple of the identity, so h does not
    mesh = surface.build_mesh(1.0, dimension, resolution)
    sym = _shell_symbol(dimension)
    pot = potentials.gaussian_well(1.0, 1.0, dimension)
    fast = rr.certify(sym, pot, mesh, n_states)
    dense = rr.certify(sym, pot, _without_layout(mesh), n_states)
    values = so.assemble(mesh, pot).eigenvalues
    assert values[n_states] - values[n_states - 1] < 1e-10  # the pair is split
    _assert_same_certificate(fast, dense)
    npt.assert_allclose(fast.limit_values, dense.limit_values, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_states", [8, 9])
def test_sector_states_certify_like_dense_states(n_states):
    # the channel route against the dense tube kernel on the eigenfunctions
    # of the dense shell operator; n_states = 8 splits a degenerate pair
    mesh = surface.build_mesh(1.0, 2, 64)
    pot = potentials.gaussian_well(1.0, 1.0)
    fast = rr.certify(symbols.mexican_hat(1.0), pot, mesh, n_states)
    reference = rr.certify(symbols.mexican_hat(1.0), pot, _without_layout(mesh), n_states)
    _assert_same_certificate(fast, reference)


def test_block_circulant_zero_states():
    mesh = surface.build_mesh(1.0, 3, 8)
    pot = potentials.gaussian_well(1.0, 1.0, 3)
    fast = rr.certify(_shell_symbol(3), pot, mesh, 0)
    dense = rr.certify(_shell_symbol(3), pot, _without_layout(mesh), 0)
    _assert_same_certificate(fast, dense)
    assert fast.certified and fast.certified_eps == 0.2
    assert fast.top_eigenvalues == (-np.inf,) * 4


def test_block_circulant_route_rejects_a_complex_radial_kernel():
    # a real radial V has a real transform; a complex kernel means the
    # potential's transform convention is broken upstream
    for dimension, symbol in ((2, symbols.mexican_hat(1.0)), (3, symbols.roton(1.0, 0.5, 1.0))):
        pot = dataclasses.replace(
            _constant_kernel_potential(-0.7, dimension),
            _kernel=lambda p, q: np.full((p.shape[0], q.shape[0]), -0.7 + 0j))
        mesh = surface.build_mesh(1.0, dimension, 16 if dimension == 2 else 6)
        with pytest.raises(ConsistencyError, match="complex"):
            rr.certify(symbol, pot, mesh, 1, (0.2,))
        if dimension == 2:
            # the spin gauge check reads the same channels, so it rejects it too
            with pytest.raises(ConsistencyError, match="complex"):
                spin_orbit.gauge_deviation(spin_orbit.rashba(2.0), mesh, pot)


def test_channel_route_rejects_a_mirror_odd_row():
    # (p x q) is real and unchanged by turns but odd under the mirror, so
    # the kernel row at the shell radius has an odd part: the shell channel
    # values come out complex, which no real symmetric kernel gives
    def kernel(p, q):
        d = p[:, None, :] - q[None, :, :]
        cross = p[:, None, 0] * q[None, :, 1] - p[:, None, 1] * q[None, :, 0]
        return -np.exp(-np.sum(d * d, axis=-1)) + 0.25 * cross

    pot = dataclasses.replace(_constant_kernel_potential(0.0), _kernel=kernel)
    mesh = surface.build_mesh(1.0, 2, 32)
    with pytest.raises(ConsistencyError, match="Hermitian"):
        rr.certify(symbols.mexican_hat(1.0), pot, mesh, 1)
    # the dense route hermitizes nothing away either
    with pytest.raises(ConsistencyError, match="Hermitian"):
        rr.certify(symbols.mexican_hat(1.0), pot, _without_layout(mesh), 1)


def test_certify_rejects_a_non_hermitian_trial_form():
    # (|p|^2 - |q|^2)(p_x + q_x) vanishes on the shell, so the shell
    # operator is Hermitian and assemble accepts it, but it is odd under
    # p <-> q in the tube, and certify refuses to hermitize that away
    def kernel(p, q):
        d = p[:, None, :] - q[None, :, :]
        radial = np.sum(p * p, axis=-1)[:, None] - np.sum(q * q, axis=-1)[None, :]
        return -np.exp(-np.sum(d * d, axis=-1)) + 1e-2 * radial * (p[:, None, 0] + q[None, :, 0])

    pot = dataclasses.replace(_constant_kernel_potential(0.0), is_radial=False, _kernel=kernel)
    mesh = surface.build_mesh(1.0, 2, 16)
    so.assemble(mesh, pot)
    with pytest.raises(ConsistencyError, match="trial form deviates from Hermitian by 7.021e-05"):
        rr.certify(symbols.mexican_hat(1.0), pot, mesh, 3)


def test_channel_route_reads_only_the_azimuth_count():
    # a valid ring layout whose polar rings are not the Gauss-Legendre ones
    # certifies the sphere's operator, exactly as the built sphere does
    resolution = 8
    cosines, weights = np.polynomial.legendre.leggauss(resolution)
    cosines = 0.9 * cosines + 0.05
    n_phi = 2 * resolution
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sines = np.sqrt(1.0 - cosines**2)
    nodes = np.stack([np.outer(sines, np.cos(phi)).ravel(), np.outer(sines, np.sin(phi)).ravel(),
                      np.repeat(cosines, n_phi)], axis=1)
    hand_built = surface.SurfaceMesh(3, 1.0, nodes, (2.0 * np.pi / n_phi) * np.repeat(weights, n_phi),
                                     rings=resolution)
    pot = potentials.gaussian_well(1.0, 1.0, 3)
    cert = rr.certify(_shell_symbol(3), pot, hand_built, 4)
    built = rr.certify(_shell_symbol(3), pot, surface.build_mesh(1.0, 3, resolution), 4)
    assert np.array_equal(cert.limit_values, built.limit_values)
    for a, b in zip(cert.matrices, built.matrices, strict=True):
        assert np.array_equal(a, b)


def test_tabulated_potential_keeps_dense_path(kernel_calls):
    samples, edge = 64, 16.0
    axis = (np.arange(samples) - samples // 2) * (edge / samples)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    table = potentials.tabulated(-np.exp(-0.5 * (x**2 + y**2)), edge)
    mesh = surface.build_mesh(1.0, 2, 16)
    transverse = 8
    rr.certify(symbols.mexican_hat(1.0), table, mesh, 1, (0.2,), transverse_order=transverse)
    cloud = mesh.size * transverse
    assert kernel_calls == [(mesh.size, mesh.size), (cloud, cloud)]


def test_certify_rejects_a_mesh_off_the_shell():
    # two rings of 16 azimuths at radii 1 and 0.5 with no recorded layout:
    # the dense shell operator of these nodes is well defined, but the
    # tube chart and the kinetic integral assume every node on |s| = R
    n = 16
    angles = 2.0 * np.pi * np.arange(n) / n
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    weights = np.concatenate([np.full(n, 2.0 * np.pi / n), np.full(n, np.pi / n)])
    mesh = surface.SurfaceMesh(2, 1.0, np.concatenate([ring, 0.5 * ring]), weights)
    pot = potentials.gaussian_well(1.0, 1.0)
    op = so.assemble(mesh, pot)
    assert op.channels is None and op.eigenfunctions.shape == (2 * n, 2 * n)
    assert op.eigenvalues[0] == pytest.approx(-5.244, abs=1e-3)
    with pytest.raises(PreconditionError, match="off the shell"):
        rr.certify(symbols.mexican_hat(1.0), pot, mesh, 1)
    with pytest.raises(PreconditionError, match="off the shell"):
        surface.tubular_chart(mesh)


def test_hand_built_mesh_keeps_dense_path(kernel_calls):
    circle = surface.build_mesh(1.0, 2, 16)
    mesh = surface.SurfaceMesh(2, 1.0, circle.nodes, circle.weights)
    transverse = 8
    rr.certify(symbols.mexican_hat(1.0), potentials.gaussian_well(1.0, 1.0), mesh, 1,
               (0.2,), transverse_order=transverse)
    cloud = mesh.size * transverse
    assert kernel_calls == [(mesh.size, mesh.size), (cloud, cloud)]


@pytest.mark.parametrize("dimension, resolution", [(2, 64), (3, 8), (3, 24)])
def test_block_circulant_kernel_calls_are_bounded(kernel_calls, dimension, resolution):
    # a dense tube kernel at resolution 24 would hold 13824^2 entries (1.5 GB);
    # the channel route takes the shell row of n points and, per eps, the
    # T radii against T circles of n points, where n is the azimuth count
    # (M on the circle); on the sphere, with n = 2 * resolution, the T
    # meridians have 2 n points each, and the shell row alone has the
    # mirror probe
    mesh = surface.build_mesh(1.0, dimension, resolution)
    transverse = 12
    cert = rr.certify(_shell_symbol(dimension), potentials.gaussian_well(1.0, 1.0, dimension),
                      mesh, 3, transverse_order=transverse)
    assert cert.certified
    n = mesh.size // mesh.rings
    if dimension == 2:
        assert kernel_calls == [(1, n)] + [(transverse, transverse * n)] * 4
    else:
        assert kernel_calls == [(1, 2 * n), (1, 2)] + [(transverse, transverse * 2 * n)] * 4


def test_certify_builds_each_quadrature_rule_once(monkeypatch):
    # the 2 n-node Gauss-Legendre rule of the sphere's channels depends on
    # n and R alone, and the transverse rule on its order: one certificate
    # builds each once, and another on the same mesh builds neither
    mesh = surface.build_mesh(1.0, 3, 12)
    n = mesh.size // mesh.rings
    original = surface.gauss_legendre
    orders = []

    def spy(order):
        orders.append(int(order))
        return original(order)

    monkeypatch.setattr(surface, "gauss_legendre", spy)
    so._angular_rule.cache_clear()
    rr.TransverseProfile.build.cache_clear()
    pot = potentials.gaussian_well(1.0, 1.0, 3)
    first = rr.certify(_shell_symbol(3), pot, mesh, 3)
    assert sorted(orders) == [12, 2 * n]
    orders.clear()
    second = rr.certify(_shell_symbol(3), pot, mesh, 3)
    assert orders == []
    for a, b in zip(first.matrices, second.matrices, strict=True):
        assert np.array_equal(a, b)


# ------------------------------------------------------ closed-form channels


def _gaussian_channel(dimension, radius, p, q, terms=((-1.0, 1.0),)):
    """Continuum channel values of a Gaussian mix at radii p, q (vhat's scale).

    For the term h exp(-|x|^2 / (2 s^2)) and a = s^2 p q: in 2-D channel
    m, 2 pi R h s^2 exp(-s^2 (p - q)^2 / 2) Ie_m(a); in 3-D channel l,
    4 pi R^2 h s^3 exp(-s^2 (p - q)^2 / 2) sqrt(pi / (2 a)) Ie_{l+1/2}(a),
    with Ie the exponentially scaled modified Bessel function.
    """
    from scipy.special import ive

    p, q = np.asarray(p, dtype=float)[..., None], np.asarray(q, dtype=float)[..., None]
    orders = np.arange(200 if dimension == 2 else 48)
    total = 0.0
    for height, sigma in terms:
        a = sigma**2 * p * q
        envelope = height * np.exp(-0.5 * sigma**2 * (p - q) ** 2)
        if dimension == 2:
            total = total + 2.0 * np.pi * radius * sigma**2 * envelope * ive(orders, a)
        else:
            total = total + (4.0 * np.pi * radius**2 * sigma**3 * envelope
                             * np.sqrt(np.pi / (2.0 * a)) * ive(orders + 0.5, a))
    return total


@pytest.mark.parametrize("terms", [((-1.0, 1.0),), ((-1.0, 1.0), (0.5, 0.3))],
                         ids=["well", "dimple-mix"])
def test_channel_spectrum_matches_the_closed_form_on_the_circle(terms):
    radius, m_count = 1.3, 64
    pot = potentials.gaussian_dimple_mix(1.0, 1.0, 0.5, 0.3) if len(terms) == 2 else \
        potentials.gaussian_well(1.0, 1.0)
    mesh = surface.build_mesh(radius, 2, m_count)
    values = so._channel_kernel(pot, mesh, [radius])
    # every channel m = 0..M-1 once; channel M - m equals channel m
    assert values.shape == (m_count,)
    m = np.arange(m_count)
    expected = _gaussian_channel(2, radius, radius, radius, terms)[np.minimum(m, m_count - m)]
    assert np.abs(values - expected).max() <= 1e-13


@pytest.mark.parametrize("resolution", [4, 6, 8, 12, 16, 24])
def test_channel_spectrum_matches_the_closed_form_on_the_sphere(resolution):
    # every listed degree l < n = 2 * resolution, to roundoff: the
    # projection takes 2 n Gauss-Legendre nodes (on n nodes the top degree
    # missed by 8e-9 at resolution 4 on the unit sphere)
    radius = 0.8
    mesh = surface.build_mesh(radius, 3, resolution)
    pot = potentials.gaussian_well(1.0, 1.0, 3)
    values = so._channel_kernel(pot, mesh, [radius])
    n = 2 * resolution
    assert values.shape == (n,)
    expected = _gaussian_channel(3, radius, radius, radius)[:n]
    assert np.abs(values - expected).max() <= 1e-13
    # the shell lists degree l 2 l + 1 times, n^2 values in all
    _, channel = so._shell_channels(mesh, pot)
    assert np.array_equal(np.bincount(channel, minlength=n), 2 * np.arange(n) + 1)


@pytest.mark.parametrize("dimension", [2, 3])
def test_trial_form_is_the_physical_form_of_h_minus_m(dimension):
    # one entry of h(eps) against the physical form of H - m on the trial
    # function: the kinetic integral over the tube radii plus V, which acts
    # in momentum space with the kernel (2 pi)^(-n/2) vhat(p - q), here the
    # continuum channel kernel between every pair of radii; h(eps) is that
    # form times (2 pi)^(n/2)
    radius, eps, transverse = 1.0, 0.1, 12
    mesh = surface.build_mesh(radius, dimension, 64 if dimension == 2 else 12)
    sym = _shell_symbol(dimension)
    pot = potentials.gaussian_well(1.0, 1.0, dimension)
    cert = rr.certify(sym, pot, mesh, 4, (eps,), transverse_order=transverse)
    profile = rr.TransverseProfile.build(transverse)
    eps_abs = eps * 0.25 * radius
    radii = radius + eps_abs * profile.nodes
    rho = (radii / radius) ** (dimension - 1)
    kinetic = (sym.radial(radii) - sym.find_minimum()[0]) @ (
        profile.weights * profile.values**2 * rho) / eps_abs
    x = profile.weights * profile.values * rho
    kappa = _gaussian_channel(dimension, radius, radii[:, None], radii[None, :])
    scale = (2.0 * np.pi) ** (dimension / 2.0)
    # states 0..3: m = 0, +-1, then one of +-2 in 2-D; l = 0, then l = 1 three times in 3-D
    channels = [0, 1, 1, 2] if dimension == 2 else [0, 1, 1, 1]
    physical = [kinetic + x @ kappa[:, :, c] @ x / scale for c in channels]
    np.testing.assert_allclose(np.diag(cert.matrices[0]), scale * np.array(physical),
                               rtol=0, atol=1e-13)
    assert np.count_nonzero(cert.matrices[0] - np.diag(np.diag(cert.matrices[0]))) == 0
