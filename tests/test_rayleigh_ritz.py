"""Trial-function forms and the negative-definiteness certificate."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from shellbound import potentials, surface, surface_operator as so
from shellbound import rayleigh_ritz as rr
from shellbound import symbols
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
        _fourier=lambda k: np.full(k.shape[:-1], value),
        _kernel=lambda p, q: np.full((p.shape[0], q.shape[0]), value),
        _integral=0.0,
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
# Values of one form term are read off certify's h(eps) with the other
# term switched off: the zero potential leaves the kinetic form, a flat
# symbol (H0 = m everywhere) the potential form. Raw pairing symmetry is
# checked on _kinetic / _potential themselves, before certify hermitizes.


def _forms(sym, pot, mesh, psi, schedule, **options):
    """h(eps) of certify on the supplied columns ``psi``, one per eps."""
    psi = np.asarray(psi).reshape(mesh.size, -1)
    states = (-np.ones(psi.shape[1]), psi)
    return rr.certify(sym, pot, mesh, psi.shape[1], schedule, states=states, **options).matrices


def _random_pair(mesh, seed):
    """Two random complex columns, a profile and the eps = 0.1 tube on ``mesh``."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((mesh.size, 2)) + 1j * rng.standard_normal((mesh.size, 2))
    profile = rr.TransverseProfile.build(12)
    return psi, profile, rr._tube(surface.tubular_chart(mesh), profile, 0.1)


def test_kinetic_form_is_exactly_linear_in_eps_for_parabolic_profile():
    # H0 - m = t^2 in the tube and the odd rho correction cancels on the
    # symmetric rule, so the form is eps_abs * const exactly
    mesh = surface.build_mesh(1.0, 2, 32)
    psi = np.full(mesh.size, 1.0 / np.sqrt(2.0 * np.pi))
    forms = _forms(symbols.mexican_hat(1.0), potentials.zero(), mesh, psi, (0.2, 0.1, 0.05))
    values = np.array([h[0, 0] for h in forms])
    assert np.all(values.real > 0.0)
    assert np.abs(values.imag).max() < 1e-15
    npt.assert_allclose(values[1] / values[0], 0.5, rtol=1e-12)
    npt.assert_allclose(values[2] / values[1], 0.5, rtol=1e-12)


def test_kinetic_form_vanishes_for_orthogonal_states_of_radial_symbol():
    # a radial symbol shifts every surface point identically, so the
    # form factorizes through sum w conj(Psi_j) Psi_k = 0
    mesh = surface.build_mesh(1.0, 2, 32)
    theta = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
    psi = np.stack([np.exp(1j * theta), np.exp(-1j * theta)], axis=1)
    (h,) = _forms(symbols.mexican_hat(1.0), potentials.zero(), mesh, psi, (0.2,))
    assert abs(h[0, 1]) < 1e-14


def test_kinetic_form_is_zero_for_flat_symbol():
    mesh = surface.build_mesh(1.0, 2, 16)
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(mesh.size)
    (h,) = _forms(_flat_symbol(5.0), potentials.zero(), mesh, psi, (0.5,), transverse_order=8)
    assert h[0, 0] == 0.0


def test_kinetic_form_hermitian_pairing():
    mesh = surface.build_mesh(1.0, 2, 24)
    sym = symbols.mexican_hat(1.0)
    psi, profile, tube = _random_pair(mesh, 5)
    h = rr._kinetic(sym.evaluate, sym.find_minimum()[0], mesh, psi, profile, tube)
    assert abs(h[0, 1] - np.conj(h[1, 0])) < 1e-13 * max(1.0, abs(h[0, 1]))


def test_tube_eps_validation():
    mesh = surface.build_mesh(1.0, 2, 16)
    psi = np.ones(mesh.size)
    for bad in (0.0, -0.1, 1.01):
        with pytest.raises(PreconditionError):
            _forms(symbols.mexican_hat(1.0), potentials.zero(), mesh, psi, (bad,),
                   transverse_order=8)


# ------------------------------------------------------------ potential form


def test_potential_form_constant_kernel_is_eps_independent():
    # (sum_a v_a phi_a rho_a) = 1 exactly on the circle because the odd
    # rho part integrates to zero, leaving I = -v (sum w Psi)^2 = -2 pi R v
    mesh = surface.build_mesh(1.0, 2, 32)
    psi = np.full(mesh.size, 1.0 / np.sqrt(2.0 * np.pi))
    pot = _constant_kernel_potential(-0.7)
    for h in _forms(_flat_symbol(0.0), pot, mesh, psi, (1.0, 0.2, 0.05)):
        npt.assert_allclose(h[0, 0], -0.7 * 2.0 * np.pi, rtol=1e-12)


def test_potential_form_zero_potential_is_zero():
    mesh = surface.build_mesh(1.0, 2, 16)
    psi = np.ones(mesh.size)
    (h,) = _forms(_flat_symbol(0.0), potentials.zero(), mesh, psi, (0.3,), transverse_order=8)
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
    psi, profile, tube = _random_pair(mesh, 7)
    h = rr._potential(pot, mesh, psi, profile, tube, layout=so.ring_layout(mesh, pot))
    assert abs(h[0, 1] - np.conj(h[1, 0])) < 1e-12 * max(1.0, abs(h[0, 1]))


def test_potential_form_enforces_band_with_tube_margin():
    # queries reach 2 (R + half_width) = 2.5, above this table's band
    samples, edge = 16, 10.5
    table = potentials.tabulated(np.full((samples, samples), -1.0), edge)
    assert table.band < 2.5
    mesh = surface.build_mesh(1.0, 2, 16)
    psi = np.ones(mesh.size)
    with pytest.raises(ConfigurationError):
        _forms(_flat_symbol(0.0), table, mesh, psi, (0.2,), transverse_order=8)


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
    cert = rr.certify(sym, weak, mesh, 1, eps_schedule=(1.0, 0.2, 0.025))
    assert cert.certified_eps == 0.025
    assert cert.certified_count == 1
    assert cert.matrices[0][0, 0].real > 0.0  # eps too wide, kinetic wins
    assert cert.matrices[2][0, 0].real < 0.0


def test_certify_failure_is_a_result_not_an_exception():
    sym = symbols.mexican_hat(1.0)
    mesh = surface.build_mesh(1.0, 2, 32)
    ones = np.ones((mesh.size, 1)) / np.sqrt(2.0 * np.pi)
    cert = rr.certify(
        sym,
        potentials.zero(),
        mesh,
        1,
        states=(np.array([-1.0]), ones),
    )
    assert not cert.certified
    assert cert.certified_count == 0
    assert cert.certified_eps is None
    # pure kinetic forms are positive for every eps
    assert all(h[0, 0].real > 0.0 for h in cert.matrices)


def test_certify_zero_states_is_trivially_certified():
    sym = symbols.mexican_hat(1.0)
    mesh = surface.build_mesh(1.0, 2, 32)
    cert = rr.certify(sym, potentials.gaussian_well(1.0, 1.0), mesh, 0)
    assert cert.certified
    assert cert.certified_count == 0
    assert cert.certified_eps == 0.2
    assert cert.matrices[0].shape == (0, 0)


def test_certify_count_precondition():
    sym = symbols.mexican_hat(1.0)
    mesh = surface.build_mesh(1.0, 2, 16)
    with pytest.raises(PreconditionError):
        rr.certify(sym, potentials.gaussian_well(1.0, 1.0), mesh, 50)
    with pytest.raises(PreconditionError):
        rr.certify(sym, potentials.gaussian_well(1.0, 1.0), mesh, -1)
    with pytest.raises(PreconditionError):
        rr.certify(sym, potentials.gaussian_well(1.0, 1.0), mesh, 1, eps_schedule=())


def test_certify_forced_states_shape_checks():
    sym = symbols.mexican_hat(1.0)
    mesh = surface.build_mesh(1.0, 2, 16)
    with pytest.raises(PreconditionError):
        rr.certify(
            sym,
            potentials.zero(),
            mesh,
            1,
            states=(np.array([-1.0]), np.ones(mesh.size)),  # not columns
        )
    with pytest.raises(PreconditionError):
        rr.certify(
            sym,
            potentials.zero(),
            mesh,
            2,
            states=(np.array([-1.0]), np.ones((mesh.size, 1))),
        )


# ------------------------------------------------ block-circulant tube forms


def _radial_potential(kind, dimension):
    if kind == "gaussian-well":
        return potentials.gaussian_well(1.0, 1.0, dimension)
    if kind == "ball-well":
        return potentials.ball_well(1.0, 1.0, dimension)
    return potentials.gaussian_dimple_mix(1.0, 1.0, 0.5, 0.3, dimension)


def _shell_symbol(dimension):
    return symbols.mexican_hat(1.0) if dimension == 2 else symbols.roton(1.0, 0.5, 1.0)


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
    # M = 512: the dense tube kernel would hold 6144^2 entries, so only
    # the shell operator is swapped for its dense assembly
    mesh = surface.build_mesh(1.0, 2, 512)
    pot = potentials.gaussian_well(1.0, 1.0)
    dense = so.assemble(_without_layout(mesh), pot)
    fast = rr.certify(symbols.mexican_hat(1.0), pot, mesh, n_states)
    reference = rr.certify(symbols.mexican_hat(1.0), pot, mesh, n_states,
                           states=(dense.eigenvalues, dense.eigenfunctions))
    _assert_same_certificate(fast, reference)


@pytest.mark.parametrize("dimension, resolution", [(2, 32), (3, 8)])
def test_block_circulant_complex_states_match_dense(dimension, resolution):
    mesh = surface.build_mesh(1.0, dimension, resolution)
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((mesh.size, 3)) + 1j * rng.standard_normal((mesh.size, 3))
    states = (np.array([-1.0, -0.5, -0.25]), vectors)
    sym = _shell_symbol(dimension)
    pot = potentials.gaussian_well(1.0, 1.0, dimension)
    fast = rr.certify(sym, pot, mesh, 3, states=states)
    dense = rr.certify(sym, pot, _without_layout(mesh), 3, states=states)
    _assert_same_certificate(fast, dense)
    assert fast.matrices[0].dtype == np.complex128


def test_block_circulant_zero_states():
    mesh = surface.build_mesh(1.0, 3, 8)
    pot = potentials.gaussian_well(1.0, 1.0, 3)
    fast = rr.certify(_shell_symbol(3), pot, mesh, 0)
    dense = rr.certify(_shell_symbol(3), pot, _without_layout(mesh), 0)
    _assert_same_certificate(fast, dense)
    assert fast.certified and fast.certified_eps == 0.2
    assert fast.top_eigenvalues == (-np.inf,) * 4


def test_block_circulant_potential_form_matches_dense():
    mesh = surface.build_mesh(1.0, 2, 24)
    pot = potentials.gaussian_well(1.0, 1.0)
    rng = np.random.default_rng(13)
    a = rng.standard_normal(mesh.size) + 1j * rng.standard_normal(mesh.size)
    b = rng.standard_normal(mesh.size)
    psi = np.stack([a, b], axis=1)
    (fast,) = _forms(_flat_symbol(0.0), pot, mesh, psi, (0.1,))
    (dense,) = _forms(_flat_symbol(0.0), pot, _without_layout(mesh), psi, (0.1,))
    assert np.abs(fast - dense).max() <= 1e-12 * np.abs(dense).max()


def test_block_circulant_route_rejects_a_complex_radial_kernel():
    # a real radial V has a real transform; a complex kernel slice means
    # the potential's transform convention is broken upstream
    pot = dataclasses.replace(_constant_kernel_potential(-0.7),
                              _kernel=lambda p, q: np.full((p.shape[0], q.shape[0]), -0.7 + 0j))
    mesh = surface.build_mesh(1.0, 2, 16)
    states = (np.array([-1.0]), np.ones((mesh.size, 1)))
    with pytest.raises(ConsistencyError, match="complex"):
        rr.certify(symbols.mexican_hat(1.0), pot, mesh, 1, (0.2,), states=states)


def _mirror_odd_kernel(p, q):
    # the Gaussian-negated kernel of the sector assembly's mirror test:
    # real, symmetric and unchanged by turns about z, but odd under p -> -p
    d = p[:, None, :] - q[None, :, :]
    cross = p[:, None, 0] * q[None, :, 1] - p[:, None, 1] * q[None, :, 0]
    return -np.exp(-np.sum(d * d, axis=-1)) + 0.25 * cross * d[..., 2]


def _off_shell_mirror_odd_kernel(p, q):
    # equal to the Gaussian on the unit sphere, so the sector assembly's
    # column passes, but odd under p -> -p on the tube around it
    d = p[:, None, :] - q[None, :, :]
    cross = p[:, None, 0] * q[None, :, 1] - p[:, None, 1] * q[None, :, 0]
    radii = np.sum(p * p, axis=-1)[:, None] + np.sum(q * q, axis=-1)[None, :]
    return -np.exp(-np.sum(d * d, axis=-1)) + 2.0 * cross * d[..., 2] * (radii - 2.0)


@pytest.mark.parametrize("kernel, resolution, n_states, fraction", [
    (_mirror_odd_kernel, 6, 2, 0.25),
    (_off_shell_mirror_odd_kernel, 8, 3, 0.5),
])
def test_block_circulant_route_rejects_a_slice_without_mirror_symmetry(
        kernel, resolution, n_states, fraction):
    # the tube forms evaluate azimuths 0..n/2 only and rely on C[-p] = C[p]
    # whether or not the sector assembly ran first
    pot = dataclasses.replace(_constant_kernel_potential(0.0, 3), _kernel=kernel)
    sym = symbols.roton(1.0, 1.0, 1.0, dimension=3)
    mesh = surface.build_mesh(1.0, 3, resolution)
    dense_mesh = _without_layout(mesh)
    operator = so.assemble(dense_mesh, pot)
    for states in (None, (operator.eigenvalues, operator.eigenfunctions)):
        with pytest.raises(ConsistencyError, match="mirror"):
            rr.certify(sym, pot, mesh, n_states, half_width_fraction=fraction, states=states)
    # the dense route relies on no mirror
    cert = rr.certify(sym, pot, dense_mesh, n_states, half_width_fraction=fraction)
    assert len(cert.matrices) == len(rr.DEFAULT_SCHEDULE)


def test_certify_rejects_a_non_hermitian_trial_form():
    # a non-radial kernel with a part odd in p - q pairs the states 1 and
    # cos(theta) unequally, and certify refuses to hermitize that away
    def kernel(p, q):
        d = p[:, None, :] - q[None, :, :]
        return -np.exp(-np.sum(d * d, axis=-1)) + 1e-3 * d[..., 0]

    pot = dataclasses.replace(_constant_kernel_potential(0.0), is_radial=False, _kernel=kernel)
    mesh = surface.build_mesh(1.0, 2, 16)
    theta = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
    states = (np.array([-1.0, -0.5]), np.stack([np.ones(mesh.size), np.cos(theta)], axis=1))
    with pytest.raises(ConsistencyError, match="trial form deviates from Hermitian by 3.949e-02"):
        rr.certify(symbols.mexican_hat(1.0), pot, mesh, 2, states=states)


def test_tabulated_potential_keeps_dense_path(kernel_calls):
    samples, edge = 64, 16.0
    axis = (np.arange(samples) - samples // 2) * (edge / samples)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    table = potentials.tabulated(-np.exp(-0.5 * (x**2 + y**2)), edge)
    mesh = surface.build_mesh(1.0, 2, 16)
    transverse = 8
    states = (np.array([-1.0]), np.ones((mesh.size, 1)))
    rr.certify(symbols.mexican_hat(1.0), table, mesh, 1, (0.2,),
               transverse_order=transverse, states=states)
    cloud = mesh.size * transverse
    assert kernel_calls == [(cloud, cloud)]


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
    # the operator takes one (M, rings) column block, each eps the tube
    # slice for azimuths 0..n/2 against the azimuth-0 points, and on the
    # z-mirrored sphere for its first ceil(rings/2) rings (the one ring in 2-D)
    mesh = surface.build_mesh(1.0, dimension, resolution)
    transverse = 12
    cert = rr.certify(_shell_symbol(dimension), potentials.gaussian_well(1.0, 1.0, dimension),
                      mesh, 3, transverse_order=transverse)
    assert cert.certified
    rings = mesh.rings
    half = mesh.size // rings // 2 + 1
    slice_shape = ((rings + 1) // 2 * half * transverse, rings * transverse)
    assert kernel_calls == [(mesh.size, rings)] + [slice_shape] * 4


# ------------------------------------ z-mirror fold and the real-column route


def _reference_block_circulant_form(potential, cloud, columns, rings):
    # the route before the z fold and the real FFT, kept verbatim
    nodes, order, dimension = cloud.shape
    n_phi = nodes // rings
    half = n_phi // 2 + 1
    width = rings * order
    count = columns.shape[1]
    points = cloud.reshape(rings, n_phi, order, dimension)
    kernel = np.asarray(potential.kernel_matrix(
        points[:, :half].reshape(-1, dimension), points[:, 0].reshape(width, dimension)
    ))
    blocks = kernel.reshape(rings, half, order, width).swapaxes(0, 1).reshape(half, width * width)
    k = np.arange(half)
    multiplicity = np.where((k == 0) | (2 * k == n_phi), 1.0, 2.0)
    cosines = np.cos(2.0 * np.pi * np.arange(n_phi) / n_phi)[np.outer(k, k) % n_phi]
    blocks_hat = ((cosines * multiplicity) @ blocks).reshape(half, width, width)
    stacked = columns.reshape(rings, n_phi, order, count).swapaxes(0, 1).reshape(n_phi, width, count)
    stacked_hat = np.fft.fft(stacked, axis=0)
    paired = np.stack([stacked_hat[:half], stacked_hat[-k]], axis=2).reshape(half, width, 2 * count)
    if np.iscomplexobj(blocks_hat):
        applied = blocks_hat @ paired
    else:
        applied = (blocks_hat @ paired.view(np.float64)).view(np.complex128)
    applied *= np.where(multiplicity == 1.0, 0.5, 1.0)[:, None, None]
    rows = 2 * half * width
    form = paired.reshape(rows, count).conj().T @ applied.reshape(rows, count) / n_phi
    return form if np.iscomplexobj(kernel) or np.iscomplexobj(columns) else form.real


def _tube_problem(mesh, count, complex_columns, seed=17, eps=0.1):
    profile = rr.TransverseProfile.build(12)
    _, cloud, _ = rr._tube(surface.tubular_chart(mesh), profile, eps)
    rng = np.random.default_rng(seed)
    columns = rng.standard_normal((cloud.shape[0] * cloud.shape[1], count))
    if complex_columns:
        columns = columns + 1j * rng.standard_normal(columns.shape)
    return cloud, columns


def _unmirrored_sphere(resolution):
    # a valid ring layout whose polar rings are not symmetric about z = 0
    cosines, weights = np.polynomial.legendre.leggauss(resolution)
    cosines = 0.9 * cosines + 0.05
    n_phi = 2 * resolution
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sines = np.sqrt(1.0 - cosines**2)
    nodes = np.stack([np.outer(sines, np.cos(phi)).ravel(), np.outer(sines, np.sin(phi)).ravel(),
                      np.repeat(cosines, n_phi)], axis=1)
    weights = (2.0 * np.pi / n_phi) * np.repeat(weights, n_phi)
    return surface.SurfaceMesh(3, 1.0, nodes, weights, rings=resolution)


@pytest.mark.parametrize("resolution", [8, 9])
@pytest.mark.parametrize("complex_columns", [False, True])
def test_z_fold_matches_the_unfolded_slice(resolution, complex_columns):
    mesh = surface.build_mesh(1.0, 3, resolution)
    pot = potentials.gaussian_dimple_mix(1.0, 1.0, 0.5, 0.3, 3)
    layout = so.ring_layout(mesh, pot)
    assert layout.mirrored
    cloud, columns = _tube_problem(mesh, 3, complex_columns)
    folded = rr._block_circulant_form(pot, cloud, columns, mesh.rings, layout)
    unfolded = rr._block_circulant_form(pot, cloud, columns, mesh.rings,
                                        layout._replace(mirrored=False))
    assert folded.dtype == unfolded.dtype
    assert np.abs(folded - unfolded).max() <= 1e-13 * np.abs(unfolded).max()


def test_unmirrored_ring_mesh_takes_the_unfolded_route(kernel_calls):
    mesh = _unmirrored_sphere(8)
    assert mesh.rings == 8 and not mesh.z_mirrored
    pot = potentials.gaussian_well(1.0, 1.0, 3)
    transverse = 12
    fast = rr.certify(_shell_symbol(3), pot, mesh, 2, transverse_order=transverse)
    half = mesh.size // mesh.rings // 2 + 1
    slice_shape = (mesh.rings * half * transverse, mesh.rings * transverse)
    assert kernel_calls == [(mesh.size, mesh.rings)] + [slice_shape] * 4
    dense = rr.certify(_shell_symbol(3), pot, _without_layout(mesh), 2,
                       transverse_order=transverse,
                       states=(fast.limit_values, so.assemble(mesh, pot).eigenfunctions))
    _assert_same_certificate(fast, dense)


@pytest.mark.parametrize("dimension, resolution", [(2, 64), (2, 63), (3, 8)])
def test_real_fft_route_matches_the_complex_route(dimension, resolution):
    mesh = surface.build_mesh(1.0, dimension, resolution)
    pot = potentials.gaussian_well(1.0, 1.0, dimension)
    layout = so.ring_layout(mesh, pot)
    cloud, columns = _tube_problem(mesh, 4, complex_columns=False)
    real = rr._block_circulant_form(pot, cloud, columns, mesh.rings, layout)
    as_complex = rr._block_circulant_form(pot, cloud, columns.astype(np.complex128),
                                          mesh.rings, layout)
    reference = _reference_block_circulant_form(pot, cloud, columns, mesh.rings)
    assert real.dtype == np.float64 and as_complex.dtype == np.complex128
    scale = np.abs(reference).max()
    assert np.abs(real - as_complex).max() <= 1e-13 * scale
    assert np.abs(real - reference).max() <= 1e-13 * scale


@pytest.mark.parametrize("dimension, resolution", [(2, 64), (3, 8)])
def test_complex_columns_keep_the_full_fft_route(dimension, resolution):
    # the spin frame's complex columns give the same form as before the change
    mesh = surface.build_mesh(1.0, dimension, resolution)
    pot = potentials.gaussian_well(1.0, 1.0, dimension)
    cloud, columns = _tube_problem(mesh, 4, complex_columns=True)
    fast = rr._block_circulant_form(pot, cloud, columns, mesh.rings, so.ring_layout(mesh, pot))
    reference = _reference_block_circulant_form(pot, cloud, columns, mesh.rings)
    assert np.abs(fast - reference).max() <= 1e-15 * np.abs(reference).max()
