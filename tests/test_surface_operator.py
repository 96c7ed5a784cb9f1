"""Shell operator assembly, spectra, and the negative-definiteness tests."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import iv

from shellbound import potentials, rayleigh_ritz, spin_orbit, surface, symbols
from shellbound import surface_operator as so
from shellbound.errors import (
    ConfigurationError,
    ConsistencyError,
    PreconditionError,
)
from shellbound.potentials import Potential


def _custom_potential(fourier_fn, kernel_fn=None, dimension=2, is_radial=False):
    """Wrap a raw transform callable for operator-level tests."""
    if kernel_fn is None:
        def kernel_fn(p, q):
            return np.asarray(fourier_fn(p[:, None, :] - q[None, :, :]))

    return Potential(
        dimension=dimension,
        kind="custom",
        sign="unknown",
        params={},
        is_radial=is_radial,
        band=None,
        _evaluate=lambda x: np.zeros(x.shape[:-1]),
        _kernel=kernel_fn,
    )


def _channel_spectrum(mesh, pot):
    # the shell values of certify's channel route, sorted: one FFT of one
    # kernel row, every channel once
    return so._shell_channels(mesh, pot)[0]


def _dense_spectrum(mesh, pot):
    # the same mesh without its ring layout: the dense assembly and eigh
    return so.assemble(dataclasses.replace(mesh, rings=0), pot).eigenvalues


# ------------------------------------------------------------------ assembly


def test_constant_kernel_gives_rank_one_operator():
    # vhat constant -v makes A = -v sqrt(w) sqrt(w)^T, eigenvalues
    # {-2 pi R v, 0, ..., 0}
    v = 0.3
    mesh = surface.build_mesh(1.0, 2, 8)
    pot = _custom_potential(lambda k: np.full(k.shape[:-1], -v), is_radial=True)
    op = so.assemble(mesh, pot)
    npt.assert_allclose(op.eigenvalues[0], -2.0 * np.pi * v, rtol=1e-13)
    assert np.abs(op.eigenvalues[1:]).max() < 1e-14
    npt.assert_allclose(_dense_spectrum(mesh, pot), op.eigenvalues, atol=1e-13)


def test_zero_potential_gives_zero_operator():
    mesh = surface.build_mesh(1.0, 2, 16)
    op = so.assemble(mesh, potentials.zero())
    assert np.all(so._weighted_kernel(mesh, potentials.zero()) == 0.0)
    assert np.all(op.eigenvalues == 0.0)
    assert so.count_negative(op) == 0


def test_gaussian_well_circle_spectrum_matches_bessel_form():
    # continuum angular eigenvalues: E_m = -2 pi c sigma^2 R
    # exp(-sigma^2 R^2) I_m(sigma^2 R^2), each double for m >= 1; the
    # uniform-mesh discretization converges superexponentially, so
    # M = 64 already reproduces them to machine precision
    mesh = surface.build_mesh(1.0, 2, 64)
    op = so.assemble(mesh, potentials.gaussian_well(1.0, 1.0))
    continuum = -2.0 * np.pi * np.exp(-1.0) * iv(np.arange(4), 1.0)
    assert abs(continuum[0] - (-2.9264539231100914)) < 1e-13
    expected = np.sort(np.concatenate([continuum, continuum[1:]]))
    npt.assert_allclose(op.eigenvalues[:7], expected, rtol=1e-12)


def test_eigenvalues_stable_under_mesh_refinement():
    pot = potentials.gaussian_well(1.0, 1.0)
    coarse = so.assemble(surface.build_mesh(1.0, 2, 64), pot)
    fine = so.assemble(surface.build_mesh(1.0, 2, 128), pot)
    npt.assert_allclose(coarse.eigenvalues[:10], fine.eigenvalues[:10], atol=1e-10)


def test_eigenfunctions_satisfy_the_integral_equation():
    # quadrature form of the eigenvalue problem:
    # sum_j w_j vhat(s_i - s_j) Psi(s_j) = lambda Psi(s_i), on the dense
    # route, the one that lists eigenfunctions; for the scalar well and
    # for its Rashba band projection, whose kernel carries <u(s_i), u(s_j)>
    pot = potentials.gaussian_well(1.0, 1.0)
    rashba = spin_orbit.rashba(1.0)
    cases = ((dataclasses.replace(surface.build_mesh(1.0, 2, 48), rings=0), None),
             (dataclasses.replace(surface.build_mesh(rashba.find_minimum()[1], 2, 64), rings=0),
              rashba.frame))
    for mesh, frame in cases:
        op = so.assemble(mesh, pot, frame)
        kernel = pot.kernel_matrix(mesh.nodes)
        if frame is not None:
            kernel = so._band_matrix(kernel, frame(mesh.nodes))
        for j in (0, 1, 5):
            psi = op.eigenfunctions[:, j]
            applied = kernel @ (mesh.weights * psi)
            npt.assert_allclose(applied, op.eigenvalues[j] * psi, atol=1e-12)
        # orthonormal in the mesh weights, sum_i w_i conj(Psi_j) Psi_k = delta_jk:
        # certify's kinetic form on this span is K(eps) I
        gram = (op.eigenfunctions.conj().T * mesh.weights) @ op.eigenfunctions
        assert np.abs(gram - np.eye(mesh.size)).max() <= 1e-13


def test_assembled_matrix_is_hermitian(tabulated_gaussian_2d):
    # the dense reference is Hermitian, and the eigenpairs of the dense
    # route (the ball well without the layout, the table with it) rebuild it
    mesh = surface.build_mesh(1.0, 2, 32)
    routes = ((potentials.ball_well(1.0, 1.0), dataclasses.replace(mesh, rings=0)),
              (tabulated_gaussian_2d, mesh))
    for pot, route_mesh in routes:
        reference = so._weighted_kernel(mesh, pot)
        npt.assert_allclose(reference, reference.conj().T, atol=1e-15)
        op = so.assemble(route_mesh, pot)
        vectors = np.sqrt(mesh.weights)[:, None] * op.eigenfunctions
        rebuilt = (vectors * op.eigenvalues) @ vectors.conj().T
        npt.assert_allclose(rebuilt, reference, atol=1e-13)


def test_tabulated_assembly_matches_closed_form(tabulated_gaussian_2d):
    mesh = surface.build_mesh(1.0, 2, 64)
    op_tab = so.assemble(mesh, tabulated_gaussian_2d)
    op_ref = so.assemble(mesh, potentials.gaussian_well(1.0, 1.0))
    assert np.abs(op_tab.eigenvalues - op_ref.eigenvalues).max() < 2e-6


def test_constant_table_assembles():
    # the table is real and even on its periodic grid, so its kernel is Hermitian
    mesh = surface.build_mesh(1.0, 2, 16)
    table = potentials.tabulated(np.full((16, 16), -1.0), 10.5)
    op = so.assemble(mesh, table)
    vectors = np.sqrt(mesh.weights)[:, None] * op.eigenfunctions
    rebuilt = (vectors * op.eigenvalues) @ vectors.conj().T
    reference = so._weighted_kernel(mesh, table)
    assert np.abs(rebuilt - reference).max() <= 1e-12 * np.abs(reference).max()


def test_assemble_validation():
    mesh3 = surface.build_mesh(1.0, 3, 6)
    with pytest.raises(PreconditionError):
        so.assemble(mesh3, potentials.gaussian_well(1.0, 1.0, dimension=2))
    # resolved band pi/0.5 ~ 3.14 cannot cover the shell diameter 4
    table = potentials.tabulated(np.full((16, 16), -1.0), 8.0)
    with pytest.raises(ConfigurationError):
        so.assemble(surface.build_mesh(2.0, 2, 16), table)


def test_assemble_rejects_non_hermitian_kernel():
    rng = np.random.default_rng(2)
    noise = rng.standard_normal((12, 12))

    def broken(p, q):
        return noise[: p.shape[0], : q.shape[0]]

    pot = _custom_potential(lambda k: np.zeros(k.shape[:-1]), kernel_fn=broken)
    with pytest.raises(ConsistencyError):
        so.assemble(surface.build_mesh(1.0, 2, 12), pot)


@pytest.mark.parametrize("scale, deviation, rejected", [
    (1.0, 0.9e-12, False),
    (1.0, 1.1e-12, True),
    (0.01, 1.1e-12, True),  # below 1 the tolerance stays 1e-12
    (1e6, 0.9e-6, False),  # above 1 it grows with max |a|
    (1e6, 1.1e-6, True),
])
def test_hermitian_test_tolerance_is_relative_above_one(scale, deviation, rejected):
    a = np.full((3, 3), scale)
    a[0, 1] += deviation
    if rejected:
        with pytest.raises(ConsistencyError, match="Hermitian"):
            so._hermitize(a, "test matrix")
    else:
        so._hermitize(a, "test matrix")


# -------------------------------------------------------------- channel route


@pytest.mark.parametrize("resolution", [32, 64, 128])
@pytest.mark.parametrize(
    "pot",
    [
        potentials.gaussian_well(1.0, 1.0),
        potentials.ball_well(1.0, 1.0),
        potentials.gaussian_dimple_mix(1.0, 1.0, 2.0, 0.5),
    ],
    ids=lambda p: p.kind,
)
def test_channel_spectrum_matches_dense_spectrum(pot, resolution):
    mesh = surface.build_mesh(1.0, 2, resolution)
    assert np.abs(_dense_spectrum(mesh, pot) - _channel_spectrum(mesh, pot)).max() < 1e-10


def test_ring_layout_decides_the_route(tabulated_gaussian_2d):
    # a radial potential on a mesh with a recorded ring layout, nothing else
    assert so.ring_layout(surface.build_mesh(1.0, 3, 8), potentials.gaussian_well(1.0, 1.0, 3))
    circle = surface.build_mesh(1.0, 2, 16)
    assert so.ring_layout(circle, potentials.gaussian_well(1.0, 1.0))
    assert not so.ring_layout(circle, tabulated_gaussian_2d)  # not radial
    scrambled = surface.SurfaceMesh(2, 1.0, circle.nodes, circle.weights)
    assert not so.ring_layout(scrambled, potentials.gaussian_well(1.0, 1.0))


def test_unequally_spaced_circle_has_no_ring_layout():
    # equal weights on sorted random angles: not circulant, so the DFT
    # of one kernel row would not be the spectrum; the one-ring layout
    # is refused at construction
    angles = np.sort(np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 64))
    angles[0] = 0.0
    nodes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    weights = np.full(64, 2.0 * np.pi / 64)
    with pytest.raises(PreconditionError, match="uniform turns"):
        surface.SurfaceMesh(2, 1.0, nodes, weights, rings=1)


# ------------------------------------------------- channel route of assemble


def _radial_potential(kind, dimension):
    if kind == "gaussian-well":
        return potentials.gaussian_well(1.0, 1.0, dimension)
    if kind == "ball-well":
        return potentials.ball_well(1.0, 1.0, dimension)
    return potentials.gaussian_dimple_mix(1.0, 1.0, 0.5, 0.3, dimension)


@pytest.mark.parametrize("kind", ["gaussian-well", "ball-well", "dimple-mix"])
@pytest.mark.parametrize("dimension, resolution", [(2, 63), (2, 64), (2, 512), (3, 8), (3, 12)])
def test_sector_assembly_matches_dense(kernel_calls, assert_same_spectrum, dimension,
                                       resolution, kind):
    # the channel values against the dense mesh operator: equal on the
    # circle; on the sphere the mesh converges to them, to 2.5e-8 relative
    # at resolution 8 and to roundoff at 12
    mesh = surface.build_mesh(1.0, dimension, resolution)
    pot = _radial_potential(kind, dimension)
    fast = so.assemble(mesh, pot)
    n = mesh.size // mesh.rings
    # one kernel row, no (M, M) kernel; on the sphere a meridian of 2 n
    # nodes and the two points of the mirror probe
    assert kernel_calls == ([(1, n)] if dimension == 2 else [(1, 2 * n), (1, 2)])
    tolerance = 1e-7 if (dimension, resolution) == (3, 8) else 1e-12
    assert_same_spectrum(fast, so._weighted_kernel(mesh, pot), tolerance)
    assert fast.eigenvalues.size == (mesh.size if dimension == 2 else n * n)


@pytest.mark.parametrize("gaussian", [1.0, -1.0])
def test_sector_assembly_rejects_a_column_without_mirror_symmetry(gaussian):
    # exp(-|p - q|^2) + (p x q)_z (p_z - q_z) / 4 is real, symmetric and
    # invariant under turns about z, but odd under the y mirror; its pole-
    # meridian pairs, all that the channel slice reads, miss the odd term,
    # so the mirror probe off the meridian must reject it, for assemble and
    # certify alike
    def kernel(p, q):
        d = p[:, None, :] - q[None, :, :]
        cross = p[:, None, 0] * q[None, :, 1] - p[:, None, 1] * q[None, :, 0]
        return gaussian * np.exp(-np.sum(d * d, axis=-1)) + 0.25 * cross * d[..., 2]

    pot = _custom_potential(lambda k: np.zeros(k.shape[:-1]), kernel, dimension=3,
                            is_radial=True)
    mesh = surface.build_mesh(1.0, 3, 6)
    with pytest.raises(ConsistencyError, match="mirror"):
        so.assemble(mesh, pot)
    with pytest.raises(ConsistencyError, match="mirror"):
        rayleigh_ritz.certify(symbols.roton(1.0, 0.5, 1.0), pot, mesh, 1)
    # without the ring layout the dense assembly has no mirror to rely on
    dense = so.assemble(dataclasses.replace(mesh, rings=0), pot)
    assert dense.eigenfunctions.dtype == np.float64


def test_sector_assembly_rejects_a_complex_column():
    pot = _custom_potential(lambda k: np.full(k.shape[:-1], -0.5 + 0j), is_radial=True)
    with pytest.raises(ConsistencyError, match="complex"):
        so.assemble(surface.build_mesh(1.0, 2, 16), pot)


def test_sector_assembly_rejects_non_hermitian_slice():
    rng = np.random.default_rng(3)
    noise = rng.standard_normal((16, 16))

    def broken(p, q):
        return noise[: p.shape[0], : q.shape[0]]

    pot = _custom_potential(lambda k: np.zeros(k.shape[:-1]), kernel_fn=broken, is_radial=True)
    with pytest.raises(ConsistencyError, match="Hermitian"):
        so.assemble(surface.build_mesh(1.0, 2, 16), pot)


def _full_fft_channels(mesh, pot, radii):
    # the FFT of the real (T, T n) slice over all n channels: the (n, T, T)
    # stack of channel matrices that the contraction replaces
    rows, points, _ = so._channel_points(mesh, radii)
    kernel = np.asarray(pot.kernel_matrix(rows, points)).reshape(len(radii), len(radii), -1)
    full = np.fft.fft(kernel, axis=2) * (2.0 * np.pi * mesh.radius / kernel.shape[2])
    return np.moveaxis(full, 2, 0)


@pytest.mark.parametrize("kind", ["gaussian-well", "dimple-mix"])
@pytest.mark.parametrize("resolution", [63, 64])
def test_real_fft_channels_equal_the_full_fft(resolution, kind):
    # the FFT of the contracted real row lists x^T kappa_m x for every
    # m = 0..n-1 once: the forms of the whole stack, channel by channel
    mesh = surface.build_mesh(1.2, 2, resolution)
    pot = _radial_potential(kind, 2)
    radii = 1.2 + 0.1 * np.array([-0.9, -0.3, 0.4, 0.8])
    x = np.array([0.3, 0.5, 0.2, 0.4])
    full = np.einsum("a,mab,b->m", x, _full_fft_channels(mesh, pot, radii), x)
    values = so._channel_kernel(pot, mesh, radii, x)
    assert values.shape == (resolution,)
    scale = np.abs(full).max()
    assert np.abs(full.imag).max() <= 1e-14 * scale  # Hermitian channels, real forms
    assert np.abs(values - full.real).max() <= 1e-14 * scale


@pytest.mark.parametrize("resolution", [4, 12])
def test_contracted_sphere_channels_equal_the_projected_stack(resolution):
    # on the sphere the contraction comes before the Legendre projection;
    # projecting the (T, T, 2 n) slice first and contracting each (T, T)
    # degree after gives the same forms to roundoff
    mesh = surface.build_mesh(1.0, 3, resolution)
    pot = _radial_potential("dimple-mix", 3)
    radii = 1.0 + 0.1 * np.array([-0.9, -0.3, 0.4, 0.8])
    x = np.array([0.3, 0.5, 0.2, 0.4])
    rows, points, legendre = so._channel_points(mesh, radii)
    kernel = np.asarray(pot.kernel_matrix(rows, points)).reshape(4, 4, -1)
    stack = np.moveaxis(kernel @ legendre, 2, 0)
    values = so._channel_kernel(pot, mesh, radii, x)
    expected = (stack @ x) @ x
    assert np.abs(values - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("resolution", [63, 64])
@pytest.mark.parametrize("a, b, p", [(0, 0, 1), (0, 1, 3), (2, 1, 0), (1, 3, -1), (3, 3, 31)])
def test_half_spectrum_rejects_a_slice_without_mirror_symmetry(resolution, a, b, p):
    # a real slice has Hermitian channels exactly when K[a, b, p] = K[b, a, -p];
    # the test on the slice catches one entry off that symmetry
    mesh = surface.build_mesh(1.0, 2, resolution)
    pot = potentials.gaussian_well(1.0, 1.0)
    radii = 1.0 + 0.1 * np.array([-0.9, -0.3, 0.4, 0.8])
    rows, points, _ = so._channel_points(mesh, radii)
    kernel = np.asarray(pot.kernel_matrix(rows, points))
    so._channels(mesh, kernel)  # the intact slice passes
    kernel[a, b * resolution + p % resolution] += 1e-9
    with pytest.raises(ConsistencyError, match="Hermitian"):
        so._channels(mesh, kernel)


@pytest.mark.parametrize("resolution", [63, 64])
@pytest.mark.parametrize("top", [0, 1, 2, 3])
def test_half_spectrum_tests_every_listed_channel(resolution, top):
    # cos(2 pi m p / n) added to K[0, 1, :] alone breaks the Hermitian
    # symmetry of channels m and n - m and of no other: each of m = 0, 1,
    # n // 2 - 1 and n // 2 (for even n the channel n/2, its own partner)
    # must be caught
    mesh = surface.build_mesh(1.0, 2, resolution)
    radii = 1.0 + 0.1 * np.array([-0.9, -0.3, 0.4, 0.8])
    rows, points, _ = so._channel_points(mesh, radii)
    kernel = np.asarray(potentials.gaussian_well(1.0, 1.0).kernel_matrix(rows, points))
    m = [0, 1, resolution // 2 - 1, resolution // 2][top]
    kernel[0, resolution:2 * resolution] += 1e-9 * np.cos(2.0 * np.pi * m * np.arange(resolution)
                                                          / resolution)
    with pytest.raises(ConsistencyError, match="Hermitian"):
        so._channels(mesh, kernel)


def _tube_slice(kind):
    # (mesh, slice, legendre, weight, nodes per radius): a kernel slice of
    # _channel_points at four tube radii (one, the shell radius, for "row"),
    # band-projected by the Rashba frame for "band", and the largest weight
    # the transform gives a node
    dimension = 3 if kind == "sphere" else 2
    mesh = surface.build_mesh(1.0, dimension, 64 if dimension == 2 else 6)
    radii = [1.0] if kind == "row" else 1.0 + 0.1 * np.array([-0.9, -0.3, 0.4, 0.8])
    rows, points, legendre = so._channel_points(mesh, radii)
    kernel = np.asarray(potentials.gaussian_well(1.0, 1.0, dimension).kernel_matrix(rows, points))
    if kind == "band":
        symbol = spin_orbit.rashba(2.0)
        kernel = so._band_matrix(kernel, symbol.frame(rows), symbol.frame(points))
    nodes = points.shape[0] // len(radii)
    if legendre is None:
        weight = 2.0 * np.pi / nodes  # 2 pi R / n
    else:
        weight = 2.0 * np.pi * surface.gauss_legendre(nodes)[1].max()  # max_q 2 pi R^2 w_q
    return mesh, kernel, legendre, weight, nodes


@pytest.mark.parametrize("kind", ["real", "band", "row", "sphere"])
@pytest.mark.parametrize("scale", [1.0, 1e3])
@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_slice_hermitian_test_holds_at_its_documented_tolerance(kind, scale, factor):
    # the test on the slice requires w max |D| <= 1e-12 max(1, w max |K|),
    # D[a, b, p] = K[a, b, p] - conj(K[b, a, -p]); one entry moved by e
    # makes max |D| = e, so e just below the tolerance passes and just
    # above it raises; scale 1e3 takes w max |K| above 1
    mesh, kernel, legendre, weight, nodes = _tube_slice(kind)
    kernel = kernel * scale
    tolerance = 1e-12 * max(1.0, weight * np.abs(kernel).max()) / weight
    so._channels(mesh, kernel, legendre)  # the intact slice passes
    a, b = (0, 0) if kind == "row" else (1, 2)
    kernel[a, b * nodes + 5] += factor * tolerance
    if factor < 1.0:
        so._channels(mesh, kernel, legendre)
    else:
        with pytest.raises(ConsistencyError, match="Hermitian"):
            so._channels(mesh, kernel, legendre)


# ------------------------------------------------------- nonpositive spectra


@pytest.mark.parametrize("resolution", [32, 64, 128])
def test_well_operators_are_nonpositive(resolution):
    mesh = surface.build_mesh(1.0, 2, resolution)
    for pot in (potentials.gaussian_well(1.0, 1.0), potentials.ball_well(1.0, 1.0)):
        op = so.assemble(mesh, pot)
        assert op.eigenvalues[-1] <= 1e-10 * op.norm


def test_negative_count_grows_with_refinement():
    pot = potentials.gaussian_well(1.0, 1.0)
    coarse = so.assemble(surface.build_mesh(1.0, 2, 64), pot)
    fine = so.assemble(surface.build_mesh(1.0, 2, 128), pot)
    for delta in (1e-2, 1e-4, 1e-6):
        assert so.count_negative(coarse, delta) <= so.count_negative(fine, delta)
    assert so.count_negative(fine, 1e-6) >= 12


def test_count_negative_thresholds():
    eigenvalues = np.array([-3.0, -1.0, 0.0, 2.0])
    op = so.SurfaceOperatorMatrix(
        mesh=surface.build_mesh(1.0, 2, 4),
        eigenvalues=eigenvalues,
        eigenfunctions=np.eye(4),
    )
    assert so.count_negative(op, 0.5) == 2
    assert so.count_negative(op, 10.0) == 0
    assert so.count_negative(op) == 2  # default 1e-8 max(1, 3)
    with pytest.raises(PreconditionError):
        so.count_negative(op, 0.0)
    with pytest.raises(PreconditionError):
        so.count_negative(op, -1.0)
    for threshold in (np.nan, np.inf, -np.inf):  # nan <= 0 is false, so NaN would count 0
        with pytest.raises(PreconditionError, match="finite and positive"):
            so.count_negative(op, threshold)


def test_quadratic_form_matches_real_space_quadrature():
    # u* A u = (2 pi)^(-n/2) integral V(x) |g(x)|^2 dx with the shell
    # wave packet g(x) = sum_j w_j f_j exp(i <s_j, x>); this pins the
    # transform convention end to end, through the eigenpairs alone:
    # u* A u = sum_j lambda_j |v_j^H u|^2 with v_j = sqrt(w) Psi_j
    mesh = dataclasses.replace(surface.build_mesh(1.0, 2, 16), rings=0)
    pot = potentials.gaussian_well(1.0, 1.0)
    op = so.assemble(mesh, pot)
    rng = np.random.default_rng(41)
    f = rng.standard_normal(mesh.size) + 1j * rng.standard_normal(mesh.size)
    u = np.sqrt(mesh.weights) * f
    vectors = np.sqrt(mesh.weights)[:, None] * op.eigenfunctions
    lhs = float(op.eigenvalues @ np.abs(vectors.conj().T @ u) ** 2)

    axis = np.linspace(-8.0, 8.0, 201)
    step = axis[1] - axis[0]
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    phases = np.exp(1j * grid @ mesh.nodes.T)
    g = phases @ (mesh.weights * f)
    v_vals = pot.evaluate(grid)
    rhs = (2.0 * np.pi) ** -1 * np.sum(v_vals * np.abs(g) ** 2) * step**2
    npt.assert_allclose(lhs, rhs, rtol=1e-6)


# ------------------------------------------------------------ point matrices


def test_point_matrix_single_points():
    gauss = potentials.gaussian_well(1.0, 1.0)
    matrix, negdef = so.point_matrix_test(gauss, np.array([[1.0, 0.0]]))
    npt.assert_allclose(matrix, [[-1.0]])
    assert negdef
    dimple = potentials.gaussian_dimple_mix(1.0, 1.0, 2.0, 0.5)
    matrix, negdef = so.point_matrix_test(dimple, np.array([[0.6, 0.8]]))
    npt.assert_allclose(matrix, [[-0.5]])
    assert negdef
    # exact cancellation: vhat(0) = 0 is not strictly negative
    flat = potentials.gaussian_dimple_mix(1.0, 1.0, 4.0, 0.5)
    _, negdef = so.point_matrix_test(flat, np.array([[1.0, 0.0]]))
    assert not negdef


def test_point_matrices_of_nonpositive_potentials_are_negative_definite():
    # transforms of nonnegative finite measures are positive definite,
    # so -vhat restricted to any distinct points is PD for V <= 0
    rng = np.random.default_rng(101)
    zoo = [
        potentials.gaussian_well(1.0, 1.0),
        potentials.ball_well(1.0, 1.0),
    ]
    for _ in range(30):
        count = int(rng.integers(1, 9))
        angles = rng.uniform(0.0, 2.0 * np.pi, count)
        points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for pot in zoo:
            matrix, negdef = so.point_matrix_test(pot, points)
            assert negdef
            scale = np.abs(matrix).max()
            assert np.linalg.eigvalsh(matrix)[-1] < -1e-12 * scale


def test_point_matrix_rejects_duplicates():
    pot = potentials.gaussian_well(1.0, 1.0)
    points = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(PreconditionError):
        so.point_matrix_test(pot, points)


def test_point_matrix_rejects_broken_kernel():
    def broken(p, q):
        out = -np.ones((p.shape[0], q.shape[0]))
        if out.shape[0] > 1:
            out[0, -1] = 5.0
        return out

    pot = _custom_potential(lambda k: np.zeros(k.shape[:-1]), kernel_fn=broken)
    with pytest.raises(ConsistencyError):
        so.point_matrix_test(pot, np.array([[1.0, 0.0], [0.0, 1.0]]))
