"""Shell operator assembly, spectra, and the negative-definiteness tests."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import iv

from shellbound import potentials, rayleigh_ritz, surface, surface_operator as so, symbols
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
        _fourier=fourier_fn,
        _kernel=kernel_fn,
        _integral=0.0,
    )


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
    spectrum = so.circulant_oracle(mesh, pot)
    npt.assert_allclose(spectrum, op.eigenvalues, atol=1e-13)


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
    # sum_j w_j vhat(s_i - s_j) Psi(s_j) = lambda Psi(s_i)
    mesh = surface.build_mesh(1.0, 2, 48)
    op = so.assemble(mesh, potentials.gaussian_well(1.0, 1.0))
    kernel = potentials.gaussian_well(1.0, 1.0).kernel_matrix(mesh.nodes)
    for j in (0, 1, 5):
        psi = op.eigenfunctions[:, j]
        applied = kernel @ (mesh.weights * psi)
        npt.assert_allclose(applied, op.eigenvalues[j] * psi, atol=1e-12)
    # quadrature normalization sum_i w_i |Psi_j|^2 = 1
    norms = mesh.weights @ np.abs(op.eigenfunctions) ** 2
    npt.assert_allclose(norms, 1.0, rtol=1e-12)


def test_assembled_matrix_is_hermitian(tabulated_gaussian_2d):
    # the dense reference is Hermitian, and the eigenpairs of either
    # route (sector for the ball well, dense for the table) rebuild it
    mesh = surface.build_mesh(1.0, 2, 32)
    for pot in (potentials.ball_well(1.0, 1.0), tabulated_gaussian_2d):
        reference = so._weighted_kernel(mesh, pot)
        npt.assert_allclose(reference, reference.conj().T, atol=1e-15)
        op = so.assemble(mesh, pot)
        vectors = np.sqrt(mesh.weights)[:, None] * op.eigenfunctions
        rebuilt = (vectors * op.eigenvalues) @ vectors.conj().T
        npt.assert_allclose(rebuilt, reference, atol=1e-13)


def test_tabulated_assembly_matches_closed_form(tabulated_gaussian_2d):
    mesh = surface.build_mesh(1.0, 2, 64)
    op_tab = so.assemble(mesh, tabulated_gaussian_2d)
    op_ref = so.assemble(mesh, potentials.gaussian_well(1.0, 1.0))
    assert np.abs(op_tab.eigenvalues - op_ref.eigenvalues).max() < 2e-6


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


# ------------------------------------------------------------ circulant route


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
def test_circulant_oracle_matches_dense_spectrum(pot, resolution):
    mesh = surface.build_mesh(1.0, 2, resolution)
    dense = so.assemble(dataclasses.replace(mesh, rings=0), pot).eigenvalues
    fast = so.circulant_oracle(mesh, pot)
    assert np.abs(dense - fast).max() < 1e-10


def test_circulant_oracle_preconditions(tabulated_gaussian_2d):
    sphere = surface.build_mesh(1.0, 3, 8)
    with pytest.raises(PreconditionError):
        so.circulant_oracle(sphere, potentials.gaussian_well(1.0, 1.0, dimension=3))
    circle = surface.build_mesh(1.0, 2, 16)
    with pytest.raises(PreconditionError):
        so.circulant_oracle(circle, tabulated_gaussian_2d)  # not radial
    scrambled = surface.SurfaceMesh(2, 1.0, circle.nodes, circle.weights)
    with pytest.raises(PreconditionError):
        so.circulant_oracle(scrambled, potentials.gaussian_well(1.0, 1.0))


def test_circulant_oracle_rejects_an_unequally_spaced_circle():
    # equal weights on sorted random angles: not circulant, so the DFT
    # of one kernel row would not be the spectrum; the one-ring layout
    # that circulant_oracle requires is refused at construction
    angles = np.sort(np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 64))
    angles[0] = 0.0
    nodes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    weights = np.full(64, 2.0 * np.pi / 64)
    with pytest.raises(PreconditionError, match="uniform turns"):
        surface.SurfaceMesh(2, 1.0, nodes, weights, rings=1)
    with pytest.raises(PreconditionError, match="one-ring circle"):
        so.circulant_oracle(surface.SurfaceMesh(2, 1.0, nodes, weights),
                            potentials.gaussian_well(1.0, 1.0))


# ----------------------------------------------------- azimuthal sectors


def _radial_potential(kind, dimension):
    if kind == "gaussian-well":
        return potentials.gaussian_well(1.0, 1.0, dimension)
    if kind == "ball-well":
        return potentials.ball_well(1.0, 1.0, dimension)
    return potentials.gaussian_dimple_mix(1.0, 1.0, 0.5, 0.3, dimension)


@pytest.mark.parametrize("kind", ["gaussian-well", "ball-well", "dimple-mix"])
@pytest.mark.parametrize("dimension, resolution", [(2, 63), (2, 64), (2, 512), (3, 8), (3, 12)])
def test_sector_assembly_matches_dense(kernel_calls, assert_same_operator, dimension,
                                       resolution, kind):
    mesh = surface.build_mesh(1.0, dimension, resolution)
    pot = _radial_potential(kind, dimension)
    fast = so.assemble(mesh, pot)
    assert kernel_calls == [(mesh.size, mesh.rings)]  # no (M, M) kernel
    assert fast.eigenfunctions.dtype == np.float64  # real cos/sin modes
    assert_same_operator(fast, so._weighted_kernel(mesh, pot))


@pytest.mark.parametrize("gaussian", [1.0, -1.0])
def test_sector_assembly_rejects_a_column_without_mirror_symmetry(gaussian):
    # exp(-|p - q|^2) + (p x q)_z (p_z - q_z) / 4 is real, symmetric and
    # invariant under turns about z, but odd under the y mirror that the
    # sector assembly and the tube forms of certify both rely on
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
        rayleigh_ritz.certify(symbols.roton(1.0, 1.0, 1.0, dimension=3), pot, mesh, 2)
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
    mesh = surface.build_mesh(1.0, 2, 16)
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
