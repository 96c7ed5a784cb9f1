"""Quadrature mesh and tubular chart checks."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from shellbound import surface
from shellbound.errors import ConfigurationError, PreconditionError


def test_circle_mesh_four_points():
    mesh = surface.build_mesh(1.0, 2, 4)
    expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    npt.assert_allclose(mesh.nodes, expected, atol=1e-15)
    npt.assert_allclose(mesh.weights, np.pi / 2.0)
    assert mesh.rings == 1
    assert mesh.size == 4


@pytest.mark.parametrize(
    "dimension,radius,resolution,measure",
    [
        (2, 1.0, 64, 2.0 * np.pi),
        (2, 0.5, 33, np.pi),
        (3, 1.0, 12, 4.0 * np.pi),
        (3, 2.0, 16, 16.0 * np.pi),
    ],
)
def test_weights_sum_to_surface_measure(dimension, radius, resolution, measure):
    mesh = surface.build_mesh(radius, dimension, resolution)
    assert abs(mesh.integrate(np.ones(mesh.size)) - measure) < 1e-10 * measure
    assert np.all(mesh.weights > 0.0)


@pytest.mark.parametrize("dimension,resolution", [(2, 40), (3, 10)])
def test_nodes_lie_on_the_shell(dimension, resolution):
    mesh = surface.build_mesh(1.7, dimension, resolution)
    npt.assert_allclose(np.linalg.norm(mesh.nodes, axis=1), 1.7, rtol=1e-14)
    npt.assert_allclose(np.linalg.norm(mesh.normals(), axis=1), 1.0, rtol=1e-14)


def test_circle_quadrature_exact_on_harmonics():
    # int s_x^2 over the unit circle is pi; trig monomials of degree < M
    # are integrated exactly by the uniform rule
    mesh = surface.build_mesh(1.0, 2, 32)
    assert abs(mesh.integrate(mesh.nodes[:, 0] ** 2) - np.pi) < 1e-13
    theta = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
    for m in (1, 2, 7, 15):
        assert abs(mesh.integrate(np.exp(1j * m * theta))) < 1e-12


def test_sphere_quadrature_exact_on_polynomials():
    mesh = surface.build_mesh(1.0, 3, 8)
    x, y, z = mesh.nodes.T
    # odd moments vanish, int z^2 = 4 pi / 3, int x^2 y^2 = 4 pi / 15
    assert abs(mesh.integrate(z)) < 1e-13
    assert abs(mesh.integrate(x * y * z)) < 1e-13
    assert abs(mesh.integrate(z**2) - 4.0 * np.pi / 3.0) < 1e-12
    assert abs(mesh.integrate(x**2 * y**2) - 4.0 * np.pi / 15.0) < 1e-12


def test_circle_quadrature_is_spectrally_accurate():
    # error for a smooth periodic integrand collapses once M doubles
    def f(nodes):
        return np.exp(np.sin(np.arctan2(nodes[:, 1], nodes[:, 0])))

    fine = surface.build_mesh(1.0, 2, 512)
    reference = fine.integrate(f(fine.nodes))
    errs = []
    for resolution in (8, 16):
        mesh = surface.build_mesh(1.0, 2, resolution)
        errs.append(abs(mesh.integrate(f(mesh.nodes)) - reference))
    assert errs[1] < 1e-6 * errs[0]


def test_sphere_quadrature_converges_fast():
    def f(nodes):
        return np.exp(nodes[:, 2]) * (1.0 + nodes[:, 0])

    fine = surface.build_mesh(1.0, 3, 48)
    reference = fine.integrate(f(fine.nodes))
    errs = []
    for resolution in (4, 6):
        mesh = surface.build_mesh(1.0, 3, resolution)
        errs.append(abs(mesh.integrate(f(mesh.nodes)) - reference))
    assert errs[1] < 1e-3 * errs[0]


def test_build_mesh_validation():
    with pytest.raises(ConfigurationError):
        surface.build_mesh(0.0, 2, 16)
    with pytest.raises(ConfigurationError):
        surface.build_mesh(-1.0, 3, 16)
    with pytest.raises(ConfigurationError):
        surface.build_mesh(1.0, 2, 3)
    with pytest.raises(ConfigurationError):
        surface.build_mesh(1.0, 5, 16)


def _turn_about_z(nodes, angle):
    turned = nodes.copy()
    turned[:, 0] = np.cos(angle) * nodes[:, 0] - np.sin(angle) * nodes[:, 1]
    turned[:, 1] = np.sin(angle) * nodes[:, 0] + np.cos(angle) * nodes[:, 1]
    return turned


@pytest.mark.parametrize("dimension, resolution", [(2, 16), (3, 6)])
def test_ring_layout_is_checked_on_construction(dimension, resolution):
    mesh = surface.build_mesh(1.5, dimension, resolution)
    n = mesh.size // mesh.rings
    assert dataclasses.replace(mesh, rings=0).rings == 0
    assert dataclasses.replace(mesh, rings=mesh.rings).rings == mesh.rings

    def with_layout(nodes=mesh.nodes, weights=mesh.weights, rings=mesh.rings):
        return surface.SurfaceMesh(dimension, mesh.radius, nodes, weights, rings=rings)

    # shuffled azimuths within every ring, node 0 of each ring left in place
    rng = np.random.default_rng(7)
    order = np.concatenate([r * n + np.concatenate([[0], 1 + rng.permutation(n - 1)])
                            for r in range(mesh.rings)])
    with pytest.raises(PreconditionError, match="uniform turns"):
        with_layout(nodes=mesh.nodes[order], weights=mesh.weights[order])
    # the whole mesh turned by a third of an azimuth step: a valid grid,
    # but node 0 is off azimuth 0, so the y mirror does not hold
    with pytest.raises(PreconditionError, match="azimuth 0"):
        with_layout(nodes=_turn_about_z(mesh.nodes, 2.0 * np.pi / (3 * n)))
    # a half turn puts node 0 at azimuth pi
    with pytest.raises(PreconditionError, match="azimuth 0"):
        with_layout(nodes=_turn_about_z(mesh.nodes, np.pi))
    weights = mesh.weights.copy()
    weights[1] *= 1.5
    with pytest.raises(PreconditionError, match="weights"):
        with_layout(weights=weights)
    with pytest.raises(PreconditionError, match="rings"):
        with_layout(rings=mesh.size + 1)
    with pytest.raises(PreconditionError, match="rings"):
        with_layout(rings=-1)


def test_ring_layout_check_resolves_build_mesh_roundoff():
    # the layout holds to 1e-12 R at every radius, not to roundoff of 1
    for radius in (1e-3, 1.0, 1e3):
        for dimension, resolution in ((2, 512), (3, 24)):
            mesh = surface.build_mesh(radius, dimension, resolution)
            nodes = mesh.nodes.copy()
            nodes[1, 1] += 1e-11 * radius
            with pytest.raises(PreconditionError):
                dataclasses.replace(mesh, nodes=nodes)


# -------------------------------------------------------------- tubular chart


def test_chart_map_offsets_along_normals():
    mesh = surface.build_mesh(2.0, 3, 8)
    chart = surface.tubular_chart(mesh, 0.25)
    assert chart.half_width == 0.5
    for t in (-0.4, 0.0, 0.3):
        moved = chart.map(mesh.nodes, np.full(mesh.size, t))
        npt.assert_allclose(np.linalg.norm(moved, axis=1), 2.0 + t, rtol=1e-14)
    # t = 0 is the identity
    npt.assert_allclose(chart.map(mesh.nodes, np.zeros(mesh.size)), mesh.nodes)


def test_chart_jacobian_values():
    circle = surface.tubular_chart(surface.build_mesh(1.0, 2, 16), 0.25)
    npt.assert_allclose(circle.jacobian(0.1), 1.1)
    npt.assert_allclose(circle.jacobian(0.0), 1.0)
    sphere = surface.tubular_chart(surface.build_mesh(2.0, 3, 8), 0.25)
    npt.assert_allclose(sphere.jacobian(0.2), 1.21)
    npt.assert_allclose(sphere.jacobian(np.array([-0.2, 0.2])), [0.81, 1.21])


def test_chart_jacobian_positive_inside_tube():
    mesh = surface.build_mesh(0.7, 3, 8)
    chart = surface.tubular_chart(mesh, 0.5)
    t = np.linspace(-chart.half_width, chart.half_width, 33)
    assert np.all(chart.jacobian(t) > 0.0)


def test_tubular_chart_fraction_validation():
    mesh = surface.build_mesh(1.0, 2, 16)
    for bad in (0.0, -0.1, 0.51, 1.0):
        with pytest.raises(ConfigurationError):
            surface.tubular_chart(mesh, bad)


def test_z_mirror_is_read_from_the_nodes():
    for resolution in (8, 9):
        assert surface.build_mesh(2.0, 3, resolution).z_mirrored
    assert not surface.build_mesh(1.0, 2, 16).z_mirrored  # no z axis
    sphere = surface.build_mesh(1.0, 3, 8)
    assert not dataclasses.replace(sphere, rings=0).z_mirrored
    # swapping two rings keeps a valid layout but breaks ring r <-> rings-1-r
    order = [1, 0] + list(range(2, 8))
    swapped = surface.SurfaceMesh(
        3, 1.0, sphere.nodes.reshape(8, -1, 3)[order].reshape(-1, 3),
        sphere.weights.reshape(8, -1)[order].ravel(), rings=8)
    assert not swapped.z_mirrored
