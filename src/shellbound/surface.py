"""Quadrature meshes on extremum shells and tubular coordinates around them.

Only origin-centered circles (n=2) and spheres (n=3) are supported; the
normal field is then ``n(s) = s/|s|`` and the tubular volume Jacobian
``rho(s, t) = ((R + t)/R)^(n-1)`` is independent of the surface point.
The Gauss-Legendre rule of the sphere's polar nodes, of the transverse
profile and of the sphere's channel projection is :func:`gauss_legendre`,
in numpy alone, with the Legendre values of :func:`legendre_table`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PreconditionError

__all__ = ["SurfaceMesh", "TubularChart", "build_mesh", "gauss_legendre", "legendre_table",
           "tubular_chart"]

# the tube half-width of a certificate, as a fraction of the shell radius
DEFAULT_HALF_WIDTH_FRACTION = 0.25


def legendre_table(x, degree: int) -> np.ndarray:
    """P_l(x) for l = 0..degree by the three-term recurrence; shape ``x.shape + (degree + 1,)``."""
    x = np.asarray(x, dtype=np.float64)
    table = [np.ones_like(x), x]
    for l in range(2, degree + 1):
        table.append((table[l - 1] * x * (2 * l - 1) - table[l - 2] * (l - 1)) / l)
    return np.stack(table[:degree + 1], axis=-1)


def gauss_legendre(order: int):
    """(nodes, weights), ascending, of the ``order``-point Gauss-Legendre rule on (-1, 1).

    Golub and Welsch (1969): the nodes are the eigenvalues of the Jacobi
    matrix of the Legendre recurrence, polished by one Newton step on
    P_n (n = ``order``), with P_n' = n g / (1 - x^2) and
    g = P_{n-1} - x P_n. The weights are 2 (1 - x^2) / (n g)^2; g is
    stationary at the roots, so a node's rounding hardly moves its
    weight. Both are symmetrized about 0, and the weights are scaled to
    sum to 2. The rule integrates polynomials of degree below 2 n.
    """
    scale = 1.0 / np.sqrt(2.0 * np.arange(order) + 1.0)
    nodes = np.linalg.eigvalsh(np.diag(np.arange(1, order) * scale[:-1] * scale[1:], -1))
    table = legendre_table(nodes, order)
    nodes -= (1.0 - nodes**2) * table[:, -1] / (order * (table[:, -2] - nodes * table[:, -1]))
    table = legendre_table(nodes, order)
    weights = 2.0 * (1.0 - nodes**2) / (order * (table[:, -2] - nodes * table[:, -1])) ** 2
    return 0.5 * (nodes - nodes[::-1]), (weights + weights[::-1]) / weights.sum()


@dataclass(frozen=True)
class SurfaceMesh:
    """Quadrature nodes and weights on the shell |s| = R.

    Attributes
    ----------
    dimension : int
        Ambient dimension (2 for a circle, 3 for a sphere).
    radius : float
        Shell radius R.
    nodes : ndarray, shape (M, dimension)
        Points on the shell.
    weights : ndarray, shape (M,)
        Positive quadrature weights; they sum to the surface measure
        (2 pi R or 4 pi R^2).
    rings : int
        Ring x uniform-azimuth layout, 0 (the default) when none is
        recorded. A positive value says the nodes are stored ring by
        ring, ``rings`` rings of ``n = M / rings`` nodes; node 0 of each
        ring sits at azimuth 0 (on the x axis in 2-D, in the half plane
        y = 0, x >= 0 in 3-D), and node ``p`` of a ring is node 0 of
        that ring turned by ``2 pi p / n`` about the origin (2-D) or the
        z axis (3-D), with the same weight. Node ``(r, -p)`` is then the
        mirror image of node ``(r, p)`` in y. With a radial potential
        the layout selects the angular-channel route of
        :func:`shellbound.surface_operator.assemble`, the spin gauge check
        and :func:`shellbound.rayleigh_ritz.certify` (for scalar and
        band-projected kernels alike), which reads from the layout only
        the azimuth count ``n``: it works in the angular channels of the
        continuum shell, the n Fourier modes of the circle and, on the
        sphere, the spherical harmonics of degree below n from a
        2 n-node Gauss-Legendre rule. ``build_mesh``
        records 1 ring of M nodes for the circle and ``resolution`` rings
        of ``2 * resolution`` nodes for the sphere. The layout is checked
        on construction in O(M) (nodes on the shell and at their turns to
        1e-12 R, weights to 1e-12 relative); a mesh that does not have it
        raises ``PreconditionError``.
    """

    dimension: int
    radius: float
    nodes: np.ndarray
    weights: np.ndarray
    rings: int = 0

    def __post_init__(self):
        rings = self.rings
        if rings == 0:
            return
        size = self.nodes.shape[0]
        if rings < 0 or size == 0 or size % rings:
            raise PreconditionError(f"{size} nodes do not split into {rings} rings")
        n = size // rings
        weights = np.asarray(self.weights).reshape(rings, n)
        if np.abs(weights - weights[:, :1]).max() > 1e-12 * np.abs(weights).max():
            raise PreconditionError("weights differ within a ring")
        nodes = np.asarray(self.nodes, dtype=np.float64).reshape(rings, n, self.dimension)
        first = nodes[:, 0]
        tolerance = 1e-12 * self.radius
        if np.abs(first[:, 1]).max() > tolerance or first[:, 0].min() < -tolerance:
            raise PreconditionError("node 0 of a ring is not at azimuth 0")
        if np.abs(np.linalg.norm(first, axis=1) - self.radius).max() > tolerance:
            raise PreconditionError(f"node 0 of a ring is off the shell |s| = {self.radius}")
        # node p = node 0 turned by 2 pi p / n; node 0 has y = 0
        angles = 2.0 * np.pi * np.arange(n) / n
        turned = np.repeat(first[:, None], n, axis=1)
        turned[..., 0] = first[:, None, 0] * np.cos(angles)
        turned[..., 1] = first[:, None, 0] * np.sin(angles)
        if np.abs(nodes - turned).max() > tolerance:
            raise PreconditionError("ring nodes are not uniform turns of their node 0")

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values) -> complex:
        """Quadrature sum of node samples against the surface measure."""
        return np.asarray(values) @ self.weights


def build_mesh(surface_radius, dimension: int, resolution: int) -> SurfaceMesh:
    """Build a quadrature mesh on the shell of the given radius.

    Parameters
    ----------
    surface_radius : float
        Shell radius R > 0.
    dimension : int
        2 builds ``resolution`` equally spaced angles with equal weights
        (spectrally accurate for smooth integrands); 3 builds a product
        rule with ``resolution`` Gauss-Legendre polar nodes and
        ``2 * resolution`` uniform azimuth nodes.
    resolution : int
        Must be at least 4.
    """
    radius = float(surface_radius)
    if not np.isfinite(radius) or radius <= 0.0:
        raise ConfigurationError("surface_radius must be positive")
    resolution = int(resolution)
    if resolution < 4:
        raise ConfigurationError("resolution must be at least 4")
    if dimension == 2:
        angles = 2.0 * np.pi * np.arange(resolution) / resolution
        nodes = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        weights = np.full(resolution, 2.0 * np.pi * radius / resolution)
        return SurfaceMesh(2, radius, nodes, weights, rings=1)
    if dimension == 3:
        # int_S f domega = R^2 int_{-1}^{1} dc int_0^{2pi} dphi f(theta(c), phi)
        cos_nodes, cos_weights = gauss_legendre(resolution)
        n_phi = 2 * resolution
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        sin_theta = np.sqrt(1.0 - cos_nodes**2)
        x = np.outer(sin_theta, np.cos(phi)).ravel()
        y = np.outer(sin_theta, np.sin(phi)).ravel()
        z = np.repeat(cos_nodes, n_phi)
        nodes = radius * np.stack([x, y, z], axis=1)
        weights = radius**2 * (2.0 * np.pi / n_phi) * np.repeat(cos_weights, n_phi)
        return SurfaceMesh(3, radius, nodes, weights, rings=resolution)
    raise ConfigurationError("dimension must be 2 or 3")


@dataclass(frozen=True)
class TubularChart:
    """Tubular coordinates L(s, t) = s + t n(s) on S x (-r, r).

    The half-width r stays strictly inside the shell radius so the map
    remains a diffeomorphism onto its image.
    """

    mesh: SurfaceMesh
    half_width: float

    def map(self, nodes, t):
        """Offset surface points along their normals.

        Parameters
        ----------
        nodes : ndarray, shape (..., dimension)
            Points on the shell.
        t : float or broadcastable array
            Signed normal offsets, |t| < half_width.
        """
        nodes = np.asarray(nodes, dtype=np.float64)
        normals = nodes / np.linalg.norm(nodes, axis=-1, keepdims=True)
        return nodes + np.asarray(t)[..., None] * normals

    def jacobian(self, t):
        """Volume Jacobian rho(t) = ((R + t)/R)^(n-1); rho(0) = 1.

        Independent of the surface point for origin-centered shells.
        """
        ratio = (self.mesh.radius + np.asarray(t, dtype=np.float64)) / self.mesh.radius
        return ratio ** (self.mesh.dimension - 1)


def tubular_chart(mesh: SurfaceMesh,
                  half_width_fraction: float = DEFAULT_HALF_WIDTH_FRACTION) -> TubularChart:
    """Chart of half-width ``half_width_fraction * R`` around the mesh shell.

    Fractions above 0.5 are rejected to keep a safety margin inside the
    diffeomorphism region. The Jacobian ``rho(t)`` and the tube radii
    ``R + t`` hold for nodes on the shell alone, so a node more than
    1e-12 R off |s| = R raises ``PreconditionError``.
    """
    fraction = float(half_width_fraction)
    if not 0.0 < fraction <= 0.5:
        raise ConfigurationError("half_width_fraction must lie in (0, 0.5]")
    off = np.abs(np.linalg.norm(mesh.nodes, axis=-1) - mesh.radius).max(initial=0.0)
    if off > 1e-12 * mesh.radius:
        raise PreconditionError(
            f"mesh nodes lie up to {off:.3e} off the shell |s| = {mesh.radius}"
        )
    return TubularChart(mesh=mesh, half_width=fraction * mesh.radius)
