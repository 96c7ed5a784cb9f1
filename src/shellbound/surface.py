"""Quadrature meshes on extremum shells and tubular coordinates around them.

Only origin-centered circles (n=2) and spheres (n=3) are supported; the
normal field is then ``n(s) = s/|s|`` and the tubular volume Jacobian
``rho(s, t) = ((R + t)/R)^(n-1)`` is independent of the surface point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PreconditionError

__all__ = ["SurfaceMesh", "TubularChart", "build_mesh", "tubular_chart"]


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
        mirror image of node ``(r, p)`` in y. Radial kernels on such a
        mesh are block-circulant in the azimuth index and unchanged by
        the mirror, which :func:`shellbound.surface_operator.assemble`
        (for scalar and band-projected kernels alike) and
        :func:`shellbound.rayleigh_ritz.certify` use to work one
        azimuthal frequency at a time. ``build_mesh`` records 1 ring of
        M nodes for the circle and ``resolution`` rings of
        ``2 * resolution`` nodes for the sphere. A 2-D mesh with one
        ring is a circle of M equally spaced angles with equal weights,
        the mesh that :func:`shellbound.surface_operator.circulant_oracle`
        requires. The layout is checked
        on construction in O(M) (nodes to 1e-12 R, weights to 1e-12
        relative); a mesh that does not have it raises
        ``PreconditionError``.
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

    @property
    def z_mirrored(self) -> bool:
        """Whether ring ``r`` is ring ``rings - 1 - r`` reflected in z, node by node.

        Read from the nodes in O(M), to the 1e-12 R of the layout check;
        False without a ring layout or without a z axis. The sphere of
        ``build_mesh`` has it, since its Gauss-Legendre polar nodes are
        symmetric about the equator; the block-circulant tube forms of
        :func:`shellbound.rayleigh_ritz.certify` then evaluate their
        kernel slice for half of the rings.
        """
        if not self.rings or self.nodes.shape[1] < 3:
            return False
        nodes = np.asarray(self.nodes, dtype=np.float64).reshape(self.rings, -1, self.nodes.shape[1])
        reflected = nodes[::-1].copy()
        reflected[..., 2] *= -1.0
        return bool(np.abs(nodes - reflected).max() <= 1e-12 * self.radius)

    def normals(self) -> np.ndarray:
        """Outward unit normals n(s) = s/|s| at the nodes."""
        return self.nodes / np.linalg.norm(self.nodes, axis=1, keepdims=True)

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
        cos_nodes, cos_weights = np.polynomial.legendre.leggauss(resolution)
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


def tubular_chart(mesh: SurfaceMesh, half_width_fraction: float = 0.25) -> TubularChart:
    """Chart of half-width ``half_width_fraction * R`` around the mesh shell.

    Fractions above 0.5 are rejected to keep a safety margin inside the
    diffeomorphism region.
    """
    fraction = float(half_width_fraction)
    if not 0.0 < fraction <= 0.5:
        raise ConfigurationError("half_width_fraction must lie in (0, 0.5]")
    return TubularChart(mesh=mesh, half_width=fraction * mesh.radius)
