"""Variational certificates from shell-concentrated trial functions.

The trial functions are products of a transverse bump squeezed into an
epsilon-tube around the shell with surface eigenfunctions of the shell
operator. The quadratic form of H - m on the span of N such functions
is an N x N Hermitian matrix h(eps); if it is negative definite for some
eps, H has at least N eigenvalues below m. As eps -> 0,

    h(eps) -> diag(E_1, ..., E_N)

with the shell-operator eigenvalues E_j, at a linear-in-eps rate: the
kinetic term is O(eps) and the kernel smearing is O(eps) as well, so the
convergence table reported by :func:`certify` should contract by about
one half per halving of eps. The form is ``_kinetic + _potential``, each
evaluated for all column pairs of the trial span at once; :func:`certify`
is the one caller, and its ``states`` argument takes the surface
spectrum in place of the assembled shell operator's.

The potential part of h(eps) pairs every tube point with every other.
For a radial potential on a mesh with a ring layout
(``SurfaceMesh.rings``, recorded by ``build_mesh``) that kernel is
block-circulant in the azimuth index and unchanged by the mirror
p -> -p (the contract that the sector assembly of
:func:`shellbound.surface_operator.assemble` checks on the mesh column,
raising ``ConsistencyError`` where it fails), so each eps costs one
kernel slice of
(rings * (n/2 + 1) * T) x (rings * T) entries (azimuths 0..n/2 of the n
per ring), a real GEMM of the (n/2 + 1)^2 cosine table with that slice,
and an FFT of the trial columns over azimuth, instead of the dense
(M * T)^2 matrix; M is the mesh size and T the transverse order. On a
z-mirrored mesh (``SurfaceMesh.z_mirrored``, the built sphere) the
slice is evaluated for the first ceil(rings/2) rings only and the rest
filled by the mirror. Trial columns take the real FFT, complex ones as
their interleaved real and imaginary parts; the cosine table is built
once per :func:`certify`. The result agrees with the dense product to
roundoff. Non-radial potentials and meshes without a layout keep the
dense product. The symbol carries its band structure: its
``evaluate`` is the kinetic energy and its ``frame`` the band frame,
None for a scalar symbol. The lower-band frame of a
:class:`shellbound.spin_orbit.MatrixSymbol` reaches the shell-operator
assembly and multiplies the tube kernel by the rank-2 band overlap,
which splits into two scalar forms of this route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, PreconditionError
from .potentials import Potential, require_band
from .surface import SurfaceMesh, TubularChart, tubular_chart
from .surface_operator import assemble, count_negative

__all__ = [
    "TransverseProfile",
    "Certificate",
    "certify",
]

DEFAULT_SCHEDULE = (0.2, 0.1, 0.05, 0.025)


@dataclass(frozen=True)
class TransverseProfile:
    """Smooth compactly supported bump on (-1, 1) with unit integral.

    The normalization is defined through the stored Gauss-Legendre rule,
    so integrating the profile with its own quadrature gives exactly 1
    and the certificate's small-eps limit is free of quadrature bias.

    Attributes
    ----------
    order : int
        Number of Gauss-Legendre nodes.
    nodes, weights : ndarray, shape (order,)
        The quadrature rule on (-1, 1).
    values : ndarray, shape (order,)
        Normalized bump values at the nodes.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    normalizer: float

    @classmethod
    def build(cls, order: int = 12) -> "TransverseProfile":
        if order < 4:
            raise PreconditionError("transverse quadrature order must be at least 4")
        nodes, weights = np.polynomial.legendre.leggauss(int(order))
        raw = np.exp(-1.0 / (1.0 - nodes**2))
        normalizer = 1.0 / float(weights @ raw)
        return cls(
            order=int(order),
            nodes=nodes,
            weights=weights,
            values=normalizer * raw,
            normalizer=normalizer,
        )

    def bump(self, t):
        """Normalized bump at arbitrary points; zero outside (-1, 1)."""
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        out[inside] = self.normalizer * np.exp(-1.0 / (1.0 - t[inside] ** 2))
        return out


@dataclass(frozen=True)
class Certificate:
    """Outcome of a negative-definiteness search along an eps schedule.

    ``certified_count`` equals the requested state count when some
    scheduled eps makes h(eps) negative definite, and 0 otherwise; a
    failed search is a reported result, not an exception.
    ``top_eigenvalues`` holds the largest eigenvalue of each h(eps)
    (``-inf`` for the empty form); h(eps) is negative definite exactly
    when it is below zero.
    """

    requested: int
    eps_schedule: tuple
    matrices: tuple
    limit_values: np.ndarray
    max_errors: tuple
    top_eigenvalues: tuple
    certified_eps: float | None
    certified_count: int

    @property
    def certified(self) -> bool:
        return self.certified_count == self.requested


def _tube(chart: TubularChart, profile: TransverseProfile, eps: float):
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise PreconditionError("eps must be a fraction of the chart half-width in (0, 1]")
    eps_abs = eps * chart.half_width
    offsets = eps_abs * profile.nodes
    cloud = chart.map(chart.mesh.nodes[:, None, :], offsets[None, :])
    rho = chart.jacobian(offsets)
    return eps_abs, cloud, rho


def _kinetic(energy_fn, minimum, mesh: SurfaceMesh, psi, profile: TransverseProfile, tube):
    """h_kin for all column pairs of ``psi`` at once, on one precomputed tube."""
    eps_abs, cloud, rho = tube
    shifted = energy_fn(cloud) - minimum
    node_factor = (shifted @ (profile.weights * profile.values**2 * rho)) * mesh.weights / eps_abs
    return (psi.conj().T * node_factor) @ psi


def _cloud_weights(mesh: SurfaceMesh, profile: TransverseProfile, rho):
    return (mesh.weights[:, None] * (profile.weights * profile.values * rho)[None, :]).ravel()


class _Circulant(NamedTuple):
    """The eps-independent part of the block-circulant route on one mesh."""

    cosines: np.ndarray  # multiplicity[p] cos(2 pi k p / n), k, p = 0..n/2
    multiplicity: np.ndarray  # 1 at p = 0 and p = n/2, else 2
    mirrored: bool  # SurfaceMesh.z_mirrored


def _circulant(potential, mesh: SurfaceMesh) -> _Circulant | None:
    """What the block-circulant route keeps across eps, or None where it does not apply.

    The route needs a radial potential and a ring layout. Its cosine
    table depends only on the azimuth count and the z mirror only on the
    nodes, so :func:`certify` finds both once for all of its eps.
    """
    if not (potential.is_radial and mesh.rings):
        return None
    n_phi = mesh.size // mesh.rings
    k = np.arange(n_phi // 2 + 1)
    # azimuths p and n - p share a block: weight 2, except p = 0 and p = n/2
    multiplicity = np.where((k == 0) | (2 * k == n_phi), 1.0, 2.0)
    cosines = np.cos(2.0 * np.pi * np.arange(n_phi) / n_phi)[np.outer(k, k) % n_phi]
    return _Circulant(cosines * multiplicity, multiplicity, mesh.z_mirrored)


def _potential(potential, mesh: SurfaceMesh, psi, profile: TransverseProfile, tube,
               frame=None, circulant=None):
    """h_pot for all column pairs of ``psi`` at once, on one precomputed tube.

    With ``circulant`` (from :func:`_circulant`) the form takes the
    block-circulant route; without it, one dense kernel matrix over the
    whole tube cloud. A band ``frame`` (points -> (count, bands)) turns
    the kernel into ``K(x, y) sum_c conj(u_c(x)) u_c(y)``, whose form is
    ``sum_c (u_c X)^H K (u_c X)``: the columns u_c X are stacked before
    the route choice and the diagonal blocks of the result are summed,
    so both routes serve it with the plain scalar kernel K.
    """
    _, cloud, rho = tube
    points = cloud.reshape(-1, mesh.dimension)
    columns = _cloud_weights(mesh, profile, rho)[:, None] * np.repeat(psi, profile.order, axis=0)
    bands = 1
    if frame is not None:
        u = np.asarray(frame(points))
        bands = u.shape[1]
        columns = (u[:, :, None] * columns[:, None, :]).reshape(len(points), bands * psi.shape[1])
    if circulant is not None:
        form = _block_circulant_form(potential, cloud, columns, mesh.rings, circulant)
    else:
        form = columns.conj().T @ np.asarray(potential.kernel_matrix(points)) @ columns
    if bands == 1:
        return form
    count = psi.shape[1]
    return np.einsum("cjck->jk", form.reshape(bands, count, bands, count))


def _block_circulant_form(potential, cloud, columns, rings, circulant: _Circulant):
    """``columns^H K columns`` for the radial tube kernel K, one azimuthal frequency at a time.

    Cloud point (ring r, azimuth p, transverse node a) is point (r, 0, a)
    turned by p azimuth steps, so a radial kernel between (r, p, a) and
    (r', p', b) equals the one between (r, p - p' mod n, a) and
    (r', 0, b): K is block-circulant, ``K[p, p'] = C[p - p']``, and its
    slice against the azimuth-0 points holds all of it. Point (r, -p, a)
    mirrors (r, p, a), so ``C[-p] = C[p]`` and the slice is evaluated
    only for azimuths 0..n/2. On a z-mirrored mesh ring rings-1-r is
    ring r reflected in z, and so is its tube; the rows of that ring are
    those of ring r against the column rings in reverse order, so the
    slice is evaluated only for the first ceil(rings/2) rings. That
    leaves (ceil(rings/2) * (n/2 + 1) * T) x (rings * T) entries, or
    (rings * (n/2 + 1) * T) x (rings * T) without the mirror.

    The cosine transform ``B_k = sum_p C[p] cos(2 pi k p / n)`` gives the
    frequency blocks for k = 0..n/2, with ``B_{n-k} = B_k``; by Parseval
    the form is the mean over frequencies of ``X_k^H B_k X_k``, where X_k
    is the FFT of the columns over azimuth. Real columns have
    ``X_{n-k} = conj(X_k)``, so the real FFT's k = 0..n/2 suffice and the
    form is the mean of ``multiplicity_k Re(X_k^H B_k X_k)``. Complex
    columns R + iI (the spin frame's) enter as the interleaved real view
    [R_0, I_0, R_1, ...], whose form recombines as
    ``R^T K R + I^T K I + i (R^T K I - I^T K R)``. A complex kernel slice
    raises ``ConsistencyError``: a real radial V has a real transform.
    """
    if np.iscomplexobj(columns):
        form = _block_circulant_form(potential, cloud, columns.view(np.float64), rings, circulant)
        return form[::2, ::2] + form[1::2, 1::2] + 1j * (form[::2, 1::2] - form[1::2, ::2])
    nodes, order, dimension = cloud.shape
    n_phi = nodes // rings
    half = n_phi // 2 + 1
    width = rings * order
    count = columns.shape[1]
    points = cloud.reshape(rings, n_phi, order, dimension)
    evaluated = (rings + 1) // 2 if circulant.mirrored else rings
    kernel = np.asarray(potential.kernel_matrix(
        points[:evaluated, :half].reshape(-1, dimension), points[:, 0].reshape(width, dimension)
    )).reshape(evaluated, half, order, rings, order)
    if np.iscomplexobj(kernel):
        raise ConsistencyError("radial tube kernel slice is complex; a real V has a real transform")
    blocks = np.empty((half, rings, order, rings, order))
    blocks[:, :evaluated] = kernel.swapaxes(0, 1)
    if evaluated < rings:  # ring r from ring rings-1-r, column rings reversed
        blocks[:, evaluated:] = kernel[rings - 1 - evaluated::-1, :, :, ::-1].swapaxes(0, 1)
    blocks_hat = (circulant.cosines @ blocks.reshape(half, width * width)).reshape(half, width, width)
    stacked = columns.reshape(rings, n_phi, order, count).swapaxes(0, 1).reshape(n_phi, width, count)
    stacked_hat = np.fft.rfft(stacked, axis=0)
    # a real GEMM on the interleaved real and imaginary parts
    applied = (blocks_hat @ stacked_hat.view(np.float64)).view(np.complex128)
    applied *= circulant.multiplicity[:, None, None]
    rows = half * width
    form = stacked_hat.reshape(rows, count).conj().T @ applied.reshape(rows, count) / n_phi
    return form.real


def certify(symbol, potential: Potential, mesh: SurfaceMesh,
            n_states: int, eps_schedule=DEFAULT_SCHEDULE, *,
            half_width_fraction: float = 0.25, transverse_order: int = 12,
            states=None) -> Certificate:
    """Search the eps schedule for a negative-definite trial form.

    Parameters
    ----------
    symbol, potential, mesh
        Problem data; the shell operator is assembled on ``mesh`` unless
        ``states`` is supplied. The symbol gives the kinetic energy
        (``evaluate``), its minimum m (``find_minimum``) and its band
        ``frame``: None for a scalar symbol; for a
        :class:`shellbound.spin_orbit.MatrixSymbol` the lower-band
        frame, which multiplies the kernel by the band overlap
        ``sum_c conj(u_c(x)) u_c(y)`` in the shell-operator assembly and
        in the tube forms alike.
    n_states : int
        Number of eigenvalues of H below m to certify. Must not exceed
        the count of negative shell-operator eigenvalues (checked unless
        ``states`` overrides them).
    eps_schedule : iterable of float
        Fractions of the chart half-width, default (0.2, 0.1, 0.05, 0.025).
    states : (values, vectors), optional
        Caller-supplied surface spectrum and eigenfunction samples, in
        place of the assembled shell operator's. Skips the count
        precondition.

    Returns
    -------
    Certificate
        With the h(eps) sequence, the limit diagonal, the max-norm
        convergence table, and the certification outcome. A schedule
        with no negative-definite member yields ``certified_count = 0``
        rather than an exception.
    """
    n_states = int(n_states)
    if n_states < 0:
        raise PreconditionError("n_states must be nonnegative")
    schedule = tuple(float(e) for e in eps_schedule)
    if not schedule:
        raise PreconditionError("eps schedule must not be empty")
    chart = tubular_chart(mesh, half_width_fraction)
    profile = TransverseProfile.build(transverse_order)

    if states is None:
        operator = assemble(mesh, potential, symbol.frame)
        available = count_negative(operator)
        if n_states > available:
            raise PreconditionError(
                f"requested {n_states} states but the shell operator has only "
                f"{available} negative eigenvalues at this resolution"
            )
        limit_values = operator.eigenvalues[:n_states].copy()
        psi = operator.eigenfunctions[:, :n_states]
    else:
        values, vectors = states
        values = np.asarray(values)
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[0] != mesh.size:
            raise PreconditionError("state vectors must be columns sampled on the mesh")
        if n_states > values.size or n_states > vectors.shape[1]:
            raise PreconditionError("fewer supplied states than n_states")
        limit_values = values[:n_states].copy()
        psi = vectors[:, :n_states]

    minimum = symbol.find_minimum()[0]
    require_band(potential, 2.0 * (mesh.radius + chart.half_width))
    circulant = _circulant(potential, mesh)

    matrices = []
    max_errors = []
    top_eigenvalues = []
    certified_eps = None
    for eps in schedule:
        tube = _tube(chart, profile, eps)
        h = (_kinetic(symbol.evaluate, minimum, mesh, psi, profile, tube)
             + _potential(potential, mesh, psi, profile, tube, symbol.frame, circulant))
        deviation = np.abs(h - h.conj().T).max() if h.size else 0.0
        if h.size and deviation > 1e-10 * max(1.0, np.abs(h).max()):
            raise ConsistencyError(f"trial form deviates from Hermitian by {deviation:.3e}")
        h = 0.5 * (h + h.conj().T)
        matrices.append(h)
        max_errors.append(
            float(np.abs(h - np.diag(limit_values)).max()) if h.size else 0.0
        )
        top = float(np.linalg.eigvalsh(h)[-1]) if h.size else -np.inf
        top_eigenvalues.append(top)
        if top < 0.0 and (certified_eps is None or eps > certified_eps):
            certified_eps = eps

    return Certificate(
        requested=n_states,
        eps_schedule=schedule,
        matrices=tuple(matrices),
        limit_values=limit_values,
        max_errors=tuple(max_errors),
        top_eigenvalues=tuple(top_eigenvalues),
        certified_eps=certified_eps,
        certified_count=n_states if certified_eps is not None else 0,
    )
