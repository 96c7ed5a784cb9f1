"""Variational certificates from shell-concentrated trial functions.

The trial functions are products of a transverse bump squeezed into an
epsilon-tube around the shell with surface eigenfunctions of the shell
operator. The quadratic form of H - m on the span of N such functions,
times (2 pi)^(n/2) in n dimensions (the scale of the transform vhat that
the shell operator keeps), is an N x N Hermitian matrix h(eps); if it
is negative definite for some eps, H has at least N eigenvalues below
m. As eps -> 0,

    h(eps) -> diag(E_1, ..., E_N)

with the shell-operator eigenvalues E_j, at a linear-in-eps rate: the
kinetic term is O(eps) and the kernel smearing is O(eps) as well, so the
convergence table reported by :func:`certify` should contract by about
one half per halving of eps.

The trial span is the shell operator's own lowest eigenfunctions, as
:func:`shellbound.surface_operator.assemble` returns them: orthonormal
in the mesh weights on the dense route, unit angular modes on the
channel route. The symbol is radial and the shell centred at the
origin, so a tube function's kinetic form depends on its transverse
offset alone: it is K(eps) times the span's surface Gram matrix
``psi^H diag(w) psi``, which is the identity. :func:`_kinetic_integral`
gives K(eps) from H0 - m at the T tube radii, and every eps step of
:func:`certify` is the same on both routes: h(eps) is the span's
potential form plus K(eps) I, checked to be Hermitian and hermitized.
The potential form is the channel diagonal on the channel route and
:func:`_potential`, all column pairs of the span at once, on the dense
route.

:func:`certify` reads its route from
:func:`shellbound.surface_operator.assemble`, which decides it: for a
radial potential on a mesh with a ring layout (``SurfaceMesh.rings``,
recorded by ``build_mesh``), the assembled spectrum carries the channel
of each value (``SurfaceOperatorMatrix.channels``) and :func:`certify`
works in angular channels instead. A radial H0 and a radial V commute
with rotations, so the shell operator and every tube form split into
channels: the Fourier modes m in 2-D and, by the Funk-Hecke theorem,
the spherical harmonics of degree l in 3-D, each 2 l + 1 times. In
channel c the tube kernel is a T x T matrix kappa_c over the T tube
radii, and the form reads only x^T kappa_c x on the tube weights x. ``surface_operator._channel_kernel`` gives that value
for every channel from one kernel slice of T x (T n) entries (n the
mesh's azimuth count), contracted on x to one row of n values and
transformed by one FFT over the azimuth, which lists every channel
m = 0..n-1 once (2-D), or of T x (2 T n) entries, contracted and
projected on the Legendre polynomials at 2 n Gauss-Legendre nodes
(3-D), in numpy alone; no (c, T, T) stack is formed. The slice is all
that an eps step adds: the angular rule, the Gauss-Legendre projection
included, and the transverse rule of :class:`TransverseProfile` are
built once and reused by every step and every later certificate. The
shell eigenvalues are that kernel at the shell radius, the same list
that ``surface_operator.assemble`` returns on this route, and h(eps) is
diagonal, K(eps) plus the value of each state's channel: no square
kernel and no eigenfunction matrix is formed. A real radial V has a
real kernel whose channels are Hermitian in the radii, tested on the slice itself, and, in 3-D,
unchanged by the mirror probe off the meridian, made once with the
shell values; a kernel that is not raises ``ConsistencyError``.
Non-radial potentials and meshes without a layout take the dense
route: the assembled eigenfunctions and one kernel matrix over the
whole tube cloud, (M * T)^2 entries for a mesh of M nodes.

The symbol carries its band structure: its ``evaluate`` is the kinetic
energy and its ``frame`` the band frame, None for a scalar symbol. The
lower-band frame of a :class:`shellbound.spin_orbit.MatrixSymbol`
multiplies the kernel by the band overlap on either route; on the
channel route it does so before the FFT, so scalar and spin problems
share it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from . import surface
from .potentials import Potential, require_band
from .surface import SurfaceMesh, TubularChart, tubular_chart
from .surface_operator import _band_matrix, _channel_kernel, _hermitize, assemble, count_negative

__all__ = [
    "TransverseProfile",
    "Certificate",
    "certify",
]

DEFAULT_SCHEDULE = (0.2, 0.1, 0.05, 0.025)
DEFAULT_TRANSVERSE_ORDER = 12


def _raw_profile(t):
    """The transverse profile exp(-1 / (1 - t^2)) before normalization, for |t| < 1."""
    return np.exp(-1.0 / (1.0 - t**2))


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
    @functools.lru_cache(maxsize=16)
    def build(cls, order: int = DEFAULT_TRANSVERSE_ORDER) -> "TransverseProfile":
        """The profile on ``order`` nodes, read-only; the 16 latest orders are kept."""
        if order < 4:
            raise PreconditionError("transverse quadrature order must be at least 4")
        nodes, weights = surface.gauss_legendre(int(order))
        raw = _raw_profile(nodes)
        normalizer = 1.0 / float(weights @ raw)
        values = normalizer * raw
        for array in (nodes, weights, values):
            array.flags.writeable = False
        return cls(order=int(order), nodes=nodes, weights=weights, values=values,
                   normalizer=normalizer)

    def bump(self, t):
        """Normalized bump at arbitrary points; zero outside (-1, 1)."""
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        out[inside] = self.normalizer * _raw_profile(t[inside])
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
    """(eps_abs, radii, rho, x): the tube's half-width, its T radii R + eps_abs t_a and Jacobian.

    x_a = w_a b_a rho_a is the tube weight of radius a, the transverse
    rule times the profile and the Jacobian: the contraction vector of the
    channel route and the per-node column weight of the dense route.
    """
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise PreconditionError("eps must be a fraction of the chart half-width in (0, 1]")
    eps_abs = eps * chart.half_width
    offsets = eps_abs * profile.nodes
    rho = chart.jacobian(offsets)
    return eps_abs, chart.mesh.radius + offsets, rho, profile.weights * profile.values * rho


def _kinetic_integral(symbol, minimum, profile: TransverseProfile, tube, dimension: int):
    """K(eps) = ``(2 pi)^(n/2) sum_a (H0(r_a) - m) w_a b_a^2 rho_a / eps_abs``.

    h_kin's tube integral in n dimensions, from H0 - m at the T tube
    radii r_a. The symbol is radial and the shell centred at the origin,
    so every node's tube points sit at these radii, and h_kin is K times
    the surface Gram matrix ``psi^H diag(w) psi`` of the trial span: the
    identity for the orthonormal modes that ``certify`` takes. The
    potential form pairs the trial function with vhat, which is
    (2 pi)^(n/2) times the kernel by which V acts in momentum space; the
    factor puts the kinetic form on the same scale, so h(eps) is
    (2 pi)^(n/2) times the form of H - m.
    """
    eps_abs, radii, rho, _ = tube
    points = np.zeros((radii.size, dimension))
    points[:, 0] = radii
    weights = (2.0 * np.pi) ** (dimension / 2.0) * profile.weights * profile.values**2 * rho
    return ((symbol.evaluate(points) - minimum) @ weights) / eps_abs


def _potential(potential, chart: TubularChart, psi, profile: TransverseProfile, tube,
               frame=None):
    """h_pot for all column pairs of ``psi`` at once, from one dense kernel over the tube cloud.

    The cloud maps every mesh node to its T tube points through the
    chart. A band ``frame`` (points -> (count, bands)) multiplies the
    kernel by the overlap ``sum_c conj(u_c(x)) u_c(y)``.
    """
    eps_abs, _, _, x = tube
    mesh = chart.mesh
    cloud = chart.map(mesh.nodes[:, None, :], (eps_abs * profile.nodes)[None, :])
    points = cloud.reshape(-1, mesh.dimension)
    columns = (mesh.weights[:, None] * x).reshape(-1, 1) * np.repeat(psi, profile.order, axis=0)
    kernel = np.asarray(potential.kernel_matrix(points))
    if frame is not None:
        kernel = _band_matrix(kernel, np.asarray(frame(points)))
    return columns.conj().T @ kernel @ columns


def certify(symbol, potential: Potential, mesh: SurfaceMesh,
            n_states: int, eps_schedule=DEFAULT_SCHEDULE, *,
            half_width_fraction: float = surface.DEFAULT_HALF_WIDTH_FRACTION,
            transverse_order: int = DEFAULT_TRANSVERSE_ORDER) -> Certificate:
    """Search the eps schedule for a negative-definite trial form.

    Parameters
    ----------
    symbol, potential, mesh
        Problem data. The shell operator is assembled on ``mesh`` by
        :func:`shellbound.surface_operator.assemble`, whose route and
        orthonormal eigenfunctions certify takes: a radial potential on
        a ring-layout mesh gives the channel route (see the module
        docstring), where ``mesh`` gives only its dimension, radius and
        azimuth count. Every node must lie on the shell |s| = R (see
        :func:`shellbound.surface.tubular_chart`). The symbol gives the
        kinetic energy (``evaluate``), its minimum m (``find_minimum``)
        and its band ``frame``: None for a scalar symbol; for a
        :class:`shellbound.spin_orbit.MatrixSymbol` the lower-band
        frame, which multiplies the kernel by the band overlap
        ``sum_c conj(u_c(x)) u_c(y)`` in the shell operator and in the
        tube forms alike.
    n_states : int
        Number of eigenvalues of H below m to certify. Must not exceed
        :func:`shellbound.surface_operator.count_negative` of the shell
        operator, the count of its eigenvalues below
        -1e-8 max(1, max |E|).
    eps_schedule : iterable of float
        Fractions of the chart half-width, default (0.2, 0.1, 0.05, 0.025).

    Returns
    -------
    Certificate
        With the h(eps) sequence, the limit diagonal, the max-norm
        convergence table, and the certification outcome. A schedule
        with no negative-definite member yields ``certified_count = 0``
        rather than an exception.

    Raises
    ------
    ConsistencyError
        If some h(eps) deviates from Hermitian by more than
        1e-10 max(1, max |h|), on either route, or if ``assemble`` does.
    """
    n_states = int(n_states)
    if n_states < 0:
        raise PreconditionError("n_states must be nonnegative")
    schedule = tuple(float(e) for e in eps_schedule)
    if not schedule:
        raise PreconditionError("eps schedule must not be empty")
    chart = tubular_chart(mesh, half_width_fraction)
    profile = TransverseProfile.build(transverse_order)

    operator = assemble(mesh, potential, symbol.frame)
    available = count_negative(operator)
    if n_states > available:
        raise PreconditionError(
            f"requested {n_states} states but the shell operator has only "
            f"{available} negative eigenvalues at this resolution"
        )
    limit_values = operator.eigenvalues[:n_states].copy()
    channel = None if operator.channels is None else operator.channels[:n_states]
    psi = None if operator.eigenfunctions is None else operator.eigenfunctions[:, :n_states]

    minimum = symbol.find_minimum()[0]
    require_band(potential, 2.0 * (mesh.radius + chart.half_width))

    matrices = []
    max_errors = []
    top_eigenvalues = []
    certified_eps = None
    for eps in schedule:
        tube = _tube(chart, profile, eps)
        _, radii, _, x = tube
        kinetic = _kinetic_integral(symbol, minimum, profile, tube, mesh.dimension)
        if not n_states:
            h = np.zeros((0, 0))  # the empty span needs no kernel
        elif channel is None:
            h = _potential(potential, chart, psi, profile, tube, symbol.frame)
        else:
            h = np.diag(_channel_kernel(potential, mesh, radii, x, symbol.frame)[channel])
        # the span is orthonormal in the mesh weights: the kinetic form is K(eps) I
        h = _hermitize(h + kinetic * np.eye(n_states), "trial form", 1e-10)
        matrices.append(h)
        max_errors.append(float(np.abs(h - np.diag(limit_values)).max(initial=0.0)))
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
