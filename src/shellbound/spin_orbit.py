"""2x2 matrix symbols with spin-orbit coupling and their band-projected operators.

The matrix symbol is ``[[p^2, a(p)], [conj(a(p)), p^2]]`` with
``a(p) = alpha (p_2 + i p_1)`` (one convention) or
``a(p) = -alpha (p_1 + i p_2)`` (the other); both have
``|a(p)| = |alpha| |p|``, so the lower band ``|p|^2 - |alpha| |p|`` is
radial with minimum ``-alpha^2/4`` on the circle ``|p| = |alpha|/2``.
Projecting onto the lower band turns the shell operator kernel into
``vhat(s - s') <u(s), u(s')>`` with the band eigenvector frame u; its
spectrum is independent of the per-node phase gauge of u.

The band structure lives on the symbol: :meth:`MatrixSymbol.evaluate`
is the lower band and :meth:`MatrixSymbol.frame` the frame of
:func:`band_frame`, where a scalar symbol has ``frame = None``. So the
scalar code serves the band-projected problem unchanged:
:func:`assemble_spin_kernel` is
:func:`shellbound.surface_operator.assemble` with ``symbol.frame``, and
:func:`certify_spin` is :func:`shellbound.rayleigh_ritz.certify` on the
matrix symbol, each after the checks that the problem sits on the
band-minimum circle in 2-D. On a radial potential both take the
angular-channel route, which the gauge of :func:`band_frame` admits
(the overlap depends only on the angle between s and s'): the overlap
multiplies the kernel row before the FFT over the angle. The overlap
itself is formed in one place, ``surface_operator._band_matrix``, the
channels of a radial kernel, its real-kernel and Hermitian tests
included, in another, ``surface_operator._channel_kernel``, and the
weighted Hermitian matrix of the dense route in a third,
``surface_operator._dense_operator``; :func:`assemble_spin_kernel` and
:func:`gauge_deviation` share them. Regauging by a diagonal unitary D
maps the matrix A to ``D^H A D`` exactly, so ``gauge_deviation`` bounds
the numerical deviation by Weyl's inequality,
``|lambda_j(A_theta) - lambda_j(A)| <= ||A_theta - D^H A D||_F``, with
no eigensolve; the bound holds up to the rounding of each entry of
``D^H A D``, a few units in the last place. On a ring layout it
regauges with a phase and a winding, which shift the channels of the
kernel row, and computes the norm over the channels by Parseval, so no
M x M matrix is formed; the 20 regaugings are transformed as one stack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigurationError, GaugeSingularityError, PreconditionError
from .potentials import Potential, require_band
from .rayleigh_ritz import Certificate, certify
from .surface import SurfaceMesh
from .surface_operator import (
    SurfaceOperatorMatrix, _channel_kernel, _dense_operator, assemble, ring_layout,
)

__all__ = [
    "MatrixSymbol",
    "rashba",
    "dresselhaus",
    "band_frame",
    "assemble_spin_kernel",
    "gauge_deviation",
    "certify_spin",
]


@dataclass(frozen=True)
class MatrixSymbol:
    """A 2-band matrix dispersion on R^2.

    Attributes
    ----------
    kind : str
        ``rashba`` or ``dresselhaus``.
    alpha : float
        Coupling strength, nonzero.
    """

    kind: str
    alpha: float

    def offdiagonal(self, p):
        """a(p), vectorized over the last axis."""
        p = np.asarray(p, dtype=np.float64)
        if self.kind == "rashba":
            return self.alpha * (p[..., 1] + 1j * p[..., 0])
        return -self.alpha * (p[..., 0] + 1j * p[..., 1])

    def matrix(self, p) -> np.ndarray:
        """The 2x2 Hermitian symbol at a single point."""
        p = np.asarray(p, dtype=np.float64)
        a = complex(self.offdiagonal(p))
        p2 = float(p @ p)
        return np.array([[p2, a], [np.conj(a), p2]])

    def evaluate(self, p):
        """The lower band lambda_1(p) = |p|^2 - |alpha| |p|, vectorized over the last axis."""
        r = np.linalg.norm(np.asarray(p, dtype=np.float64), axis=-1)
        return r * r - np.abs(self.alpha) * r

    def frame(self, points) -> np.ndarray:
        """The lower-band frame :func:`band_frame` at a batch of points."""
        return band_frame(self, points)

    def find_minimum(self) -> tuple[float, float]:
        """(-alpha^2/4, |alpha|/2): band minimum and its circle radius."""
        return -self.alpha**2 / 4.0, np.abs(self.alpha) / 2.0


def _make(kind: str, alpha) -> MatrixSymbol:
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha == 0.0:
        raise ConfigurationError("coupling alpha must be finite and nonzero")
    return MatrixSymbol(kind=kind, alpha=alpha)


def rashba(alpha) -> MatrixSymbol:
    """Symbol with a(p) = alpha (p_2 + i p_1)."""
    return _make("rashba", alpha)


def dresselhaus(alpha) -> MatrixSymbol:
    """Symbol with a(p) = -alpha (p_1 + i p_2)."""
    return _make("dresselhaus", alpha)


def band_frame(symbol: MatrixSymbol, points) -> np.ndarray:
    """Lower-band unit eigenvectors at a batch of points, gauge-fixed.

    The gauge makes the first component real positive:
    ``u(p) = (1, -conj(a)/|a|) / sqrt(2)``.

    Raises
    ------
    GaugeSingularityError
        If any point is the origin, where a(p) = 0 and no smooth band
        choice exists. Extremum circles never contain the origin.
    """
    points = np.asarray(points, dtype=np.float64)
    a = symbol.offdiagonal(points)
    magnitude = np.abs(a)
    if np.any(magnitude == 0.0):
        raise GaugeSingularityError("band frame is undefined at p = 0")
    frame = np.empty(points.shape[:-1] + (2,), dtype=np.complex128)
    frame[..., 0] = 1.0 / np.sqrt(2.0)
    frame[..., 1] = -np.conj(a) / magnitude / np.sqrt(2.0)
    return frame


def _check_problem(symbol: MatrixSymbol, mesh: SurfaceMesh, potential: Potential) -> None:
    if mesh.dimension != 2 or potential.dimension != 2:
        raise PreconditionError("spin-orbit operators live on 2-D momentum space")
    _, radius = symbol.find_minimum()
    if abs(mesh.radius - radius) > 1e-8 * max(1.0, radius):
        raise PreconditionError(
            f"mesh radius {mesh.radius:.6g} is not the band-minimum circle {radius:.6g}"
        )
    require_band(potential, 2.0 * mesh.radius)


def assemble_spin_kernel(symbol: MatrixSymbol, mesh: SurfaceMesh,
                         potential: Potential) -> SurfaceOperatorMatrix:
    """Assemble and diagonalize the band-projected shell operator.

    Entries ``sqrt(w_i) vhat(s_i - s_j) <u(s_i), u(s_j)> sqrt(w_j)``;
    for nonpositive V the spectrum is nonpositive (the overlap Gram
    factor preserves the sign of the quadratic form). This is
    :func:`shellbound.surface_operator.assemble` with the band frame,
    whose channel route needs only the (1, M) kernel row and lists no
    eigenfunctions.

    Raises
    ------
    PreconditionError
        If the problem is not on the band-minimum circle in 2-D.
    ConsistencyError
        If the matrix is not Hermitian within 1e-12 relative tolerance,
        or, on the channel route, if a channel value is not real, as when
        the frame overlap depends on more than the angle between the
        points.
    """
    _check_problem(symbol, mesh, potential)
    return assemble(mesh, potential, symbol.frame)


def gauge_deviation(symbol: MatrixSymbol, mesh: SurfaceMesh, potential: Potential,
                    seed: int = 0) -> float:
    """Weyl bound on the spectral deviation under random phase regauging.

    Regauging the band frame by a diagonal unitary D (``u_i -> d_i u_i``)
    must turn the assembled operator A into exactly ``D^H A D``, which
    has the spectrum of A. By Weyl's inequality every eigenvalue of the
    operator moves by at most ``||A_theta - D^H A D||_F``, up to the
    rounding of each entry of ``D^H A D`` (a few units in the last
    place). The largest norm over 20 regaugings drawn from
    ``random.Random(seed)`` is returned: a bound on how far any
    eigenvalue of a regauged operator can move, not a sample of it. One
    ``kernel_matrix`` call serves every trial, and no eigensolve is made.
    The check reads A as :func:`assemble` does (see
    ``surface_operator.ring_layout``):

    - Channel route: the channels of
      ``surface_operator._channel_kernel`` at the shell radius, read
      from its (1, n) kernel row as :func:`assemble` reads them. Each
      regauging takes ``d(p) = exp(i phi) exp(2 pi i s p / n)``, a random
      phase and a random winding s, at the azimuth 2 pi p / n of the row
      point (p = 0) and of the n column points alike, in the band frame;
      the kernel must be real, and the regauged row must pass the
      Hermitian test of the assembly, its mirror symmetry
      ``K[p] = conj(K[-p])``, so that its FFT, the channels kappa_theta,
      is real. The base gauge and the 20 regaugings form one stack of
      frames that goes through the real-kernel check, the band overlap,
      the Hermitian test and the FFT at once, and gives the values of
      one trial at a time. A has the circulant form of the row, so
      D^H A D has the channels of kappa shifted by s,
      ``roll(kappa, s)``, and by Parseval
      ``||A_theta - D^H A D||_F = ||kappa_theta - roll(kappa, s)||_2``.
      The phase on the row makes a product without the conjugate
      complex, so the Hermitian test catches it.
    - Dense route: the (M, M) kernel, a random phase per node, and each
      regauged A_theta from ``surface_operator._dense_operator``, with
      its Hermitian test.

    Raises
    ------
    PreconditionError
        If the problem is not on the band-minimum circle in 2-D.
    ConsistencyError
        If a regauged operator is not Hermitian within 1e-12 relative
        tolerance (on the channel route: a channel value is not real),
        or, on the channel route, if the kernel is complex.
    """
    _check_problem(symbol, mesh, potential)
    rng = random.Random(seed)
    if not ring_layout(mesh, potential):
        worst = 0.0
        kernel = np.asarray(potential.kernel_matrix(mesh.nodes))
        frame = band_frame(symbol, mesh.nodes)
        base = _dense_operator(mesh, kernel, frame)
        for _ in range(20):
            d = np.exp(1j * np.pi * kernels.uniform(rng, mesh.size))
            regauged = _dense_operator(mesh, kernel, frame * d[:, None])
            worst = max(worst, float(np.linalg.norm(d.conj()[:, None] * base * d - regauged)))
        return worst
    n = mesh.size // mesh.rings
    # trial 0 is the base gauge; the draws keep the order of the stream
    phases, windings = [np.zeros(1)], [0]
    for _ in range(20):
        phases.append(kernels.uniform(rng, 1))
        windings.append(rng.randrange(n))
    phase, winding = np.exp(1j * np.pi * np.array(phases)), np.array(windings)[:, None]

    def regauged(points):
        # d at each point's azimuth 2 pi p / n, one row per trial; phase
        # arguments reduced mod n, so the winding's table keeps its symmetry
        p = np.rint(np.arctan2(points[:, 1], points[:, 0]) * (n / (2.0 * np.pi))).astype(int)
        d = phase * np.exp(2j * np.pi * (winding * p % n) / n)
        return symbol.frame(points) * d[..., None]

    kappa = _channel_kernel(potential, mesh, [mesh.radius], frame=regauged)
    return max(float(np.linalg.norm(k - np.roll(kappa[0], s)))
               for k, s in zip(kappa[1:], windings[1:]))


def certify_spin(symbol: MatrixSymbol, potential: Potential, mesh: SurfaceMesh,
                 *args, **kwargs) -> Certificate:
    """Variational certificate for the matrix Hamiltonian.

    This is :func:`shellbound.rayleigh_ritz.certify` on the matrix
    symbol, whose kinetic energy is the lower band and whose frame
    weights the kernel, after the checks of the problem's geometry: the
    other arguments (``n_states``, ``eps_schedule`` and the keywords
    ``half_width_fraction`` and ``transverse_order``) and their defaults
    are certify's, to which they are forwarded unchanged. A
    radial potential on a ring-layout mesh takes certify's
    angular-channel route: the band overlap ``<u(x), u(y)>`` multiplies
    the kernel between the T tube radii and the turned points before
    the FFT over the angle, so the count precondition and h(eps) need
    no band-projected square matrix. Otherwise certify assembles the
    dense band-projected operator and takes the dense tube kernel times
    the overlap.
    """
    _check_problem(symbol, mesh, potential)
    return certify(symbol, potential, mesh, *args, **kwargs)
