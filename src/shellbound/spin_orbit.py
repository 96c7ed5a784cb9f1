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
:func:`shellbound.surface_operator.assemble` with ``symbol.frame``,
whose sector route the gauge of :func:`band_frame` admits (the overlap
depends only on the angle between s and s'), and :func:`certify_spin`
is :func:`shellbound.rayleigh_ritz.certify` on the matrix symbol after
the checks that the problem sits on the band-minimum circle in 2-D.
The overlap itself is formed in one place,
``surface_operator._band_matrix``, which the sector route and
:func:`gauge_deviation` share. The regauged matrices of
:func:`gauge_deviation` stay dense. Regauging by a
diagonal unitary D maps the matrix A to ``D^H A D`` exactly, so
``gauge_deviation`` bounds the numerical deviation by Weyl's inequality,
``|lambda_j(A_theta) - lambda_j(A)| <= ||A_theta - D^H A D||_F``, with no
eigensolve; the bound holds up to the rounding of each entry of
``D^H A D``, a few units in the last place. It weights the dense kernel
by sqrt(w) once and forms every regauged matrix in the same
preallocated M x M buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GaugeSingularityError, PreconditionError
from .potentials import Potential, require_band
from .rayleigh_ritz import DEFAULT_SCHEDULE, Certificate, certify
from .surface import SurfaceMesh
from .surface_operator import (
    SurfaceOperatorMatrix,
    _band_matrix,
    _check_hermitian,
    _hermitize,
    _weighted_kernel,
    assemble,
)

__all__ = [
    "MatrixSymbol",
    "rashba",
    "dresselhaus",
    "band_decompose",
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


def band_decompose(symbol: MatrixSymbol, p):
    """Closed-form band decomposition at one point.

    Returns
    -------
    (lambda_1, lambda_2, u) : (float, float, ndarray shape (2,))
        Band energies ``|p|^2 -/+ |a(p)|`` and the gauge-fixed lower-band
        unit eigenvector.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (2,):
        raise PreconditionError("band_decompose expects a single 2-D momentum")
    p2 = float(p @ p)
    gap = float(np.abs(symbol.offdiagonal(p)))
    u = band_frame(symbol, p[None, :])[0]
    return p2 - gap, p2 + gap, u


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
    whose sector route needs only the (M, rings) column block.

    Raises
    ------
    PreconditionError
        If the problem is not on the band-minimum circle in 2-D.
    ConsistencyError
        If the matrix is not Hermitian within 1e-12 relative tolerance,
        or, on the sector route, if the frame overlap is not a function
        of the azimuth difference.
    """
    _check_problem(symbol, mesh, potential)
    return assemble(mesh, potential, symbol.frame)


def gauge_deviation(symbol: MatrixSymbol, mesh: SurfaceMesh, potential: Potential,
                    seed: int = 0) -> float:
    """Weyl bound on the spectral deviation under random per-node phase regauging.

    Regauging the band frame by a diagonal unitary D (``u_i -> d_i u_i``)
    must turn the assembled matrix A into exactly ``D^H A D``, which has
    the spectrum of A. Each of 20 seeded regaugings assembles
    A_theta afresh, checks that it is Hermitian and takes
    ``||A_theta - D^H A D||_F``. By Weyl's inequality every eigenvalue
    moves by at most that much:
    ``|lambda_j(A_theta) - lambda_j(A)| <= ||A_theta - D^H A D||_2
    <= ||A_theta - D^H A D||_F``, up to the rounding of each entry of
    ``D^H A D`` (a few units in the last place). The largest norm over
    the trials is returned: a bound on how far any eigenvalue of a
    regauged operator can move, not a sample of it. Each trial costs
    O(M^2) and no eigensolve is made; the dense kernel is weighted once,
    and the trials reuse four M x M buffers.

    Raises
    ------
    PreconditionError
        If the problem is not on the band-minimum circle in 2-D.
    ConsistencyError
        If a regauged matrix is not Hermitian within 1e-12 relative
        tolerance.
    """
    _check_problem(symbol, mesh, potential)
    what = "band-projected operator matrix"
    weighted = _weighted_kernel(mesh, potential)
    frame = band_frame(symbol, mesh.nodes)
    base = _hermitize(_band_matrix(weighted, frame), what)
    shape = base.shape
    regauged, adjoint, difference = (np.empty(shape, dtype=np.complex128) for _ in range(3))
    modulus = np.empty(shape)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        phases = np.exp(2j * np.pi * rng.random(mesh.size))
        a = _band_matrix(weighted, frame * phases[:, None], out=regauged)
        np.conjugate(a.T, out=adjoint)
        np.subtract(a, adjoint, out=difference)
        _check_hermitian(a, np.abs(difference, out=modulus).max(), what)
        a += adjoint
        a *= 0.5
        np.multiply(phases.conj()[:, None], phases[None, :], out=difference)
        difference *= base
        difference -= a
        worst = max(worst, float(np.linalg.norm(difference)))
    return worst


def certify_spin(symbol: MatrixSymbol, potential: Potential, mesh: SurfaceMesh,
                 n_states: int, eps_schedule=DEFAULT_SCHEDULE, *,
                 half_width_fraction: float = 0.25,
                 transverse_order: int = 12) -> Certificate:
    """Variational certificate for the matrix Hamiltonian.

    This is :func:`shellbound.rayleigh_ritz.certify` on the matrix
    symbol, whose kinetic energy is the lower band and whose frame
    weights the kernel, after the checks of the problem's geometry; so
    it assembles the band-projected shell operator and checks its count
    of negative eigenvalues. The band overlap
    ``<u(x), u(y)> = sum_c conj(u_c(x)) u_c(y)`` has rank 2, so the
    band-projected tube form is a sum of two scalar tube forms, and a
    radial potential on a ring-layout mesh takes the block-circulant
    route.
    """
    _check_problem(symbol, mesh, potential)
    return certify(symbol, potential, mesh, n_states, eps_schedule,
                   half_width_fraction=half_width_fraction, transverse_order=transverse_order)
