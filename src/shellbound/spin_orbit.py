"""2x2 matrix symbols with spin-orbit coupling and their band-projected operators.

The matrix symbol is ``[[p^2, a(p)], [conj(a(p)), p^2]]`` with
``a(p) = alpha (p_2 + i p_1)`` (one convention) or
``a(p) = -alpha (p_1 + i p_2)`` (the other); both have
``|a(p)| = |alpha| |p|``, so the lower band ``|p|^2 - |alpha| |p|`` is
radial with minimum ``-alpha^2/4`` on the circle ``|p| = |alpha|/2``.
Projecting onto the lower band turns the shell operator kernel into
``vhat(s - s') <u(s), u(s')>`` with the band eigenvector frame u; its
spectrum is independent of the per-node phase gauge of u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GaugeSingularityError, PreconditionError
from .potentials import Potential, require_band
from .rayleigh_ritz import DEFAULT_SCHEDULE, Certificate, certify
from .surface import SurfaceMesh
from .surface_operator import SurfaceOperatorMatrix, _hermitize, count_negative

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
    dimension: int = 2
    bands: int = 2

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

    def lower_band(self, p):
        """lambda_1(p) = |p|^2 - |alpha| |p|, vectorized over the last axis."""
        r = np.linalg.norm(np.asarray(p, dtype=np.float64), axis=-1)
        return r * r - np.abs(self.alpha) * r

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


def _band_matrix(mesh: SurfaceMesh, kernel: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Weight-symmetrized band-projected matrix for one choice of frame gauge."""
    sqrt_w = np.sqrt(mesh.weights)
    projected = kernel * (frame.conj() @ frame.T)
    return _hermitize(sqrt_w[:, None] * projected * sqrt_w[None, :], "band-projected operator matrix")


def _assemble_with_frame(mesh: SurfaceMesh, potential: Potential,
                         frame: np.ndarray) -> SurfaceOperatorMatrix:
    a = _band_matrix(mesh, np.asarray(potential.kernel_matrix(mesh.nodes)), frame)
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    return SurfaceOperatorMatrix(
        mesh=mesh,
        matrix=a,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        eigenfunctions=eigenvectors / np.sqrt(mesh.weights)[:, None],
    )


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
    factor preserves the sign of the quadratic form).
    """
    _check_problem(symbol, mesh, potential)
    return _assemble_with_frame(mesh, potential, band_frame(symbol, mesh.nodes))


def gauge_deviation(symbol: MatrixSymbol, mesh: SurfaceMesh, potential: Potential,
                    trials: int = 20, seed: int = 0) -> float:
    """Largest spectral deviation under random per-node phase regauging.

    The spectrum must be gauge invariant; this measures the numerical
    deviation over ``trials`` random diagonal-unitary regaugings of the
    band frame. The scalar kernel is built once and shared by all
    gauges.
    """
    _check_problem(symbol, mesh, potential)
    kernel = np.asarray(potential.kernel_matrix(mesh.nodes))
    frame = band_frame(symbol, mesh.nodes)
    base = np.linalg.eigvalsh(_band_matrix(mesh, kernel, frame))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(int(trials)):
        phases = np.exp(2j * np.pi * rng.random(mesh.size))
        spectrum = np.linalg.eigvalsh(_band_matrix(mesh, kernel, frame * phases[:, None]))
        worst = max(worst, float(np.abs(spectrum - base).max()))
    return worst


def certify_spin(symbol: MatrixSymbol, potential: Potential, mesh: SurfaceMesh,
                 n_states: int, eps_schedule=DEFAULT_SCHEDULE, *,
                 half_width_fraction: float = 0.25,
                 transverse_order: int = 12) -> Certificate:
    """Variational certificate for the matrix Hamiltonian.

    Reuses the scalar certifier with the kernel swapped to the
    band-projected one and the kinetic form evaluated on the lower band.
    """
    operator = assemble_spin_kernel(symbol, mesh, potential)
    available = count_negative(operator)
    if int(n_states) > available:
        raise PreconditionError(
            f"requested {n_states} states but the band-projected operator has only "
            f"{available} negative eigenvalues at this resolution"
        )
    minimum, _ = symbol.find_minimum()

    def kernel_fn(points):
        frame = band_frame(symbol, points)
        return np.asarray(potential.kernel_matrix(points)) * (frame.conj() @ frame.T)

    return certify(
        symbol, potential, mesh, n_states, eps_schedule,
        half_width_fraction=half_width_fraction,
        transverse_order=transverse_order,
        states=(operator.eigenvalues, operator.eigenfunctions),
        energy_fn=symbol.lower_band,
        minimum=minimum,
        kernel_fn=kernel_fn,
    )
