"""Brute-force periodic-box reference for the full Hamiltonian.

The free symbol is sampled on the dual lattice of a periodic box, so
plane waves are exact eigenvectors of the free part and the only
discretization errors are the box truncation of the potential and the
momentum cutoff. The lowest part of the spectrum is computed matrix-free
and counted below the essential-spectrum edge with a buffer that
separates genuine bound states from the finite-box quasi-continuum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, lobpcg

from .errors import ConfigurationError, ConvergenceError, PreconditionError
from .potentials import Potential
from .symbols import DispersionSymbol

__all__ = [
    "GridHamiltonian",
    "CountResult",
    "build_hamiltonian",
    "apply",
    "lowest_eigenvalues",
    "count_below",
]


@dataclass(frozen=True)
class GridHamiltonian:
    """Momentum/position tables of H0 + V on a periodic box.

    Attributes
    ----------
    dimension : int
    box_edge : float
        Edge length of the periodic box.
    grid : int
        Samples per edge G; the state space has G**dimension points.
    symbol_table : ndarray, shape (G,) * dimension
        H0 on the dual lattice (fftfreq layout).
    potential_table : ndarray or None
        V on the centered position grid; None means V identically 0.
    minimum : float
        m = min H0, the essential-spectrum edge of the continuum operator.
    surface_radius : float
        Radius of the symbol's extremum shell.
    delta : float
        Counting buffer below m (a few finite-box level spacings).
    """

    dimension: int
    box_edge: float
    grid: int
    symbol_table: np.ndarray
    potential_table: np.ndarray | None
    minimum: float
    surface_radius: float
    delta: float

    @property
    def size(self) -> int:
        return self.grid**self.dimension

    @property
    def spectral_scale(self) -> float:
        scale = float(np.abs(self.symbol_table).max())
        if self.potential_table is not None:
            scale += float(np.abs(self.potential_table).max())
        return scale

    @property
    def is_free(self) -> bool:
        return self.potential_table is None or not np.any(self.potential_table)


@dataclass(frozen=True)
class CountResult:
    """Bound-state count with its diagnostics.

    ``count`` is backed by Kahan's bound: the c lowest Ritz values
    satisfy theta_c + ||R_{:,1..c}||_F < energy, so at least ``count``
    eigenvalues of the grid operator lie below the energy.
    ``is_lower_bound`` is set when the count did not settle: the
    iteration budget ran out first (``budget_exhausted``), or every one
    of the ``k_max`` Ritz values lies below the energy, so more states
    may follow beyond the window. ``tolerance`` is the residual norm at
    which an eigenpair counts as converged (1e-8 of the spectral scale).
    """

    count: int
    is_lower_bound: bool
    eigenvalues: np.ndarray
    residuals: np.ndarray
    energy: float
    delta: float
    iterations: int
    budget_exhausted: bool
    tolerance: float

    def __int__(self) -> int:
        return self.count

    def __index__(self) -> int:
        return self.count


def build_hamiltonian(symbol: DispersionSymbol, potential: Potential | None,
                      box_edge: float, grid: int,
                      delta_levels: float = 3.0) -> GridHamiltonian:
    """Sample symbol and potential tables for a periodic box.

    Raises
    ------
    ConfigurationError
        If the dual lattice is too coarse to resolve the extremum shell
        (spacing above R/2), the momentum cutoff fails to cover the
        confining growth (below 4R), or a 3-D grid exceeds the G <= 96
        desk-scale limit. Spacings between R/8 and R/2 only warn: they
        are coarser than ideal but measured to give stable counts.
    """
    box_edge = float(box_edge)
    grid = int(grid)
    if box_edge <= 0.0:
        raise ConfigurationError("box_edge must be positive")
    if grid < 16:
        raise ConfigurationError("need at least 16 samples per edge")
    n = symbol.dimension
    if potential is not None and potential.dimension != n:
        raise PreconditionError("symbol and potential dimensions differ")
    if n == 3 and grid > 96:
        raise ConfigurationError("3-D oracle grids are limited to 96 samples per edge")
    minimum, radius = symbol.find_minimum()
    dual_spacing = 2.0 * np.pi / box_edge
    if dual_spacing > radius / 2.0:
        raise ConfigurationError(
            f"dual-lattice spacing {dual_spacing:.4g} cannot resolve the shell radius {radius:.4g}"
        )
    if dual_spacing > radius / 8.0:
        warnings.warn(
            f"dual-lattice spacing {dual_spacing:.4g} is coarse relative to the shell "
            f"radius {radius:.4g}; counts near the spectral edge may be box-sensitive",
            stacklevel=2,
        )
    cutoff = np.pi * grid / box_edge
    if cutoff < 4.0 * radius:
        raise ConfigurationError(
            f"momentum cutoff {cutoff:.4g} is below 4 R = {4.0 * radius:.4g}"
        )
    axes_k = [2.0 * np.pi * np.fft.fftfreq(grid, d=box_edge / grid)] * n
    momenta = np.stack(np.meshgrid(*axes_k, indexing="ij"), axis=-1)
    symbol_table = symbol.evaluate(momenta)
    potential_table = None
    if potential is not None:
        step = box_edge / grid
        axis_x = (np.arange(grid) - grid // 2) * step
        positions = np.stack(np.meshgrid(*([axis_x] * n), indexing="ij"), axis=-1)
        table = np.asarray(potential.evaluate(positions), dtype=np.float64)
        if np.any(table):
            potential_table = table
    if delta_levels <= 0.0:
        raise ConfigurationError("delta_levels must be positive")
    lowest = np.sort(np.partition(symbol_table.ravel(), 32)[:33])
    delta = float(delta_levels) * float(lowest[32] - lowest[0]) / 32.0
    return GridHamiltonian(
        dimension=n,
        box_edge=box_edge,
        grid=grid,
        symbol_table=symbol_table,
        potential_table=potential_table,
        minimum=minimum,
        surface_radius=radius,
        delta=delta,
    )


def _apply_real_block(ham: GridHamiltonian, block: np.ndarray) -> np.ndarray:
    """H applied to a (G, ..., G, b) batch of real vectors via real FFTs."""
    axes = tuple(range(ham.dimension))
    half = ham.grid // 2 + 1
    table_half = ham.symbol_table[..., :half, None]
    spectral = np.fft.rfftn(block, axes=axes)
    out = np.fft.irfftn(table_half * spectral, s=block.shape[: ham.dimension], axes=axes)
    if ham.potential_table is not None:
        out += ham.potential_table[..., None] * block
    return out


def apply(ham: GridHamiltonian, psi) -> np.ndarray:
    """Apply H = H0(-i grad) + V to a state vector.

    Accepts a flat vector of length G**n, the grid shape, or a batch
    with a trailing column axis; returns the same shape.

    Notes
    -----
    The potential table is sampled on the centered grid x_j =
    (j - G//2) h while the plane waves implied by the FFT reference
    x_j = j h. The half-box offset is a unitary relabeling, so spectra
    and quadratic forms are unaffected, but a state assembled in the
    momentum representation needs the phase exp(i k (G//2) h) per axis
    to sit on the potential's center.
    """
    psi = np.asarray(psi)
    grid_shape = (ham.grid,) * ham.dimension
    if psi.shape == grid_shape:
        flat_in = False
        block = psi[..., None]
    elif psi.ndim == 1 and psi.size == ham.size:
        flat_in = True
        block = psi.reshape(grid_shape + (1,))
    elif psi.ndim == 2 and psi.shape[0] == ham.size:
        flat_in = True
        block = psi.reshape(grid_shape + (psi.shape[1],))
    else:
        raise PreconditionError(
            f"state shape {psi.shape} does not match a grid of {ham.size} points"
        )
    if np.iscomplexobj(block):
        axes = tuple(range(ham.dimension))
        out = np.fft.ifftn(ham.symbol_table[..., None] * np.fft.fftn(block, axes=axes), axes=axes)
        if ham.potential_table is not None:
            out += ham.potential_table[..., None] * block
    else:
        out = _apply_real_block(ham, np.ascontiguousarray(block, dtype=np.float64))
    return out.reshape(psi.shape) if flat_in else out[..., 0]


def _residual_tolerance(ham: GridHamiltonian) -> float:
    """Residual norm at which an eigenpair counts as converged."""
    return 1e-8 * ham.spectral_scale


def _solve(ham: GridHamiltonian, k: int, seed: int, maxiter: int, tolerance: float,
           done, chunk: int = 50):
    """Chunked block iteration for the k lowest states.

    A preconditioned block solver is used rather than a single-vector
    Krylov iteration: the low spectrum contains exact double
    degeneracies and sits a tiny relative gap below a dense
    quasi-continuum, which stalls restarted single-vector iterations,
    while the exact free-resolvent preconditioner (diagonal in the dual
    lattice) makes block convergence grid-independent.

    The preconditioner is (H0 - min H0 + s)^-1 with s = 0.02 max|V|, so
    the shift scales with H: multiplying H0 and V by lambda multiplies s
    by lambda. A fixed unit shift is far larger than the binding
    energies the count must resolve (-3.5e-5 to -0.51 on a unit-depth
    Gaussian well), so it is almost flat across the shell band where
    every bound state lives, and weak wells stalled until the budget ran
    out. Iterations to settle ``count_below`` (range over seeds) on the
    2-D mexican hat with a Gaussian well of depth c and width 1, box
    40/p0, grid 64, k_max 8, for a fixed s = 1 and for s as multiples
    of max|V|:

        ======  ============  =====  =====  ====  ====  =========  ===
        c, p0   fixed 1       0.001  0.005  0.01  0.02  0.04-0.05  0.08
        ======  ============  =====  =====  ====  ====  =========  ===
        1, 1    150-250       100    50     50    50    50         50
        0.5, 1  1500 flagged  50     50     50    50    50         50
        1, 0.5  250-300       100    50     50    50    50-100     100
        1, 2    50            50     50     50    50    50         50
        ======  ============  =====  =====  ====  ====  =========  ===

    (12 seeds in the first row, 4 in the others; in the last row all
    k_max values lie below the energy.)

    After every chunk of ``chunk`` iterations the k wanted Ritz values
    are sorted with their residual norms ||H x_i - theta_i x_i||, and
    the iteration stops as soon as ``done(values, residuals)`` holds or
    ``maxiter`` is spent. ``lowest_eigenvalues`` stops once every
    residual is below ``tolerance``. ``count_below`` stops once its
    count is settled: theta_c + ||R_{:,1..c}||_F < energy for the c
    values below the energy (Kahan's bound, see ``_kahan_count``) and
    theta_{c+1} - ||r_{c+1}|| > energy, so the guard value next to the
    quasi-continuum need not converge. The extra guard vectors are
    never tested.

    Returns (values, residuals, iterations), values ascending.
    """
    size = ham.size
    guards = 4
    block_size = min(k + guards, size)
    grid_shape = (ham.grid,) * ham.dimension
    axes = tuple(range(ham.dimension))
    half = ham.grid // 2 + 1
    shift = 0.02 * float(np.abs(ham.potential_table).max())
    shifted = ham.symbol_table - ham.symbol_table.min() + shift
    precond_half = (1.0 / shifted)[..., :half, None]

    def matmat(x):
        block = np.ascontiguousarray(x.reshape(grid_shape + (-1,)), dtype=np.float64)
        return _apply_real_block(ham, block).reshape(x.shape)

    def precond(x):
        block = np.ascontiguousarray(x.reshape(grid_shape + (-1,)), dtype=np.float64)
        spectral = precond_half * np.fft.rfftn(block, axes=axes)
        return np.fft.irfftn(spectral, s=grid_shape, axes=axes).reshape(x.shape)

    operator = LinearOperator((size, size), matvec=matmat, matmat=matmat, dtype=np.float64)
    preconditioner = LinearOperator((size, size), matvec=precond, matmat=precond, dtype=np.float64)
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((size, block_size))
    values = np.full(block_size, np.nan)
    residuals = np.full(k, np.inf)
    used = 0
    while used < maxiter:
        step = min(chunk, maxiter - used)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # per-chunk budget exhaustion is expected
            try:
                values, basis = lobpcg(
                    operator, basis, M=preconditioner, largest=False,
                    tol=0.5 * tolerance, maxiter=step,
                )
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"block iteration broke down after {used} iterations: {exc}",
                    eigenvalues=np.sort(values)[:k],
                ) from exc
        used += step
        order = np.argsort(values)
        values = values[order]
        basis = basis[:, order]
        wanted = basis[:, :k]
        residuals = np.linalg.norm(matmat(wanted) - wanted * values[:k], axis=0)
        if done(values[:k], residuals):
            break
    return values[:k], residuals, used


def lowest_eigenvalues(ham: GridHamiltonian, k: int, seed: int = 0,
                       maxiter: int = 1500) -> np.ndarray:
    """The k smallest eigenvalues, residuals below 1e-8 of the spectral scale.

    With V identically zero the operator is diagonal in the plane-wave
    basis and the sorted symbol table is returned directly (exact, no
    iteration).

    Raises
    ------
    ConvergenceError
        If some requested state misses the residual tolerance within the
        iteration budget; the error carries the Ritz values and
        residual norms reached.
    """
    k = int(k)
    if not 1 <= k <= 64:
        raise PreconditionError("k must lie in 1..64")
    if k > ham.size:
        raise PreconditionError("k exceeds the discretization size")
    if ham.is_free:
        return np.sort(ham.symbol_table.ravel())[:k]
    tolerance = _residual_tolerance(ham)
    values, residuals, _ = _solve(ham, k, seed, maxiter, tolerance,
                                  lambda values, residuals: residuals.max() < tolerance)
    if residuals.max() >= tolerance:
        bad = int(np.count_nonzero(residuals >= tolerance))
        raise ConvergenceError(
            f"{bad} of {k} states missed residual tolerance {tolerance:.3e} "
            f"(worst {residuals.max():.3e}) within {maxiter} iterations",
            eigenvalues=values,
            residuals=residuals,
        )
    return values


def _kahan_count(values: np.ndarray, residuals: np.ndarray, energy: float) -> tuple[int, bool]:
    """Ritz values proven below ``energy``, and whether that count is final.

    For orthonormal Ritz vectors with residual block R, Kahan's theorem
    (Parlett, The Symmetric Eigenvalue Problem, Thm 11.5.2) puts c
    eigenvalues within ||R_{:,1..c}||_F of theta_1..theta_c, so
    theta_c + ||R_{:,1..c}||_F < energy proves that at least c
    eigenvalues lie below the energy. The count is final once every
    Ritz value below the energy is proven this way and either the next
    one clears the energy by more than its residual norm,
    theta_{c+1} - ||r_{c+1}|| > energy, or the window holds no next one.
    """
    below = int(np.count_nonzero(values < energy))
    proven = int(np.count_nonzero(values + np.sqrt(np.cumsum(residuals**2)) < energy))
    if proven < below:
        return proven, False
    return proven, bool(below == values.size or values[below] - residuals[below] > energy)


def count_below(ham: GridHamiltonian, energy: float | None = None,
                k_max: int = 16, seed: int = 0, maxiter: int = 1500) -> CountResult:
    """Count eigenvalues strictly below an energy, stopping once the count settles.

    The default energy is ``m - delta``: the essential-spectrum edge
    minus the finite-box buffer, so quasi-continuum states piled up at
    the edge are not mistaken for bound states.

    The block iteration stops as soon as the count is settled rather
    than when every Ritz value meets the residual tolerance: the c Ritz
    values below the energy satisfy theta_c + ||R_{:,1..c}||_F < energy,
    which by Kahan's theorem proves c eigenvalues below it, and the next
    Ritz value clears the energy by more than its residual norm. The
    guard value just above the energy sits in the quasi-continuum and
    need not converge. The reported count is always the Kahan-proven
    one; ``is_lower_bound`` is set when the budget ran out before the
    count settled (``budget_exhausted``) or when all ``k_max`` values
    lie below the energy.
    """
    k_max = int(k_max)
    if not 1 <= k_max <= 64:
        raise PreconditionError("k_max must lie in 1..64")
    if energy is None:
        energy = ham.minimum - ham.delta
    energy = float(energy)
    v_sup = 0.0
    if ham.potential_table is not None:
        v_sup = float(np.abs(ham.potential_table).max())
    if energy >= float(ham.symbol_table.min()) + v_sup:
        raise PreconditionError(
            "counting energy must stay below the free spectral floor plus |V|"
        )
    tolerance = _residual_tolerance(ham)
    if ham.is_free:
        flat = np.sort(ham.symbol_table.ravel())[: max(k_max, 1)]
        count = int(np.count_nonzero(ham.symbol_table < energy))
        return CountResult(
            count=count,
            is_lower_bound=False,
            eigenvalues=flat[:k_max],
            residuals=np.zeros(min(k_max, flat.size)),
            energy=energy,
            delta=ham.delta,
            iterations=0,
            budget_exhausted=False,
            tolerance=tolerance,
        )
    values, residuals, iterations = _solve(
        ham, k_max, seed, maxiter, tolerance,
        lambda values, residuals: _kahan_count(values, residuals, energy)[1],
    )
    count, final = _kahan_count(values, residuals, energy)
    return CountResult(
        count=count,
        is_lower_bound=not final or count == k_max,
        eigenvalues=values,
        residuals=residuals,
        energy=energy,
        delta=ham.delta,
        iterations=iterations,
        budget_exhausted=not final,
        tolerance=tolerance,
    )
