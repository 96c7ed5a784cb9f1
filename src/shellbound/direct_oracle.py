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

from .errors import ConfigurationError, ConsistencyError, ConvergenceError, PreconditionError
from .potentials import Potential
from .symbols import DispersionSymbol

__all__ = [
    "GridHamiltonian",
    "CountResult",
    "build_hamiltonian",
    "apply",
    "lowest_eigenvalues",
    "count_below",
    "LinearOperator",
    "lobpcg",
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
    delta : float
        Counting buffer below m (a few finite-box level spacings).
    """

    dimension: int
    box_edge: float
    grid: int
    symbol_table: np.ndarray
    potential_table: np.ndarray | None
    minimum: float
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
    ``iterations`` is the exact number of block iterations run: the
    stop rule is tested after each one.
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
    delta_levels = float(delta_levels)
    for name, value in (("box_edge", box_edge), ("delta_levels", delta_levels)):
        if not (np.isfinite(value) and value > 0.0):
            raise ConfigurationError(f"{name} must be positive and finite, got {value}")
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
    lowest = np.sort(np.partition(symbol_table.ravel(), 32)[:33])
    delta = delta_levels * float(lowest[32] - lowest[0]) / 32.0
    return GridHamiltonian(
        dimension=n,
        box_edge=box_edge,
        grid=grid,
        symbol_table=symbol_table,
        potential_table=potential_table,
        minimum=minimum,
        delta=delta,
    )


def _fourier_multiply(table: np.ndarray, block: np.ndarray) -> np.ndarray:
    """A dual-lattice multiplier applied to a (G, ..., G, b) batch of real vectors.

    ``table`` is the multiplier in fftfreq layout, one for every column
    (shape (G, ..., G)) or one per column (shape (G, ..., G, b)). Only
    its real-FFT half (last grid axis cut to G//2 + 1) is read, so the
    table may be given as that half alone; it multiplies the real FFT of
    each column, so the result is real.
    """
    axes = tuple(range(block.ndim - 1))
    if table.ndim < block.ndim:
        table = table[..., None]
    table_half = table[..., : block.shape[-2] // 2 + 1, :]
    spectral = np.fft.rfftn(block, axes=axes)
    return np.fft.irfftn(table_half * spectral, s=block.shape[:-1], axes=axes)


def _apply_real_block(ham: GridHamiltonian, block: np.ndarray) -> np.ndarray:
    """H applied to a (G, ..., G, b) batch of real vectors via real FFTs."""
    out = _fourier_multiply(ham.symbol_table, block)
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
        # H0 and V are real, so H acts on the real and imaginary parts
        # apart: they go through as interleaved real columns
        pairs = np.ascontiguousarray(block, dtype=np.complex128).view(np.float64)
        out = _apply_real_block(ham, pairs).view(np.complex128)
    else:
        out = _apply_real_block(ham, np.ascontiguousarray(block, dtype=np.float64))
    return out.reshape(psi.shape) if flat_in else out[..., 0]


def _residual_tolerance(ham: GridHamiltonian) -> float:
    """Residual norm at which an eigenpair counts as converged."""
    return 1e-8 * ham.spectral_scale


class LinearOperator:
    """A square real operator given by its action on a block of columns.

    ``matvec`` serves when no separate ``matmat`` is given; ``lobpcg``
    only ever applies the operator to column blocks.
    """

    def __init__(self, shape, matvec, matmat=None, dtype=np.float64):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self._matmat = matvec if matmat is None else matmat

    def dot(self, x):
        return self._matmat(x)


def _orthonormalizer(block: np.ndarray) -> np.ndarray:
    """Upper-triangular T with block @ T orthonormal (inverse Cholesky factor).

    Raises ``np.linalg.LinAlgError`` when the columns are numerically
    dependent, so that their Gram matrix is not positive definite.
    """
    return np.linalg.inv(np.linalg.cholesky(block.T @ block).T)


def _column_norms(block: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", block, block))


def _rayleigh_ritz(X, AX, W, AW, P=None, AP=None):
    """The n lowest Ritz values on [X, W, P] and their coefficient columns.

    X, W and P are orthonormal blocks, W orthogonal to X; AX, AW and AP
    are the operator applied to them. Only the Gram blocks that this
    does not fix are computed. Raises ``np.linalg.LinAlgError`` when
    the Gram matrix of the basis is not positive definite.
    """
    n = X.shape[1]
    upper_a = X.T @ AW
    gram_a = np.block([[X.T @ AX, upper_a], [upper_a.T, W.T @ AW]])
    gram_b = np.eye(n + W.shape[1])
    if P is not None:
        upper_a = np.vstack([X.T @ AP, W.T @ AP])
        upper_b = np.vstack([X.T @ P, W.T @ P])
        gram_a = np.block([[gram_a, upper_a], [upper_a.T, P.T @ AP]])
        gram_b = np.block([[gram_b, upper_b], [upper_b.T, np.eye(P.shape[1])]])
    inverse = np.linalg.inv(np.linalg.cholesky(gram_b))
    reduced = inverse @ gram_a @ inverse.T
    values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
    return values[:n], inverse.T @ vectors[:, :n]


def lobpcg(A, X, M=None, tol=0.0, maxiter=20, callback=None):
    """Lowest eigenpairs of a symmetric operator by LOBPCG (numpy only).

    Knyazev's locally optimal block preconditioned conjugate gradient
    method (SIAM J. Sci. Comput. 23, 2001) for the ``X.shape[1]``
    smallest eigenvalues of ``A``. Each iteration applies ``A`` once, to
    the orthonormalized preconditioned residuals W = M R of the active
    columns, and does Rayleigh-Ritz on [X, W, P], where P holds the W
    and P parts of the previous step. A column whose residual norm falls
    to ``tol`` is locked for good: it stays in X but adds no W or P
    column. When P cannot be orthonormalized, or the Gram matrix with P
    is not positive definite, the iteration goes on without P; when W
    cannot be orthonormalized, ``np.linalg.LinAlgError`` propagates.

    ``A`` and ``M`` are objects whose ``.dot`` acts on column blocks.
    ``callback(values, vectors, residual_norms)`` is called after every
    iteration, never on the start block, with the ascending Ritz values,
    the Ritz vectors (orthonormalized again at every step) and the
    residual norms ||A x - theta x|| of the recurrence for A X; a true
    return value stops the iteration. It also stops after ``maxiter``
    iterations or once every column is locked.

    Returns (values, vectors) of the last iterate.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[1]
    X = X @ _orthonormalizer(X)
    AX = A.dot(X)
    gram = X.T @ AX
    values, coefficients = np.linalg.eigh(0.5 * (gram + gram.T))
    X, AX = X @ coefficients, AX @ coefficients
    P = AP = None
    active = np.ones(n, dtype=bool)
    residuals = AX - X * values
    norms = _column_norms(residuals)
    for _ in range(maxiter):
        active &= norms > tol
        if not active.any():
            break
        W = residuals if active.all() else residuals[:, active]
        if M is not None:
            W = M.dot(W)
        W = W - X @ (X.T @ W)
        W = W @ _orthonormalizer(W)
        AW = A.dot(W)
        with_p = None
        if P is not None:
            if not active.all():
                P, AP = P[:, active], AP[:, active]
            try:
                to_orthonormal = _orthonormalizer(P)
                P, AP = P @ to_orthonormal, AP @ to_orthonormal
                with_p = _rayleigh_ritz(X, AX, W, AW, P, AP)
            except np.linalg.LinAlgError:
                P = AP = None  # this iteration goes on without P
        values, coefficients = with_p or _rayleigh_ritz(X, AX, W, AW)
        for_w = coefficients[n : n + W.shape[1]]
        step_x, step_ax = W @ for_w, AW @ for_w
        if P is not None:
            step_x += P @ coefficients[n + W.shape[1] :]
            step_ax += AP @ coefficients[n + W.shape[1] :]
        X, AX = X @ coefficients[:n] + step_x, AX @ coefficients[:n] + step_ax
        P, AP = step_x, step_ax
        to_orthonormal = _orthonormalizer(X)
        X, AX = X @ to_orthonormal, AX @ to_orthonormal
        residuals = AX - X * values
        norms = _column_norms(residuals)
        if callback is not None and callback(values, X, norms):
            break
    return values, X


def _solve(ham: GridHamiltonian, k: int, seed: int, maxiter: int, tolerance: float, done):
    """Block iteration for the k lowest states.

    A preconditioned block solver (``lobpcg``, numpy only) is used
    rather than a single-vector Krylov iteration: the low spectrum
    contains exact double degeneracies and sits a tiny relative gap
    below a dense quasi-continuum, which stalls restarted single-vector
    iterations, while the exact free-resolvent preconditioner (diagonal
    in the dual lattice) makes block convergence grid-independent.

    Column j is preconditioned by (H0 - sigma_j)^-1 with sigma_j =
    min(theta_j, min H0 - delta), where theta_j is its latest Ritz value
    (Davidson's shift, capped so that H0 - sigma_j >= delta > 0). Before
    the first iteration's callback sigma_j is the cap for every column.
    The callback keeps the Ritz values and mirrors lobpcg's lock rule, so
    the preconditioner shifts exactly the unlocked columns it receives,
    and raises ``ConsistencyError`` on a block of any other width.
    theta, delta and H0 all scale with H, so multiplying H0 and V by
    lambda multiplies the preconditioner by 1/lambda and leaves the
    iterates unchanged. A single shift fitted to one depth cannot serve
    both the ground state (-0.51 on a unit-depth Gaussian well) and the
    states at the edge. Iterations to settle ``count_below`` (range over
    seeds) on the 2-D mexican hat with a Gaussian well of depth c and
    width 1, box 40/p0, grid 64, k_max 8, for the earlier fixed shift
    0.02 max|V| and for the Ritz shift:

        ======  ===========  ==========
        c, p0   0.02 max|V|  Ritz shift
        ======  ===========  ==========
        1, 1    21-25        6-14
        0.5, 1  18-19        8-13
        1, 0.5  29-43        7-11
        1, 2    12           4
        ======  ===========  ==========

    (12 seeds in the first row, 4 in the others; each row gives the same
    count with either preconditioner at every seed, 7, 5, 5 and 8, and
    in the last row all k_max values lie below the energy, so that count
    is flagged.)

    After every iteration, never on the start block, the k wanted Ritz
    values are tested with their residual norms ||H x_i - theta_i x_i||,
    and the iteration stops as soon as ``done(values, residuals)`` holds
    or ``maxiter`` is spent. The test first takes the norms of the
    solver's recurrence for H X; when it passes, or the budget is
    spent, the residuals are recomputed with a fresh apply of H to the
    orthonormal Ritz vectors and ``done`` must hold again on them, so
    the returned residuals and any Kahan proof drawn from them are
    fresh. ``lowest_eigenvalues`` stops once every residual is below
    ``tolerance``. ``count_below`` stops once its count is settled:
    theta_c + ||R_{:,1..c}||_F < energy for the c values below the
    energy (Kahan's bound, see ``_kahan_count``) and theta_{c+1} -
    ||r_{c+1}|| > energy, so the guard value next to the
    quasi-continuum need not converge. The extra guard vectors are
    never tested. With ``maxiter`` 0 no iterate is tested: the values
    are NaN and the residuals infinite.

    Returns (values, residuals, iterations), values ascending.
    """
    size = ham.size
    guards = 4
    block_size = min(k + guards, size)
    grid_shape = (ham.grid,) * ham.dimension
    lock = 0.5 * tolerance
    floor = float(ham.symbol_table.min())
    # H0 - min H0 on the real-FFT half of the dual lattice, the only part
    # that _fourier_multiply reads
    shifted = (ham.symbol_table - floor)[..., : ham.grid // 2 + 1, None]
    # min H0 - sigma_j per column, and lobpcg's unlocked columns (its lock
    # rule mirrored); before the first callback sigma is the cap
    gaps = np.full(block_size, ham.delta)
    unlocked = np.ones(block_size, dtype=bool)

    def matmat(x):
        return apply(ham, x)

    def precond(x):
        columns = int(np.count_nonzero(unlocked))
        if x.shape[1] != columns:
            raise ConsistencyError(
                f"preconditioner got {x.shape[1]} columns, but {columns} are unlocked"
            )
        block = np.ascontiguousarray(x.reshape(grid_shape + (-1,)), dtype=np.float64)
        return _fourier_multiply(1.0 / (shifted + gaps[unlocked]), block).reshape(x.shape)

    operator = LinearOperator((size, size), matvec=matmat, matmat=matmat, dtype=np.float64)
    preconditioner = LinearOperator((size, size), matvec=precond, matmat=precond, dtype=np.float64)
    rng = np.random.default_rng(seed)
    start = rng.standard_normal((size, block_size))
    # wanted values, Ritz vectors, residual norms, and whether those norms
    # come from a fresh apply
    latest = (np.full(k, np.nan), None, np.full(k, np.inf), True)
    used = 0

    def fresh_residuals(values, vectors):
        wanted = vectors[:, :k]
        return np.linalg.norm(matmat(wanted) - wanted * values, axis=0)

    def settled(values, vectors, residuals):
        nonlocal latest, used, gaps, unlocked
        used += 1
        gaps = np.maximum(floor - values, ham.delta)
        unlocked = unlocked & (residuals > lock)
        latest = (values[:k], vectors, residuals[:k], False)
        if used < maxiter and not done(values[:k], residuals[:k]):
            return False
        latest = (values[:k], vectors, fresh_residuals(values[:k], vectors), True)
        return done(latest[0], latest[2])

    try:
        lobpcg(operator, start, M=preconditioner, tol=lock, maxiter=maxiter,
               callback=settled)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"block iteration broke down after {used} iterations: {exc}",
            eigenvalues=latest[0],
        ) from exc
    values, vectors, residuals, fresh = latest
    if not fresh:  # every column locked before the stop rule held
        residuals = fresh_residuals(values, vectors)
    return values, residuals, used


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

    With V identically zero the ``k_max`` lowest entries of the symbol
    table are exact eigenvalues: they take the same count with zero
    residuals and 0 iterations, and no block iteration runs.

    Raises
    ------
    PreconditionError
        If ``k_max`` is outside 1..64, or the energy is not finite or not
        below ``min H0 + max |V|``.
    """
    k_max = int(k_max)
    if not 1 <= k_max <= 64:
        raise PreconditionError("k_max must lie in 1..64")
    if energy is None:
        energy = ham.minimum - ham.delta
    energy = float(energy)
    if not np.isfinite(energy):
        raise PreconditionError(f"counting energy must be finite, got {energy}")
    v_sup = 0.0
    if ham.potential_table is not None:
        v_sup = float(np.abs(ham.potential_table).max())
    if energy >= float(ham.symbol_table.min()) + v_sup:
        raise PreconditionError(
            "counting energy must stay below the free spectral floor plus |V|"
        )
    tolerance = _residual_tolerance(ham)
    if ham.is_free:  # plane waves are exact eigenvectors
        values = np.sort(ham.symbol_table.ravel())[:k_max]
        residuals, iterations = np.zeros(values.size), 0
    else:
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
