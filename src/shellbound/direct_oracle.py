"""Brute-force periodic-box reference for the full Hamiltonian.

The free symbol is sampled on the dual lattice of a periodic box, so
plane waves are exact eigenvectors of the free part and the only
discretization errors are the box truncation of the potential and the
momentum cutoff. The lowest part of the spectrum is computed matrix-free
and counted below the essential-spectrum edge with a buffer that
separates genuine bound states from the finite-box quasi-continuum.

When both tables of an even grid are even under j -> -j mod G on every
axis (a radial problem on the centered grid), H commutes with each axis
reflection and splits into parity sectors: vectors even or odd in each
axis, set by their values on the fundamental domain j = 0..G/2.
Sectors that an axis permutation maps onto each other are solved once
and counted with a multiplicity, but only when both tables are exactly
invariant under that permutation. H0 and a radial V are evaluated on
sorted absolute coordinates, so on a radial problem every permutation
holds exactly: 2-D solves EO (x2), EE and OO, 3-D EEO (x3), EOO (x3),
EEE and OOO, in that order, the largest multiplicity first. Every other
problem is the one sector of the whole grid.

Every sector is solved in its dual-lattice coordinates y = T x, where
T is one real orthogonal symmetric matrix per axis, its own inverse: the
DCT-I or DST-I matrix of each axis for a parity sector, and the discrete
Hartley matrix for the whole grid. There H0 is its table times y and V
acts as T(V T y). The Hartley matrix diagonalizes H0 because H0's table
is even under k -> -k mod G on every axis; a table that is not raises
``ConsistencyError``.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigurationError, ConsistencyError, ConvergenceError, PreconditionError
from .potentials import Potential
from .symbols import DispersionSymbol

__all__ = [
    "GridHamiltonian",
    "CountResult",
    "SectorCount",
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
class SectorCount:
    """The count of one parity sector, with the diagnostics of its solve.

    ``parities`` holds +1 (even) or -1 (odd) per axis, and is empty for
    the one sector of the whole grid. ``multiplicity`` is the number of
    sectors with this spectrum: the sector itself and those an exact
    axis permutation symmetry of the tables maps it onto. ``count`` is
    the sector's Kahan-proven count (not multiplied), ``settled`` says
    whether its stop rule held, and ``eigenvalues`` and ``residuals``
    are its wanted Ritz values and their residual norms.
    """

    parities: tuple[int, ...]
    multiplicity: int
    count: int
    settled: bool
    iterations: int
    eigenvalues: np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True)
class CountResult:
    """Bound-state count with its diagnostics.

    Each sector's count is backed by Kahan's bound: the c lowest Ritz
    values of the sector satisfy theta_c + ||R_{:,1..c}||_F < energy, so
    at least c eigenvalues of the sector lie below the energy. Sectors
    are orthogonal invariant subspaces of the grid operator, so the sum
    of their counts, each times its multiplicity, is a proven lower
    count; ``count`` is that sum capped at ``k_max``. ``is_lower_bound``
    is set for one of three reasons: the iteration budget ran out before
    every sector's count settled (``budget_exhausted``); a sector's
    block reached its numerical floor before its count settled, every
    column locked at roundoff or its search directions dependent, as at
    an energy that is an eigenvalue, with budget to spare; or the sum
    reached ``k_max``, so more states may follow beyond the window.
    ``eigenvalues`` and ``residuals`` are the lowest sector Ritz values,
    at most ``k_max``, each repeated by its multiplicity, with their
    residual norms. The list stops at the lowest top value of a sector
    window that does not hold its whole sector, since that sector was
    not searched above it, so no sector leaves out a value below the
    list's last one; it may hold fewer than ``k_max`` values. Values
    above the energy need not meet ``tolerance``: a sector's solve ends
    once its count settles. ``sectors`` holds the per-sector counts in
    solve order. ``tolerance`` is the residual norm at which
    an eigenpair counts as converged (1e-8 of the spectral scale).
    ``iterations`` is the exact number of block iterations run over all
    sectors: the stop rule is tested after each one.
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
    sectors: tuple[SectorCount, ...] = ()

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
        confining growth (below 4R), a 3-D grid exceeds the G <= 96
        desk-scale limit, or V is not identically zero and the 33 lowest
        lattice values of H0 are equal, which would leave a counting
        buffer of 0 (a 3-D lattice whose shell holds that many points at
        one distance). Spacings between R/8 and R/2 only warn: they are
        coarser than ideal but measured to give stable counts. A free
        problem needs no buffer, since its count takes no solve, and
        keeps delta 0 there.
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
    step = box_edge / grid
    # the dual lattice in fftfreq layout, bitwise numpy.fft.fftfreq(grid, step)
    lattice = (np.arange(grid) + grid // 2) % grid - grid // 2
    axis_k = 2.0 * np.pi * (lattice * (1.0 / (grid * step)))
    # H0 depends on |p| alone, so it is evaluated on the sorted absolute
    # components: the table is then exactly invariant under every axis
    # reflection and permutation, whatever the order of the float sums
    symbol_table = symbol.evaluate(_canonical(axis_k, n))
    potential_table = None
    if potential is not None:
        axis_x = (np.arange(grid) - grid // 2) * step
        if potential.is_radial:
            positions = _canonical(axis_x, n)
        else:
            positions = np.stack(np.meshgrid(*([axis_x] * n), indexing="ij"), axis=-1)
        table = np.asarray(potential.evaluate(positions), dtype=np.float64)
        if np.any(table):
            potential_table = table
    lowest = np.sort(np.partition(symbol_table.ravel(), 32)[:33])
    if lowest[32] == lowest[0] and potential_table is not None:
        raise ConfigurationError(
            f"the 33 lowest lattice levels of H0 are equal on box edge {box_edge:.6g}, "
            f"grid {grid}, so the counting buffer delta would be 0; change the box edge"
        )
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


def _canonical(axis: np.ndarray, n: int) -> np.ndarray:
    """Grid points of ``axis`` in n dimensions, each as its sorted absolute components."""
    points = np.stack(np.meshgrid(*([np.abs(axis)] * n), indexing="ij"), axis=-1)
    return np.sort(points, axis=-1)


def _domain(grid: int, parity: int) -> np.ndarray:
    """Fundamental-domain indices of one axis, which are also its dual-lattice indices.

    Parity 0 is the whole axis, j = 0..G-1.
    """
    half = grid // 2
    if parity == 0:
        return np.arange(grid)
    return np.arange(half + 1) if parity > 0 else np.arange(1, half)


def _parity_basis(grid: int, parity: int) -> np.ndarray:
    """The orthogonal, symmetric basis of one axis; parity 0 is the whole axis.

    For parity +1 (-1) it is the DCT-I (DST-I) matrix: its columns are
    the cosines (sines) of the dual lattice k = 0..G/2 (k = 1..G/2-1) on
    the fundamental domain j = 0..G/2 (j = 1..G/2-1), normalized on the
    whole grid and written in the coordinates sqrt(w_j) v_j, where w_j is
    the number of grid points that the reflection j -> -j mod G maps onto
    j (1 at j = 0 and G/2, else 2). Those coordinates make the domain of
    a sector isometric to the sector's subspace of the grid. For parity
    0 it is the discrete Hartley matrix cas(2 pi j k / G) / sqrt(G), with
    cas = cos + sin and j, k = 0..G-1 (Bracewell 1983), which is its own
    inverse and diagonalizes every multiplier even under k -> -k mod G.
    """
    j = _domain(grid, parity)
    phases = 2.0 * np.pi * (np.outer(j, j) % grid) / grid
    if parity == 0:
        return (np.cos(phases) + np.sin(phases)) / np.sqrt(grid)
    weights = np.where((j == 0) | (j == grid // 2), 1.0, 2.0)
    waves = (np.cos if parity > 0 else np.sin)(phases)
    return np.sqrt(np.outer(weights, weights) / grid) * waves


def _transform(bases, block: np.ndarray) -> np.ndarray:
    """T applied to a (d_1, ..., d_n, b) batch: each axis through its orthogonal symmetric basis.

    One GEMM per axis, which then moves that axis behind the others, so
    n of them restore the order. T is its own inverse.
    """
    rotate = tuple(range(1, len(bases))) + (0, len(bases))
    for basis in bases:
        shape = block.shape
        block = (basis @ block.reshape(shape[0], -1)).reshape(shape).transpose(rotate)
    return block


@dataclass(frozen=True)
class _Sector:
    """An invariant subspace of H, in its dual-lattice coordinates y = T x.

    ``bases`` holds one basis per axis (see ``_parity_basis``), whose
    product T takes the sector's grid values x to y; ``symbol`` is H0 on
    the sector's dual-lattice indices, which acts on y as a multiplier,
    and ``potential`` is V on its domain, or None. ``parities`` is empty
    for the whole grid, whose axes are all of parity 0.
    """

    parities: tuple[int, ...]
    multiplicity: int
    bases: tuple[np.ndarray, ...]
    symbol: np.ndarray
    potential: np.ndarray | None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.symbol.shape

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def apply(self, block: np.ndarray) -> np.ndarray:
        """H = H0 + T V T applied to a dual-lattice-shaped (..., b) block of real vectors."""
        out = self.symbol[..., None] * block
        if self.potential is not None:
            out += _transform(self.bases, self.potential[..., None] * _transform(self.bases, block))
        return out

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """H applied to a (size, b) block of real vectors."""
        block = np.ascontiguousarray(x, dtype=np.float64).reshape(self.shape + (-1,))
        return self.apply(block).reshape(x.shape)


def _sector(ham: GridHamiltonian, parities: tuple[int, ...], basis: dict,
            multiplicity: int = 1) -> _Sector:
    """The sector of one parity per axis (+1 even, -1 odd, 0 the whole axis).

    ``basis`` maps each parity in ``parities`` to its ``_parity_basis``,
    so sectors built together share their bases.
    """
    domain = np.ix_(*(_domain(ham.grid, parity) for parity in parities))
    return _Sector(
        parities=parities if any(parities) else (),
        multiplicity=multiplicity,
        bases=tuple(basis[parity] for parity in parities),
        symbol=ham.symbol_table[domain],
        potential=None if ham.potential_table is None else ham.potential_table[domain],
    )


def _is_even(table: np.ndarray, axis: int) -> bool:
    """Whether ``table`` is exactly even under j -> -j mod G along ``axis``."""
    return np.array_equal(table, np.roll(np.flip(table, axis), 1, axis))


def _full_sector(ham: GridHamiltonian) -> _Sector:
    """The whole grid as one sector, on the Hartley basis of every axis.

    Raises ``ConsistencyError`` when H0's table is not even on every
    axis, which that basis needs to diagonalize it.
    """
    for axis in range(ham.dimension):
        if not _is_even(ham.symbol_table, axis):
            raise ConsistencyError(
                f"the symbol table is not even under k -> -k on axis {axis}, "
                "so the Hartley basis cannot apply H0"
            )
    return _sector(ham, (0,) * ham.dimension, {0: _parity_basis(ham.grid, 0)})


def _sectors(ham: GridHamiltonian) -> list[_Sector]:
    """The sectors that ``count_below`` and ``lowest_eigenvalues`` solve one at a time, in order.

    Parity sectors need an even grid and tables that are each exactly
    even under j -> -j mod G on every axis; two sectors merge into one
    with multiplicity 2 (or more) when an axis permutation maps one onto
    the other and leaves both tables exactly unchanged. Anything else is
    the one sector of the whole grid. The list runs from the largest
    multiplicity down, ties in parity order (even before odd, axis by
    axis), so the sectors whose states fill the most places of a count
    are solved first. Each parity basis is built once per call and shared
    by the sectors that use it.
    """
    tables = [ham.symbol_table]
    if ham.potential_table is not None:
        tables.append(ham.potential_table)
    n = ham.dimension
    mirrored = ham.grid % 2 == 0 and all(
        _is_even(table, axis) for table in tables for axis in range(n)
    )
    if not mirrored:
        return [_full_sector(ham)]
    symmetries = [
        permutation for permutation in itertools.permutations(range(n))
        if all(np.array_equal(table, table.transpose(permutation)) for table in tables)
    ]
    basis = {parity: _parity_basis(ham.grid, parity) for parity in (1, -1)}
    sectors, seen = [], set()
    for parities in itertools.product((1, -1), repeat=n):
        if parities in seen:
            continue
        orbit = {tuple(parities[axis] for axis in permutation) for permutation in symmetries}
        seen |= orbit
        sectors.append(_sector(ham, parities, basis, len(orbit)))
    return sorted(sectors, key=lambda sector: -sector.multiplicity)


def apply(ham: GridHamiltonian, psi) -> np.ndarray:
    """Apply H = H0(-i grad) + V to a state vector.

    Accepts a flat vector of length G**n, the grid shape, or a batch
    with a trailing column axis; returns the same shape. It is the
    whole-grid sector's H between two Hartley transforms T, which take
    the state to that sector's coordinates and back.

    Notes
    -----
    The potential table is sampled on the centered grid x_j =
    (j - G//2) h while the plane waves of the dual lattice reference
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
    whole = _full_sector(ham)
    # H0 and V are real, so H acts on the real and imaginary parts apart:
    # they go through as interleaved real columns. The whole grid's H acts
    # on Hartley coefficients, so T takes the state there and back
    dtype = np.complex128 if np.iscomplexobj(block) else np.float64
    real = np.ascontiguousarray(block, dtype=dtype).view(np.float64)
    out = _transform(whole.bases, whole.apply(_transform(whole.bases, real)))
    out = np.ascontiguousarray(out).view(dtype)
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
    are the operator applied to them. The upper Gram blocks that this does
    not fix are computed into matrices allocated once, and mirrored below.
    Raises ``np.linalg.LinAlgError`` if the Gram matrix is not positive definite.
    """
    n, k = X.shape[1], X.shape[1] + W.shape[1]
    size = k if P is None else k + P.shape[1]
    gram_a, gram_b = np.empty((size, size)), np.eye(size)
    gram_a[:n, :n], gram_a[:n, n:k], gram_a[n:k, n:k] = X.T @ AX, X.T @ AW, W.T @ AW
    if P is not None:
        gram_a[:n, k:], gram_a[n:k, k:], gram_a[k:, k:] = X.T @ AP, W.T @ AP, P.T @ AP
        gram_b[:n, k:], gram_b[n:k, k:] = X.T @ P, W.T @ P
    for edge in (n, k):  # without P the edge k is the last index, so nothing is left below it
        gram_a[edge:, :edge], gram_b[edge:, :edge] = gram_a[:edge, edge:].T, gram_b[:edge, edge:].T
    inverse = np.linalg.inv(np.linalg.cholesky(gram_b))
    reduced = inverse @ gram_a @ inverse.T
    values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
    return values[:n], inverse.T @ vectors[:, :n]


def lobpcg(A, X, M=None, tol=0.0, maxiter=20, callback=None):
    """Lowest eigenpairs of a symmetric operator by LOBPCG (numpy only).

    Knyazev's locally optimal block preconditioned conjugate gradient
    method (SIAM J. Sci. Comput. 23, 2001) for the ``X.shape[1]``
    smallest eigenvalues of ``A``. Each iteration applies ``M`` to the
    whole residual block R, one column per Ritz pair, and ``A`` twice:
    to the orthonormalized preconditioned residuals W = M R of the
    active columns, and, after Rayleigh-Ritz on [X, W, P], to the new
    Ritz block X once it is orthonormalized again. P holds the W and P
    parts of the previous step, and A P follows them by the same linear
    combination; A X is never formed that way, so it cannot drift from
    X. A column whose residual norm falls to ``tol`` is locked for good:
    it stays in X but adds no W or P column. Once a column is locked,
    A is applied to P together with X, in the same call, instead: near
    convergence the W and P parts of a step cancel, so the recurrence
    error of A P grows from one iteration to the next, and the
    Rayleigh-Ritz step would carry it into the locked columns, which no
    longer receive corrections. When P cannot be
    orthonormalized, or the Gram matrix with P is not positive definite,
    the iteration goes on without P; when W or X cannot be
    orthonormalized, ``np.linalg.LinAlgError`` propagates.

    ``A`` and ``M`` are objects whose ``.dot`` acts on column blocks.
    ``callback(values, vectors, residual_norms)`` is called after every
    iteration, never on the start block, with the ascending Ritz values,
    the orthonormal Ritz vectors and their residual norms
    ||A x - theta x||, taken from that iteration's apply of A to X; a
    true return value stops the iteration. It also stops after
    ``maxiter`` iterations or once every column is locked.

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
        W = residuals if M is None else M.dot(residuals)
        if not active.all():
            W = W[:, active]
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
        X = X @ coefficients[:n] + step_x
        P, AP = step_x, step_ax
        X = X @ _orthonormalizer(X)
        if active.all():
            AX = A.dot(X)
        else:  # a locked column takes no more corrections, so A P must not drift
            AX, AP = np.hsplit(A.dot(np.hstack([X, P])), [n])
        residuals = AX - X * values
        norms = _column_norms(residuals)
        if callback is not None and callback(values, X, norms):
            break
    return values, X


def _solve(ham: GridHamiltonian, sector: _Sector, k: int, rng: random.Random,
           maxiter: int, tolerance: float, done):
    """Block iteration for the k lowest states of one sector.

    A preconditioned block solver (``lobpcg``, numpy only) is used
    rather than a single-vector Krylov iteration: the low spectrum
    sits a tiny relative gap below a dense quasi-continuum, which stalls
    restarted single-vector iterations, while the exact free-resolvent
    preconditioner makes block convergence grid-independent. The
    iteration runs in the sector's dual-lattice coordinates (see
    ``_Sector``), where H0 and so the preconditioner are diagonal.

    Column j is preconditioned by (H0 - sigma_j)^-1 with sigma_j =
    min(theta_j, min H0 - delta), where theta_j is its latest Ritz value
    (Davidson's shift, capped so that H0 - sigma_j >= delta > 0) and
    min H0 is taken over the whole dual lattice: one division by
    (H0 - min H0) + (min H0 - sigma_j). Before the first iteration's
    callback sigma_j is the cap for every column. The callback keeps the
    Ritz values, and lobpcg hands the preconditioner the whole residual
    block, locked columns included, so column j is always shifted by its
    own theta_j.

    The start block, k + 4 columns uniform on [-1, 1) drawn from ``rng``
    (a ``random.Random``, see ``kernels.uniform``, so the sectors of one
    count share one seeded stream), is taken twice through the
    preconditioner with every sigma_j at the cap, which weights each
    coordinate by (H0 - min H0 + delta)^-2 at its lattice point. A
    bound state below the edge satisfies psi^ = -(H0 - E)^-1 V psi
    (Birman-Schwinger), so its dual-lattice profile peaks on the shell
    where H0 is least, and the start leans that way. theta, delta and
    H0 all scale with H, so multiplying H0 and V by lambda multiplies
    the preconditioner by 1/lambda, the start block by 1/lambda^2, and
    leaves the iterates unchanged. Iterations to settle ``count_below``
    in each sector, in solve order (range over seeds), on the 2-D
    mexican hat with a Gaussian well of depth c and width 1, box 40/p0,
    grid 64, k_max 8 (so EO, of multiplicity 2, is solved first, for 4
    states, and EE and OO for the places still open), and the
    whole-grid route (one sector on the Hartley basis) on the same
    problems for comparison:

        ======  ===  ===  ===  =====  ==========
        c, p0   EO   EE   OO   total  whole grid
        ======  ===  ===  ===  =====  ==========
        1, 1    4    3    2    9      5
        0.5, 1  2    3    1-2  6-7    4
        1, 0.5  2    5    2    9      6
        1, 2    3-4  2    2    7-8    4
        ======  ===  ===  ===  =====  ==========

    (12 seeds in the first row, 4 in the others; both routes give the
    same count at every seed, 7, 5, 5 and 8, and in the last row the
    sector counts add up to more than k_max, so that count is flagged.
    A sector iteration works on vectors a quarter of the grid's size,
    and in the first row EE and OO iterate on blocks of 8 and 6
    columns, not 12.)

    After every iteration, never on the start block, the k wanted Ritz
    values are tested once with their residual norms ||H x_i - theta_i x_i||,
    which ``lobpcg`` takes from its apply of H to the orthonormal Ritz
    vectors in that iteration, and the iteration stops as soon as
    ``done(values, residuals)`` holds or ``maxiter`` is spent. The
    returned residuals are those of the last test, so any Kahan proof
    drawn from them rests on true residuals and nothing is rechecked.
    ``lowest_eigenvalues`` stops once every residual is below
    ``tolerance``. ``count_below`` stops once the sector's count is
    settled: theta_c + ||R_{:,1..c}||_F < energy for the c values below
    the energy (Kahan's bound, see ``_kahan_count``) and theta_{c+1} -
    ||r_{c+1}|| > energy, so the guard value next to the
    quasi-continuum need not converge. The extra guard vectors are
    never tested. With ``maxiter`` 0 no iterate is tested: the values
    are NaN and the residuals infinite.

    A column is locked once its residual norm falls to 1e-6 of
    ``tolerance``, at roundoff, since Kahan's rule may need residuals far
    below ``tolerance`` to prove a count close to the energy. When every
    column is locked, or the search directions turn dependent after the
    first iteration (``lobpcg`` raises), before the stop rule holds, the
    block has reached its floor: the iteration ends there, with the
    values and residuals of the last iteration. A breakdown before the
    first iteration raises ``ConvergenceError``.

    Returns (values, residuals, iterations), values ascending.
    """
    size = sector.size
    guards = 4
    block_size = min(k + guards, size)
    lock = 1e-6 * tolerance
    floor = float(ham.symbol_table.min())
    # H0 - min H0 on the sector's dual-lattice indices, one row per coordinate
    shifted = (sector.symbol - floor).reshape(size, 1)
    # min H0 - sigma_j per column; before the first callback sigma is the cap
    gaps = np.full(block_size, ham.delta)

    def precond(x):
        if x.shape[1] != gaps.size:
            raise ValueError(f"block of {x.shape[1]} columns for {gaps.size} shifts")
        return x / (shifted + gaps)

    operator = LinearOperator((size, size), matvec=sector.matmat, matmat=sector.matmat,
                              dtype=np.float64)
    preconditioner = LinearOperator((size, size), matvec=precond, matmat=precond, dtype=np.float64)
    start = precond(precond(kernels.uniform(rng, (size, block_size))))
    # the wanted values and residual norms of the latest iterate
    latest = (np.full(k, np.nan), np.full(k, np.inf))
    used = 0

    def settled(values, vectors, residuals):
        nonlocal latest, used, gaps
        used += 1
        gaps = np.maximum(floor - values, ham.delta)
        latest = (values[:k], residuals[:k])
        return done(*latest)

    try:
        lobpcg(operator, start, M=preconditioner, tol=lock, maxiter=maxiter,
               callback=settled)
    except np.linalg.LinAlgError as exc:
        if not used:
            raise ConvergenceError(
                f"block iteration broke down after {used} iterations: {exc}",
                eigenvalues=latest[0],
            ) from exc
    return (*latest, used)


def _solve_sectors(ham: GridHamiltonian, k: int, seed: int, maxiter: int, tolerance: float,
                   rule) -> tuple[list[tuple[tuple[int, ...], int, np.ndarray, np.ndarray, int]],
                                  float]:
    """``_solve`` on each sector in turn, within one budget and one random stream.

    ``rule(values, residuals)`` returns (found, final): the states of the
    sector that the later ones need not look for, and whether its solve
    may stop (``_solve``'s ``done``). The sectors come in the order of
    ``_sectors``, largest multiplicity first. With F places filled by the
    sectors before it, found times multiplicity, a sector of
    multiplicity m is solved for its ceil((k - F) / m) lowest states, at
    least 1 and at most its size: each of its values fills m places of
    the merged list, so that many fill the k - F places still open. The
    first sector's window, ceil(k / m), fills all k places alone. A
    sector whose places the earlier ones have already filled is still
    solved for its lowest state: no state of it can change a count that
    is then capped, but the count then lists every sector, and its
    merged values reach that sector's lowest one (see the cover below).
    Every start block is drawn from one ``random.Random(seed)``, and each
    sector gets the iterations that the earlier ones left, so the total
    stays within ``maxiter``.

    Returns (parities, multiplicity, values, residuals, iterations) per
    sector, and the cover: the highest value of a sector whose window is
    below its size, the lowest such one over the sectors that iterated
    (infinite when there is none). States above it were not looked for
    in that sector, so merged values above the cover need not be the
    lowest ones (see ``_lowest``). A sector that the budget never
    reached has NaN values and sets no cover.

    With V identically zero the operator is diagonal in the plane-wave
    basis: the k lowest entries of the sorted symbol table are exact
    eigenvalues, returned as the one sector of the whole grid with zero
    residuals and 0 iterations, and no block iteration runs.
    """
    if ham.is_free:
        values = np.sort(ham.symbol_table.ravel())[:k]
        return [((), 1, values, np.zeros(values.size), 0)], math.inf
    rng = random.Random(seed)
    solved, used, filled, cover = [], 0, 0, math.inf
    for sector in _sectors(ham):
        window = min(max(math.ceil((k - filled) / sector.multiplicity), 1), sector.size)
        values, residuals, iterations = _solve(
            ham, sector, window, rng, maxiter - used, tolerance,
            lambda values, residuals: rule(values, residuals)[1])
        used += iterations
        filled += sector.multiplicity * rule(values, residuals)[0]
        if window < sector.size and iterations:
            cover = min(cover, float(values[-1]))
        solved.append((sector.parities, sector.multiplicity, values, residuals, iterations))
    return solved, cover


def _lowest(solved, k: int, cover: float) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest values of ``_solve_sectors`` up to its cover, each repeated by its multiplicity.

    Past the cover some sector may hold states it was not solved for, so
    the list stops there and may hold fewer than k values. When each
    sector of multiplicity m is solved for ceil(k / m) states, as in
    ``lowest_eigenvalues``, the cover never cuts the k lowest: the w
    values up to a sector's top fill m w >= k places. A sector that was
    never iterated (NaN values) adds nothing to the list.
    """
    values = np.concatenate([np.repeat(v, m) for _, m, v, _, _ in solved])
    residuals = np.concatenate([np.repeat(r, m) for _, m, _, r, _ in solved])
    order = np.argsort(values, kind="stable")[:k]
    order = order[values[order] <= cover]
    return values[order], residuals[order]


def lowest_eigenvalues(ham: GridHamiltonian, k: int, seed: int = 0,
                       maxiter: int = 1500) -> np.ndarray:
    """The k smallest eigenvalues, residuals below 1e-8 of the spectral scale.

    Each sector (see ``_sectors``) of multiplicity m is solved for its
    own ceil(k / m) lowest states within one shared budget of ``maxiter``
    block iterations; the result merges them, each value repeated by its
    sector's multiplicity, and keeps the k lowest.
    With V identically zero the sorted symbol table is returned (exact,
    no iteration; see ``_solve_sectors``).

    Raises
    ------
    ConvergenceError
        If some sector's requested state misses the residual tolerance
        within the iteration budget, or when its block reached its floor
        first (see ``_solve``); the error carries the k lowest Ritz
        values and their residual norms.
    """
    k = int(k)
    if not 1 <= k <= 64:
        raise PreconditionError("k must lie in 1..64")
    if k > ham.size:
        raise PreconditionError("k exceeds the discretization size")
    tolerance = _residual_tolerance(ham)
    # every sector may hold some of the k lowest values, so none is found early
    solved, cover = _solve_sectors(ham, k, seed, maxiter, tolerance,
                                   lambda values, residuals: (0, residuals.max() < tolerance))
    missed = sum(int(np.count_nonzero(~(residuals < tolerance))) for *_, residuals, _ in solved)
    values, residuals = _lowest(solved, k, cover)
    if missed:
        worst = max(float(np.max(residuals)) for *_, residuals, _ in solved)
        used = sum(iterations for *_, iterations in solved)
        raise ConvergenceError(
            f"{missed} sector states missed residual tolerance {tolerance:.3e} "
            f"(worst {worst:.3e}) after {used} of {maxiter} iterations",
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
    A full window is final only as a lower count: more states may lie
    beyond it. ``count_below`` solves a sector of multiplicity m for
    ceil((k_max - F) / m) states, where F is the sum of the proven
    counts, times multiplicity, of the sectors solved before it, so a
    full sector window adds at least m ceil((k_max - F) / m) >= k_max - F
    to a sum that already holds F: the sum reaches k_max, and the count
    is capped at k_max and flagged. A window cut to the sector's size
    holds the whole sector and is exact.
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

    The sectors (see ``_sectors``) are solved one after another, the
    largest multiplicity first, with start blocks drawn from one
    ``random.Random(seed)``. A sector of multiplicity m is solved for its
    ceil((k_max - F) / m) lowest states, at least 1, where F is the count
    already proven by the sectors before it, each times its multiplicity:
    only the k_max - F places still open can change the answer. Its
    block iteration stops as soon as its count is settled rather than
    when every Ritz value meets the residual tolerance: the c Ritz values
    below the energy satisfy
    theta_c + ||R_{:,1..c}||_F < energy, which by Kahan's theorem proves
    c eigenvalues of the sector below it, and the next Ritz value clears
    the energy by more than its residual norm. The guard value just
    above the energy sits in the quasi-continuum and need not converge.
    ``maxiter`` bounds the block iterations of all sectors together:
    each sector gets what the earlier ones left. The reported count is
    the sum of the Kahan-proven sector counts, each times its
    multiplicity, capped at ``k_max``; ``is_lower_bound`` is set when
    the budget ran out before every sector's count settled
    (``budget_exhausted``), when a sector stopped unsettled at its
    numerical floor with budget to spare (see ``_solve``), or when that
    sum reaches ``k_max``.

    With V identically zero the ``k_max`` lowest entries of the symbol
    table are exact eigenvalues (see ``_solve_sectors``): they take the
    same count with zero residuals and 0 iterations, and no block
    iteration runs.

    Raises
    ------
    PreconditionError
        If ``k_max`` is outside 1..64, or the energy is not finite or not
        below ``min H0 + max |V|``.
    ConvergenceError
        If a sector's block breaks down before its first iteration.
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
    solved, cover = _solve_sectors(ham, k_max, seed, maxiter, tolerance,
                                   lambda values, residuals: _kahan_count(values, residuals, energy))
    sectors = tuple(
        SectorCount(parities, multiplicity,
                    *_kahan_count(values, residuals, energy), iterations, values, residuals)
        for parities, multiplicity, values, residuals, iterations in solved
    )
    total = sum(sector.count * sector.multiplicity for sector in sectors)
    settled = all(sector.settled for sector in sectors)
    iterations = sum(sector.iterations for sector in sectors)
    values, residuals = _lowest(solved, k_max, cover)
    return CountResult(
        count=min(total, k_max),
        is_lower_bound=not settled or total >= k_max,
        eigenvalues=values,
        residuals=residuals,
        energy=energy,
        delta=ham.delta,
        iterations=iterations,
        budget_exhausted=not settled and iterations == maxiter,
        tolerance=tolerance,
        sectors=sectors,
    )
