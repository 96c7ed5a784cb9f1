"""Discretized shell convolution operator and its spectrum.

The continuum object is the integral operator on L^2(S, omega) with
kernel ``vhat(s - s')``. On a quadrature mesh it is represented by the
weight-symmetrized Hermitian matrix

    A_ij = sqrt(w_i) * vhat(s_i - s_j) * sqrt(w_j),

whose eigenvalues approximate the operator's and whose eigenvectors,
divided by sqrt(w), sample its eigenfunctions. Negative eigenvalues of
this operator are what the variational pipeline converts into certified
bound states of the full Hamiltonian.

For a radial potential on a mesh with a ring layout
(``SurfaceMesh.rings``) the operator commutes with the azimuthal turns
of the mesh, so :func:`ring_operator` diagonalizes it one azimuthal
frequency at a time from its (M, rings) column block against the
azimuth-0 nodes: one batched rings x rings ``eigh`` in place of the
dense M x M one, and no square kernel matrix. Tabulated potentials and
meshes without a layout keep the dense assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, PreconditionError
from .potentials import Potential, require_band
from .surface import SurfaceMesh

__all__ = [
    "SurfaceOperatorMatrix",
    "assemble",
    "circulant_oracle",
    "count_negative",
    "point_matrix_test",
    "ring_operator",
]


@dataclass(frozen=True)
class SurfaceOperatorMatrix:
    """Spectral data of an assembled shell operator.

    Attributes
    ----------
    mesh : SurfaceMesh
    matrix : ndarray, shape (M, M)
        The weight-symmetrized Hermitian matrix A.
    eigenvalues : ndarray, shape (M,)
        Ascending.
    eigenvectors : ndarray, shape (M, M)
        Orthonormal columns, aligned with ``eigenvalues``.
    eigenfunctions : ndarray, shape (M, M)
        Columns ``Psi_j(s_i) = eigenvectors[i, j] / sqrt(w_i)``, the
        quadrature samples of the operator's eigenfunctions.
    """

    mesh: SurfaceMesh
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eigenfunctions: np.ndarray

    @property
    def norm(self) -> float:
        """Spectral norm of A."""
        return float(np.max(np.abs(self.eigenvalues))) if self.eigenvalues.size else 0.0


def _check_hermitian(a: np.ndarray, deviation: float, what: str) -> None:
    """Raise unless ``deviation = max |a - a^H|`` is within 1e-12 max(1, max |a|).

    The scale is at least 1, so ``max |a|`` is computed only when the
    deviation exceeds 1e-12.
    """
    if deviation > 1e-12 and deviation > 1e-12 * np.abs(a).max():
        raise ConsistencyError(
            f"{what} deviates from Hermitian by {deviation:.3e}; "
            "the transform convention upstream is broken"
        )


def _require_hermitian(a: np.ndarray, adjoint: np.ndarray, what: str) -> None:
    if a.size:
        _check_hermitian(a, np.abs(a - adjoint).max(), what)


def _hermitize(a: np.ndarray, what: str) -> np.ndarray:
    _require_hermitian(a, a.conj().T, what)
    return 0.5 * (a + a.conj().T)


def _dense_operator(mesh: SurfaceMesh, a: np.ndarray) -> SurfaceOperatorMatrix:
    """Spectral data of a Hermitian weight-symmetrized matrix by one dense ``eigh``."""
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    return SurfaceOperatorMatrix(
        mesh=mesh,
        matrix=a,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        eigenfunctions=eigenvectors / np.sqrt(mesh.weights)[:, None],
    )


def ring_operator(mesh: SurfaceMesh, column: np.ndarray, what: str) -> SurfaceOperatorMatrix:
    """Spectral data of a ring-layout operator from its column block, by azimuthal sector.

    ``column[i, r]`` is the kernel between node i and node 0 of ring r
    (shape (M, rings), unweighted). On a ring layout (see
    ``SurfaceMesh.rings``) the weighted blocks
    ``C[p][r, r'] = sqrt(w_r) column[(r, p), r'] sqrt(w_r')`` hold the
    whole operator, ``A[(r, p), (r', p')] = C[p - p' mod n]``, and the
    azimuthal Fourier modes split it into n blocks of size rings:

    - a real mirror-symmetric C (``C[-p] = C[p]``, radial kernels)
      gives the real symmetric ``B_k = sum_p C[p] cos(2 pi k p / n)``,
      k = 0..n/2, each of whose eigenvectors v yields ``v x cos`` and,
      for 0 < k < n/2, ``v x sin`` (modes normalized by sqrt(2/n), by
      sqrt(1/n) at k = 0 and k = n/2);
    - any other Hermitian C gives ``B_k = sum_p C[p] exp(-2 pi i k p / n)``
      (the FFT over p), with modes ``v x exp(2 pi i k p / n) / sqrt(n)``.

    The eigenpairs are stable-sorted by eigenvalue; ``matrix`` is
    gathered from C.

    Raises
    ------
    ConsistencyError
        If ``max |C[p] - C[-p]^H| > 1e-12 max(1, max |C|)``, the
        Hermitian test of the dense assembly.
    """
    rings = mesh.rings
    n = mesh.size // rings
    sqrt_w = np.sqrt(mesh.weights)
    blocks = (sqrt_w[:, None] * column * sqrt_w[::n][None, :])
    blocks = blocks.reshape(rings, n, rings).swapaxes(0, 1)
    p = np.arange(n)
    mirror = -p % n
    adjoint = blocks[mirror].conj().swapaxes(1, 2)
    _require_hermitian(blocks, adjoint, what)
    blocks = 0.5 * (blocks + adjoint)
    angles = 2.0 * np.pi * p / n
    if not np.iscomplexobj(blocks) and np.abs(blocks - blocks[mirror]).max() <= (
            1e-12 * max(1.0, np.abs(blocks).max())):
        k = np.arange(n // 2 + 1)
        cosines = np.cos(angles)[np.outer(k, p) % n]  # phases from k p mod n
        values, vectors = np.linalg.eigh(np.tensordot(cosines, blocks, axes=1))
        sines = k[1:(n + 1) // 2]
        sector = np.concatenate([k, sines])
        modes = np.concatenate([cosines, np.sin(angles)[np.outer(sines, p) % n]])
        modes *= np.where((sector == 0) | (2 * sector == n), np.sqrt(1.0 / n),
                          np.sqrt(2.0 / n))[:, None]
    else:
        sector = p
        values, vectors = np.linalg.eigh(np.fft.fft(blocks, axis=0))
        modes = np.exp(1j * angles)[np.outer(p, p) % n] / np.sqrt(n)
    # eigenpair (mode m, ring vector j) is entry m * rings + j before sorting
    order = np.argsort(values[sector].ravel(), kind="stable")
    mode, j = np.divmod(order, rings)
    eigenvectors = (vectors[sector[mode], :, j].T[:, None, :] * modes[mode].T[None, :, :]).reshape(
        mesh.size, mesh.size)
    # window p of C[-q], q = 0..2n-1, starting at n - p, is row p: C[p - p']
    wrapped = np.concatenate([blocks[mirror], blocks[mirror]])
    rows = np.lib.stride_tricks.sliding_window_view(wrapped, n, axis=0)[n:0:-1]
    return SurfaceOperatorMatrix(
        mesh=mesh,
        matrix=rows.transpose(1, 0, 2, 3).reshape(mesh.size, mesh.size),
        eigenvalues=values[sector].ravel()[order],
        eigenvectors=eigenvectors,
        eigenfunctions=eigenvectors / sqrt_w[:, None],
    )


def assemble(mesh: SurfaceMesh, potential: Potential) -> SurfaceOperatorMatrix:
    """Assemble and fully diagonalize the shell operator matrix.

    A radial potential on a mesh with a ring layout takes the sector
    route of :func:`ring_operator` (one (M, rings) kernel slice); any
    other problem assembles the dense M x M matrix and calls ``eigh``.

    Raises
    ------
    PreconditionError
        If mesh and potential dimensions differ.
    ConsistencyError
        If the assembled matrix is not Hermitian within 1e-12 relative
        tolerance.
    """
    if mesh.dimension != potential.dimension:
        raise PreconditionError("mesh and potential dimensions differ")
    require_band(potential, 2.0 * mesh.radius)
    what = "assembled operator matrix"
    if potential.is_radial and mesh.rings:
        column = potential.kernel_matrix(mesh.nodes, mesh.nodes[:: mesh.size // mesh.rings])
        return ring_operator(mesh, np.asarray(column), what)
    kernel = potential.kernel_matrix(mesh.nodes)
    sqrt_w = np.sqrt(mesh.weights)
    return _dense_operator(mesh, _hermitize(sqrt_w[:, None] * kernel * sqrt_w[None, :], what))


def circulant_oracle(mesh: SurfaceMesh, potential: Potential) -> np.ndarray:
    """Independent spectrum via the discrete Fourier transform.

    For a radial potential on a uniform circle mesh the kernel depends
    only on the angle difference, so the assembled matrix is circulant
    and its eigenvalues are the weight times the DFT of the first kernel
    row. Returned sorted ascending; they approximate the continuum
    angular eigenvalues ``E_m = R * integral k(theta) exp(-i m theta)``.
    """
    if mesh.dimension != 2 or not mesh.uniform:
        raise PreconditionError("circulant route needs a uniform circle mesh")
    if not potential.is_radial:
        raise PreconditionError("circulant route needs a radial potential")
    row = np.asarray(potential.kernel_matrix(mesh.nodes[:1], mesh.nodes))[0]
    weight = float(mesh.weights[0])
    spectrum = weight * np.fft.fft(row)
    # symmetric real row: the transform is real up to roundoff
    return np.sort(spectrum.real)


def count_negative(op: SurfaceOperatorMatrix, threshold: float | None = None) -> int:
    """Number of eigenvalues below ``-threshold``.

    The default threshold ``1e-8 * max(1, ||A||)`` scales with the
    operator because the continuum spectrum accumulates at zero: a fixed
    absolute cutoff would make the count mesh-dependent in an
    uncontrolled way.
    """
    if threshold is None:
        threshold = 1e-8 * max(1.0, op.norm)
    threshold = float(threshold)
    if threshold <= 0.0:
        raise PreconditionError("threshold must be positive")
    return int(np.count_nonzero(op.eigenvalues < -threshold))


def point_matrix_test(potential: Potential, points, tolerance: float = 1e-12):
    """Negative-definiteness test of the kernel matrix on arbitrary shell points.

    Builds the Hermitian matrix ``B_jk = vhat(s_j - s_k)`` and reports
    whether its largest eigenvalue is below ``-tolerance``. For any
    nonpositive V that is not identically zero this matrix is negative
    definite for every choice of pairwise distinct points (the positive
    definiteness of transforms of nonnegative finite measures applied to
    -V), which makes the test a sharp smoke detector for convention
    errors.

    Returns
    -------
    (matrix, is_negative_definite) : (ndarray, bool)
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] >= 2:
        diffs = points[:, None, :] - points[None, :, :]
        dist2 = np.sum(diffs * diffs, axis=-1)
        off = dist2[~np.eye(points.shape[0], dtype=bool)]
        if off.min() == 0.0:
            raise PreconditionError("points must be pairwise distinct")
    matrix = _hermitize(np.asarray(potential.kernel_matrix(points)), "point kernel matrix")
    largest = float(np.linalg.eigvalsh(matrix)[-1])
    return matrix, bool(largest < -float(tolerance))
