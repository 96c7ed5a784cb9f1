"""Discretized shell convolution operator and its spectrum.

The continuum object is the integral operator on L^2(S, omega) with
kernel ``vhat(s - s')``. On a quadrature mesh it is represented by the
weight-symmetrized Hermitian matrix

    A_ij = sqrt(w_i) * vhat(s_i - s_j) * sqrt(w_j),

whose eigenvalues approximate the operator's and whose eigenvectors,
divided by sqrt(w), sample its eigenfunctions. Negative eigenvalues of
this operator are what the variational pipeline converts into certified
bound states of the full Hamiltonian, and the eigenpairs are all that
:func:`assemble` returns: the certificate never reads A itself, and
:func:`_weighted_kernel` rebuilds it densely as an independent reference.

For a radial potential on a mesh with a ring layout
(``SurfaceMesh.rings``) the operator commutes with the azimuthal turns
of the mesh, so :func:`ring_operator` diagonalizes it one azimuthal
frequency at a time from its (M, rings) column block against the
azimuth-0 nodes: one batched rings x rings ``eigh`` in place of the
dense M x M one, and no square kernel matrix. :func:`ring_layout`
decides this route, for the shell operator and for the tube forms of
:func:`shellbound.rayleigh_ritz.certify` alike, and builds the cosine
table both use. The kernel must be real and unchanged by the azimuth
mirror p -> -p, as the kernel of a real radial V is; the column and
every tube slice are checked by :func:`_require_mirror`, and one that
is not raises ``ConsistencyError`` rather than taking another route.
Tabulated potentials and meshes without a layout keep the dense
assembly, which is the same computation with one azimuth per ring: its
column is the whole M x M kernel. Both routes, and the spin gauge check
of :func:`shellbound.spin_orbit.gauge_deviation`, read the weighted,
Hermitian blocks of the operator from one function,
:func:`_ring_blocks`. A band frame u (a symbol's ``frame``,
see :mod:`shellbound.spin_orbit`) multiplies the kernel by the overlap
``<u(s), u(s')>`` on either route, formed in one place,
:func:`_band_matrix`: scalar and spin share one assembly, and the
band-frame column is the one that takes the FFT over azimuth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
]

_ASSEMBLED = "assembled operator matrix"


@dataclass(frozen=True)
class SurfaceOperatorMatrix:
    """Spectral data of an assembled shell operator: its eigenpairs, not A itself.

    Attributes
    ----------
    mesh : SurfaceMesh
    eigenvalues : ndarray, shape (M,)
        Ascending.
    eigenfunctions : ndarray, shape (M, M)
        Columns ``Psi_j(s_i) = v_ij / sqrt(w_i)`` for orthonormal
        eigenvectors v_j of the weight-symmetrized A, aligned with
        ``eigenvalues``: the quadrature samples of the operator's
        eigenfunctions, normalized by ``sum_i w_i |Psi_j(s_i)|^2 = 1``.
    """

    mesh: SurfaceMesh
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray

    @property
    def norm(self) -> float:
        """Spectral norm of A."""
        return float(np.max(np.abs(self.eigenvalues))) if self.eigenvalues.size else 0.0


def _require_hermitian(a: np.ndarray, adjoint: np.ndarray, what: str) -> None:
    """Raise unless ``max |a - adjoint|`` is within 1e-12 max(1, max |a|).

    The scale is at least 1, so ``max |a|`` is computed only when the
    deviation exceeds 1e-12.
    """
    deviation = np.abs(a - adjoint).max(initial=0.0)
    if deviation > 1e-12 and deviation > 1e-12 * np.abs(a).max():
        raise ConsistencyError(
            f"{what} deviates from Hermitian by {deviation:.3e}; "
            "the transform convention upstream is broken"
        )


def _hermitize(a: np.ndarray, what: str) -> np.ndarray:
    _require_hermitian(a, a.conj().T, what)
    return 0.5 * (a + a.conj().T)


class RingLayout(NamedTuple):
    """The azimuth tables of the block-circulant route on one mesh."""

    cosines: np.ndarray  # cos(2 pi k p / n), k = 0..n/2, p = 0..n-1
    multiplicity: np.ndarray  # 1 at k = 0 and k = n/2, else 2
    mirrored: bool  # SurfaceMesh.z_mirrored


def ring_layout(mesh: SurfaceMesh, potential: Potential) -> RingLayout | None:
    """The tables of the block-circulant route, or None where the dense route applies.

    The one place the route is decided: it needs a radial potential and
    a ring layout. Frequencies k and n - k share a block, hence the
    multiplicity. The tables depend only on the azimuth count and the
    z mirror only on the nodes, so :func:`assemble` and
    :func:`shellbound.rayleigh_ritz.certify` each build them once.
    """
    if not (potential.is_radial and mesh.rings):
        return None
    n = mesh.size // mesh.rings
    p = np.arange(n)
    k = p[:n // 2 + 1]
    multiplicity = np.where((k == 0) | (2 * k == n), 1.0, 2.0)
    cosines = np.cos(2.0 * np.pi * p / n)[np.outer(k, p) % n]  # phases from k p mod n
    return RingLayout(cosines, multiplicity, mesh.z_mirrored)


def _require_mirror(block: np.ndarray, mirrored: np.ndarray, what: str) -> None:
    """Raise unless a radial kernel block is real and equals its azimuth mirror image.

    The tolerance is 1e-12 max(1, max |block|), that of the Hermitian test.
    """
    deviation = np.abs(block - mirrored).max()
    if np.iscomplexobj(block) or deviation > 1e-12 * max(1.0, np.abs(block).max()):
        raise ConsistencyError(
            f"{what} ({block.dtype}) deviates from its azimuth mirror by "
            f"{deviation:.3e}; the kernel of a real radial V is real and unchanged by p -> -p"
        )


def _ring_blocks(mesh: SurfaceMesh, column: np.ndarray, frame=None) -> np.ndarray:
    """The weighted, hermitized blocks C[p] of the shell operator, shape (n, rings, rings).

    The one place the operator is weighted by sqrt(w), band-projected
    and hermitized, for the sector route, the dense route and
    :func:`shellbound.spin_orbit.gauge_deviation` alike.
    ``column[i, r]`` is the kernel between node i and node 0 of ring r
    (shape (M, rings), unweighted), where the nodes are read as rings
    of n = M / rings azimuths, node (r, p) at index r n + p. Then
    ``C[p][r, r'] = sqrt(w_(r, p)) column[(r, p), r'] sqrt(w_(r', 0))``,
    and on a turn-invariant operator
    ``A[(r, p), (r', p')] = C[p - p' mod n]``. With ``rings = M``
    (one azimuth per ring) the column is the whole kernel and C[0] the
    dense matrix A.

    A band ``frame`` (shape (M, bands)) must be turn-covariant (see
    :func:`_require_turn_covariant`) and multiplies the column by the
    overlap of :func:`_band_matrix` before the weights. Each block is
    then averaged with ``C[-p]^H``, the adjoint's block.

    Raises
    ------
    ConsistencyError
        If the frame is not turn-covariant, or if
        ``max |C[p] - C[-p]^H| > 1e-12 max(1, max |C|)``.
    """
    rings = column.shape[1]
    n = mesh.size // rings
    if frame is not None:
        _require_turn_covariant(frame, rings)
        column = _band_matrix(column, frame, np.s_[::n])
    sqrt_w = np.sqrt(mesh.weights)
    blocks = (sqrt_w[:, None] * column * sqrt_w[::n][None, :])
    blocks = blocks.reshape(rings, n, rings).swapaxes(0, 1)
    adjoint = blocks[-np.arange(n) % n].conj().swapaxes(1, 2)
    _require_hermitian(blocks, adjoint, _ASSEMBLED)
    return 0.5 * (blocks + adjoint)


def ring_operator(mesh: SurfaceMesh, column: np.ndarray, layout: RingLayout,
                  frame=None) -> SurfaceOperatorMatrix:
    """Spectral data of a ring-layout operator from its column block, by azimuthal sector.

    ``column[i, r]`` is the kernel between node i and node 0 of ring r
    (shape (M, rings), unweighted); ``layout`` is the mesh's
    :func:`ring_layout`. On a ring layout (see ``SurfaceMesh.rings``)
    the blocks C[p] of :func:`_ring_blocks` hold the whole operator,
    ``A[(r, p), (r', p')] = C[p - p' mod n]``, and the azimuthal
    Fourier modes split it into n blocks of size rings. The kernel of a
    real radial V is real and unchanged by the mirror
    (r, p) -> (r, -p), so the column must be real with
    ``C[-p] = C[p]``; the tube forms of
    :func:`shellbound.rayleigh_ritz.certify` rely on the same contract.

    - The column alone gives the real symmetric
      ``B_k = sum_p C[p] cos(2 pi k p / n)``, k = 0..n/2, each of whose
      eigenvectors v yields ``v x cos`` and, for 0 < k < n/2,
      ``v x sin`` (modes normalized by sqrt(2/n), by sqrt(1/n) at k = 0
      and k = n/2).
    - A band ``frame`` (shape (M, bands), turn-covariant) multiplies
      the column by the overlap of :func:`_band_matrix`. The complex
      Hermitian C this gives takes
      ``B_k = sum_p C[p] exp(-2 pi i k p / n)`` (the FFT over p), with
      modes ``v x exp(2 pi i k p / n) / sqrt(n)``.

    The eigenpairs are stable-sorted by eigenvalue.

    Raises
    ------
    ConsistencyError
        If :func:`_ring_blocks` does (a frame that is not
        turn-covariant, or blocks that are not Hermitian); then if the
        column is complex or misses ``C[-p] = C[p]`` by more than
        1e-12 max(1, max |column|) (measured on the column before the
        frame's overlap).
    """
    rings = mesh.rings
    n = mesh.size // rings
    p = np.arange(n)
    blocks = _ring_blocks(mesh, column, frame)
    scalar = column.reshape(rings, n, rings)
    _require_mirror(scalar, scalar[:, -p % n], "radial kernel column")
    angles = 2.0 * np.pi * p / n
    if not np.iscomplexobj(blocks):
        values, vectors = np.linalg.eigh(np.tensordot(layout.cosines, blocks, axes=1))
        k = p[:n // 2 + 1]
        sines = k[1:(n + 1) // 2]
        sector = np.concatenate([k, sines])
        modes = np.concatenate([layout.cosines, np.sin(angles)[np.outer(sines, p) % n]])
        modes *= np.sqrt(layout.multiplicity[sector] / n)[:, None]
    else:
        sector = p
        values, vectors = np.linalg.eigh(np.fft.fft(blocks, axis=0))
        modes = np.exp(1j * angles)[np.outer(p, p) % n] / np.sqrt(n)
    # eigenpair (mode m, ring vector j) is entry m * rings + j before sorting
    order = np.argsort(values[sector].ravel(), kind="stable")
    mode, j = np.divmod(order, rings)
    vectors = (vectors[sector[mode], :, j].T[:, None, :] * modes[mode].T[None, :, :]).reshape(
        mesh.size, mesh.size) / np.sqrt(mesh.weights)[:, None]
    return SurfaceOperatorMatrix(mesh, values[sector].ravel()[order], vectors)


def _weighted_kernel(mesh: SurfaceMesh, potential: Potential) -> np.ndarray:
    """The dense weight-symmetrized kernel ``sqrt(w_i) vhat(s_i - s_j) sqrt(w_j)``."""
    sqrt_w = np.sqrt(mesh.weights)
    weighted = np.array(potential.kernel_matrix(mesh.nodes))
    weighted *= sqrt_w[:, None]
    weighted *= sqrt_w[None, :]
    return weighted


def _band_matrix(weighted: np.ndarray, frame: np.ndarray, columns=None) -> np.ndarray:
    """Band-projected kernel ``weighted_ij <u_i, u_j>``, not yet hermitized.

    The one home of the band overlap ``<u_i, u_j> = sum_c conj(u_c(s_i)) u_c(s_j)``.
    ``weighted`` is a kernel between all nodes and the nodes ``columns``
    selects (an index into ``frame``, all of them by default): the
    column of :func:`_ring_blocks`, or the weight-symmetrized M x M
    kernel of :func:`_weighted_kernel`.
    """
    projected = frame.conj() @ (frame if columns is None else frame[columns]).T
    projected *= weighted
    return projected


def _require_turn_covariant(frame: np.ndarray, rings: int) -> None:
    """Check in O(M) that the frame overlap depends only on the azimuth difference.

    With ``frame[(r, p + 1), c] = g_c frame[(r, p), c]`` for one phase
    g_c per component (cyclically in p, the same on every ring), the
    overlap ``<u(r, p), u(r', p')> = sum_c conj(u(r, 0)_c) u(r', 0)_c
    g_c^(p' - p)`` depends on p and p' only through p - p'. The gauge
    of :func:`shellbound.spin_orbit.band_frame` has this form on a ring
    layout: its first component is constant and its second turns with
    the azimuth.
    """
    f = frame.reshape(rings, -1, frame.shape[-1])
    following = np.roll(f, -1, axis=1)
    mass = np.einsum("rpc,rpc->c", f.conj(), f).real
    step = np.einsum("rpc,rpc->c", f.conj(), following) / np.where(mass > 0.0, mass, 1.0)
    deviation = np.abs(following - step * f).max()
    if deviation > 1e-12 * max(1.0, np.abs(f).max()):
        raise ConsistencyError(
            f"band frame overlap depends on more than the azimuth difference "
            f"(deviation {deviation:.3e}); the sector assembly needs a turn-covariant gauge"
        )


def assemble(mesh: SurfaceMesh, potential: Potential, frame=None) -> SurfaceOperatorMatrix:
    """Assemble and fully diagonalize the shell operator matrix.

    A radial potential on a mesh with a ring layout takes the sector
    route of :func:`ring_operator` (one (M, rings) kernel slice); any
    other problem is the case of one azimuth per ring: its (M, M)
    column is the whole kernel, and ``eigh`` takes the one block of
    :func:`_ring_blocks`. A band ``frame`` (points -> unit vectors
    (count, bands), a symbol's ``frame``; None for a scalar symbol)
    multiplies the kernel by the overlap ``sum_c conj(u_c(s_i)) u_c(s_j)``;
    the sector route first checks in O(M) that it depends only on the
    azimuth difference.

    Raises
    ------
    PreconditionError
        If mesh and potential dimensions differ.
    ConsistencyError
        If the assembled matrix is not Hermitian within 1e-12 relative
        tolerance, or, on the sector route, if the frame overlap is not
        a function of the azimuth difference or the kernel column is
        not real and mirror-symmetric (see :func:`ring_operator`).
    """
    if mesh.dimension != potential.dimension:
        raise PreconditionError("mesh and potential dimensions differ")
    require_band(potential, 2.0 * mesh.radius)
    u = None if frame is None else np.asarray(frame(mesh.nodes))
    layout = ring_layout(mesh, potential)
    n = 1 if layout is None else mesh.size // mesh.rings
    column = np.asarray(potential.kernel_matrix(mesh.nodes, mesh.nodes[::n]))
    if layout is not None:
        return ring_operator(mesh, column, layout, u)
    eigenvalues, vectors = np.linalg.eigh(_ring_blocks(mesh, column, u)[0])
    return SurfaceOperatorMatrix(mesh, eigenvalues, vectors / np.sqrt(mesh.weights)[:, None])


def circulant_oracle(mesh: SurfaceMesh, potential: Potential) -> np.ndarray:
    """Independent spectrum via the discrete Fourier transform.

    For a radial potential on the one-ring circle mesh (``rings == 1``:
    equal angle steps and weights) the kernel depends only on the angle
    difference, so the assembled matrix is circulant and its eigenvalues
    are the weight times the DFT of the first kernel row. Returned
    sorted ascending; they approximate the continuum angular eigenvalues
    ``E_m = R * integral k(theta) exp(-i m theta)``.
    """
    if mesh.dimension != 2 or mesh.rings != 1:
        raise PreconditionError("circulant route needs the one-ring circle mesh")
    if not potential.is_radial:
        raise PreconditionError("circulant route needs a radial potential")
    row = np.asarray(potential.kernel_matrix(mesh.nodes[:1], mesh.nodes))[0]
    weight = float(mesh.weights[0])
    spectrum = weight * np.fft.fft(row)
    # symmetric real row: the transform is real up to roundoff
    return np.sort(spectrum.real)


def _default_threshold(op: SurfaceOperatorMatrix) -> float:
    """``1e-8 * max(1, ||A||)``, the default cutoff of :func:`count_negative`.

    It scales with the operator because the continuum spectrum
    accumulates at zero: a fixed absolute cutoff would make the count
    mesh-dependent in an uncontrolled way.
    """
    return 1e-8 * max(1.0, op.norm)


def count_negative(op: SurfaceOperatorMatrix, threshold: float | None = None) -> int:
    """Number of eigenvalues below ``-threshold``, by default ``_default_threshold(op)``.

    Raises
    ------
    PreconditionError
        If ``threshold`` is not finite and positive.
    """
    if threshold is None:
        threshold = _default_threshold(op)
    threshold = float(threshold)
    if not (np.isfinite(threshold) and threshold > 0.0):
        raise PreconditionError(f"threshold must be finite and positive, got {threshold}")
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

    Raises
    ------
    PreconditionError
        If ``tolerance`` is negative or not finite, or two points
        coincide.
    """
    tolerance = float(tolerance)
    if not (np.isfinite(tolerance) and tolerance >= 0.0):
        raise PreconditionError(f"tolerance must be finite and nonnegative, got {tolerance}")
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] >= 2:
        diffs = points[:, None, :] - points[None, :, :]
        dist2 = np.sum(diffs * diffs, axis=-1)
        off = dist2[~np.eye(points.shape[0], dtype=bool)]
        if off.min() == 0.0:
            raise PreconditionError("points must be pairwise distinct")
    matrix = _hermitize(np.asarray(potential.kernel_matrix(points)), "point kernel matrix")
    largest = float(np.linalg.eigvalsh(matrix)[-1])
    return matrix, bool(largest < -tolerance)
