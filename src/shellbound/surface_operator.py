"""Discretized shell convolution operator and its spectrum.

The continuum object is the integral operator on L^2(S, omega) with
kernel ``vhat(s - s')``. Negative eigenvalues of this operator are what
the variational pipeline converts into certified bound states of the
full Hamiltonian, and the spectrum is all that :func:`assemble`
returns: the operator itself is never kept.

For a radial potential on a mesh with a ring layout
(``SurfaceMesh.rings``; :func:`ring_layout` decides this route for
:func:`assemble` and the spin gauge check) the operator commutes
with rotations, so it splits into angular channels: the Fourier modes
m of the circle and, by the Funk-Hecke theorem, the spherical
harmonics of degree l on the sphere, each 2 l + 1 times.
:func:`_channel_kernel` gives every channel's value from one kernel
slice (see :func:`_channel_points`), and :func:`_shell_channels` lists
them (each degree 2 l + 1 times on the sphere) for :func:`assemble`,
with the channel of each value in ``SurfaceOperatorMatrix.channels``.
:func:`shellbound.rayleigh_ritz.certify` takes its route from that
field, None on the dense route: it counts the assembled values with
:func:`count_negative` and reads the same slice at its tube radii for
its trial forms. No square
kernel is formed and no eigensolve made. Only the slice depends on the
tube radii: the
angular rule (the directions and, on the sphere, the 2 n-node
Gauss-Legendre projection) is built once per azimuth count and radius.
A channel's kernel between the T radii is a T x T matrix kappa_c, but
``certify`` reads only its form x^T kappa_c x on the tube weights x, so
:func:`_channels` contracts the slice with x first and transforms one
row of n values: by one FFT on the circle, which lists every channel
m = 0..n-1 once, for a real row and a complex, band-projected one
alike, and by the Legendre projection on the sphere. No (c, T, T) stack
is formed; the Hermitian symmetry of every kappa_c is tested on the
slice itself. A real radial V has a real kernel with real channel
values, unchanged in 3-D by the mirror y -> -y of a point off the
meridian that the slice reads, probed once per shell; a kernel that is
not raises ``ConsistencyError`` rather than taking another route.

Tabulated potentials and meshes without a layout take the dense route:
the weight-symmetrized Hermitian matrix

    A_ij = sqrt(w_i) * vhat(s_i - s_j) * sqrt(w_j),

whose eigenvalues approximate the operator's and whose eigenvectors,
divided by sqrt(w), sample its eigenfunctions, orthonormal in the mesh
weights: the trial span of ``certify`` on this route. :func:`_dense_operator`
weights and hermitizes it, for :func:`assemble` and the dense spin gauge
check alike, and :func:`_weighted_kernel` rebuilds it independently as
a reference. A band frame u (a symbol's ``frame``, see
:mod:`shellbound.spin_orbit`) multiplies the kernel by the overlap
``<u(s), u(s')>`` on either route, formed in one place,
:func:`_band_matrix`: scalar and spin share one assembly, and on the
channel route the overlap multiplies the kernel slice before the
transform over the angle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, PreconditionError
from . import surface
from .potentials import Potential, require_band
from .surface import SurfaceMesh

__all__ = [
    "SurfaceOperatorMatrix",
    "assemble",
    "count_negative",
    "point_matrix_test",
]

_ASSEMBLED = "assembled operator matrix"


@dataclass(frozen=True)
class SurfaceOperatorMatrix:
    """Spectral data of an assembled shell operator: its spectrum, not A itself.

    Attributes
    ----------
    mesh : SurfaceMesh
    eigenvalues : ndarray
        Ascending. On the dense route the M eigenvalues of A; on the
        channel route the channel values of :func:`_shell_channels`:
        M values on the circle, one per channel, and ``n^2`` on the
        sphere (degrees l = 0..n-1, each 2 l + 1 times,
        with n the mesh's azimuth count, so 4 resolution^2 for
        ``build_mesh``'s M = 2 resolution^2 nodes).
    eigenfunctions : ndarray, shape (M, M), or None
        On the dense route, columns ``Psi_j(s_i) = v_ij / sqrt(w_i)``
        for orthonormal eigenvectors v_j of the weight-symmetrized A,
        aligned with ``eigenvalues``: the quadrature samples of the
        operator's eigenfunctions, orthonormal in the mesh weights,
        ``sum_i w_i conj(Psi_j(s_i)) Psi_k(s_i) = delta_jk``, which
        makes the kinetic form of ``certify`` K(eps) times the identity.
        None on the channel route, whose eigenfunctions are the
        channels' angular modes.
    channels : ndarray of int, or None
        On the channel route, the channel of each eigenvalue in the list
        of :func:`_channel_kernel`, aligned with ``eigenvalues``: what
        :func:`shellbound.rayleigh_ritz.certify` reads to take this
        route. None on the dense route.
    """

    mesh: SurfaceMesh
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray | None
    channels: np.ndarray | None = None

    @property
    def norm(self) -> float:
        """Spectral norm of A."""
        return float(np.max(np.abs(self.eigenvalues))) if self.eigenvalues.size else 0.0


def _require_hermitian(a: np.ndarray, deviation: float, what: str, weight: float = 1.0,
                       tolerance: float = 1e-12) -> None:
    """Raise unless ``weight * deviation`` is within ``tolerance`` max(1, weight max |a|).

    ``deviation`` is the distance of ``a`` from Hermitian, and ``weight``
    the quadrature weight that makes ``a`` an operator (1 for an operator
    matrix). The scale is at least 1, so ``max |a|`` is computed only
    when the weighted deviation exceeds ``tolerance``.
    """
    if weight * deviation > tolerance and deviation > tolerance * np.abs(a).max():
        raise ConsistencyError(
            f"{what} deviates from Hermitian by {weight * deviation:.3e}; "
            "the transform convention upstream is broken"
        )


def _hermitize(a: np.ndarray, what: str, tolerance: float = 1e-12) -> np.ndarray:
    """``(a + a^H) / 2``, after the check of :func:`_require_hermitian` at ``tolerance``."""
    _require_hermitian(a, np.abs(a - a.conj().T).max(initial=0.0), what, tolerance=tolerance)
    return 0.5 * (a + a.conj().T)


def ring_layout(mesh: SurfaceMesh, potential: Potential) -> bool:
    """Whether the problem has the rotational symmetry the channel route uses.

    The one place the route is decided: a radial potential on a mesh
    with a ring layout (``SurfaceMesh.rings``). :func:`assemble` and
    :func:`shellbound.spin_orbit.gauge_deviation` then work in angular
    channels, otherwise both take the dense route;
    :func:`shellbound.rayleigh_ritz.certify` reads the route of
    :func:`assemble` from ``SurfaceOperatorMatrix.channels``.
    """
    return bool(potential.is_radial and mesh.rings)


@functools.lru_cache(maxsize=16)
def _angular_rule(dimension: int, n: int, radius: float):
    """(directions, legendre) of :func:`_channel_points`, read-only; 16 latest (n, R) kept."""
    legendre = None
    if dimension == 2:
        angles = 2.0 * np.pi * np.arange(n) / n
        directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        cosines, weights = surface.gauss_legendre(2 * n)
        directions = np.stack([np.sqrt(1.0 - cosines**2), np.zeros(2 * n), cosines], axis=1)
        legendre = surface.legendre_table(cosines, n - 1)
        legendre *= (2.0 * np.pi * radius**2 * weights)[:, None]
        legendre.flags.writeable = False
    directions.flags.writeable = False
    return directions, legendre


def _channel_points(mesh: SurfaceMesh, radii):
    """(rows, columns, legendre): the kernel slice of :func:`_channel_kernel` and its transform.

    n = M / rings is the mesh's azimuth count, and the rows are the
    T = len(radii) points of radius r_a on the axis the columns turn
    about. The unit directions and the projection depend on the mesh's
    dimension, n and R alone, so :func:`_angular_rule` builds them once
    per (n, R) and every later slice reuses them.

    - 2-D: the rows are (r_a, 0), the columns the n turned points
      r_b (cos theta_p, sin theta_p), theta_p = 2 pi p / n, of each
      radius in turn; the transform is the FFT over p, and
      ``legendre`` is None.
    - 3-D: the rows are the poles (0, 0, r_a), the columns a meridian
      of each radius r_b at the 2 n Gauss-Legendre nodes
      t_q = cos(gamma_q); ``legendre[q, l] = 2 pi R^2 w_q P_l(t_q)``,
      shape (2 n, n), projects on the degrees l = 0..n-1. Twice as
      many nodes as degrees keep the top degrees at roundoff.
    """
    radii = np.asarray(radii, dtype=np.float64)
    directions, legendre = _angular_rule(mesh.dimension, mesh.size // mesh.rings, mesh.radius)
    rows = np.zeros((radii.size, mesh.dimension))
    rows[:, 0 if mesh.dimension == 2 else 2] = radii
    points = (radii[:, None, None] * directions).reshape(-1, mesh.dimension)
    return rows, points, legendre


def _channels(mesh: SurfaceMesh, kernel: np.ndarray, legendre=None, frames=None,
              x=None) -> np.ndarray:
    """The channel values x^T kappa_c x, shape (..., c), of a slice of :func:`_channel_points`.

    ``kernel`` is the (T, T nodes) slice K[a, b, p] and kappa_c[a, b]
    the kernel between the radii r_a and r_b in channel c. By linearity
    its form on the contraction vector ``x`` (ones by
    default, as for a one-radius row) is the transform of the contracted
    row ``y_p = sum_ab x_a x_b K[a, b, p]``, so the slice is contracted
    first and no (c, T, T) stack is formed. ``frames`` (the band frames
    of the rows and of the columns, with any leading axes of a stack of
    frames), if given, multiply the slice by the overlap of
    :func:`_band_matrix`, and the leading axes carry through. Then the
    transform over the nodes: the projection on ``legendre`` (3-D), or
    the FFT times 2 pi R / n (2-D; ``legendre`` None), which lists every
    channel m = 0..n-1 once, for a real row and a complex,
    band-projected one alike. The values are the real parts.

    Raises
    ------
    ConsistencyError
        Unless every kappa_c is Hermitian in (a, b), tested on the
        slice, one radius row at a time. With
        ``D[a, b, p] = K[a, b, p] - conj(K[b, a, -p])`` and w the largest
        weight the transform gives a node (2 pi R / n on the circle,
        ``max_q 2 pi R^2 w_q`` on the sphere), ``w max |D|`` must stay
        within 1e-12 max(1, w max |K|). On the circle w K is a block row
        of the operator A, and this is the dense route's Hermitian test
        of A. The channels are Hermitian exactly when D vanishes, and
        ``|kappa_c[a, b] - conj(kappa_c[b, a])| <= 2 pi R max |D|``; at
        one radius D is the row's deviation from its mirror
        ``K[p] = conj(K[-p])``. On the sphere the node q stands for -p,
        D = 0 is sufficient, and the bound is ``4 pi R^2 max |D|``.
    """
    count = kernel.shape[-2]
    if frames is not None:
        kernel = _band_matrix(kernel, *frames)
    x = np.ones(count) if x is None else x
    row = x @ (x @ kernel).reshape(kernel.shape[:-2] + (count, -1))
    kernel = kernel.reshape(kernel.shape[:-2] + (count, count, -1))
    n = row.shape[-1]
    if legendre is None:
        weight, turn = 2.0 * np.pi * mesh.radius / n, -np.arange(n) % n
        values = (np.fft.fft(row) * weight).real
    else:
        weight, turn, values = legendre[:, 0].max(), slice(None), row @ legendre
    # |D[a, b, p]| = |D[b, a, -p]|, so the rows read b >= a alone
    deviation = max(np.abs(kernel[..., a, a:, :] - kernel[..., a:, a, turn].conj()).max()
                    for a in range(count))
    _require_hermitian(kernel, deviation, "radial channel kernel", weight)
    return values


def _probe_mirror(potential: Potential, radius: float) -> None:
    """Raise unless k(p, q) = k(p, q') for a meridian point p and the y mirror q' of q.

    The 3-D slice of :func:`_channel_points` reads pole-meridian pairs
    alone, where a kernel that is invariant under turns about z but odd
    under the mirror y -> -y looks radial; this probe reads one pair
    off the meridian. The tolerance is 1e-12 max(1, max |k|), that of
    the Hermitian test of an operator matrix.
    """
    # p off the pole in y = 0, q off that half plane and at another height,
    # so terms such as (p x q)_z (p_z - q_z) do not vanish
    p = radius * np.array([[0.6, 0.0, 0.8]])
    q = radius * np.array([[0.48, 0.64, -0.6], [0.48, -0.64, -0.6]])
    k = np.asarray(potential.kernel_matrix(p, q))[0]
    deviation = abs(k[0] - k[1])
    if deviation > 1e-12 * max(1.0, np.abs(k).max()):
        raise ConsistencyError(
            f"radial kernel deviates from its y mirror by {deviation:.3e}; "
            "the kernel of a real radial V is unchanged by y -> -y"
        )


def _channel_kernel(potential, mesh: SurfaceMesh, radii, x=None, frame=None):
    """The radial tube kernel by angular channel: the values x^T kappa_c x.

    For a radial V the kernel between the shells of radius r_a and r_b
    depends on the angle between its points alone, so turns of the
    momentum space split it into channels; kappa_c is the kernel's
    eigenvalue in channel c, a T x T matrix over the T = len(radii)
    radii, with the shell measure of ``mesh`` (radius R), and the value
    listed is its form on the contraction vector ``x`` (ones by
    default). One ``kernel_matrix`` call on the slice of
    :func:`_channel_points` serves every channel (see :func:`_channels`);
    the shell's eigenvalues are the values at ``radii = [R]`` (see
    :func:`_shell_channels`). The rule reads only the mesh's dimension,
    radius and azimuth count n.

    - 2-D: the channels m = 0..n-1, each listed once. A band ``frame``
      (points -> (count, bands), or (..., count, bands) for a stack of
      frames, whose leading axes carry through to the values)
      multiplies the kernel by the overlap ``<u(row), u(column)>``
      before the FFT.
    - 3-D (Funk-Hecke): the degrees l = 0..n-1. The kernel's mirror
      probe, :func:`_probe_mirror`, is :func:`_shell_channels`' and runs
      once per shell.

    Raises
    ------
    ConsistencyError
        If the kernel is complex or its channels miss Hermitian symmetry
        (see :func:`_channels`): at the shell radius in 2-D that is the
        mirror symmetry of the kernel row. The kernel of a real radial V
        is real and Hermitian.
    """
    rows, points, legendre = _channel_points(mesh, radii)
    kernel = np.asarray(potential.kernel_matrix(rows, points))
    if np.iscomplexobj(kernel):
        raise ConsistencyError(
            f"radial tube kernel is {kernel.dtype}, not real; "
            "the kernel of a real radial V is real"
        )
    frames = None if frame is None else (np.asarray(frame(rows)), np.asarray(frame(points)))
    return _channels(mesh, kernel, legendre, frames, x)


def _shell_channels(mesh: SurfaceMesh, potential: Potential, frame=None):
    """(values, channel): the shell's spectrum and the channel of each value.

    Ascending (stable-sorted), with the channel index of each value in
    the list of :func:`_channel_kernel`: the full spectrum that
    :func:`assemble` lists on the channel route and that ``certify``
    counts and certifies. On the circle each channel m = 0..n-1 is one
    value; on the sphere each degree l is repeated 2 l + 1 times, and
    the kernel must also pass the mirror probe of :func:`_probe_mirror`,
    once for the shell and every tube slice that reads the same kernel.
    """
    values = _channel_kernel(potential, mesh, [mesh.radius], frame=frame)
    channel = np.arange(values.size)
    if mesh.dimension == 3:
        _probe_mirror(potential, mesh.radius)
        channel = np.repeat(channel, 2 * channel + 1)
    values = values[channel]
    order = np.argsort(values, kind="stable")
    return values[order], channel[order]


def _weighted_kernel(mesh: SurfaceMesh, potential: Potential) -> np.ndarray:
    """The dense weight-symmetrized kernel ``sqrt(w_i) vhat(s_i - s_j) sqrt(w_j)``."""
    sqrt_w = np.sqrt(mesh.weights)
    weighted = np.array(potential.kernel_matrix(mesh.nodes))
    weighted *= sqrt_w[:, None]
    weighted *= sqrt_w[None, :]
    return weighted


def _band_matrix(weighted: np.ndarray, frame: np.ndarray, columns=None) -> np.ndarray:
    """Band-projected kernel ``weighted_ij <u_i, u_j>``, not yet hermitized.

    The one home of the band overlap ``<u_i, u_j> = sum_c conj(u_c(p_i)) u_c(q_j)``.
    ``weighted`` is a kernel between the points p_i of the rows, whose
    frame is ``frame``, and the points q_j of the columns, whose frame is
    ``columns`` (``frame`` by default): the M x M kernel of
    :func:`_dense_operator` or :func:`_weighted_kernel`, the slice of
    :func:`_channel_kernel`, or a tube kernel of
    :func:`shellbound.rayleigh_ritz.certify`. The frames may carry
    leading axes, a stack of frames, which broadcast over ``weighted``.
    """
    projected = frame.conj() @ (frame if columns is None else columns).swapaxes(-1, -2)
    projected *= weighted
    return projected


def _dense_operator(mesh: SurfaceMesh, kernel: np.ndarray, frame=None) -> np.ndarray:
    """The weighted, hermitized M x M matrix A of the dense route.

    ``kernel`` is the unweighted M x M kernel on the mesh nodes; a band
    ``frame`` (shape (M, bands)) multiplies it by the overlap of
    :func:`_band_matrix` before the weights. The one place the dense
    operator is weighted by sqrt(w) and hermitized, for :func:`assemble`
    and :func:`shellbound.spin_orbit.gauge_deviation` alike.

    Raises
    ------
    ConsistencyError
        If ``max |A - A^H| > 1e-12 max(1, max |A|)``.
    """
    if frame is not None:
        kernel = _band_matrix(kernel, frame)
    sqrt_w = np.sqrt(mesh.weights)
    return _hermitize(sqrt_w[:, None] * kernel * sqrt_w[None, :], _ASSEMBLED)


def assemble(mesh: SurfaceMesh, potential: Potential, frame=None) -> SurfaceOperatorMatrix:
    """The spectrum of the shell operator.

    A radial potential on a mesh with a ring layout takes the channel
    route: the shell spectrum of :func:`_shell_channels` from one kernel
    slice, with the channel of each value in ``channels`` and
    ``eigenfunctions`` None. Any other problem takes the dense route:
    one (M, M) kernel, weighted and hermitized by
    :func:`_dense_operator`, and a full ``eigh``, with ``channels``
    None. A band ``frame``
    (points -> unit vectors (count, bands), a symbol's ``frame``; None
    for a scalar symbol) multiplies the kernel by the overlap
    ``sum_c conj(u_c(s_i)) u_c(s_j)`` on either route.

    Raises
    ------
    PreconditionError
        If mesh and potential dimensions differ.
    ConsistencyError
        If the assembled matrix is not Hermitian within 1e-12 relative
        tolerance, or, on the channel route, if the kernel is complex,
        fails the mirror probe (3-D) or has a complex channel value
        (see :func:`_channel_kernel`).
    """
    if mesh.dimension != potential.dimension:
        raise PreconditionError("mesh and potential dimensions differ")
    require_band(potential, 2.0 * mesh.radius)
    if ring_layout(mesh, potential):
        values, channels = _shell_channels(mesh, potential, frame)
        return SurfaceOperatorMatrix(mesh, values, None, channels)
    u = None if frame is None else np.asarray(frame(mesh.nodes))
    matrix = _dense_operator(mesh, np.asarray(potential.kernel_matrix(mesh.nodes)), u)
    eigenvalues, vectors = np.linalg.eigh(matrix)
    return SurfaceOperatorMatrix(mesh, eigenvalues, vectors / np.sqrt(mesh.weights)[:, None])


def _default_threshold(eigenvalues: np.ndarray) -> float:
    """``1e-8 * max(1, max |eigenvalues|)``, the default cutoff of :func:`count_negative`.

    It scales with the operator because the continuum spectrum
    accumulates at zero: a fixed absolute cutoff would make the count
    mesh-dependent in an uncontrolled way.
    """
    return 1e-8 * max(1.0, float(np.abs(eigenvalues).max(initial=0.0)))


def count_negative(op: SurfaceOperatorMatrix, threshold: float | None = None) -> int:
    """Number of eigenvalues below ``-threshold``, by default ``_default_threshold``.

    :func:`shellbound.rayleigh_ritz.certify` bounds its state count by it.

    Raises
    ------
    PreconditionError
        If ``threshold`` is not finite and positive.
    """
    if threshold is None:
        threshold = _default_threshold(op.eigenvalues)
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
