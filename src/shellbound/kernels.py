"""Pairwise kernel-matrix assembly in numpy.

The primitives build ``K[i, j] = k(|P_i - Q_j|)`` between two point
clouds. Radial potentials on meshes with a ring layout only need slices
against a few points: the angular channels of
:mod:`shellbound.surface_operator` take one row, the shell radius
against n points of the circle (2-D) or 2 n of a meridian (3-D), for the
shell operator and the spin gauge check, and
:func:`shellbound.rayleigh_ritz.certify` one such slice per eps, the T
tube radii against T circles or meridians, which the channel route
contracts on the tube weights to one row before its transform, so the
slice is the largest array of an eps step. Tabulated potentials and
meshes without a layout still assemble square matrices, quadratic in
the cloud size.

Both primitives evaluate with in-place ufuncs in the operation order of
the plain expressions ``pp + qq - 2 p.q`` and ``sum_m a_m exp(-r_m d2)``,
so the values are the same bit for bit (up to the sign of a Gaussian
that underflows to zero): the squared distances take one full-size
buffer, the GEMM's output, into which the sums of squared norms are
written a block of rows at a time, and a one-term mix then works in the
distance buffer itself.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

# entries of the row block that squared_distances sums per pass (64 KiB)
_BLOCK = 2**13


def uniform(stream, shape) -> np.ndarray:
    """A block of the given shape, uniform on [-1, 1), drawn from a ``random.Random``.

    Each entry takes 4 bytes of ``stream.randbytes``, read as a
    little-endian unsigned integer u, and is u 2**-31 - 1, so the same
    stream state gives the same block on every platform.
    """
    count = int(np.prod(shape))
    words = np.frombuffer(stream.randbytes(4 * count), dtype="<u4")
    return (words * 2.0**-31 - 1.0).reshape(shape)


def _as_cloud(p) -> np.ndarray:
    arr = np.ascontiguousarray(p, dtype=np.float64)
    if arr.ndim != 2:
        raise PreconditionError("point cloud must be a 2-D array of shape (count, dim)")
    return arr


def squared_distances(p, q) -> np.ndarray:
    """Matrix of pairwise squared Euclidean distances.

    Parameters
    ----------
    p, q : array_like, shape (N, dim) and (N', dim)
        Point clouds with a common coordinate dimension.

    Returns
    -------
    ndarray, shape (N, N')
    """
    p = _as_cloud(p)
    q = _as_cloud(q)
    if p.shape[1] != q.shape[1]:
        raise PreconditionError("point clouds differ in coordinate dimension")
    # |p|^2 + |q|^2 - 2 p.q; the cross term is a GEMM whose output is the
    # result buffer, and the sums are formed a block of rows at a time and
    # written back into it. Cancellation can leave tiny negatives for
    # near-coincident points, so clip at zero.
    pp = np.einsum("ij,ij->i", p, p)
    qq = np.einsum("ij,ij->i", q, q)
    out = p @ q.T
    out *= 2.0
    step = max(1, _BLOCK // max(q.shape[0], 1))
    for start in range(0, p.shape[0], step):
        rows = out[start : start + step]
        np.subtract(np.add(pp[start : start + step, None], qq[None, :]), rows, out=rows)
    np.maximum(out, 0.0, out=out)
    return out


def gaussian_mix(p, q, amplitudes, rates) -> np.ndarray:
    """Matrix ``sum_m amplitudes[m] * exp(-rates[m] * |P_i - Q_j|^2)``.

    Covers every Gaussian-type radial kernel in the toolkit (single well
    and well/dimple mixtures) in one fused pass.
    """
    amplitudes = np.ascontiguousarray(amplitudes, dtype=np.float64)
    rates = np.ascontiguousarray(rates, dtype=np.float64)
    if amplitudes.shape != rates.shape or amplitudes.ndim != 1:
        raise PreconditionError("amplitudes and rates must be 1-D arrays of equal length")
    d2 = squared_distances(p, q)
    if not amplitudes.size:
        return np.zeros_like(d2)
    out = None
    for index, (amp, rate) in enumerate(zip(amplitudes, rates)):
        # the last term no longer needs d2 and takes its buffer
        term = np.multiply(d2, -rate, out=d2 if index == amplitudes.size - 1 else None)
        np.exp(term, out=term)
        term *= amp
        if out is None:
            out = term
        else:
            out += term
    return out
