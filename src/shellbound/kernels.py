"""Pairwise kernel-matrix assembly in numpy.

The primitives build ``K[i, j] = k(|P_i - Q_j|)`` between two point
clouds. Radial potentials on meshes with a ring layout only need slices
against the azimuth-0 points: the shell operator takes an (M, rings)
column block (see :mod:`shellbound.surface_operator`) and each tube
form, scalar or spin-orbit, the slice for half the azimuths, and on a
z-mirrored 3-D mesh for half the rings (see
:mod:`shellbound.rayleigh_ritz`); the spin gauge check takes the shell
operator's column. Tabulated potentials and meshes without a layout still assemble square
matrices, quadratic in the cloud size.

Both primitives evaluate with in-place ufuncs in the operation order of
the plain expressions ``pp + qq - 2 p.q`` and ``sum_m a_m exp(-r_m d2)``,
so the values are the same bit for bit (up to the sign of a Gaussian
that underflows to zero): the squared distances take two full-size
buffers, and a one-term mix then works in the distance buffer itself.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError


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
    # |p|^2 + |q|^2 - 2 p.q; the cross term is a GEMM. Cancellation can
    # leave tiny negatives for near-coincident points, so clip at zero.
    pp = np.einsum("ij,ij->i", p, p)
    qq = np.einsum("ij,ij->i", q, q)
    cross = p @ q.T
    cross *= 2.0
    out = np.add(pp[:, None], qq[None, :])
    out -= cross
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
