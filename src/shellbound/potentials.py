"""Real-valued integrable potentials paired with their Fourier transforms.

The Fourier convention is symmetric,

    vhat(k) = (2 pi)^(-n/2) * integral V(x) exp(-i <k, x>) dx,

and every kernel formula downstream inherits it; a convention mismatch
would silently rescale the surface-operator spectrum, which is why the
convention is fixed here once.

Built-in kinds: ``gaussian-well``, ``ball-well``, ``gaussian-dimple-mix``
(all with closed-form transforms) and ``tabulated`` (one FFT of samples
on a centered hypercube grid, interpolated by the not-a-knot tensor
cubic, which is exact at the lattice points; valid on a documented
band).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import kernels
from .errors import ConfigurationError, OutOfBandError
from .symbols import _check_dimension, _check_points, _positive


@dataclass(frozen=True)
class Potential:
    """A potential V in L^1(R^n) together with vhat.

    A kind gives two callables: V, and the kernel vhat(P_i - Q_j) of
    ``kernel_matrix``. Its transform is written only there: ``fourier``
    and ``integral`` read the kernel against the origin.

    Attributes
    ----------
    dimension : int
    kind : str
    sign : str
        ``nonpositive``, ``sign-changing`` or ``unknown``; declared by
        analytic constructors, read from the samples of tabulated input.
    params : dict
    is_radial : bool
        True when vhat depends on k only through |k|; vhat is then real
        for a real V. On meshes with a ring layout
        (``SurfaceMesh.rings``) it enables the angular-channel route of
        ``surface_operator.assemble``, the spin gauge check and
        ``rayleigh_ritz.certify``, which rejects a complex kernel or one
        whose channel kernels are not Hermitian. In 3-D that route reads
        the kernel between poles and a meridian, and one pair off the
        meridian against its y mirror image, so it trusts this flag for
        every other pair of directions.
    band : float or None
        Largest per-axis |k| at which vhat is trusted; None means all of
        momentum space (analytic kinds).
    """

    dimension: int
    kind: str
    sign: str
    params: dict
    is_radial: bool
    band: float | None
    _evaluate: Callable = field(repr=False)
    _kernel: Callable = field(repr=False)

    def evaluate(self, x):
        """V at one position (shape ``(n,)``) or a batch (shape ``(..., n)``)."""
        x = _check_points(x, self.dimension, "position")
        out = self._evaluate(x)
        return float(out) if np.ndim(out) == 0 else out

    def fourier(self, k):
        """vhat at one momentum or a batch; complex-valued.

        Reads the kernel: the batch, flattened, against the origin.

        Raises
        ------
        OutOfBandError
            For tabulated potentials queried outside the resolved band.
        """
        k = _check_points(k, self.dimension, "momentum")
        origin = np.zeros((1, self.dimension))
        flat = self._kernel(k.reshape(-1, self.dimension), origin)
        out = np.asarray(flat, dtype=np.complex128).reshape(k.shape[:-1])
        return complex(out) if out.ndim == 0 else out

    def integral(self) -> float:
        """integral of V over R^n, read from the kernel as (2 pi)^(n/2) Re vhat(0)."""
        n = self.dimension
        return (2.0 * np.pi) ** (n / 2.0) * self.fourier(np.zeros(n)).real

    def kernel_matrix(self, p, q=None) -> np.ndarray:
        """Pairwise transform values ``vhat(P_i - Q_j)``; ``q`` defaults to ``p``.

        The workhorse of operator assembly; Gaussian-type kinds go
        through :func:`shellbound.kernels.gaussian_mix`.
        """
        p = _check_points(np.atleast_2d(p), self.dimension, "momentum")
        q = p if q is None else _check_points(np.atleast_2d(q), self.dimension, "momentum")
        return self._kernel(p, q)


def require_band(potential: Potential, needed: float) -> None:
    """Fail loudly when a potential cannot cover momenta up to ``needed``.

    Tabulated potentials carry a finite resolved band; assembling an
    operator whose kernel queries exceed it would silently extrapolate.
    """
    if potential.band is not None and needed > potential.band:
        raise ConfigurationError(
            f"potential resolved band {potential.band:.6g} is below the required "
            f"momentum range {needed:.6g}; enlarge the table box or refine sampling"
        )


def zero(dimension: int = 2) -> Potential:
    """The identically zero potential.

    Useful as the V == 0 control: every kernel matrix is zero, the shell
    operator has no negative eigenvalues, and the grid oracle reduces to
    the free symbol.
    """
    _check_dimension(dimension)
    return Potential(
        dimension=dimension,
        kind="none",
        sign="nonpositive",
        params={},
        is_radial=True,
        band=None,
        _evaluate=lambda x: np.zeros(x.shape[:-1]),
        _kernel=lambda p, q: np.zeros((p.shape[0], q.shape[0])),
    )


def _gaussian_terms(kind, sign, params, terms, dimension) -> Potential:
    """``V(x) = sum_m h_m exp(-|x|^2 / (2 s_m^2))`` from its (height h_m, sigma s_m) terms.

    vhat(k) = sum_m h_m s_m^n exp(-s_m^2 |k|^2 / 2). Both forms sum from
    the first term on, so at k = 0 the kernel is the sum of the
    amplitudes h_m s_m^n, and terms that cancel give an integral of
    exactly 0.
    """
    amps = np.array([height * sigma**dimension for height, sigma in terms])
    rates = np.array([0.5 * sigma**2 for _, sigma in terms])

    def vreal(x):
        r2 = np.sum(x * x, axis=-1)
        (height, sigma), *rest = terms
        out = height * np.exp(-r2 / (2.0 * sigma**2))
        for height, sigma in rest:
            out = out + height * np.exp(-r2 / (2.0 * sigma**2))
        return out

    return Potential(
        dimension=dimension,
        kind=kind,
        sign=sign,
        params=params,
        is_radial=True,
        band=None,
        _evaluate=vreal,
        _kernel=lambda p, q: kernels.gaussian_mix(p, q, amps, rates),
    )


def gaussian_well(c, sigma, dimension: int = 2) -> Potential:
    """Attractive well ``V(x) = -c exp(-|x|^2 / (2 sigma^2))``.

    vhat(k) = -c sigma^n exp(-sigma^2 |k|^2 / 2), everywhere negative,
    so the well realizes the strictly negative-definite kernel case.
    """
    c = _positive("c", c)
    sigma = _positive("sigma", sigma)
    _check_dimension(dimension)
    return _gaussian_terms("gaussian-well", "nonpositive", {"c": c, "sigma": sigma},
                           [(-c, sigma)], dimension)


def gaussian_dimple_mix(c1, sigma1, c2, sigma2, dimension: int = 2) -> Potential:
    """Sign-changing mix: a wide well of depth c1 plus a narrow bump of height c2.

    ``V(x) = -c1 exp(-|x|^2/(2 sigma1^2)) + c2 exp(-|x|^2/(2 sigma2^2))``.
    With c2 sigma2^n < c1 sigma1^n the integral stays negative while
    max V > 0, the configuration used to probe binding from sign-changing
    potentials.
    """
    c1 = _positive("c1", c1)
    sigma1 = _positive("sigma1", sigma1)
    c2 = _positive("c2", c2)
    sigma2 = _positive("sigma2", sigma2)
    _check_dimension(dimension)
    return _gaussian_terms("gaussian-dimple-mix", "sign-changing",
                           {"c1": c1, "sigma1": sigma1, "c2": c2, "sigma2": sigma2},
                           [(-c1, sigma1), (c2, sigma2)], dimension)


def ball_well(c, radius, dimension: int = 2) -> Potential:
    """Uniform well of depth c supported on the ball |x| <= radius."""
    c = _positive("c", c)
    radius = _positive("radius", radius)
    _check_dimension(dimension)

    if dimension == 2:
        # vhat(k) = -c R J1(R|k|)/|k|; series 1/2 - u^2/16 + u^4/384 near u = R|k| = 0
        def radial_vhat(kr):
            from scipy.special import j1

            u = radius * kr
            small = u < 1e-2
            out = np.empty_like(u)
            us = u[small]
            out[small] = -c * radius**2 * (0.5 - us**2 / 16.0 + us**4 / 384.0)
            ub = u[~small]
            out[~small] = -c * radius * j1(ub) / kr[~small]
            return out
    else:
        const = 4.0 * np.pi / (2.0 * np.pi) ** 1.5

        # (sin u - u cos u)/u^3 = 1/3 - u^2/30 + u^4/840 near u = 0; the
        # direct form loses eps/u^2 digits to cancellation, so switch
        # while the quartic series still has ~1e-16 truncation error
        def radial_vhat(kr):
            u = radius * kr
            small = u < 1e-2
            out = np.empty_like(u)
            us = u[small]
            out[small] = -c * const * radius**3 * (1.0 / 3.0 - us**2 / 30.0 + us**4 / 840.0)
            ub = u[~small]
            out[~small] = -c * const * (np.sin(ub) - ub * np.cos(ub)) / kr[~small] ** 3
            return out

    def kernel(p, q):
        d = np.sqrt(kernels.squared_distances(p, q))
        return radial_vhat(d)

    return Potential(
        dimension=dimension,
        kind="ball-well",
        sign="nonpositive",
        params={"c": c, "radius": radius},
        is_radial=True,
        band=None,
        _evaluate=lambda x: np.where(np.sum(x * x, axis=-1) <= radius**2, -c, 0.0),
        _kernel=kernel,
    )


def _cubic(axis, table):
    """Not-a-knot tensor cubic through ``table`` on the grid ``axis`` along every axis.

    Built exactly, not by an iterative fit: one banded
    ``make_interp_spline`` solve per axis turns the samples into B-spline
    coefficients (complex samples give complex coefficients), and
    ``NdBSpline`` evaluates their tensor product at points of shape
    ``(..., ndim)``, NaN outside the grid.
    """
    from scipy.interpolate import NdBSpline, make_interp_spline

    coefficients = table
    for ax in range(table.ndim):
        spline = make_interp_spline(axis, coefficients, axis=ax)
        coefficients = np.moveaxis(spline.c, 0, ax)
    return NdBSpline((spline.t,) * table.ndim, coefficients, 3, extrapolate=False)


def tabulated(values, edge, dimension: int = 2) -> Potential:
    """Potential from samples on a centered hypercube grid.

    Parameters
    ----------
    values : array_like, shape (G,) * dimension
        Samples ``V(x_j)`` at ``x_j = (j - G//2) * edge / G`` per axis.
    edge : float
        Box edge length; V must be negligible outside the box for the
        FFT transform to be meaningful.

    Notes
    -----
    The transform table is one FFT of the samples on the dual lattice
    with spacing ``2 pi / edge``; on an even grid its -G/2 slice is
    repeated at +G/2 (the lattice is periodic), so the axis is symmetric
    and the interpolant keeps vhat(-k) = conj vhat(k) of a real V. The
    table and the samples are interpolated by the not-a-knot tensor
    cubic, which is exact at the lattice points and the sample points;
    ``evaluate`` is 0 outside the sampled box. The resolved band is
    half the grid Nyquist momentum per axis; queries beyond it raise
    :class:`OutOfBandError`. For kernel queries up to a shell diameter
    ``2 R`` plus tube margin, size the table so that
    ``0.5 * pi * G / edge`` exceeds that range (the documented Nyquist
    bound), and size ``edge`` large enough that the k-lattice resolves
    vhat's oscillation scale, else construction-time accuracy is lost.
    """
    values = np.asarray(values, dtype=np.float64)
    edge = _positive("edge", edge)
    _check_dimension(dimension)
    if values.ndim != dimension or len(set(values.shape)) != 1:
        raise ConfigurationError("values must be a hypercube array matching the dimension")
    samples = values.shape[0]
    if samples < 16:
        raise ConfigurationError("need at least 16 samples per edge")
    if not np.all(np.isfinite(values)):
        raise ConfigurationError("non-finite potential samples")
    h = edge / samples
    half = samples // 2

    # ifftshift puts the sample x = 0 at index 0, so the FFT needs no phase
    table = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(values)))
    table *= h**dimension * (2.0 * np.pi) ** (-dimension / 2.0)
    # an even grid's dual axis runs from -G/2 to G/2 - 1; the lattice is
    # periodic, so the -G/2 slice repeated at +G/2 makes the axis
    # symmetric, and the spline of a real V conjugate-symmetric with it
    if samples % 2 == 0:
        table = np.pad(table, (0, 1), mode="wrap")
    transform = _cubic((np.arange(table.shape[0]) - half) * (2.0 * np.pi / edge), table)
    position = _cubic((np.arange(samples) - half) * h, values)
    band = 0.5 * np.pi / h

    def kernel(p, q):
        # filled a block of rows at a time; an empty p or q gives an empty matrix
        out = np.empty((p.shape[0], q.shape[0]), dtype=np.complex128)
        step = max(1, int(2**22 // max(q.shape[0], 1)))
        for start in range(0, p.shape[0], step):
            diff = p[start : start + step, None, :] - q[None, :, :]
            reach = np.abs(diff).max(initial=0.0)
            if reach > band:
                raise OutOfBandError(
                    f"kernel query reaches |k_axis| = {reach:.6g}, beyond "
                    f"the resolved band {band:.6g}"
                )
            out[start : start + step] = transform(diff)
        scale = max(np.abs(out.real).max(initial=0.0), 1e-300)
        return out.real if np.abs(out.imag).max(initial=0.0) <= 1e-12 * scale else out

    # the sign is read from the samples: the cubic interpolant can
    # overshoot between them, but the table is what was given
    vmax, vmin = values.max(), values.min()
    tol = 1e-12 * max(abs(vmax), abs(vmin), 1.0)
    if vmax <= tol:
        sign = "nonpositive"
    elif vmin < -tol:
        sign = "sign-changing"
    else:
        sign = "unknown"

    return Potential(
        dimension=dimension,
        kind="tabulated",
        sign=sign,
        params={"edge": edge, "samples": samples},
        is_radial=False,
        band=float(band),
        _evaluate=lambda x: np.nan_to_num(position(x), nan=0.0),
        _kernel=kernel,
    )


def tabulated_from_file(path) -> Potential:
    """Load a tabulated potential from a text grid file.

    Format: a header line ``dimension edge samples`` followed by
    ``samples**dimension`` whitespace-separated values in row-major
    order.

    Raises
    ------
    ConfigurationError
        If the header does not hold an integer dimension of 2 or 3, a
        positive finite edge and an integer sample count of at least 16
        (the values that ``tabulated`` takes), a sample is not a number,
        the value count is not ``samples**dimension``, or a sample is
        NaN or infinite. Every message names the file.
    """
    path = Path(path)
    with path.open() as handle:
        header = handle.readline().split()
        if len(header) != 3:
            raise ConfigurationError(f"grid file {path}: header must be: dimension edge samples")
        dimension = _header_field(path, "dimension", int, header[0])
        edge = _header_field(path, "edge", float, header[1])
        samples = _header_field(path, "samples", int, header[2])
        # the values that tabulated takes, checked here so the error names the file
        for name, value, valid, rule in (
            ("dimension", dimension, dimension in (2, 3), "2 or 3"),
            ("edge", edge, 0.0 < edge < np.inf, "positive and finite"),
            ("samples", samples, samples >= 16, "at least 16"),
        ):
            if not valid:
                raise ConfigurationError(f"grid file {path}: header field {name} must be {rule}, "
                                         f"got {value}")
        try:
            data = np.array(handle.read().split(), dtype=np.float64)
        except ValueError as exc:
            message = f"grid file {path}: bad sample values after the header ({exc})"
            raise ConfigurationError(message) from None
    expected = samples**dimension
    if data.size != expected:
        raise ConfigurationError(
            f"grid file {path}: holds {data.size} values, expected {expected}"
        )
    bad = np.count_nonzero(~np.isfinite(data))
    if bad:
        raise ConfigurationError(f"grid file {path}: {bad} of {expected} samples are not finite")
    return tabulated(data.reshape((samples,) * dimension), edge, dimension)


def _header_field(path: Path, name: str, kind: type, text: str):
    try:
        return kind(text)
    except ValueError:
        message = f"grid file {path}: header field {name} must be {kind.__name__}, got {text!r}"
        raise ConfigurationError(message) from None
