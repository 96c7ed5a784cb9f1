"""Real-valued integrable potentials paired with their Fourier transforms.

The Fourier convention is symmetric,

    vhat(k) = (2 pi)^(-n/2) * integral V(x) exp(-i <k, x>) dx,

and every kernel formula downstream inherits it; a convention mismatch
would silently rescale the surface-operator spectrum, which is why the
convention is fixed here once.

Built-in kinds: ``gaussian-well``, ``ball-well``, ``gaussian-dimple-mix``
(all with closed-form transforms) and ``tabulated`` (FFT-based transform
on a centered hypercube grid with cubic interpolation, valid on a
documented band).
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

    Attributes
    ----------
    dimension : int
    kind : str
    sign : str
        ``nonpositive``, ``sign-changing`` or ``unknown``; declared by
        analytic constructors, measured for tabulated input.
    params : dict
    is_radial : bool
        True when vhat depends on k only through |k|; vhat is then real
        for a real V. Enables the circulant spectrum on the one-ring
        circle mesh, and on meshes with a ring layout
        (``SurfaceMesh.rings``) the sector assembly of the shell
        operator and the block-circulant tube forms of
        ``rayleigh_ritz.certify``, which reject a kernel slice that is
        complex or changed by the azimuth mirror.
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
    _fourier: Callable = field(repr=False)
    _kernel: Callable = field(repr=False)
    _integral: float = field(repr=False)

    def evaluate(self, x):
        """V at one position (shape ``(n,)``) or a batch (shape ``(..., n)``)."""
        x = _check_points(x, self.dimension, "position")
        out = self._evaluate(x)
        return float(out) if np.ndim(out) == 0 else out

    def fourier(self, k):
        """vhat at one momentum or a batch; complex-valued.

        Raises
        ------
        OutOfBandError
            For tabulated potentials queried outside the resolved band.
        """
        k = _check_points(k, self.dimension, "momentum")
        if self.band is not None and np.any(np.abs(k) > self.band):
            raise OutOfBandError(
                f"momentum outside the resolved band |k_axis| <= {self.band:.6g}"
            )
        out = np.asarray(self._fourier(k), dtype=np.complex128)
        return complex(out) if out.ndim == 0 else out

    def integral(self) -> float:
        """integral of V over R^n; equals (2 pi)^(n/2) vhat(0)."""
        return self._integral

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
        _fourier=lambda k: np.zeros(k.shape[:-1]),
        _kernel=lambda p, q: np.zeros((p.shape[0], q.shape[0])),
        _integral=0.0,
    )


def _gaussian_terms(kind, sign, params, terms, dimension) -> Potential:
    """``V(x) = sum_m h_m exp(-|x|^2 / (2 s_m^2))`` from its (height h_m, sigma s_m) terms.

    vhat(k) = sum_m h_m s_m^n exp(-s_m^2 |k|^2 / 2). Every form sums
    from the first term on, and the integral is (2 pi)^(n/2) times the
    sum of the amplitudes h_m s_m^n, so terms that cancel give exactly 0.
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

    def vhat(k):
        k2 = np.sum(k * k, axis=-1)
        out = amps[0] * np.exp(-rates[0] * k2)
        for amp, rate in zip(amps[1:], rates[1:]):
            out = out + amp * np.exp(-rate * k2)
        return out

    return Potential(
        dimension=dimension,
        kind=kind,
        sign=sign,
        params=params,
        is_radial=True,
        band=None,
        _evaluate=vreal,
        _fourier=vhat,
        _kernel=lambda p, q: kernels.gaussian_mix(p, q, amps, rates),
        _integral=(2.0 * np.pi) ** (dimension / 2.0) * float(amps.sum()),
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

        volume = np.pi * radius**2
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

        volume = 4.0 * np.pi * radius**3 / 3.0

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
        _fourier=lambda k: radial_vhat(np.linalg.norm(k, axis=-1)),
        _kernel=kernel,
        _integral=-c * volume,
    )


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
    The transform table lives on the dual lattice with spacing
    ``2 pi / edge`` and is interpolated cubically. The resolved band is
    half the grid Nyquist momentum per axis; queries beyond it raise
    :class:`OutOfBandError`. For kernel queries up to a shell diameter
    ``2 R`` plus tube margin, size the table so that
    ``0.5 * pi * G / edge`` exceeds that range (the documented Nyquist
    bound), and size ``edge`` large enough that the k-lattice resolves
    vhat's oscillation scale, else construction-time accuracy is lost.
    """
    from scipy.interpolate import RegularGridInterpolator

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

    axis_x = (np.arange(samples) - half) * h
    table = np.fft.fftn(values) * (h**dimension * (2.0 * np.pi) ** (-dimension / 2.0))
    axis_k = 2.0 * np.pi * np.fft.fftfreq(samples, d=h)
    # centered-grid phase: exp(-i k x) picks up exp(i k h G//2) per axis
    for ax in range(dimension):
        phase = np.exp(1j * axis_k * h * half)
        shape = [1] * dimension
        shape[ax] = samples
        table = table * phase.reshape(shape)
    axis_k_sorted = np.fft.fftshift(axis_k)
    table = np.fft.fftshift(table)

    # even real V gives a real transform; keep one interpolator then,
    # two (real and imaginary part) otherwise
    scale = max(np.abs(table).max(), 1e-300)
    k_axes = (axis_k_sorted,) * dimension
    parts = [(RegularGridInterpolator(k_axes, np.ascontiguousarray(table.real), method="cubic"), 1.0)]
    if np.abs(table.imag).max() > 1e-9 * scale:
        parts.append(
            (RegularGridInterpolator(k_axes, np.ascontiguousarray(table.imag), method="cubic"), 1.0j)
        )
    band = 0.5 * np.pi / h

    real_interp = RegularGridInterpolator(
        (axis_x,) * dimension, values, method="cubic", bounds_error=False, fill_value=0.0
    )

    def vhat(k):
        flat = k.reshape(-1, dimension)
        out = np.zeros(flat.shape[0], dtype=np.complex128)
        for interp, unit in parts:
            out = out + unit * interp(flat)
        return out.reshape(k.shape[:-1])

    def kernel(p, q):
        rows = []
        step = max(1, int(2**22 // max(q.shape[0], 1)))
        for start in range(0, p.shape[0], step):
            block = p[start : start + step]
            diff = block[:, None, :] - q[None, :, :]
            if np.abs(diff).max() > band:
                raise OutOfBandError(
                    f"kernel query reaches |k_axis| = {np.abs(diff).max():.6g}, beyond "
                    f"the resolved band {band:.6g}"
                )
            rows.append(vhat(diff))
        out = np.concatenate(rows, axis=0)
        return out.real if np.abs(out.imag).max() <= 1e-12 * max(np.abs(out.real).max(), 1e-300) else out

    # sign flag: exact table scan plus interpolated sampling, since the
    # cubic surrogate can overshoot between samples
    rng = np.random.default_rng(0)
    probes = rng.uniform(-edge / 2, edge / 2, size=(100_000, dimension))
    probe_vals = real_interp(probes)
    vmax = max(values.max(), probe_vals.max())
    vmin = min(values.min(), probe_vals.min())
    tol = 1e-12 * max(abs(vmax), abs(vmin), 1.0)
    if vmax <= tol:
        sign = "nonpositive"
    elif vmin < -tol and vmax > tol:
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
        _evaluate=lambda x: real_interp(x.reshape(-1, dimension)).reshape(x.shape[:-1]),
        _fourier=vhat,
        _kernel=kernel,
        _integral=float(values.sum() * h**dimension),
    )


def tabulated_from_file(path) -> Potential:
    """Load a tabulated potential from a text grid file.

    Format: a header line ``dimension edge samples`` followed by
    ``samples**dimension`` whitespace-separated values in row-major
    order.

    Raises
    ------
    ConfigurationError
        If the header does not hold an integer dimension, a number edge
        and an integer sample count, a sample is not a number, or the
        value count is not ``samples**dimension``.
    """
    path = Path(path)
    with path.open() as handle:
        header = handle.readline().split()
        if len(header) != 3:
            raise ConfigurationError("header must be: dimension edge samples")
        dimension = _header_field(path, "dimension", int, header[0])
        edge = _header_field(path, "edge", float, header[1])
        samples = _header_field(path, "samples", int, header[2])
        try:
            data = np.loadtxt(handle).ravel()
        except ValueError as exc:
            message = f"grid file {path}: bad sample values after the header ({exc})"
            raise ConfigurationError(message) from None
    expected = samples**dimension
    if data.size != expected:
        raise ConfigurationError(
            f"grid file holds {data.size} values, expected {expected}"
        )
    return tabulated(data.reshape((samples,) * dimension), edge, dimension)


def _header_field(path: Path, name: str, kind: type, text: str):
    try:
        return kind(text)
    except ValueError:
        message = f"grid file {path}: header field {name} must be {kind.__name__}, got {text!r}"
        raise ConfigurationError(message) from None
