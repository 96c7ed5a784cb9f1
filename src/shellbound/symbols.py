"""Scalar dispersion symbols whose minimum set is a circle or sphere.

A symbol is a radial function ``H0(p) = profile(|p|)`` that is bounded
below, grows at infinity, and attains its minimum ``m`` on the shell
``|p| = R``. The toolkit never hard-codes the minimum value: it is
always computed, analytically for the named kinds and by bracketed 1-D
minimization for tabulated profiles.

The pipeline reads a symbol through ``evaluate`` (the kinetic energy),
``find_minimum`` and ``frame``, the band frame that weights the kernel
by the band overlap. A scalar symbol has no frame;
:class:`shellbound.spin_orbit.MatrixSymbol` has the same three
members, so spin-orbit problems take the same certification path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateSurfaceError,
    InvalidInputError,
)


@dataclass(frozen=True)
class DispersionSymbol:
    """A radial Fourier symbol p -> H0(p).

    Attributes
    ----------
    dimension : int
        Ambient momentum dimension, 2 or 3.
    kind : str
        One of ``roton``, ``bcs``, ``mexican-hat``, ``custom-radial``.
    params : dict
        Flat name -> float parameter record.
    frame : None
        A scalar symbol has one band and no band frame; see
        ``spin_orbit.MatrixSymbol.frame`` for a symbol that has one.
    """

    dimension: int
    kind: str
    params: dict
    _radial: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    _minimum: tuple[float, float] | None = field(default=None, repr=False)
    _bracket: tuple[float, float] = field(default=(1e-8, 50.0), repr=False)
    frame = None  # a class attribute, not a field

    def radial(self, r):
        """Profile value at radius |p| = r (vectorized)."""
        r = np.asarray(r, dtype=np.float64)
        return self._radial(r)

    def evaluate(self, p):
        """H0 at one point (shape ``(n,)``) or a batch (shape ``(..., n)``)."""
        p = _check_points(p, self.dimension, "momentum")
        out = self._radial(np.linalg.norm(p, axis=-1))
        return float(out) if out.ndim == 0 else out

    def find_minimum(self) -> tuple[float, float]:
        """Global minimum of the radial profile.

        Returns
        -------
        (m, surface_radius) : tuple of float
            Minimum value and the minimizing radius.

        Raises
        ------
        DegenerateSurfaceError
            If the minimizer sits at radius 0, where there is no
            hypersurface of extrema.
        """
        if self._minimum is not None:
            return self._minimum
        from scipy.optimize import minimize_scalar

        lo, hi = self._bracket
        grid = np.linspace(lo, hi, 2048)
        values = self._radial(grid)
        seed = int(np.argmin(values))
        a = grid[max(seed - 1, 0)]
        b = grid[min(seed + 1, grid.size - 1)]
        res = minimize_scalar(
            lambda r: float(self._radial(np.float64(r))),
            bounds=(a, b),
            method="bounded",
            options={"xatol": 1e-13 * max(1.0, hi)},
        )
        radius = float(res.x)
        if radius <= 1e-6 * max(1.0, hi):
            raise DegenerateSurfaceError(
                "radial profile is minimized at radius zero; no extremum shell"
            )
        return float(res.fun), radius


def _positive(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ConfigurationError(f"parameter {name} must be strictly positive")
    return value


def roton(delta, mu, p0, dimension: int = 3) -> DispersionSymbol:
    """Dip-shaped profile ``delta + (r - p0)^2 / (2 mu)``, minimum delta on r = p0."""
    delta = _positive("delta", delta)
    mu = _positive("mu", mu)
    p0 = _positive("p0", p0)
    _check_dimension(dimension)

    def profile(r):
        return delta + (r - p0) ** 2 / (2.0 * mu)

    return DispersionSymbol(
        dimension=dimension,
        kind="roton",
        params={"delta": delta, "mu": mu, "p0": p0},
        _radial=profile,
        _minimum=(delta, p0),
    )


def bcs(mu, beta, dimension: int = 3) -> DispersionSymbol:
    """Profile ``(r^2 - mu) * coth(beta (r^2 - mu) / 2)``, minimum 2/beta on r = sqrt(mu).

    The removable singularity at r^2 = mu is evaluated through the even
    Taylor expansion ``2/beta + beta u^2 / 6`` for small ``u = r^2 - mu``;
    elsewhere coth is computed via expm1, which is stable for both signs
    of u and saturates correctly to |u| for large |beta u|.
    """
    mu = _positive("mu", mu)
    beta = _positive("beta", beta)
    _check_dimension(dimension)

    def profile(r):
        u = np.asarray(r, dtype=np.float64) ** 2 - mu
        x = beta * u
        out = np.empty_like(u)
        small = np.abs(x) < 1e-4
        us = u[small]
        out[small] = 2.0 / beta + beta * us * us / 6.0
        ul = u[~small]
        with np.errstate(over="ignore"):
            out[~small] = ul * (1.0 + 2.0 / np.expm1(beta * ul))
        return out

    return DispersionSymbol(
        dimension=dimension,
        kind="bcs",
        params={"mu": mu, "beta": beta},
        _radial=profile,
        _minimum=(2.0 / beta, float(np.sqrt(mu))),
    )


def mexican_hat(p0, dimension: int = 2) -> DispersionSymbol:
    """Profile ``(r - p0)^2`` with minimum 0 on the shell r = p0."""
    p0 = _positive("p0", p0)
    _check_dimension(dimension)

    def profile(r):
        return (r - p0) ** 2

    return DispersionSymbol(
        dimension=dimension,
        kind="mexican-hat",
        params={"p0": p0},
        _radial=profile,
        _minimum=(0.0, p0),
    )


def custom_radial(radii, values, dimension: int = 2) -> DispersionSymbol:
    """Symbol from a tabulated radial profile with cubic interpolation.

    Parameters
    ----------
    radii : array_like
        Strictly increasing sample radii; must cover the minimum and
        enough of the confining growth that the minimum is interior.
    values : array_like
        Profile samples at ``radii``.
    """
    from scipy.interpolate import CubicSpline

    radii = np.asarray(radii, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    _check_dimension(dimension)
    if radii.ndim != 1 or radii.size < 4 or radii.shape != values.shape:
        raise ConfigurationError("need matching 1-D radii/values tables with >= 4 samples")
    if np.any(np.diff(radii) <= 0) or radii[0] < 0:
        raise ConfigurationError("radii must be nonnegative and strictly increasing")
    if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(values))):
        raise ConfigurationError("non-finite entries in the radial table")
    spline = CubicSpline(radii, values)

    return DispersionSymbol(
        dimension=dimension,
        kind="custom-radial",
        params={"r_min": float(radii[0]), "r_max": float(radii[-1])},
        _radial=lambda r: spline(r),
        _minimum=None,
        _bracket=(max(float(radii[0]), 1e-8), float(radii[-1])),
    )


def _check_points(arr, dimension: int, label: str) -> np.ndarray:
    """Points as float64 with last axis ``dimension`` and finite coordinates."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] != dimension:
        raise InvalidInputError(
            f"expected {label} points with last axis {dimension}, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"non-finite {label} coordinates")
    return arr


def _check_dimension(dimension: int) -> None:
    if dimension not in (2, 3):
        raise ConfigurationError("dimension must be 2 or 3")
