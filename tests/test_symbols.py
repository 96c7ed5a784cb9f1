"""Checks for the radial dispersion symbols and the minimum search."""

import sys

import numpy as np
import numpy.testing as npt
import pytest

from shellbound import symbols
from shellbound.errors import (
    ConfigurationError,
    DegenerateSurfaceError,
    InvalidInputError,
)


def _unit_vectors(rng, count, dimension):
    v = rng.standard_normal((count, dimension))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------- named kinds


def test_roton_profile_values():
    sym = symbols.roton(1.0, 1.0, 2.0)
    assert sym.evaluate(np.array([2.0, 0.0, 0.0])) == 1.0
    assert sym.evaluate(np.array([0.0, 3.0, 0.0])) == 1.5
    assert sym.evaluate(np.array([0.0, 0.0, 0.0])) == 3.0
    npt.assert_allclose(sym.radial(np.array([1.0, 2.0, 4.0])), [1.5, 1.0, 3.0])


def test_roton_minimum_is_analytic():
    m, radius = symbols.roton(0.7, 0.3, 1.9).find_minimum()
    assert m == 0.7
    assert radius == 1.9


def test_mexican_hat_profile_and_minimum():
    sym = symbols.mexican_hat(1.5)
    assert sym.dimension == 2
    assert sym.evaluate(np.array([3.0, 0.0])) == 2.25
    assert sym.find_minimum() == (0.0, 1.5)


def test_bcs_minimum_and_shell_value():
    sym = symbols.bcs(4.0, 1.0)
    m, radius = sym.find_minimum()
    assert m == 2.0
    assert radius == 2.0
    # u = r^2 - mu vanishes on the shell, the removable singularity
    assert sym.evaluate(np.array([0.0, 2.0, 0.0])) == 2.0


def test_bcs_matches_naive_coth_away_from_zero():
    # reference u / tanh(beta u / 2) is itself accurate once u != 0
    beta, mu = 2.5, 1.7
    sym = symbols.bcs(mu, beta)
    u = np.concatenate([-np.logspace(-12, 1, 40), np.logspace(-12, 1, 40)])
    r = np.sqrt(np.maximum(mu + u, 1e-30))
    u = r**2 - mu
    reference = u / np.tanh(beta * u / 2.0)
    npt.assert_allclose(sym.radial(r), reference, rtol=1e-12)


def test_bcs_series_is_continuous_at_switch():
    beta, mu = 3.0, 2.0
    sym = symbols.bcs(mu, beta)
    for side in (-1.0, 1.0):
        u_lo = side * (1e-4 / beta) * (1.0 - 1e-9)
        u_hi = side * (1e-4 / beta) * (1.0 + 1e-9)
        vals = sym.radial(np.sqrt(mu + np.array([u_lo, u_hi])))
        assert abs(vals[1] - vals[0]) < 1e-12


def test_bcs_even_in_u():
    # u coth(beta u / 2) is even in u = r^2 - mu, so radii with opposite
    # u must produce identical profile values
    beta, mu = 1.3, 4.0
    sym = symbols.bcs(mu, beta)
    h = np.linspace(1e-6, 3.0, 200)
    above = sym.radial(np.sqrt(mu + h))
    below = sym.radial(np.sqrt(mu - h))
    npt.assert_allclose(above, below, rtol=1e-12)


def test_bcs_saturates_linearly_at_infinity():
    sym = symbols.bcs(1.0, 10.0)
    r = np.array([50.0, 100.0])
    npt.assert_allclose(sym.radial(r), r**2 - 1.0, rtol=1e-10)


# ------------------------------------------------------------- custom tables


def test_custom_radial_reproduces_quadratic_profile():
    # not-a-knot cubic interpolation is exact on polynomials of degree <= 3
    radii = np.linspace(0.05, 6.0, 400)
    values = 1.0 + (radii - 2.0) ** 2 / 2.0
    sym = symbols.custom_radial(radii, values, dimension=3)
    m, radius = sym.find_minimum()
    assert abs(m - 1.0) < 1e-10
    assert abs(radius - 2.0) < 1e-8
    npt.assert_allclose(
        sym.evaluate(np.array([[0.3, 0.4, 1.2], [3.0, 0.0, 0.0]])),
        [1.0 + (1.3 - 2.0) ** 2 / 2.0, 1.5],
        rtol=1e-12,
    )


def test_custom_radial_monotone_profile_is_degenerate():
    # the minimum is searched once, when the symbol is built
    radii = np.linspace(0.0, 3.0, 50)
    with pytest.raises(DegenerateSurfaceError, match="radius zero"):
        symbols.custom_radial(radii, radii**2 + 1.0)


@pytest.mark.parametrize("profile, end", [
    (lambda r: 5.0 - r, 3.0),
    (lambda r: r**2, 0.5),
    (lambda r: np.full(r.size, 2.0), 0.5),  # a tie goes to the first radius
], ids=["falling", "rising", "constant"])
def test_custom_radial_minimum_at_a_table_end_is_degenerate(profile, end):
    # the table must show the profile rising on both sides of its minimum
    radii = np.linspace(0.5, 3.0, 20)
    with pytest.raises(DegenerateSurfaceError, match=rf"r = {end:g}, an end of its table"):
        symbols.custom_radial(radii, profile(radii))


def test_custom_radial_minimum_is_computed_once(monkeypatch):
    radii = np.linspace(0.05, 6.0, 400)
    sym = symbols.custom_radial(radii, 1.0 + (radii - 2.0) ** 2 / 2.0)
    monkeypatch.setattr(symbols, "_spline_minimum", None)
    assert sym.find_minimum() is sym.find_minimum()


def _dense_minimum(sym, radii):
    return sym.radial(np.linspace(radii[0], radii[-1], 100001)).min()


def test_custom_radial_tie_goes_to_the_smaller_radius():
    # a double well on exact binary fractions: the spline is 0 at the
    # knots r = 2 and r = 4, and below 0 nowhere
    radii = np.arange(8, 89) / 16.0
    sym = symbols.custom_radial(radii, ((radii - 3.0) ** 2 - 1.0) ** 2)
    assert sym.find_minimum() == (0.0, 2.0)
    assert sym.find_minimum()[0] <= _dense_minimum(sym, radii)


def test_custom_radial_flat_bottom_minimum_is_exact():
    # 1 on [2, 4], where the spline wiggles: its lowest point is found,
    # no higher than any point of a dense sample
    radii = np.linspace(0.5, 6.0, 56)
    sym = symbols.custom_radial(radii, 1.0 + np.maximum(np.abs(radii - 3.0) - 1.0, 0.0) ** 2)
    m, radius = sym.find_minimum()
    assert m < 1.0 and 1.9 < radius < 4.1
    assert m <= _dense_minimum(sym, radii)
    # a constant table: every piece has a zero derivative, so only the
    # knots are candidates, and the tie goes to the first, radius 0
    with pytest.raises(DegenerateSurfaceError, match="radius zero"):
        symbols.custom_radial(np.linspace(0.0, 3.0, 10), np.full(10, 2.0))


def test_custom_radial_needs_no_optimizer(monkeypatch):
    # scipy.interpolate loads scipy.optimize itself, so the module cannot
    # stay unloaded; blocking it shows that the minimum needs none of it
    import scipy.interpolate  # noqa: F401

    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    radii = np.linspace(0.05, 6.0, 400)
    m, radius = symbols.custom_radial(radii, 1.0 + (radii - 2.0) ** 2 / 2.0).find_minimum()
    assert m == 1.0 and abs(radius - 2.0) < 1e-12


def test_custom_radial_table_validation():
    good = np.linspace(0.1, 2.0, 10)
    with pytest.raises(ConfigurationError):
        symbols.custom_radial(good[:3], good[:3])
    with pytest.raises(ConfigurationError):
        symbols.custom_radial(good[::-1], good)
    with pytest.raises(ConfigurationError):
        symbols.custom_radial(good, np.r_[good[:-1], np.nan])


# ------------------------------------------------------- shared symbol rules


ALL_SYMBOLS = [
    symbols.roton(1.0, 0.5, 1.9, dimension=3),
    symbols.bcs(2.0, 3.0, dimension=3),
    symbols.mexican_hat(1.0, dimension=2),
    symbols.custom_radial(
        np.linspace(0.05, 8.0, 600),
        (np.linspace(0.05, 8.0, 600) - 1.2) ** 2 + 0.3,
        dimension=2,
    ),
]


@pytest.mark.parametrize("sym", ALL_SYMBOLS, ids=lambda s: s.kind)
def test_symbol_is_isotropic(sym):
    rng = np.random.default_rng(7)
    radii = rng.uniform(0.1, 5.0, 64)
    u = _unit_vectors(rng, 64, sym.dimension)
    v = _unit_vectors(rng, 64, sym.dimension)
    npt.assert_allclose(
        sym.evaluate(radii[:, None] * u),
        sym.evaluate(radii[:, None] * v),
        rtol=1e-12,
        atol=1e-13,
    )


@pytest.mark.parametrize("sym", ALL_SYMBOLS, ids=lambda s: s.kind)
def test_symbol_minimum_is_global(sym):
    rng = np.random.default_rng(11)
    m, radius = sym.find_minimum()
    assert radius > 0.0
    points = rng.uniform(0.05, 7.5, 512)[:, None] * _unit_vectors(
        rng, 512, sym.dimension
    )
    assert np.all(sym.evaluate(points) >= m - 1e-12)
    shell = radius * _unit_vectors(rng, 32, sym.dimension)
    npt.assert_allclose(sym.evaluate(shell), m, atol=1e-10)


@pytest.mark.parametrize("sym", ALL_SYMBOLS, ids=lambda s: s.kind)
def test_symbol_quadratic_transverse_growth(sym):
    # near the shell H0(R + t) - m <= C t^2 with C = 1.5 f''(R)
    m, radius = sym.find_minimum()
    h = 1e-4 * radius
    second = (sym.radial(radius + h) - 2.0 * sym.radial(radius) + sym.radial(radius - h)) / h**2
    assert second > 0.0
    t = np.linspace(-0.25 * radius, 0.25 * radius, 101)
    growth = sym.radial(radius + t) - m
    assert np.all(growth <= 1.5 * second * t**2 + 1e-12)


@pytest.mark.parametrize("sym", ALL_SYMBOLS, ids=lambda s: s.kind)
def test_symbol_confines_at_infinity(sym):
    _, radius = sym.find_minimum()
    r_far = min(7.9, 40.0 * radius)
    assert sym.radial(r_far) > sym.radial(radius) + 1.0e-2


# ------------------------------------------------------------------ bad input


def test_evaluate_rejects_bad_shapes_and_values():
    sym = symbols.mexican_hat(1.0)
    with pytest.raises(InvalidInputError):
        sym.evaluate(np.zeros((4, 3)))
    with pytest.raises(InvalidInputError):
        sym.evaluate(np.float64(1.0))
    with pytest.raises(InvalidInputError):
        sym.evaluate(np.array([np.inf, 0.0]))
    with pytest.raises(InvalidInputError):
        sym.evaluate(np.array([np.nan, 0.0]))


def test_constructors_reject_bad_parameters():
    with pytest.raises(ConfigurationError):
        symbols.roton(-1.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        symbols.roton(1.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        symbols.bcs(1.0, -2.0)
    with pytest.raises(ConfigurationError):
        symbols.mexican_hat(1.0, dimension=4)


def test_evaluate_returns_scalar_for_single_point():
    sym = symbols.roton(1.0, 1.0, 2.0)
    out = sym.evaluate(np.array([1.0, 1.0, 1.0]))
    assert isinstance(out, float)
    batch = sym.evaluate(np.ones((5, 2, 3)))
    assert batch.shape == (5, 2)
