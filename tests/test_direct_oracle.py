"""Grid-oracle tests: tables, the apply of H, eigensolves, counting."""

import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

from shellbound import direct_oracle as do
from shellbound import kernels, potentials, rayleigh_ritz, surface, symbols
from shellbound.errors import (
    ConfigurationError, ConsistencyError, ConvergenceError, PreconditionError,
)

SYMBOL = symbols.mexican_hat(dimension=2, p0=1.0)


def quiet_build(*args, **kwargs):
    # small test boxes sit in the coarse-dual-lattice warning band on purpose
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return do.build_hamiltonian(*args, **kwargs)


@pytest.fixture(scope="module")
def dimple_ham():
    pot = potentials.gaussian_dimple_mix(1.0, 1.0, 2.0, 0.5, dimension=2)
    return quiet_build(SYMBOL, pot, 15.0, 48)


def test_tables_shapes_and_values():
    pot = potentials.gaussian_well(1.0, 1.0, dimension=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # spacing 0.1227 < R/8, must build silently
        ham = do.build_hamiltonian(SYMBOL, pot, 51.2, 96)
    assert ham.symbol_table.shape == (96, 96)
    assert ham.symbol_table[0, 0] == 1.0  # (|0| - 1)^2
    assert ham.minimum == 0.0
    assert ham.size == 96 * 96
    assert not ham.is_free
    # position grid is centered on index G // 2
    assert ham.potential_table[48, 48] == -1.0
    assert abs(ham.potential_table[0, 0]) < 1e-100
    lowest = np.sort(ham.symbol_table.ravel())[:33]
    assert ham.delta == 3.0 * (lowest[32] - lowest[0]) / 32.0
    assert ham.spectral_scale == np.abs(ham.symbol_table).max() + 1.0


def test_free_flag():
    assert quiet_build(SYMBOL, None, 20.0, 64).is_free
    # an identically zero table is dropped at build time
    ham = quiet_build(SYMBOL, potentials.zero(2), 20.0, 64)
    assert ham.potential_table is None and ham.is_free


def test_build_validation():
    pot = potentials.gaussian_well(1.0, 1.0, dimension=2)
    with pytest.raises(ConfigurationError):
        do.build_hamiltonian(SYMBOL, pot, 0.0, 64)
    with pytest.raises(ConfigurationError):
        do.build_hamiltonian(SYMBOL, pot, 20.0, 12)
    with pytest.raises(ConfigurationError, match="resolve"):
        do.build_hamiltonian(SYMBOL, pot, 10.0, 64)  # spacing 0.63 > R/2
    with pytest.raises(ConfigurationError, match="cutoff"):
        do.build_hamiltonian(SYMBOL, pot, 51.2, 64)  # cutoff 3.93 < 4R
    with pytest.raises(ConfigurationError, match="96"):
        do.build_hamiltonian(symbols.mexican_hat(dimension=3, p0=1.0), None, 52.0, 112)
    with pytest.raises(ConfigurationError, match="delta_levels"):
        quiet_build(SYMBOL, pot, 20.0, 64, delta_levels=0.0)
    with pytest.raises(PreconditionError, match="dimensions"):
        do.build_hamiltonian(SYMBOL, potentials.gaussian_well(1.0, 1.0, dimension=3), 51.2, 96)


def test_degenerate_lowest_level_is_rejected():
    # the 3-D mexican hat at box 24, grid 48 has 48 dual-lattice points at
    # its lowest value, which would leave a counting buffer of 0 and a
    # preconditioner that divides by zero; a free problem takes no solve
    # and keeps its buffer of 0
    symbol = symbols.mexican_hat(dimension=3, p0=1.0)
    well = potentials.gaussian_well(1.0, 1.0, dimension=3)
    with pytest.raises(ConfigurationError, match=r"box edge 24, grid 48"):
        quiet_build(symbol, well, 24.0, 48)
    assert quiet_build(symbol, None, 24.0, 48).delta == 0.0
    assert quiet_build(symbol, well, 25.0, 48).delta > 0.0


def test_coarse_lattice_warns():
    with pytest.warns(UserWarning, match="coarse"):
        do.build_hamiltonian(SYMBOL, None, 30.0, 128)


def test_free_spectrum_is_exact():
    ham = do.build_hamiltonian(SYMBOL, None, 51.2, 96)
    values = do.lowest_eigenvalues(ham, 16)
    # free path must return the sorted symbol table bitwise, no iteration
    assert np.array_equal(values, np.sort(ham.symbol_table.ravel())[:16])
    # cross-check the fftfreq layout against a hand-built dual lattice
    idx = np.arange(96)
    idx = np.where(idx < 48, idx, idx - 96)
    k_axis = 2.0 * np.pi * idx / 51.2
    kx, ky = np.meshgrid(k_axis, k_axis, indexing="ij")
    by_hand = np.sort(((np.hypot(kx, ky) - 1.0) ** 2).ravel())[:16]
    np.testing.assert_allclose(values, by_hand, rtol=1e-12, atol=1e-12)


def test_free_count():
    ham = do.build_hamiltonian(SYMBOL, None, 51.2, 96)
    res = do.count_below(ham)  # m - delta < 0 <= every table entry
    assert res.count == 0
    assert not res.is_lower_bound
    assert np.all(res.residuals == 0.0)
    assert np.array_equal(res.eigenvalues, np.sort(ham.symbol_table.ravel())[:16])
    # without a well there is nothing to count above the spectral floor
    with pytest.raises(PreconditionError, match="counting energy"):
        do.count_below(ham, energy=0.02)


def test_free_plane_wave_is_eigenvector():
    ham = quiet_build(SYMBOL, None, 20.0, 64)
    h = 20.0 / 64
    x = np.arange(64) * h
    kx = 2.0 * np.pi * 3 / 20.0
    ky = 2.0 * np.pi * 5 / 20.0
    psi = np.exp(1j * (kx * x[:, None] + ky * x[None, :]))
    out = do.apply(ham, psi)
    np.testing.assert_allclose(out, ham.symbol_table[3, 5] * psi, rtol=1e-12, atol=1e-12)


def test_apply_shapes_and_linearity(dimple_ham):
    ham = dimple_ham
    rng = np.random.default_rng(3)
    x = rng.standard_normal(ham.size)
    y = rng.standard_normal(ham.size)
    hx = do.apply(ham, x)
    assert hx.shape == (ham.size,)
    grid_out = do.apply(ham, x.reshape(48, 48))
    assert np.array_equal(grid_out, hx.reshape(48, 48))
    batch = do.apply(ham, np.stack([x, y], axis=1))
    assert np.array_equal(batch[:, 0], hx)
    assert np.array_equal(batch[:, 1], do.apply(ham, y))
    combo = do.apply(ham, 2.3 * x - 1.1 * y)
    np.testing.assert_allclose(combo, 2.3 * hx - 1.1 * do.apply(ham, y),
                               atol=1e-12 * ham.spectral_scale)
    # symmetry of the form
    assert np.vdot(x, do.apply(ham, y)) == pytest.approx(np.vdot(hx, y), rel=1e-12)
    # complex path agrees with the real one
    np.testing.assert_allclose(do.apply(ham, x.astype(np.complex128)), hx,
                               atol=1e-12 * ham.spectral_scale)
    with pytest.raises(PreconditionError, match="shape"):
        do.apply(ham, np.zeros(ham.size + 1))


def test_matches_dense_diagonalization(dimple_ham):
    ham = dimple_ham
    dense = do.apply(ham, np.eye(ham.size))
    assert np.abs(dense - dense.T).max() < 1e-12 * ham.spectral_scale
    reference = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    values = do.lowest_eigenvalues(ham, 6, maxiter=900)
    np.testing.assert_allclose(values, reference[:6], rtol=0.0, atol=5e-12)
    assert abs(reference[0] - -0.1071999) < 1e-6
    res = do.count_below(ham, k_max=6, maxiter=900)
    assert res.count == int(np.count_nonzero(reference < res.energy))
    assert res.count == 3
    assert not res.is_lower_bound
    assert int(res) == 3 and res.__index__() == 3


def test_count_monotone_in_coupling():
    counts = []
    spectra = []
    for c in (1.0, 2.0):
        pot = potentials.gaussian_well(c, 1.0, dimension=2)
        ham = quiet_build(SYMBOL, pot, 20.0, 128)
        res = do.count_below(ham, k_max=8, maxiter=900)
        assert not res.is_lower_bound
        counts.append(res.count)
        spectra.append(res.eigenvalues)
    assert counts[1] >= counts[0]
    # doubling the well depth pushes every sorted level down
    assert np.all(spectra[1] <= spectra[0] + 1e-8)


def test_box_size_stability_at_fixed_energy():
    pot = potentials.gaussian_dimple_mix(1.0, 1.0, 2.0, 0.5, dimension=2)
    coarse = quiet_build(SYMBOL, pot, 15.0, 48)
    fine = quiet_build(SYMBOL, pot, 22.5, 72)
    # the default buffer shrinks with the box, so compare at one energy
    energy = coarse.minimum - coarse.delta
    n_coarse = do.count_below(coarse, energy=energy, k_max=8, maxiter=900)
    n_fine = do.count_below(fine, energy=energy, k_max=8, maxiter=900)
    assert n_coarse.count == n_fine.count == 3
    assert not n_coarse.is_lower_bound and not n_fine.is_lower_bound


def _grid_quotient(ham, chart, profile, eps):
    """Rayleigh quotient of the bump-on-shell trial injected onto the grid."""
    grid, edge = ham.grid, ham.box_edge
    h = edge / grid
    k_axis = 2.0 * np.pi * np.fft.fftfreq(grid, d=h)
    kx, ky = np.meshgrid(k_axis, k_axis, indexing="ij")
    eps_abs = eps * chart.half_width
    f = profile.bump((np.hypot(kx, ky) - chart.mesh.radius) / eps_abs) / eps_abs
    f = f / np.sqrt(2.0 * np.pi * chart.mesh.radius)
    # phases reference x_j = j h while the potential table is centered,
    # so shift the position-space state onto the well
    f = f * np.exp(1j * (kx + ky) * (grid // 2) * h)
    psi = np.fft.ifftn(f)
    num = np.vdot(psi, do.apply(ham, psi)).real
    return num / np.vdot(psi, psi).real - ham.minimum


@pytest.mark.parametrize("coupling,eps", [(1.0, 1.0), (1.0, 0.5), (1e-3, 0.5)])
def test_injected_trial_matches_form_sign(coupling, eps):
    # the certified form and the grid quotient use different trial
    # normalizations, so only the sign is comparable; a strong well is
    # negative at these eps, the weak one is kinetic-dominated
    pot = potentials.gaussian_well(coupling, 1.0, dimension=2)
    mesh = surface.build_mesh(1.0, 2, 64)
    chart = surface.tubular_chart(mesh, half_width_fraction=0.5)
    profile = rayleigh_ritz.TransverseProfile.build(order=12)
    # the form on the lowest shell-operator eigenfunction
    cert = rayleigh_ritz.certify(SYMBOL, pot, mesh, 1, (eps,), half_width_fraction=0.5)
    h00 = cert.matrices[0][0, 0]
    ham = quiet_build(SYMBOL, pot, 30.0, 192)
    quotient = _grid_quotient(ham, chart, profile, eps)
    assert h00 * quotient > 0.0
    if coupling == 1.0:
        assert h00 < 0.0 and quotient < 0.0
    else:
        assert h00 > 0.0 and quotient > 0.0


def test_solver_validation(dimple_ham):
    with pytest.raises(PreconditionError):
        do.lowest_eigenvalues(dimple_ham, 0)
    with pytest.raises(PreconditionError):
        do.lowest_eigenvalues(dimple_ham, 65)
    with pytest.raises(PreconditionError):
        do.count_below(dimple_ham, k_max=0)
    with pytest.raises(PreconditionError, match="counting energy"):
        do.count_below(dimple_ham, energy=2.0)


@pytest.mark.parametrize("energy", [np.nan, np.inf, -np.inf])
def test_count_rejects_a_non_finite_energy(dimple_ham, energy):
    # NaN passes every comparison with the spectral floor: the well would
    # spend its whole budget and the free problem report a settled 0
    for ham in (dimple_ham, quiet_build(SYMBOL, None, 15.0, 48)):
        with pytest.raises(PreconditionError, match="counting energy must be finite"):
            do.count_below(ham, energy=energy)


def test_convergence_error_carries_diagnostics(dimple_ham):
    with pytest.raises(ConvergenceError, match="residual tolerance .* after 2 of 2 iterations") as info:
        do.lowest_eigenvalues(dimple_ham, 4, maxiter=2)
    assert info.value.eigenvalues.shape == (4,)
    assert info.value.residuals.shape == (4,)


def test_eigensolve_is_deterministic(dimple_ham):
    first = do.lowest_eigenvalues(dimple_ham, 4, seed=11, maxiter=900)
    second = do.lowest_eigenvalues(dimple_ham, 4, seed=11, maxiter=900)
    assert np.array_equal(first, second)


@pytest.fixture(scope="module")
def stall_ham():
    # the oracle-stall benchmark problem: its 8th Ritz value sits just
    # above the counting energy in the quasi-continuum and never meets
    # the residual tolerance
    return quiet_build(SYMBOL, potentials.gaussian_well(1.0, 1.0, dimension=2), 40.0, 64)


def _centred_axes(ham):
    """Coordinates of the centred position grid, one array per axis."""
    axis = (np.arange(ham.grid) - ham.grid // 2) * (ham.box_edge / ham.grid)
    return np.meshgrid(*([axis] * ham.dimension), indexing="ij")


@pytest.fixture(scope="module")
def offcentre_ham(stall_ham):
    # the oracle-stall well moved off the centre by 0.3 along x, which is
    # no multiple of half the grid step, so no reflection of the grid
    # maps the table to itself and the oracle solves the whole grid
    x, y = _centred_axes(stall_ham)
    return dataclasses.replace(stall_ham, potential_table=-np.exp(-((x - 0.3) ** 2 + y**2) / 2.0))


@pytest.fixture(scope="module")
def route_hams(stall_ham, offcentre_ham):
    # one problem per route through the solver: parity sectors and the
    # whole grid
    assert len(do._sectors(stall_ham)) == 3 and do._sectors(offcentre_ham)[0].parities == ()
    return stall_ham, offcentre_ham


def _embedding(grid, parity):
    """(G, d) isometry from an axis's scaled domain coordinates to the whole axis."""
    j = np.arange(grid)
    half = grid // 2
    mirror = np.minimum(j, grid - j)
    sign = np.where(j <= half, 1.0, float(parity))
    domain = np.arange(half + 1) if parity > 0 else np.arange(1, half)
    weight = np.where((domain == 0) | (domain == half), 1.0, 2.0)
    return (mirror[:, None] == domain[None, :]) * sign[:, None] / np.sqrt(weight)


def _waves(grid, parity):
    """(G, d) columns: the normalized waves of an axis's dual lattice, on the whole axis.

    Parity 0 gives the Hartley waves cas(2 pi j k / G) / sqrt(G), k =
    0..G-1; parity +1 (-1) the cosines (sines) of k = 0..G/2 (1..G/2-1).
    """
    j = np.arange(grid)
    if parity == 0:
        phases = 2.0 * np.pi * (np.outer(j, j) % grid) / grid
        return (np.cos(phases) + np.sin(phases)) / np.sqrt(grid)
    k = np.arange(grid // 2 + 1) if parity > 0 else np.arange(1, grid // 2)
    phases = 2.0 * np.pi * (np.outer(j, k) % grid) / grid
    waves = np.cos(phases) if parity > 0 else np.sin(phases)
    return waves / np.linalg.norm(waves, axis=0)


def _lift(ham, sector, block, back=False):
    """A sector's dual-lattice coefficients (size, b) as whole-grid vectors (G**n, b), or back.

    Each axis of the sector is spanned by the waves of its dual lattice
    (the Hartley waves on the whole grid), so the lift sums them.
    """
    shape = (ham.grid,) * ham.dimension if back else sector.shape
    values = block.reshape(shape + (-1,))
    for axis, parity in enumerate(sector.parities or (0,) * ham.dimension):
        matrix = _waves(ham.grid, parity)
        matrix = matrix.T if back else matrix
        values = np.moveaxis(np.tensordot(matrix, values, axes=(1, axis)), 0, axis)
    return values.reshape(-1, values.shape[-1])


def _whole_grid(monkeypatch):
    """Send the oracle down its whole-grid route on every problem."""
    monkeypatch.setattr(do, "_sectors", lambda ham: [do._full_sector(ham)])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
def test_count_settles_before_the_guard_converges(stall_ham, seed):
    # dense eigvalsh of the 4096^2 operator (perfbench/references.json,
    # "oracle-stall") has 7 eigenvalues below m - delta = -3.07e-4 and the
    # 8th at -3.6e-5
    res = do.count_below(stall_ham, k_max=8, seed=seed)
    assert res.count == 7
    assert not res.is_lower_bound and not res.budget_exhausted
    # 8 or 9 from the shell-weighted start block; a uniform start took 12
    assert res.iterations <= 10
    # in every sector Kahan's bound proves its count and the next Ritz
    # value clears the energy; the counts add up to the 7
    for sector in res.sectors:
        c, values, residuals = sector.count, sector.eigenvalues, sector.residuals
        assert sector.settled
        assert c == 0 or values[c - 1] + np.linalg.norm(residuals[:c]) < res.energy
        assert values[c] - residuals[c] > res.energy
    assert sum(sector.count * sector.multiplicity for sector in res.sectors) == 7
    assert res.iterations == sum(sector.iterations for sector in res.sectors)
    assert res.tolerance == 1e-8 * stall_ham.spectral_scale


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_weak_well_settles_in_one_chunk(seed):
    # the half-depth well's states lie far closer to the edge than the
    # full well's, and the pair above the energy sits only 1.2e-5 above
    # it; each column's own Ritz shift still settles the count as fast.
    # Dense eigvalsh of the 4096^2 operator has 5 eigenvalues below
    # m - delta = -3.07e-4 and the next pair at -2.95e-4
    ham = quiet_build(SYMBOL, potentials.gaussian_well(0.5, 1.0, dimension=2), 40.0, 64)
    res = do.count_below(ham, k_max=8, seed=seed)
    assert res.count == 5
    assert not res.is_lower_bound and not res.budget_exhausted
    assert res.iterations <= 16


@pytest.mark.parametrize("scale", [4.0, 0.25])
def test_count_is_invariant_under_scaling_h(stall_ham, scale):
    # theta, delta and H0 all scale with H, so the preconditioner of each
    # column scales by 1 / scale and the iterates do not change
    scaled = dataclasses.replace(
        stall_ham,
        symbol_table=scale * stall_ham.symbol_table,
        potential_table=scale * stall_ham.potential_table,
        minimum=scale * stall_ham.minimum,
        delta=scale * stall_ham.delta,
    )
    for seed in (0, 1, 2):
        base = do.count_below(stall_ham, k_max=8, seed=seed)
        res = do.count_below(scaled, k_max=8, seed=seed)
        assert (res.count, res.is_lower_bound, res.iterations) == (
            base.count, base.is_lower_bound, base.iterations)
        np.testing.assert_allclose(res.eigenvalues, scale * base.eigenvalues, rtol=1e-10)


def test_budget_exhaustion_flags_lower_bound(stall_ham):
    res = do.count_below(stall_ham, k_max=8, maxiter=2)
    assert res.is_lower_bound and res.budget_exhausted
    assert res.iterations == 2
    assert res.count <= 7


@pytest.fixture(scope="module")
def dimple_third(dimple_ham):
    # the third lowest value, about -0.0588161116801534, with its residual
    # below the reporting tolerance, 1e-8 of the spectral scale
    return do.lowest_eigenvalues(dimple_ham, 6, maxiter=900)[2]


@pytest.mark.parametrize("shift", [1e-10, 1e-13, 0.0])
def test_count_at_the_floor_is_not_an_exhausted_budget(dimple_ham, dimple_third, shift):
    # Kahan's rule proves the third state 1e-10 or 1e-13 below the energy
    # only from residuals far below the reporting tolerance, so columns
    # lock at roundoff alone and those counts settle. At the eigenvalue no
    # residual settles the count: the solve ends once every column is
    # locked, well within the budget, and the count is a lower bound for
    # that reason, not because the budget ran out
    res = do.count_below(dimple_ham, dimple_third + shift, k_max=6, maxiter=900)
    assert not res.budget_exhausted and res.iterations < 900
    if shift:
        assert res.count == 3 and not res.is_lower_bound
        return
    assert res.count == 2 and res.is_lower_bound
    stalled = [sector for sector in res.sectors if not sector.settled]
    assert stalled and all(sector.residuals.max() < 1e-5 * res.tolerance for sector in stalled)


@pytest.fixture(scope="module")
def stall_lowest(stall_ham):
    # the two lowest values, about -0.5113465 and -0.1991799
    return do.lowest_eigenvalues(stall_ham, 4, maxiter=900)[:2]


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_count_at_an_eigenvalue_ends_within_the_budget(stall_ham, stall_lowest, which, seed):
    # no residual settles a count whose energy is an eigenvalue, so the
    # solve runs until its block reaches the floor. The residuals that
    # stop it come from an apply of H to the Ritz block in each iteration,
    # so they cannot drift away from the iterate and hold it short of the
    # lock level until the budget is spent, and the lowest Ritz value
    # stays on the lowest eigenvalue
    res = do.count_below(stall_ham, stall_lowest[which], k_max=4, seed=seed, maxiter=900)
    assert not res.budget_exhausted and res.iterations < 900
    if which == 0:
        assert abs(res.eigenvalues[0] - stall_lowest[0]) < 1e-8


def test_full_window_is_flagged(stall_ham):
    # 7 states lie below the energy, so a window of 5 cannot see the rest;
    # a window of 7 is full too, though no sector's own window is. At
    # k_max 3 the merged EO sector's own window of ceil(3 / 2) = 2 is
    # full: its 2 states fill 4 places, so the count is capped and flagged
    for k_max in (3, 5, 7):
        res = do.count_below(stall_ham, k_max=k_max)
        assert res.count == k_max
        assert res.is_lower_bound and not res.budget_exhausted
        assert np.all(res.eigenvalues < res.energy)
        merged = res.sectors[1]
        assert merged.multiplicity == 2 and merged.eigenvalues.size == math.ceil(k_max / 2)
        full = merged.count == merged.eigenvalues.size
        assert merged.settled and full == (k_max == 3)


def _windows(monkeypatch, whole=None):
    """Record (multiplicity, window) of each sector solve; ``whole`` overrides every window."""
    windows, solve = [], do._solve

    def spy(ham, sector, k, *args):
        k = k if whole is None else min(whole, sector.size)
        windows.append((sector.multiplicity, k))
        return solve(ham, sector, k, *args)

    monkeypatch.setattr(do, "_solve", spy)
    return windows


def test_merged_sectors_are_solved_for_their_share_of_the_window(stall_ham, monkeypatch):
    # a sector of multiplicity m fills m places of the merged list per
    # value, so ceil(k / m) values fill the window; solving each sector
    # for the whole window gives the same counts and flags at every seed
    windows = _windows(monkeypatch)
    counts = [do.count_below(stall_ham, k_max=8, seed=seed) for seed in range(12)]
    assert windows[:3] == [(1, 8), (2, 4), (1, 8)]
    windows.clear()
    do.lowest_eigenvalues(stall_ham, 5)
    assert windows == [(1, 5), (2, 3), (1, 5)]
    windows = _windows(monkeypatch, whole=8)
    for seed, res in enumerate(counts):
        full = do.count_below(stall_ham, k_max=8, seed=seed)
        assert (res.count, res.is_lower_bound) == (full.count, full.is_lower_bound) == (7, False)
        assert [s.count for s in res.sectors] == [s.count for s in full.sectors] == [2, 2, 1]
    assert windows[:3] == [(1, 8), (2, 8), (1, 8)]


def test_start_blocks_come_from_one_seeded_stream(stall_ham, monkeypatch):
    starts, solver = [], do.lobpcg

    def spy(A, X, **kwargs):
        starts.append(X.copy())
        return solver(A, X, **kwargs)

    monkeypatch.setattr(do, "lobpcg", spy)
    runs = []
    for seed in (0, 0, 1):
        starts.clear()
        do.count_below(stall_ham, k_max=8, seed=seed)
        runs.append(list(starts))
    assert len(runs[0]) == 3
    assert all(np.array_equal(a, b) for a, b in zip(runs[0], runs[1]))
    assert not any(np.array_equal(a, b) for a, b in zip(runs[0], runs[2]))
    # the sectors draw their blocks one after another from one stream, and
    # each is taken twice through the preconditioner at its cap: weighted
    # by (H0 - min H0 + delta)^-2 on the sector's dual lattice
    stream = random.Random(0)
    floor = stall_ham.symbol_table.min()
    for start, sector in zip(runs[0], do._sectors(stall_ham)):
        gap = (sector.symbol - floor).reshape(-1, 1) + stall_ham.delta
        assert np.array_equal(start, kernels.uniform(stream, start.shape) / gap / gap)


def test_count_matches_dense_across_seeds(dimple_ham, monkeypatch):
    # the sector route and the whole-grid route count alike, and both
    # equal the dense count
    dense = do.apply(dimple_ham, np.eye(dimple_ham.size))
    reference = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    by_sectors = [do.count_below(dimple_ham, k_max=6, seed=seed) for seed in (0, 1, 2, 5, 11)]
    _whole_grid(monkeypatch)
    for seed, res in zip((0, 1, 2, 5, 11), by_sectors):
        whole = do.count_below(dimple_ham, k_max=6, seed=seed)
        assert len(res.sectors) == 3 and len(whole.sectors) == 1
        assert res.count == whole.count == int(np.count_nonzero(reference < res.energy))
        assert not res.is_lower_bound and not whole.is_lower_bound


def test_sector_count_matches_the_whole_grid_in_3d(monkeypatch):
    # one small 3-D problem: its parity sectors count the same 9 states as
    # the whole grid, and converge to the same lowest values
    symbol = symbols.mexican_hat(dimension=3, p0=1.0)
    ham = quiet_build(symbol, potentials.gaussian_well(1.0, 1.0, dimension=3), 14.0, 20)
    res = do.count_below(ham, k_max=16)
    lowest = do.lowest_eigenvalues(ham, 9)
    assert sum(sector.multiplicity for sector in res.sectors) == 8
    _whole_grid(monkeypatch)
    whole = do.count_below(ham, k_max=16)
    assert res.count == whole.count == 9
    assert not res.is_lower_bound and not whole.is_lower_bound
    np.testing.assert_allclose(lowest, do.lowest_eigenvalues(ham, 9), rtol=0.0, atol=1e-9)


def test_3d_radial_tables_are_exactly_swap_symmetric(monkeypatch):
    # H0 and a radial V are evaluated on sorted absolute components, so
    # every axis permutation leaves both tables unchanged and the 8 parity
    # sectors merge into 4; tables evaluated in axis order miss the swaps
    # with z in the last bits and split into 6, with the same count
    symbol = symbols.mexican_hat(dimension=3, p0=1.0)
    well = potentials.gaussian_well(1.0, 1.0, dimension=3)
    ham = quiet_build(symbol, well, 14.0, 20)
    assert [(s.parities, s.multiplicity) for s in do._sectors(ham)] == [
        ((1, 1, 1), 1), ((1, 1, -1), 3), ((1, -1, -1), 3), ((-1, -1, -1), 1)]
    axis_k = 2.0 * np.pi * np.fft.fftfreq(20, d=14.0 / 20)
    axis_x = (np.arange(20) - 10) * (14.0 / 20)
    in_axis_order = dataclasses.replace(
        ham,
        symbol_table=symbol.evaluate(np.stack(np.meshgrid(*[axis_k] * 3, indexing="ij"), -1)),
        potential_table=well.evaluate(np.stack(np.meshgrid(*[axis_x] * 3, indexing="ij"), -1)),
    )
    np.testing.assert_allclose(in_axis_order.symbol_table, ham.symbol_table, rtol=1e-15, atol=0)
    np.testing.assert_allclose(in_axis_order.potential_table, ham.potential_table, rtol=0,
                               atol=1e-16)
    assert len(do._sectors(in_axis_order)) == 6
    res, unsorted = do.count_below(ham, k_max=16), do.count_below(in_axis_order, k_max=16)
    assert res.count == unsorted.count == 9
    assert not res.is_lower_bound and not unsorted.is_lower_bound
    assert res.iterations < unsorted.iterations


@pytest.mark.parametrize("grid", [16, 63, 64, 384])
def test_parity_bases_are_orthogonal(grid):
    # parity 0, the whole axis, is the Hartley matrix: orthogonal,
    # symmetric and its own inverse, on odd grids too
    hartley = do._parity_basis(grid, 0)
    assert hartley.shape == (grid, grid)
    assert np.array_equal(hartley, hartley.T)
    assert np.abs(hartley @ hartley - np.eye(grid)).max() < 1e-14
    if grid % 2:
        return
    for parity in (1, -1):
        basis = do._parity_basis(grid, parity)
        assert np.abs(basis @ basis.T - np.eye(basis.shape[0])).max() < 1e-14
        assert np.array_equal(basis, basis.T)
        # lifted to the whole axis, its columns are the normalized cosines
        # (sines) of the dual lattice, so they diagonalize every even H0
        np.testing.assert_allclose(_embedding(grid, parity) @ basis, _waves(grid, parity),
                                   rtol=0.0, atol=1e-13)


def test_sector_matmat_equals_apply_on_the_mirrored_grid(stall_ham):
    symbol = symbols.mexican_hat(dimension=3, p0=1.0)
    ham_3d = quiet_build(symbol, potentials.gaussian_well(2.0, 1.0, dimension=3), 14.0, 20)
    rng = np.random.default_rng(4)
    for ham in (stall_ham, ham_3d):
        sectors = do._sectors(ham)
        assert sum(sector.multiplicity for sector in sectors) == 2**ham.dimension
        for sector in sectors:
            # the sector acts on dual-lattice coefficients; lifted, they
            # are whole-grid vectors of the sector's parities
            block = rng.standard_normal((sector.size, 3))
            lifted = _lift(ham, sector, block)
            # the lift is an isometry
            np.testing.assert_allclose(lifted.T @ lifted, block.T @ block, rtol=1e-13)
            expected = _lift(ham, sector, do.apply(ham, lifted), back=True)
            got = sector.matmat(block)
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_whole_grid_apply_matches_an_fft_reference(offcentre_ham):
    # the whole grid takes H0 through the Hartley basis of each axis; on
    # an off-centre well and on an odd grid that equals the FFT multiplier
    # for real and complex states
    odd = quiet_build(SYMBOL, potentials.gaussian_well(1.0, 1.0, dimension=2), 40.0, 63)
    rng = np.random.default_rng(8)
    for ham in (offcentre_ham, odd):
        assert [s.parities for s in do._sectors(ham)] == [()]
        grid_shape, axes = (ham.grid,) * ham.dimension, tuple(range(ham.dimension))
        real = rng.standard_normal((ham.size, 3))
        for psi in (real, real + 1j * rng.standard_normal(real.shape)):
            block = psi.reshape(grid_shape + (-1,))
            spectral = np.fft.fftn(block, axes=axes)
            expected = (np.fft.ifftn(ham.symbol_table[..., None] * spectral, axes=axes)
                        + ham.potential_table[..., None] * block).reshape(psi.shape)
            got = do.apply(ham, psi)
            assert got.dtype == psi.dtype
            np.testing.assert_allclose(got, expected if np.iscomplexobj(psi) else expected.real,
                                       rtol=0.0, atol=1e-12 * ham.spectral_scale)


def test_a_symbol_table_that_is_not_even_is_rejected(stall_ham):
    # the Hartley basis diagonalizes only a multiplier even under k -> -k
    # on every axis; a drift term odd in k_x breaks that on axis 0 alone
    k_x = 2.0 * np.pi * np.fft.fftfreq(stall_ham.grid, d=stall_ham.box_edge / stall_ham.grid)
    drifting = dataclasses.replace(
        stall_ham, symbol_table=stall_ham.symbol_table + 0.1 * k_x[:, None])
    with pytest.raises(ConsistencyError, match="not even under k -> -k on axis 0"):
        do.count_below(drifting, k_max=8)
    with pytest.raises(ConsistencyError, match="not even under k -> -k on axis 0"):
        do.apply(drifting, np.ones(drifting.size))


def test_sectors_follow_the_symmetry_of_the_tables(stall_ham):
    x, y = _centred_axes(stall_ham)
    # radial: EE, OO and the pair EO/OE merged by the axis swap
    assert [(s.parities, s.multiplicity) for s in do._sectors(stall_ham)] == [
        ((1, 1), 1), ((1, -1), 2), ((-1, -1), 1)]
    # axis-aligned anisotropic well: even in each axis, but no swap
    anisotropic = dataclasses.replace(
        stall_ham, potential_table=-np.exp(-0.5 * ((x / 1.2) ** 2 + (y / 0.8) ** 2)))
    assert [(s.parities, s.multiplicity) for s in do._sectors(anisotropic)] == [
        ((1, 1), 1), ((1, -1), 1), ((-1, 1), 1), ((-1, -1), 1)]
    # rotated, off-centre well: the whole grid
    angle = np.radians(30.0)
    u = np.cos(angle) * (x - 0.3) + np.sin(angle) * y
    v = -np.sin(angle) * (x - 0.3) + np.cos(angle) * y
    rotated = dataclasses.replace(
        stall_ham, potential_table=-np.exp(-0.5 * ((u / 1.2) ** 2 + (v / 0.8) ** 2)))
    assert [(s.parities, s.multiplicity) for s in do._sectors(rotated)] == [((), 1)]
    # an odd grid has no mirror pairing j -> -j with a fixed domain edge
    odd = quiet_build(SYMBOL, potentials.gaussian_well(1.0, 1.0, dimension=2), 40.0, 63)
    assert [(s.parities, s.multiplicity) for s in do._sectors(odd)] == [((), 1)]


def test_kahan_count_rule():
    values = np.array([-1.0, -0.5, 0.1])
    count, final = do._kahan_count(values, np.array([0.1, 0.1, 0.05]), 0.0)
    assert (count, final) == (2, True)
    # the Frobenius norm of the whole block must fit below the energy
    count, final = do._kahan_count(values, np.array([0.1, 0.5, 0.05]), 0.0)
    assert (count, final) == (1, False)
    # the next value must clear the energy by more than its residual
    assert do._kahan_count(values, np.array([0.1, 0.1, 0.2]), 0.0) == (2, False)
    # a full window is final; the caller flags it as a lower bound
    assert do._kahan_count(values[:2], np.array([0.1, 0.1]), 0.0) == (2, True)


def test_free_count_reports_solver_fields():
    ham = do.build_hamiltonian(SYMBOL, None, 51.2, 96)
    res = do.count_below(ham)
    assert res.iterations == 0 and not res.budget_exhausted
    assert res.tolerance == 1e-8 * ham.spectral_scale


def _doubled_spectrum_matrix(size=300, seed=5):
    """A symmetric matrix with a known spectrum of doubled levels, rotated at random."""
    rng = np.random.default_rng(seed)
    levels = np.repeat(np.arange(1.0, size // 2 + 1), 2)
    rotation, _ = np.linalg.qr(rng.standard_normal((size, size)))
    matrix = (rotation * levels) @ rotation.T
    return 0.5 * (matrix + matrix.T), levels


def test_lobpcg_finds_doubled_levels():
    matrix, levels = _doubled_spectrum_matrix()
    operator = do.LinearOperator(matrix.shape, matvec=matrix.dot, dtype=np.float64)
    start = np.random.default_rng(0).standard_normal((matrix.shape[0], 10))
    values, vectors = do.lobpcg(operator, start, tol=1e-9, maxiter=500)
    assert values.shape == (10,) and vectors.shape == start.shape
    np.testing.assert_allclose(values[:6], levels[:6], rtol=0.0, atol=1e-10)
    # Kahan's bound in count_below assumes orthonormal Ritz vectors
    assert np.abs(vectors.T @ vectors - np.eye(10)).max() < 1e-12
    residuals = np.linalg.norm(matrix @ vectors - vectors * values, axis=0)
    assert residuals[:6].max() < 1e-9


def test_lobpcg_callback_sees_every_iteration_and_can_stop():
    matrix, _ = _doubled_spectrum_matrix()
    operator = do.LinearOperator(matrix.shape, matvec=matrix.dot)
    start = np.random.default_rng(1).standard_normal((matrix.shape[0], 6))
    seen = []

    def record(values, vectors, residuals):
        seen.append(residuals.copy())
        return len(seen) == 3

    do.lobpcg(operator, start, tol=1e-9, maxiter=500, callback=record)
    assert len(seen) == 3  # never called on the start block, stopped on the third
    seen.clear()
    do.lobpcg(operator, start, tol=1e-9, maxiter=4, callback=lambda *step: seen.append(step))
    assert len(seen) == 4


@pytest.mark.parametrize("maxiter", [2, 1500])
def test_solve_returns_fresh_residuals(route_hams, monkeypatch, maxiter):
    # the stop rule and the reported residuals are those that lobpcg takes
    # from its apply of H to the orthonormal Ritz vectors in each iteration;
    # the sector's own apply is checked against the whole grid's in
    # test_sector_matmat_equals_apply_on_the_mirrored_grid
    steps = []
    solver = do.lobpcg

    def spy(A, X, callback=None, **kwargs):
        def record(values, vectors, residuals):
            steps.append((values, vectors))
            return callback(values, vectors, residuals)
        return solver(A, X, callback=record, **kwargs)

    monkeypatch.setattr(do, "lobpcg", spy)
    for ham in route_hams:
        steps.clear()
        sector = do._sectors(ham)[0]
        tolerance = do._residual_tolerance(ham)
        energy = ham.minimum - ham.delta
        values, residuals, used = do._solve(
            ham, sector, 8, random.Random(0), maxiter, tolerance,
            lambda values, residuals: do._kahan_count(values, residuals, energy)[1])
        assert used == len(steps) <= maxiter
        last_values, vectors = steps[-1]
        wanted = vectors[:, :8]
        assert np.array_equal(values, last_values[:8])
        assert np.abs(vectors.T @ vectors - np.eye(vectors.shape[1])).max() < 1e-12
        fresh = np.linalg.norm(sector.matmat(wanted) - wanted * values, axis=0)
        np.testing.assert_allclose(residuals, fresh, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [8, 4])
def test_preconditioner_shifts_each_unlocked_column_by_its_ritz_value(route_hams, monkeypatch, k):
    # each call gets the whole residual block of its sector's solve, the
    # columns that lobpcg has locked (once their norm falls to tol)
    # included, and applies (H0 - sigma_j)^-1 to every column with
    # sigma_j = min(theta_j, min H0 - delta) from the previous Ritz
    # values; before the first callback sigma_j is that cap. lobpcg then
    # keeps the unlocked columns alone. On both routes the expected block
    # is formed on the whole grid by FFT, with the block lifted from its
    # dual-lattice coefficients. Columns lock only at roundoff, so k = 4
    # counts at an eigenvalue, which no residual can settle: the columns
    # converge until some reach the floor and lock
    calls, solves = [], []
    solver = do.lobpcg

    def spy(A, X, M=None, tol=0.0, callback=None, **kwargs):
        state = {"active": np.ones(X.shape[1], dtype=bool), "values": None}
        solve = len(solves)
        solves.append(solve)

        def record(values, vectors, residuals):
            state["active"] = state["active"] & (residuals > tol)
            state["values"] = values.copy()
            return callback(values, vectors, residuals)

        def checked(block):
            out = M.dot(block)
            calls.append((solve, block.copy(), out, state["active"].copy(), state["values"]))
            return out

        watched = do.LinearOperator(A.shape, matvec=checked)
        return solver(A, X, M=watched, tol=tol, callback=record, **kwargs)

    monkeypatch.setattr(do, "lobpcg", spy)
    for ham in route_hams:
        sectors = do._sectors(ham)
        cap = ham.symbol_table.min() - ham.delta
        grid_shape = (ham.grid,) * ham.dimension
        axes = tuple(range(ham.dimension))
        energy = ham.minimum - ham.delta if k == 8 else do.lowest_eigenvalues(ham, k)[-1]
        calls.clear()
        solves.clear()
        do.count_below(ham, energy, k_max=k, maxiter=40)
        for solve, block, out, active, values in calls:
            sector = sectors[solve]
            assert block.shape[1] == active.size  # every column of the sector's block
            sigma = np.full(block.shape[1], cap) if values is None else np.minimum(values, cap)
            lifted = _lift(ham, sector, block).reshape(grid_shape + (-1,))
            table = 1.0 / (ham.symbol_table[..., None] - sigma)
            expected = np.fft.ifftn(table * np.fft.fftn(lifted, axes=axes), axes=axes)
            expected = _lift(ham, sector, expected.real.reshape(-1, block.shape[1]), back=True)
            np.testing.assert_allclose(out, expected, rtol=0.0,
                                       atol=1e-12 * np.abs(expected).max())
        assert calls[0][1].shape[1] == k + 4
        assert {call[0] for call in calls} == set(range(len(sectors))) == set(solves)
        if k == 4:
            assert not all(call[3].all() for call in calls)  # columns locked during the run


def test_preconditioner_calls_no_transform(route_hams, monkeypatch):
    # in dual-lattice coordinates H0 is a multiplier, so the preconditioner
    # divides each column and takes no vector through T; the operator
    # still takes V through it
    transforms, during_precond = [], []
    transform, solver = do._transform, do.lobpcg

    def counted(bases, block):
        transforms.append(block.shape)
        return transform(bases, block)

    def spy(A, X, M=None, **kwargs):
        def watched(block):
            before = len(transforms)
            out = M.dot(block)
            during_precond.append(len(transforms) - before)
            return out

        return solver(A, X, M=do.LinearOperator(A.shape, matvec=watched), **kwargs)

    monkeypatch.setattr(do, "_transform", counted)
    monkeypatch.setattr(do, "lobpcg", spy)
    for ham in route_hams:
        transforms.clear()
        during_precond.clear()
        do.count_below(ham, k_max=8)
        assert during_precond and not any(during_precond)
        assert transforms


def test_preconditioner_rejects_a_block_of_the_wrong_width(route_hams, monkeypatch):
    # the preconditioner holds one shift per column of the solver's block,
    # so a block of any other width cannot be matched to its shifts
    solver = do.lobpcg

    def too_narrow(A, X, M=None, **kwargs):
        M.dot(X[:, :1])
        return solver(A, X, M=M, **kwargs)

    monkeypatch.setattr(do, "lobpcg", too_narrow)
    for ham in route_hams:
        with pytest.raises(ValueError):
            do.count_below(ham, k_max=8)


def test_breakdown_raises_convergence_error(route_hams, monkeypatch):
    # a preconditioner that returns nothing leaves no search directions
    # to orthonormalize, which the solver reports instead of stalling
    solver = do.lobpcg

    def without_directions(A, X, M=None, **kwargs):
        zero = do.LinearOperator(A.shape, matvec=np.zeros_like)
        return solver(A, X, M=zero, **kwargs)

    monkeypatch.setattr(do, "lobpcg", without_directions)
    for ham in route_hams:
        with pytest.raises(ConvergenceError, match="broke down after 0 iterations") as info:
            do.count_below(ham, k_max=8)
        assert info.value.eigenvalues.shape == (8,)


def test_breakdown_after_an_iteration_ends_the_solve(stall_ham, monkeypatch):
    # search directions that turn dependent once the block has iterated
    # mean it reached its floor, as when every column is locked: the
    # latest Ritz pairs, with fresh residuals, still prove their count,
    # which is a lower bound although the budget did not run out
    solver = do.lobpcg

    def breaking(A, X, callback=None, **kwargs):
        def step(values, vectors, residuals):
            if callback(values, vectors, residuals):
                return True
            raise np.linalg.LinAlgError("dependent search directions")

        return solver(A, X, callback=step, **kwargs)

    monkeypatch.setattr(do, "lobpcg", breaking)
    res = do.count_below(stall_ham, k_max=8)
    assert [sector.iterations for sector in res.sectors] == [1, 1, 1]
    assert res.is_lower_bound and not res.budget_exhausted and res.count <= 7
    for sector in res.sectors:
        c = sector.count
        assert np.all(np.isfinite(sector.residuals))
        assert c == 0 or sector.eigenvalues[c - 1] + np.linalg.norm(sector.residuals[:c]) < res.energy


@pytest.mark.parametrize("maxiter", [0, 1, 2])
def test_start_block_never_settles_the_count(stall_ham, maxiter):
    # the Ritz pairs of the random start block can all clear the energy by
    # more than their residuals, which would read as a settled count of 0
    res = do.count_below(stall_ham, k_max=8, maxiter=maxiter)
    assert res.iterations <= maxiter
    assert res.is_lower_bound or res.count == 7
