"""Grid-oracle tests: tables, FFT application, eigensolves, counting."""

import warnings

import numpy as np
import pytest

from shellbound import direct_oracle as do
from shellbound import potentials, rayleigh_ritz, surface, symbols
from shellbound.errors import ConfigurationError, ConvergenceError, PreconditionError

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
    with pytest.raises(ConvergenceError, match="residual tolerance") as info:
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


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
def test_count_settles_before_the_guard_converges(stall_ham, seed):
    # dense eigvalsh of the 4096^2 operator (perfbench/references.json,
    # "oracle-stall") has 7 eigenvalues below m - delta = -3.07e-4 and the
    # 8th at -3.6e-5
    res = do.count_below(stall_ham, k_max=8, seed=seed)
    assert res.count == 7
    assert not res.is_lower_bound and not res.budget_exhausted
    assert res.iterations <= 40
    # Kahan's bound proves the 7 and the 8th Ritz value clears the energy
    assert res.eigenvalues[6] + np.linalg.norm(res.residuals[:7]) < res.energy
    assert res.eigenvalues[7] - res.residuals[7] > res.energy
    assert res.tolerance == 1e-8 * stall_ham.spectral_scale


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_weak_well_settles_in_one_chunk(seed):
    # a half-depth well binds far less than a fixed unit preconditioner
    # shift, with which all 1500 iterations run and 5 is flagged as a
    # lower bound; dense eigvalsh of the 4096^2 operator has 5
    # eigenvalues below m - delta = -3.07e-4 and the next pair at -2.95e-4
    ham = quiet_build(SYMBOL, potentials.gaussian_well(0.5, 1.0, dimension=2), 40.0, 64)
    res = do.count_below(ham, k_max=8, seed=seed)
    assert res.count == 5
    assert not res.is_lower_bound and not res.budget_exhausted
    assert res.iterations <= 100


def test_budget_exhaustion_flags_lower_bound(stall_ham):
    res = do.count_below(stall_ham, k_max=8, maxiter=2)
    assert res.is_lower_bound and res.budget_exhausted
    assert res.iterations == 2
    assert res.count <= 7


def test_full_window_is_flagged(stall_ham):
    # 7 states lie below the energy, so a window of 5 cannot see the rest
    res = do.count_below(stall_ham, k_max=5)
    assert res.count == 5
    assert res.is_lower_bound and not res.budget_exhausted
    assert np.all(res.eigenvalues < res.energy)


def test_count_matches_dense_across_seeds(dimple_ham):
    dense = do.apply(dimple_ham, np.eye(dimple_ham.size))
    reference = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    for seed in (0, 1, 2, 5, 11):
        res = do.count_below(dimple_ham, k_max=6, seed=seed)
        assert res.count == int(np.count_nonzero(reference < res.energy))
        assert not res.is_lower_bound


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
def test_solve_returns_fresh_residuals(stall_ham, monkeypatch, maxiter):
    # the stop rule and the reported residuals use a fresh apply of H to
    # the orthonormal Ritz vectors, not the solver's recurrence for H X
    steps = []
    solver = do.lobpcg

    def spy(A, X, callback=None, **kwargs):
        def record(values, vectors, residuals):
            steps.append((values, vectors))
            return callback(values, vectors, residuals)
        return solver(A, X, callback=record, **kwargs)

    monkeypatch.setattr(do, "lobpcg", spy)
    tolerance = do._residual_tolerance(stall_ham)
    energy = stall_ham.minimum - stall_ham.delta
    values, residuals, used = do._solve(
        stall_ham, 8, 0, maxiter, tolerance,
        lambda values, residuals: do._kahan_count(values, residuals, energy)[1])
    assert used == len(steps) <= maxiter
    last_values, vectors = steps[-1]
    wanted = vectors[:, :8]
    assert np.array_equal(values, last_values[:8])
    assert np.abs(vectors.T @ vectors - np.eye(vectors.shape[1])).max() < 1e-12
    fresh = np.linalg.norm(do.apply(stall_ham, wanted) - wanted * values, axis=0)
    np.testing.assert_allclose(residuals, fresh, rtol=1e-12, atol=0.0)


def test_breakdown_raises_convergence_error(stall_ham, monkeypatch):
    # a preconditioner that returns nothing leaves no search directions
    # to orthonormalize, which the solver reports instead of stalling
    solver = do.lobpcg

    def without_directions(A, X, M=None, **kwargs):
        zero = do.LinearOperator(A.shape, matvec=np.zeros_like)
        return solver(A, X, M=zero, **kwargs)

    monkeypatch.setattr(do, "lobpcg", without_directions)
    with pytest.raises(ConvergenceError, match="broke down after 0 iterations") as info:
        do.count_below(stall_ham, k_max=8)
    assert info.value.eigenvalues.shape == (8,)


@pytest.mark.parametrize("maxiter", [0, 1, 2])
def test_start_block_never_settles_the_count(stall_ham, maxiter):
    # the Ritz pairs of the random start block can all clear the energy by
    # more than their residuals, which would read as a settled count of 0
    res = do.count_below(stall_ham, k_max=8, maxiter=maxiter)
    assert res.iterations <= maxiter
    assert res.is_lower_bound or res.count == 7
