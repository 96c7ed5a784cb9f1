"""Shipping acceptance gate: nine desk-scale checks with printed verdicts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion; each line carries the measured values and runtime
against its budget.
"""

import dataclasses
import time
import warnings

import numpy as np
import pytest

from shellbound import direct_oracle, potentials, rayleigh_ritz, spin_orbit
from shellbound import surface, surface_operator, symbols

SYMBOL = symbols.mexican_hat(dimension=2, p0=1.0)
WELL = potentials.gaussian_well(1.0, 1.0, dimension=2)
DIMPLE = potentials.gaussian_dimple_mix(1.0, 1.0, 2.0, 0.5, dimension=2)


def verdict(number, ok, detail, elapsed, budget):
    ok = bool(ok) and elapsed < budget
    line = "PASS" if ok else "FAIL"
    print(f"acceptance {number}: {line} - {detail} [{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, f"criterion {number} failed: {detail} ({elapsed:.1f}s of {budget:.0f}s)"


def quiet_build(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return direct_oracle.build_hamiltonian(*args, **kwargs)


@pytest.fixture(scope="module")
def certificate():
    mesh = surface.build_mesh(1.0, 2, 64)
    start = time.perf_counter()
    cert = rayleigh_ritz.certify(SYMBOL, WELL, mesh, 3)
    return cert, time.perf_counter() - start


def test_criterion_1_shell_spectrum_negativity():
    start = time.perf_counter()
    coarse = surface_operator.assemble(surface.build_mesh(1.0, 2, 64), WELL)
    fine = surface_operator.assemble(surface.build_mesh(1.0, 2, 128), WELL)
    nonpositive = fine.eigenvalues.max() <= 1e-10 * fine.norm
    deep = int(np.count_nonzero(fine.eigenvalues < -1e-6))
    stable = all(
        np.count_nonzero(fine.eigenvalues < -delta)
        >= np.count_nonzero(coarse.eigenvalues < -delta)
        for delta in (1e-2, 1e-4, 1e-6)
    )
    verdict(
        1, nonpositive and deep >= 12 and stable,
        f"spectrum nonpositive={nonpositive}, {deep} levels below -1e-6, "
        f"refinement keeps counts={stable}",
        time.perf_counter() - start, 5.0,
    )


def test_criterion_2_circulant_equivalence():
    start = time.perf_counter()
    worst = 0.0
    ball = potentials.ball_well(1.0, 1.0, dimension=2)
    for potential in (WELL, ball, DIMPLE):
        for resolution in (32, 64, 128):
            mesh = surface.build_mesh(1.0, 2, resolution)
            # no ring layout: the dense assembly, independent of the FFT
            dense_mesh = dataclasses.replace(mesh, rings=0)
            dense = surface_operator.assemble(dense_mesh, potential).eigenvalues
            # the shell values of certify's channel route: one FFT of one
            # kernel row, every channel once, sorted
            fast, _ = surface_operator._shell_channels(mesh, potential)
            worst = max(worst, float(np.abs(dense - fast).max()))
    verdict(2, worst <= 1e-10, f"dense vs channel spectra deviate by {worst:.2e}",
            time.perf_counter() - start, 5.0)


def test_criterion_3_trial_form_convergence(certificate):
    cert, setup_time = certificate
    start = time.perf_counter()
    errors = np.asarray(cert.max_errors)
    decreasing = bool(np.all(np.diff(errors) < 0.0))
    ratios = errors[1:] / errors[:-1]
    tail_ok = bool(np.all(ratios[-2:] <= 0.75))
    final_definite = float(np.linalg.eigvalsh(cert.matrices[-1])[-1]) < 0.0
    verdict(
        3, decreasing and tail_ok and final_definite,
        f"errors {np.array2string(errors, precision=4)} decreasing={decreasing}, "
        f"tail ratios {np.array2string(ratios[-2:], precision=3)}, "
        f"smallest-eps form negative definite={final_definite}",
        setup_time + time.perf_counter() - start, 60.0,
    )


def test_criterion_4_certified_count_vs_grid(certificate):
    cert, setup_time = certificate
    start = time.perf_counter()
    counts = []
    for edge, grid in ((40.0, 256), (60.0, 384)):
        ham = quiet_build(SYMBOL, WELL, edge, grid)
        counts.append(int(direct_oracle.count_below(ham, k_max=5, maxiter=900)))
    ok = cert.certified and cert.certified_count == 3 and all(c >= 3 for c in counts)
    verdict(
        4, ok,
        f"certified {cert.certified_count} states; grid counts {counts} at "
        f"boxes 40 and 60 both >= 3",
        setup_time + time.perf_counter() - start, 600.0,
    )


def test_criterion_5_sign_changing_well():
    start = time.perf_counter()
    assert DIMPLE.sign == "sign-changing"
    mean_negative = DIMPLE.integral() < 0.0
    _, definite = surface_operator.point_matrix_test(DIMPLE, np.array([[1.0, 0.0]]))
    ham = quiet_build(SYMBOL, DIMPLE, 40.0, 256)
    ground = float(direct_oracle.lowest_eigenvalues(ham, 3, maxiter=900)[0])
    threshold = ham.minimum - ham.delta
    verdict(
        5, mean_negative and definite and ground < threshold,
        f"integral {DIMPLE.integral():.3f} < 0, single-point matrix negative definite, "
        f"grid ground state {ground:.4f} < {threshold:.2e}",
        time.perf_counter() - start, 180.0,
    )


def test_criterion_6_counts_grow_with_box():
    start = time.perf_counter()
    results = []
    for edge, grid in ((30.0, 192), (45.0, 288), (60.0, 384)):
        ham = quiet_build(SYMBOL, WELL, edge, grid)
        results.append(direct_oracle.count_below(ham, k_max=8, maxiter=900))
    counts = [res.count for res in results]
    growing = all(b >= a for a, b in zip(counts, counts[1:]))
    settled = not any(res.is_lower_bound for res in results)
    verdict(6, growing and settled,
            f"counts {counts} weakly increase across boxes 30/45/60, settled={settled} "
            f"in {[res.iterations for res in results]} iterations",
            time.perf_counter() - start, 900.0)


def test_criterion_7_random_point_matrices():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    all_definite = True
    for _ in range(100):
        size = int(rng.integers(1, 9))
        angles = rng.uniform(0.0, 2.0 * np.pi, size)
        points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        matrix, definite = surface_operator.point_matrix_test(WELL, points)
        scale = float(np.abs(matrix).max())
        top = float(np.linalg.eigvalsh(matrix)[-1])
        all_definite = all_definite and definite and top < -1e-12 * scale
    verdict(7, all_definite, "100 random shell point sets all negative definite",
            time.perf_counter() - start, 1.0)


def test_criterion_8_spin_orbit_band():
    start = time.perf_counter()
    symbol = spin_orbit.rashba(1.0)
    minimum, radius = symbol.find_minimum()
    band_ok = abs(minimum - -0.25) <= 1e-12 and abs(radius - 0.5) <= 1e-12
    mesh = surface.build_mesh(0.5, 2, 64)
    operator = spin_orbit.assemble_spin_kernel(symbol, mesh, WELL)
    norm = float(np.abs(operator.eigenvalues).max())
    nonpositive = operator.eigenvalues.max() <= 1e-10 * norm
    deviation = spin_orbit.gauge_deviation(symbol, mesh, WELL, seed=1)
    verdict(
        8, band_ok and nonpositive and deviation <= 1e-10,
        f"band minimum ({minimum}, {radius}), spectrum nonpositive={nonpositive}, "
        f"gauge deviation {deviation:.2e}",
        time.perf_counter() - start, 10.0,
    )


def test_criterion_9_free_operator_exactness():
    start = time.perf_counter()
    planar = direct_oracle.build_hamiltonian(SYMBOL, None, 51.2, 96)
    exact_2d = np.array_equal(
        direct_oracle.lowest_eigenvalues(planar, 32),
        np.sort(planar.symbol_table.ravel())[:32],
    )
    spatial = direct_oracle.build_hamiltonian(
        symbols.roton(1.0, 0.5, 1.0, dimension=3), None, 51.2, 96,
    )
    exact_3d = np.array_equal(
        direct_oracle.lowest_eigenvalues(spatial, 32),
        np.sort(spatial.symbol_table.ravel())[:32],
    )
    trivial = direct_oracle.count_below(planar).count == 0
    verdict(
        9, exact_2d and exact_3d and trivial,
        f"sorted dual-lattice values reproduced bitwise (2-D {exact_2d}, 3-D {exact_3d}), "
        f"free count 0={trivial}",
        time.perf_counter() - start, 30.0,
    )
