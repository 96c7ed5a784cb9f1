"""End-to-end command runs against temp configs and output dirs."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from shellbound import cli

MEXICAN_HAT = {"kind": "mexican-hat", "dimension": 2, "params": {"p0": 1.0}}
WELL = {"kind": "gaussian-well", "params": {"c": 1.0, "sigma": 1.0}}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_json(tmp_path, name):
    return json.loads((tmp_path / name).read_text(encoding="utf-8"))


def test_surface_spectrum_run(tmp_path):
    config = {
        "task": "surface-spectrum",
        "symbol": MEXICAN_HAT,
        "potential": WELL,
        "surface": {"resolution": 32},
    }
    path = write_config(tmp_path, config)
    assert cli.main(["run", path, "--output", str(tmp_path)]) == 0
    doc = read_json(tmp_path, "surface-spectrum.json")
    assert doc["schema_version"] == 1
    assert doc["task"] == "surface-spectrum"
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    assert doc["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
    results = doc["results"]
    assert results["mesh_size"] == 32
    assert len(results["eigenvalues"]) == 32
    assert results["negative_count"] >= 3
    assert results["symbol_minimum"] == 0.0
    assert results["eigenvalues"][0] == pytest.approx(-2.9264539, abs=1e-5)


def test_bound_count_stability(tmp_path):
    config = {
        "task": "bound-count",
        "symbol": MEXICAN_HAT,
        "potential": WELL,
        "surface": {"resolution": 24},
    }
    assert cli.main(["run", write_config(tmp_path, config), "--output", str(tmp_path)]) == 0
    results = read_json(tmp_path, "bound-count.json")["results"]
    assert results["doubled_resolution"] == 48
    assert results["stable"]
    assert results["stable_count"] == results["count"] == results["count_doubled"]


def test_point_test_run(tmp_path):
    config = {
        "task": "point-test",
        "symbol": MEXICAN_HAT,
        "potential": WELL,
        "point_test": {"n_points": 6, "sets": 3},
    }
    assert cli.main(["run", write_config(tmp_path, config),
                     "--output", str(tmp_path), "--seed", "5"]) == 0
    results = read_json(tmp_path, "point-test.json")["results"]
    assert results["is_negative_definite"]
    assert len(results["sets"]) == 3
    for outcome in results["sets"]:
        assert outcome["largest_eigenvalue"] < 0.0
        assert len(outcome["points"]) == 6


def test_oracle_run_without_potential(tmp_path):
    config = {
        "task": "oracle",
        "symbol": MEXICAN_HAT,
        "potential": {"kind": "none"},
        "oracle": {"box_edge": 51.2, "grid": 96},
    }
    assert cli.main(["run", write_config(tmp_path, config), "--output", str(tmp_path)]) == 0
    results = read_json(tmp_path, "oracle.json")["results"]
    assert results["count"] == 0
    assert not results["is_lower_bound"]
    assert len(results["eigenvalues"]) == 16
    assert results["minimum"] == 0.0


def test_rayleigh_ritz_certified(tmp_path):
    config = {
        "task": "rayleigh-ritz",
        "symbol": MEXICAN_HAT,
        "potential": WELL,
        "surface": {"resolution": 48, "half_width_fraction": 0.25},
        "rayleigh_ritz": {"n_states": 2, "eps_schedule": [0.2, 0.1]},
    }
    assert cli.main(["run", write_config(tmp_path, config), "--output", str(tmp_path)]) == 0
    results = read_json(tmp_path, "rayleigh-ritz.json")["results"]
    assert results["certified_count"] == 2
    assert results["certified_eps"] == 0.2
    assert results["negative_definite"] == [True, True]
    lines = (tmp_path / "rayleigh-ritz.csv").read_text().splitlines()
    assert lines[0] == "eps,j,k,re_h,im_h"
    assert len(lines) == 1 + 2 * 4  # two eps values, 2x2 form each


def test_rayleigh_ritz_failure_exits_2(tmp_path):
    config = {
        "task": "rayleigh-ritz",
        "symbol": MEXICAN_HAT,
        # too shallow to certify at a wide transverse scale
        "potential": {"kind": "gaussian-well", "params": {"c": 1e-3, "sigma": 1.0}},
        "surface": {"resolution": 48},
        "rayleigh_ritz": {"n_states": 1, "eps_schedule": [1.0]},
    }
    assert cli.main(["run", write_config(tmp_path, config), "--output", str(tmp_path)]) == 2
    results = read_json(tmp_path, "rayleigh-ritz.json")["results"]
    assert results["certified_count"] == 0
    assert results["certified_eps"] is None
    assert results["negative_definite"] == [False]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_compare_is_consistent(tmp_path):
    config = {
        "symbol": MEXICAN_HAT,
        "potential": WELL,
        "surface": {"resolution": 48, "half_width_fraction": 0.25},
        "rayleigh_ritz": {"n_states": 2, "eps_schedule": [0.2, 0.1]},
        "oracle": {"box_edge": 20.0, "grid": 128, "k_max": 8},
    }
    assert cli.main(["compare", write_config(tmp_path, config), "--output", str(tmp_path)]) == 0
    results = read_json(tmp_path, "compare.json")["results"]
    assert results["certified"] == 2
    assert results["oracle_count"] == 5
    assert results["consistent"]
    assert not results["oracle_count_is_lower_bound"]
    assert (tmp_path / "compare.csv").exists()


def test_compare_trivial_free_case(tmp_path):
    config = {
        "symbol": MEXICAN_HAT,
        "potential": {"kind": "none"},
        "surface": {"resolution": 16},
        "rayleigh_ritz": {"n_states": 0, "eps_schedule": [0.2]},
        "oracle": {"box_edge": 51.2, "grid": 96},
    }
    assert cli.main(["compare", write_config(tmp_path, config), "--output", str(tmp_path)]) == 0
    results = read_json(tmp_path, "compare.json")["results"]
    assert results["certified"] == 0 and results["oracle_count"] == 0
    assert results["consistent"]


def test_repeated_runs_are_byte_identical(tmp_path):
    config = {
        "task": "point-test",
        "symbol": MEXICAN_HAT,
        "potential": WELL,
        "point_test": {"n_points": 8, "sets": 2},
    }
    path = write_config(tmp_path, config)
    for sub in ("a", "b"):
        assert cli.main(["run", path, "--output", str(tmp_path / sub), "--seed", "42"]) == 0
    first = (tmp_path / "a" / "point-test.json").read_bytes()
    second = (tmp_path / "b" / "point-test.json").read_bytes()
    assert first == second


def test_spin_orbit_run(tmp_path):
    config = {
        "task": "spin-orbit",
        "spin_orbit": {"kind": "rashba", "alpha": 1.0},
        "potential": WELL,
        "surface": {"resolution": 64},
    }
    path = write_config(tmp_path, config)
    for sub in ("a", "b"):
        assert cli.main(["run", path, "--output", str(tmp_path / sub), "--seed", "5"]) == 0
    first = (tmp_path / "a" / "spin-orbit.json").read_bytes()
    assert first == (tmp_path / "b" / "spin-orbit.json").read_bytes()
    results = json.loads(first)["results"]
    assert set(results) == {
        "mesh_size", "surface_radius", "eigenvalues", "negative_count", "threshold",
        "kind", "alpha", "band_minimum", "circle_radius", "gauge_deviation",
    }
    assert results["mesh_size"] == 64
    assert results["band_minimum"] == -0.25
    assert results["circle_radius"] == 0.5
    assert results["negative_count"] == 12
    assert results["gauge_deviation"] <= 1e-10


@pytest.mark.parametrize("config, rows", [
    ({"task": "surface-spectrum", "symbol": MEXICAN_HAT, "potential": WELL,
      "surface": {"resolution": 2048}}, [2048]),
    ({"task": "bound-count", "symbol": MEXICAN_HAT, "potential": WELL,
      "surface": {"resolution": 64}}, [64, 128]),
    # one row for the spectrum, one for the gauge check
    ({"task": "spin-orbit", "spin_orbit": {"kind": "rashba", "alpha": 1.0}, "potential": WELL,
      "surface": {"resolution": 256}}, [256, 256]),
], ids=["surface-spectrum", "bound-count", "spin-orbit"])
def test_spectrum_tasks_read_one_kernel_row_per_mesh(tmp_path, kernel_calls, config, rows):
    # on ring-layout meshes the spectrum tasks take the channel route: a
    # (1, M) kernel row per spectrum, never an (M, M) kernel
    assert cli.main(["run", write_config(tmp_path, config), "--output", str(tmp_path)]) == 0
    assert kernel_calls == [(1, m) for m in rows]


def test_config_errors_name_the_key(tmp_path, capsys):
    base = {
        "task": "rayleigh-ritz",
        "symbol": MEXICAN_HAT,
        "potential": WELL,
        "surface": {"resolution": 16},
        "rayleigh_ritz": {"eps_schedule": [0.2]},
    }
    assert cli.main(["run", write_config(tmp_path, base), "--output", str(tmp_path)]) == 1
    assert "rayleigh_ritz.n_states" in capsys.readouterr().err

    bad_key = dict(base, frobnicate=1)
    assert cli.main(["run", write_config(tmp_path, bad_key, "k.json"),
                     "--output", str(tmp_path)]) == 1
    assert "frobnicate" in capsys.readouterr().err

    bad_task = dict(base, task="explode")
    assert cli.main(["run", write_config(tmp_path, bad_task, "t.json"),
                     "--output", str(tmp_path)]) == 1
    assert "task" in capsys.readouterr().err

    bad_symbol = dict(base, symbol={"kind": "warp", "params": {}})
    assert cli.main(["run", write_config(tmp_path, bad_symbol, "s.json"),
                     "--output", str(tmp_path)]) == 1
    assert "symbol.kind" in capsys.readouterr().err

    # malformed optional values are named too, not left to a traceback
    rr = {"n_states": 1, "eps_schedule": [0.2]}
    table = tmp_path / "table.txt"
    table.write_text("2 8.0 16\n" + "-1.0\n" * 256)
    oracle = {"task": "oracle", "oracle": {"box_edge": 20.0, "grid": 16}}
    point = {"task": "point-test", "point_test": {"n_points": 4}}
    malformed = [
        ({"symbol": dict(MEXICAN_HAT, dimension="two")}, "symbol.dimension"),
        ({"surface": {"resolution": 16, "half_width_fraction": "wide"}},
         "surface.half_width_fraction"),
        ({"rayleigh_ritz": dict(rr, eps_schedule=0.2)}, "rayleigh_ritz.eps_schedule"),
        ({"rayleigh_ritz": dict(rr, eps_schedule=[0.2, "half"])}, "rayleigh_ritz.eps_schedule"),
        ({"rayleigh_ritz": dict(rr, transverse_order="many")}, "rayleigh_ritz.transverse_order"),
        (dict(oracle, oracle=dict(oracle["oracle"], delta_levels="three")), "oracle.delta_levels"),
        (dict(oracle, oracle=dict(oracle["oracle"], k_max=[8])), "oracle.k_max"),
        (dict(point, point_test=dict(point["point_test"], tolerance="tight")),
         "point_test.tolerance"),
        (dict(point, point_test=dict(point["point_test"], sets=None)), "point_test.sets"),
        ({"output": 5}, "'output'"),
        ({"symbol": {"kind": "custom-radial", "params": {"radii": "abcd", "values": [1, 0, 1, 2]}}},
         "symbol.params.radii"),
        ({"surface": None}, "missing config block 'surface'"),
        ({"surface": 16}, "config block 'surface' must be an object"),
        ({"symbol": dict(MEXICAN_HAT, dimension=3),
          "potential": {"kind": "tabulated", "params": {"path": str(table)}}},
         "potential table dimension 2 does not match symbol dimension 3"),
        ({"task": "spin-orbit", "spin_orbit": {"kind": "warp", "alpha": 1.0}},
         "unknown spin_orbit.kind 'warp'"),
    ]
    for index, (override, key) in enumerate(malformed):
        config = write_config(tmp_path, {**base, "rayleigh_ritz": rr, **override}, f"m{index}.json")
        argv = ["run", config] if "output" in override else ["run", config, "--output", str(tmp_path)]
        assert cli.main(argv) == 1, key
        assert key in capsys.readouterr().err


SPECTRUM = {"task": "surface-spectrum", "symbol": MEXICAN_HAT, "potential": WELL,
            "surface": {"resolution": 16}}
POINTS = {"task": "point-test", "symbol": MEXICAN_HAT, "potential": WELL,
          "point_test": {"n_points": 4}}
CERTIFY = {"task": "rayleigh-ritz", "symbol": MEXICAN_HAT, "potential": WELL,
           "surface": {"resolution": 16}, "rayleigh_ritz": {"n_states": 1, "eps_schedule": [0.2]}}
ORACLE = {"task": "oracle", "symbol": MEXICAN_HAT, "potential": WELL,
          "oracle": {"box_edge": 51.2, "grid": 96, "k_max": 4}}


BAD_COUNTS = [
    (POINTS, "point_test", "sets", 0),
    (POINTS, "point_test", "sets", -1),
    (POINTS, "point_test", "sets", 1.5),
    (POINTS, "point_test", "n_points", 0),
    (POINTS, "point_test", "n_points", 1.5),
    (POINTS, "point_test", "n_points", True),
    (SPECTRUM, "surface", "resolution", 16.9),
    (SPECTRUM, "surface", "resolution", True),
    (SPECTRUM, "symbol", "dimension", True),
    (SPECTRUM, "symbol", "dimension", 2.5),
    (CERTIFY, "rayleigh_ritz", "n_states", 1.5),
    (CERTIFY, "rayleigh_ritz", "n_states", False),
    (CERTIFY, "rayleigh_ritz", "transverse_order", 12.5),
    (CERTIFY, "rayleigh_ritz", "transverse_order", True),
    (ORACLE, "oracle", "grid", 96.5),
    (ORACLE, "oracle", "grid", True),
    (ORACLE, "oracle", "k_max", 4.5),
    (ORACLE, "oracle", "k_max", True),
]


@pytest.mark.parametrize("config, block, key, value", BAD_COUNTS,
                         ids=[f"{block}.{key}={value!r}" for _, block, key, value in BAD_COUNTS])
def test_count_keys_reject_booleans_fractions_and_empty_counts(
        tmp_path, capsys, config, block, key, value):
    config = dict(config, **{block: dict(config[block], **{key: value})})
    assert cli.main(["run", write_config(tmp_path, config), "--output", str(tmp_path)]) == 1
    assert f"config key '{block}.{key}'" in capsys.readouterr().err
    assert not any(tmp_path.glob(f"{config['task']}.*"))


BAD_SETTINGS = [
    (ORACLE, "oracle", "delta_levels", float("nan")),
    (ORACLE, "oracle", "delta_levels", float("inf")),
    (ORACLE, "oracle", "delta_levels", -1.0),
    (ORACLE, "oracle", "box_edge", float("nan")),
    (ORACLE, "oracle", "box_edge", float("inf")),
    (POINTS, "point_test", "tolerance", -1.0),
    (POINTS, "point_test", "tolerance", float("nan")),
    (POINTS, "point_test", "tolerance", float("inf")),
]


@pytest.mark.parametrize("config, block, key, value", BAD_SETTINGS,
                         ids=[f"{block}.{key}={value!r}" for _, block, key, value in BAD_SETTINGS])
def test_non_finite_and_negative_settings_are_rejected(tmp_path, capsys, config, block, key, value):
    # NaN used to run to exit 0 (delta_levels, tolerance) or fail
    # without naming the key (box_edge); -1 turned the point test into
    # largest < 1
    config = dict(config, **{block: dict(config[block], **{key: value})})
    assert cli.main(["run", write_config(tmp_path, config), "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert key in err and repr(value) in err
    assert not any(tmp_path.glob(f"{config['task']}.*"))


def test_count_keys_take_integral_numbers(tmp_path):
    config = dict(SPECTRUM, surface={"resolution": 16.0})
    assert cli.main(["run", write_config(tmp_path, config), "--output", str(tmp_path)]) == 0
    assert read_json(tmp_path, "surface-spectrum.json")["results"]["mesh_size"] == 16


# "oracle" names both a task and the oracle block, so it stays a valid key
@pytest.mark.parametrize("name", ["surface-spectrum", "bound-count", "rayleigh-ritz",
                                  "point-test", "spin-orbit", "compare"])
def test_task_names_are_not_config_keys(tmp_path, capsys, name):
    config = dict(POINTS, **{name: {"sets": 0}})
    assert cli.main(["run", write_config(tmp_path, config), "--output", str(tmp_path)]) == 1
    assert f"unknown config key '{name}'" in capsys.readouterr().err


# a misspelt key inside a block or its params would run with the
# defaults and echo the typo into the results JSON; every block present
# is checked before any work, so these exit 1 without output
@pytest.mark.parametrize("block, key", [("surface", "resolutoin"),
                                        ("rayleigh_ritz", "transverse_ordr"),
                                        ("symbol", "params.bogus")])
def test_unknown_block_and_params_keys_are_rejected(tmp_path, capsys, block, key):
    config = json.loads(json.dumps(CERTIFY))
    inner = config[block]["params"] if key.startswith("params.") else config[block]
    inner[key.split(".")[-1]] = 3
    assert cli.main(["run", write_config(tmp_path, config), "--output", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: unknown config key '{block}.{key}'\n"
    assert not any(tmp_path.glob("rayleigh-ritz.*"))


def test_degenerate_custom_radial_symbol_exits_1(tmp_path, capsys):
    radii = np.linspace(0.0, 3.0, 50)
    symbol = {"kind": "custom-radial", "dimension": 2,
              "params": {"radii": radii.tolist(), "values": (radii**2 + 1.0).tolist()}}
    config = {"task": "surface-spectrum", "symbol": symbol, "potential": WELL,
              "surface": {"resolution": 32}}
    assert cli.main(["run", write_config(tmp_path, config), "--output", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: radial profile is minimized at radius zero; no extremum shell\n")


def test_run_rejects_compare_as_task(tmp_path, capsys):
    config = dict(CERTIFY, task="compare")
    assert cli.main(["run", write_config(tmp_path, config), "--output", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: config key 'task' must be one of surface-spectrum, bound-count, "
        "rayleigh-ritz, point-test, oracle, spin-orbit\n"
    )


def test_compare_exits_3_after_writing_when_oracle_undercounts(tmp_path, capsys, monkeypatch):
    from shellbound import direct_oracle

    def undercount(ham, k_max, seed):
        return direct_oracle.CountResult(
            count=1, is_lower_bound=False, eigenvalues=np.zeros(k_max),
            residuals=np.zeros(k_max), energy=ham.minimum - ham.delta, delta=ham.delta,
            iterations=0, budget_exhausted=False, tolerance=0.0,
        )

    monkeypatch.setattr(direct_oracle, "count_below", undercount)
    config = {key: CERTIFY[key] for key in ("symbol", "potential", "surface")}
    config.update(rayleigh_ritz={"n_states": 2, "eps_schedule": [0.2, 0.1]},
                  surface={"resolution": 48}, oracle=ORACLE["oracle"])
    code = cli.main(["compare", write_config(tmp_path, config), "--output", str(tmp_path)])
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"wrote {tmp_path / 'compare.json'}",
                                f"wrote {tmp_path / 'compare.csv'}"]
    results = read_json(tmp_path, "compare.json")["results"]
    assert (results["certified"], results["oracle_count"], results["consistent"]) == (2, 1, False)
    assert (tmp_path / "compare.csv").read_text().startswith("eps,j,k,re_h,im_h\n")
    assert err == "error: oracle count 1 fell below certified 2\n"
    assert code == 3


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_compare_exits_0_when_a_flagged_oracle_count_falls_short(tmp_path, capsys):
    # k_max 2 fills the oracle's window, so its count 2 is only a lower
    # bound, and falling short of 3 certified states contradicts nothing
    config = {
        "symbol": MEXICAN_HAT,
        "potential": WELL,
        "surface": {"resolution": 64},
        "rayleigh_ritz": {"n_states": 3},
        "oracle": {"box_edge": 40.0, "grid": 64, "k_max": 2},
    }
    assert cli.main(["compare", write_config(tmp_path, config), "--output", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    results = read_json(tmp_path, "compare.json")["results"]
    assert (results["certified"], results["oracle_count"]) == (3, 2)
    assert results["oracle_count_is_lower_bound"]
    assert results["consistent"]


def test_compare_exits_0_when_certification_fails(tmp_path, capsys):
    # the shallow well of test_rayleigh_ritz_failure_exits_2: run exits 2,
    # but compare checks only the counts, and 0 certified is consistent
    config = {
        "symbol": MEXICAN_HAT,
        "potential": {"kind": "gaussian-well", "params": {"c": 1e-3, "sigma": 1.0}},
        "surface": {"resolution": 48},
        "rayleigh_ritz": {"n_states": 1, "eps_schedule": [1.0]},
        "oracle": ORACLE["oracle"],
    }
    assert cli.main(["compare", write_config(tmp_path, config), "--output", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    results = read_json(tmp_path, "compare.json")["results"]
    assert results["certified"] == 0
    assert results["certificate"]["negative_definite"] == [False]
    assert results["consistent"]


def test_compare_builds_a_tabulated_potential_once(tmp_path, monkeypatch):
    from shellbound import potentials

    samples, edge = 64, 32.0
    axis = (np.arange(samples) - samples // 2) * (edge / samples)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    table = tmp_path / "well.txt"
    table.write_text(f"2 {edge!r} {samples}\n"
                     + "\n".join(map(repr, (-np.exp(-(x**2 + y**2) / 2.0)).ravel().tolist())) + "\n")
    loads = []
    original = potentials.tabulated_from_file

    def spy(path):
        loads.append(path)
        return original(path)

    monkeypatch.setattr(potentials, "tabulated_from_file", spy)
    config = {
        "symbol": MEXICAN_HAT,
        "potential": {"kind": "tabulated", "params": {"path": str(table)}},
        "surface": {"resolution": 16},
        "rayleigh_ritz": {"n_states": 1, "eps_schedule": [0.2]},
        "oracle": ORACLE["oracle"],
    }
    assert cli.main(["compare", write_config(tmp_path, config), "--output", str(tmp_path)]) == 0
    assert loads == [str(table)]
    results = read_json(tmp_path, "compare.json")["results"]
    assert results["certified"] == 1 and results["consistent"]


@pytest.mark.parametrize("contents, field", [
    ("2 abc 16\n-1.0\n", "header field edge must be float, got 'abc'"),
    ("2.5 8.0 16\n-1.0\n", "header field dimension must be int, got '2.5'"),
    ("2 8.0 16\n-1.0\n-1.0\nx\n-1.0\n", "bad sample values"),
    ("2 8.0\n-1.0\n", "header must be: dimension edge samples"),
    ("2 8.0 16\n-1.0\n-1.0\n-1.0\n", "holds 3 values, expected 256"),
    # a header with no samples is the same count error, with no warning line
    ("2 8.0 16\n", "holds 0 values, expected 256"),
    # non-finite samples are rejected here, so the error names the file
    pytest.param("2 8.0 16\n" + "nan\n" * 256, "256 of 256 samples are not finite",
                 id="nan-samples"),
    pytest.param("2 8.0 16\n" + "-1.0\n" * 255 + "-inf\n", "1 of 256 samples are not finite",
                 id="inf-sample"),
    ("2 8.0 -4\n" + "-1.0\n" * 16, "header field samples must be at least 16, got -4"),
    # tabulated needs 16 samples per edge; the header check names the file
    ("2 8.0 8\n" + "-1.0\n" * 64, "header field samples must be at least 16, got 8"),
    # so do the dimension and edge checks
    ("1 8.0 16\n" + "-1.0\n" * 16, "header field dimension must be 2 or 3, got 1"),
    ("2 -8.0 16\n" + "-1.0\n" * 256, "header field edge must be positive and finite, got -8.0"),
    ("2 nan 16\n" + "-1.0\n" * 256, "header field edge must be positive and finite, got nan"),
])
def test_malformed_grid_file_is_one_error_line(tmp_path, capsys, contents, field):
    table = tmp_path / "table.txt"
    table.write_text(contents)
    config = dict(SPECTRUM, potential={"kind": "tabulated", "params": {"path": str(table)}})
    assert cli.main(["run", write_config(tmp_path, config), "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: grid file {table}: {field}")
    assert len(err.splitlines()) == 1


# the free problem on a 20-unit box: dual-lattice spacing 2 pi / 20 > R / 8
COARSE_ORACLE = {"task": "oracle", "symbol": MEXICAN_HAT, "potential": {"kind": "none"},
                 "oracle": {"box_edge": 20.0, "grid": 32}}


@pytest.mark.filterwarnings("always::UserWarning")
def test_warnings_print_one_line_without_the_source(tmp_path, capsys):
    shown = warnings.showwarning
    assert cli.main(["run", write_config(tmp_path, COARSE_ORACLE), "--output", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: dual-lattice spacing 0.3142 is coarse relative to the shell ")
    assert len(err.splitlines()) == 1 and "cli.py" not in err
    assert warnings.showwarning is shown


@pytest.mark.filterwarnings("error::UserWarning")
def test_warning_filters_still_apply(tmp_path):
    with pytest.raises(UserWarning, match="dual-lattice spacing"):
        cli.main(["run", write_config(tmp_path, COARSE_ORACLE), "--output", str(tmp_path)])


def test_missing_and_malformed_config_files(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", str(broken)]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["run", write_config(tmp_path, [CERTIFY], "list.json")]) == 1
    assert capsys.readouterr().err == "error: config root must be a JSON object\n"


def test_threads_flag_smoke(tmp_path):
    config = {
        "task": "surface-spectrum",
        "symbol": MEXICAN_HAT,
        "potential": WELL,
        "surface": {"resolution": 16},
    }
    path = write_config(tmp_path, config)
    assert cli.main(["run", path, "--output", str(tmp_path), "--threads", "2"]) == 0


def test_seed_must_be_u64():
    with pytest.raises(SystemExit):
        cli.main(["run", "whatever.json", "--seed", "-1"])
    with pytest.raises(SystemExit):
        cli.main(["run", "whatever.json", "--seed", str(2**64)])


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_must_be_positive(threads, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "whatever.json", "--threads", threads])
    assert info.value.code == 2
    assert "threads must be at least 1" in capsys.readouterr().err


def test_cli_import_leaves_optional_scipy_unloaded():
    # interpolation and special functions serve only tabulated inputs,
    # custom-radial profiles and ball wells, and scipy.interpolate loads
    # scipy.optimize with it, so importing the front end must load none
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, shellbound.cli; print(sorted(m for m in "
             "('scipy.interpolate', 'scipy.optimize', 'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_cli_and_oracle_count_load_no_scipy():
    # the grid oracle's block eigensolver and the radial certify paths are
    # numpy only, so neither the front end, nor an oracle count on the
    # oracle-stall problem, nor the certify-radial jobs' certificates and
    # spin checks load scipy
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "\n".join([
        "import sys, warnings, shellbound.cli",
        "def scipy_modules():",
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))",
        "after_import = scipy_modules()",
        "from shellbound import direct_oracle, potentials, rayleigh_ritz, spin_orbit, surface, symbols",
        "with warnings.catch_warnings():",
        "    warnings.simplefilter('ignore')",
        "    ham = direct_oracle.build_hamiltonian(",
        "        symbols.mexican_hat(dimension=2, p0=1.0),",
        "        potentials.gaussian_well(1.0, 1.0, dimension=2), 40.0, 64)",
        "count = direct_oracle.count_below(ham, k_max=8).count",
        "well_2d = potentials.gaussian_well(1.0, 1.0, dimension=2)",
        "rayleigh_ritz.certify(symbols.mexican_hat(1.0), well_2d, surface.build_mesh(1.0, 2, 512), 9)",
        "rayleigh_ritz.certify(symbols.roton(1.0, 0.5, 1.0), potentials.gaussian_well(1.0, 1.0, 3),",
        "                      surface.build_mesh(1.0, 3, 12), 3)",
        "rashba = spin_orbit.rashba(1.0)",
        "circle = surface.build_mesh(0.5, 2, 256)",
        "spin_orbit.assemble_spin_kernel(rashba, circle, well_2d)",
        "spin_orbit.gauge_deviation(rashba, circle, well_2d)",
        "print(after_import, scipy_modules(), count)",
    ])
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[] [] 7"


def test_rayleigh_ritz_runs_leave_numpy_polynomial_unloaded(tmp_path):
    # the Gauss-Legendre rules of the sphere, of the transverse profile and
    # of the channel projection come from surface.gauss_legendre, so neither
    # a 2-D nor a 3-D certificate run loads numpy.polynomial
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    roton = {"kind": "roton", "dimension": 3, "params": {"delta": 1.0, "mu": 0.5, "p0": 1.0}}
    runs = []
    for name, symbol, resolution in (("2d", MEXICAN_HAT, 512), ("3d", roton, 12)):
        config = {"task": "rayleigh-ritz", "symbol": symbol, "potential": WELL,
                  "surface": {"resolution": resolution}, "rayleigh_ritz": {"n_states": 3}}
        runs.append((write_config(tmp_path, config, f"{name}.json"), str(tmp_path / name)))
    probe = "\n".join([
        "import sys, shellbound.cli",
        "def polynomial():",
        "    return sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'polynomial'])",
        "after_import = polynomial()",
        f"codes = [shellbound.cli.main(['run', path, '--output', out]) for path, out in {runs!r}]",
        "print(after_import, polynomial(), codes)",
    ])
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[] [] [0, 0]"


def test_oracle_count_and_spin_check_leave_lazy_numpy_modules_unloaded():
    # numpy loads numpy.random and numpy.fft on first use only; the seeded
    # draws come from the stdlib's random, and every oracle sector, the
    # whole grid of an odd grid included, transforms by matrices, so
    # oracle counts on the oracle-stall problem and on its odd-grid twin
    # load neither, and a spin check does not load numpy.random
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "\n".join([
        "import sys, warnings, shellbound.cli",
        "def lazy():",
        "    return sorted(m for m in ('numpy.fft', 'numpy.random') if m in sys.modules)",
        "after_import = lazy()",
        "from shellbound import direct_oracle, potentials, spin_orbit, surface, symbols",
        "with warnings.catch_warnings():",
        "    warnings.simplefilter('ignore')",
        "    ham = direct_oracle.build_hamiltonian(",
        "        symbols.mexican_hat(dimension=2, p0=1.0),",
        "        potentials.gaussian_well(1.0, 1.0, dimension=2), 40.0, 64)",
        "    odd = direct_oracle.build_hamiltonian(",
        "        symbols.mexican_hat(dimension=2, p0=1.0),",
        "        potentials.gaussian_well(1.0, 1.0, dimension=2), 40.0, 63)",
        "whole = direct_oracle.count_below(odd, k_max=8)",
        "count = (direct_oracle.count_below(ham, k_max=8).count, whole.count,",
        "         [sector.parities for sector in whole.sectors])",
        "after_count = lazy()",
        "well_2d = potentials.gaussian_well(1.0, 1.0, dimension=2)",
        "rashba = spin_orbit.rashba(1.0)",
        "circle = surface.build_mesh(0.5, 2, 256)",
        "spin_orbit.assemble_spin_kernel(rashba, circle, well_2d)",
        "spin_orbit.gauge_deviation(rashba, circle, well_2d)",
        "print(after_import, after_count, 'numpy.random' in sys.modules, count)",
    ])
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[] [] False (7, 7, [()])"
