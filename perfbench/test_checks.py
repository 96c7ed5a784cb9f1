"""Tests of the benchmark's own result checker, tracer and metric lists.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

import checks
import tracing

HERE = Path(__file__).resolve().parent
REFS = checks.load_references()


def passing_documents():
    """Results JSON documents, one per job, that agree with the references."""
    rr = copy.deepcopy(REFS["certify-radial"])
    compare = copy.deepcopy(REFS["compare-nonradial"]["compare"])
    return {
        ("certify-radial", "rr-2d"): {"results": rr["rr-2d"]},
        ("certify-radial", "rr-3d"): {"results": rr["rr-3d"]},
        ("certify-radial", "spin"): {"results": {"negative_count": rr["spin"]["negative_count"],
                                                 "gauge_deviation": 3e-15}},
        ("oracle-stall", "oracle"): {"results": {"count": 7, "is_lower_bound": True}},
        ("compare-nonradial", "compare"): {"results": {
            "consistent": True,
            "certificate": compare["certificate"],
            "oracle_count": compare["oracle_count"],
            "oracle_count_is_lower_bound": False,
        }},
    }


def frac(outcomes):
    return checks.failed_frac(outcomes)[2]


def test_references_pass():
    outcomes = [checks.check_job(REFS[w][j], 0, doc) for (w, j), doc in passing_documents().items()]
    assert frac(outcomes) == 0.0


@pytest.mark.parametrize("key", sorted(passing_documents()))
@pytest.mark.parametrize("code", [2, 3, 1, None])
def test_bad_exit_code_fails(key, code):
    document = passing_documents()[key]
    assert frac([checks.check_job(REFS[key[0]][key[1]], code, document)]) == 1.0


def _off_by_one(results, field, delta):
    broken = copy.deepcopy(results)
    broken[field] += delta
    return broken


@pytest.mark.parametrize("delta", [1, -1])
def test_certified_count_off_by_one_fails(delta):
    document = passing_documents()[("certify-radial", "rr-2d")]
    broken = {"results": _off_by_one(document["results"], "certified_count", delta)}
    assert checks.check_job(REFS["certify-radial"]["rr-2d"], 0, broken)


def test_limit_value_drift_fails():
    document = passing_documents()[("certify-radial", "rr-3d")]
    document["results"]["limit_values"][0] += 1e-9
    assert checks.check_job(REFS["certify-radial"]["rr-3d"], 0, document)


def test_spin_count_and_gauge_fail():
    ref = REFS["certify-radial"]["spin"]
    document = passing_documents()[("certify-radial", "spin")]
    assert checks.check_job(ref, 0, {"results": _off_by_one(document["results"], "negative_count", 1)})
    document["results"]["gauge_deviation"] = 1e-9
    assert checks.check_job(ref, 0, document)


@pytest.mark.parametrize("count, lower_bound, fails", [
    (8, True, True),    # above the dense count: never allowed
    (8, False, True),
    (6, False, True),   # below it without saying so
    (6, True, False),   # below it, flagged as a lower bound
    (7, False, False),  # a correct count that became exact
])
def test_oracle_count_one_sided(count, lower_bound, fails):
    document = {"results": {"count": count, "is_lower_bound": lower_bound}}
    assert bool(checks.check_job(REFS["oracle-stall"]["oracle"], 0, document)) is fails


def test_compare_inconsistent_or_off_by_one_fails():
    ref = REFS["compare-nonradial"]["compare"]
    document = passing_documents()[("compare-nonradial", "compare")]
    inconsistent = copy.deepcopy(document)
    inconsistent["results"]["consistent"] = False
    above = {"results": _off_by_one(document["results"], "oracle_count", 1)}
    below = {"results": _off_by_one(document["results"], "oracle_count", -1)}
    outcomes = [checks.check_job(ref, 0, d) for d in (document, inconsistent, above, below)]
    assert checks.failed_frac(outcomes) == (3, 4, 0.75)


def test_benchmark_json_matches_metric_lists():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    specs = json.loads((HERE / "metrics.json").read_text())
    for section in ("end_to_end", "per_layer"):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[section]]
        assert listed == [(m["name"], m["unit"], m["better"]) for m in specs[section]]
    sample = tracing.layer_metrics([])
    assert set(sample) | {"trace.overhead_s"} == {m["name"] for m in specs["per_layer"]}


def test_tracing_leaves_results_byte_identical(tmp_path, monkeypatch):
    sys.path.insert(0, str(HERE.parent / "src"))
    import shellbound.cli as cli

    monkeypatch.chdir(tmp_path)
    config = tmp_path / "rr.json"
    config.write_text(json.dumps({
        "task": "rayleigh-ritz",
        "symbol": {"kind": "mexican-hat", "dimension": 2, "params": {"p0": 1.0}},
        "potential": {"kind": "gaussian-well", "params": {"c": 1.0, "sigma": 1.0}},
        "surface": {"resolution": 32},
        "rayleigh_ritz": {"n_states": 3, "transverse_order": 6},
    }))
    original = cli.main
    assert cli.main(["run", "rr.json", "--output", "plain"]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["run", "rr.json", "--output", "traced"]) == 0
    finally:
        tracer.uninstall()
    assert cli.main is original
    for name in ("rayleigh-ritz.json", "rayleigh-ritz.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["rayleigh_ritz.eps_steps"] == 4
    assert layers["potentials.kernel_matrix.calls"] == 5  # shell operator + one per eps
    assert 0.0 < layers["potentials.kernel_matrix_s"] < layers["rayleigh_ritz.certify_s"]
