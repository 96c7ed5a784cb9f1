"""Check one job's exit code and results JSON against its stored reference.

A job fails when it raised, exited non-zero, or its results disagree
with ``references.json``. Oracle counts are compared one-sidedly: a
count above the reference is a failure, a count below it is a failure
only when the output does not flag it as a lower bound, and a correct
count that rises to the reference is never one.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")
LIMIT_TOLERANCE = 1e-10
GAUGE_TOLERANCE = 1e-10


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def _certificate(results, ref, where, problems):
    if results["certified_count"] != ref["certified_count"]:
        problems.append(f"{where}certified_count {results['certified_count']} != {ref['certified_count']}")
    got, want = results["limit_values"], ref["limit_values"]
    if len(got) != len(want) or any(abs(a - b) > LIMIT_TOLERANCE for a, b in zip(got, want)):
        problems.append(f"{where}limit_values differ from the reference by more than {LIMIT_TOLERANCE}")


def _oracle_count(count, is_lower_bound, ref_count, where, problems):
    if count > ref_count:
        problems.append(f"{where}count {count} above the reference {ref_count}")
    elif count < ref_count and not is_lower_bound:
        problems.append(f"{where}count {count} below the reference {ref_count} and not flagged as a lower bound")


def check_job(ref: dict, exit_code, document: dict | None) -> list[str]:
    """Problems with one job's outcome; an empty list means it passed.

    ``exit_code`` is the CLI's return value, or None when the call raised.
    ``document`` is the parsed results JSON, or None when none was written.
    """
    if exit_code is None:
        return ["the CLI call raised"]
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if document is None:
        return ["no results JSON"]
    results = document["results"]
    problems: list[str] = []
    kind = ref["kind"]
    if kind == "rayleigh-ritz":
        _certificate(results, ref, "", problems)
    elif kind == "spin-orbit":
        if results["negative_count"] != ref["negative_count"]:
            problems.append(f"negative_count {results['negative_count']} != {ref['negative_count']}")
        if not results["gauge_deviation"] <= GAUGE_TOLERANCE:
            problems.append(f"gauge_deviation {results['gauge_deviation']} above {GAUGE_TOLERANCE}")
    elif kind == "oracle":
        _oracle_count(results["count"], results["is_lower_bound"], ref["count"], "", problems)
    elif kind == "compare":
        if results["consistent"] is not True:
            problems.append("consistent is not true")
        _certificate(results["certificate"], ref["certificate"], "certificate ", problems)
        _oracle_count(results["oracle_count"], results["oracle_count_is_lower_bound"],
                      ref["oracle_count"], "oracle ", problems)
    else:
        raise ValueError(f"unknown reference kind {kind!r}")
    return problems


def failed_frac(outcomes) -> tuple[int, int, float]:
    """(failed, attempted, failed / attempted) over ``check_job`` outcomes."""
    outcomes = list(outcomes)
    failed = sum(1 for problems in outcomes if problems)
    attempted = len(outcomes)
    return failed, attempted, failed / attempted if attempted else 1.0
