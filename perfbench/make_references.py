"""Write ``references.json`` from one run of every job, seed 0.

Usage (from the repository root)::

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 perfbench/make_references.py

The oracle-stall count is not taken on trust from the block solver,
which leaves its 8th state unconverged: the script builds the dense
G=64 operator (4096 x 4096) by applying ``direct_oracle.apply`` to unit
columns, diagonalises it with ``numpy.linalg.eigh`` and stores that
count, and it stops with an error if the solver's count disagrees.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import shellbound.cli as cli  # noqa: E402
from shellbound import direct_oracle  # noqa: E402

import workloads  # noqa: E402

WORK = Path(".perfbench_work") / "references"


def run_jobs(workload):
    documents = {}
    for name, command in workloads.write_inputs(workload, WORK / workload / "inputs"):
        out = WORK / workload / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(command + ["--output", out.as_posix(), "--seed", "0", "--threads", "1"])
        if code != 0:
            raise SystemExit(f"{workload}/{name} exited with {code}")
        (result,) = out.glob("*.json")
        documents[name] = (json.loads(Path(command[1]).read_text()), json.loads(result.read_text())["results"])
    return documents


def certificate(results):
    return {"certified_count": results["certified_count"], "limit_values": results["limit_values"]}


def dense_count(config):
    """Eigenvalues of the dense grid operator below m - delta, and the nearest ones."""
    symbol = cli._build_symbol(config)
    potential = cli._build_potential(config, symbol.dimension)
    block = config["oracle"]
    ham = direct_oracle.build_hamiltonian(symbol, potential, block["box_edge"], block["grid"])
    columns = []
    for start in range(0, ham.size, 512):
        unit = np.zeros((ham.size, min(512, ham.size - start)))
        unit[start + np.arange(unit.shape[1]), np.arange(unit.shape[1])] = 1.0
        columns.append(direct_oracle.apply(ham, unit))
    dense = np.concatenate(columns, axis=1)
    asymmetry = float(np.abs(dense - dense.T).max())
    values = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    energy = ham.minimum - ham.delta
    count = int(np.count_nonzero(values < energy))
    return count, {
        "method": f"numpy.linalg.eigvalsh of the {ham.size}x{ham.size} operator built from "
                  "direct_oracle.apply on unit columns",
        "energy": energy,
        "lowest_eigenvalues": values[: count + 2].tolist(),
        "asymmetry": asymmetry,
    }


def main() -> int:
    refs = {}
    docs = run_jobs("certify-radial")
    refs["certify-radial"] = {
        "rr-2d": dict(kind="rayleigh-ritz", **certificate(docs["rr-2d"][1])),
        "rr-3d": dict(kind="rayleigh-ritz", **certificate(docs["rr-3d"][1])),
        "spin": {"kind": "spin-orbit", "negative_count": docs["spin"][1]["negative_count"]},
    }
    docs = run_jobs("oracle-stall")
    config, results = docs["oracle"]
    count, evidence = dense_count(config)
    if results["count"] != count:
        raise SystemExit(f"block solver counted {results['count']}, dense diagonalisation {count}")
    refs["oracle-stall"] = {"oracle": {"kind": "oracle", "count": count, "dense_check": evidence}}
    docs = run_jobs("compare-nonradial")
    results = docs["compare"][1]
    refs["compare-nonradial"] = {"compare": {
        "kind": "compare",
        "certificate": certificate(results["certificate"]),
        "oracle_count": results["oracle_count"],
    }}
    (HERE / "references.json").write_text(json.dumps(refs, indent=2) + "\n")
    print(json.dumps(refs, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
