"""The benchmark's workloads: CLI job lists and the inputs they read.

Each workload is a list of jobs. A job is one ``shellbound.cli.main``
call (``run`` or ``compare``) on a config this module writes. The
configs are fixed; the workload seed reaches the program only as the
CLI's ``--seed``, which seeds the oracle's random start block.

Why these three (the first two are the workloads of BENCHMARK.json,
with these reasons as their ``why``):

- ``certify-radial``: radial wells on uniform meshes, where tube-kernel
  assembly is the cost; the mechanism workload for kernels,
  rayleigh_ritz and spin_orbit, with the oracle idle.
- ``oracle-stall``: one grid-oracle count whose 8th Ritz value never
  converges and burns the whole iteration budget; the mechanism
  workload for oracle early stop and symmetry sectors.
- ``compare-nonradial``: certify plus oracle on an asymmetric
  tabulated well, so neither circulant kernels nor symmetry sectors
  apply; the prediction for those optimisations here is no change.
  It is run by hand (``run.py --workload compare-nonradial``): on a
  noisy 2-core host, two workloads leave room for 60-second runs within
  the benchmark's time budget, and three do not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

MEXICAN_HAT_2D = {"kind": "mexican-hat", "dimension": 2, "params": {"p0": 1.0}}
WELL = {"kind": "gaussian-well", "params": {"c": 1.0, "sigma": 1.0}}
TABLE_NAME = "tabulated-well.txt"

# Anisotropic Gaussian well on a 256^2 table of edge 64: widths 1.2 and
# 0.8, principal axes rotated by 30 degrees, centre moved off the origin
# along x. No rotation or reflection of the square box maps it to itself.
TABLE = {"samples": 256, "edge": 64.0, "depth": 1.0, "sigmas": (1.2, 0.8),
         "angle_deg": 30.0, "centre": (0.3, 0.0)}

WORKLOADS = {
    "certify-radial": [
        ("rr-2d", "run", {
            "task": "rayleigh-ritz",
            "symbol": MEXICAN_HAT_2D,
            "potential": WELL,
            "surface": {"resolution": 512},
            "rayleigh_ritz": {"n_states": 9},
        }),
        ("rr-3d", "run", {
            "task": "rayleigh-ritz",
            "symbol": {"kind": "roton", "dimension": 3,
                       "params": {"delta": 1.0, "mu": 0.5, "p0": 1.0}},
            "potential": WELL,
            "surface": {"resolution": 12},
            "rayleigh_ritz": {"n_states": 3},
        }),
        ("spin", "run", {
            "task": "spin-orbit",
            "spin_orbit": {"kind": "rashba", "alpha": 1.0},
            "potential": WELL,
            "surface": {"resolution": 256},
        }),
    ],
    "oracle-stall": [
        ("oracle", "run", {
            "task": "oracle",
            "symbol": MEXICAN_HAT_2D,
            "potential": WELL,
            "oracle": {"box_edge": 40.0, "grid": 64, "k_max": 8},
        }),
    ],
    "compare-nonradial": [
        ("compare", "compare", {
            "symbol": MEXICAN_HAT_2D,
            "potential": {"kind": "tabulated", "params": {"path": None}},
            "surface": {"resolution": 64},
            "rayleigh_ritz": {"n_states": 3},
            "oracle": {"box_edge": 30.0, "grid": 96, "k_max": 8},
        }),
    ],
}


def table_values():
    """Samples of the tabulated well, row-major on the centred grid."""
    import numpy as np

    samples, edge = TABLE["samples"], TABLE["edge"]
    axis = (np.arange(samples) - samples // 2) * (edge / samples)
    x, y = np.meshgrid(axis - TABLE["centre"][0], axis - TABLE["centre"][1], indexing="ij")
    angle = math.radians(TABLE["angle_deg"])
    u = math.cos(angle) * x + math.sin(angle) * y
    v = -math.sin(angle) * x + math.cos(angle) * y
    s1, s2 = TABLE["sigmas"]
    return -TABLE["depth"] * np.exp(-0.5 * ((u / s1) ** 2 + (v / s2) ** 2))


def write_inputs(workload: str, inputs: Path) -> list[tuple[str, list[str]]]:
    """Write the workload's configs (and table) under ``inputs``.

    Returns ``(job name, CLI argv without --output/--seed/--threads)``
    pairs. Paths are kept relative to the working directory so the
    results JSON does not depend on where the checkout lives.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, command, config in WORKLOADS[workload]:
        config = json.loads(json.dumps(config))
        if config["potential"]["kind"] == "tabulated":
            table = inputs / TABLE_NAME
            values = table_values()
            header = f"2 {TABLE['edge']!r} {TABLE['samples']}\n"
            table.write_text(header + "\n".join(map(repr, values.ravel().tolist())) + "\n")
            config["potential"]["params"]["path"] = table.as_posix()
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        jobs.append((name, [command, path.as_posix()]))
    return jobs
