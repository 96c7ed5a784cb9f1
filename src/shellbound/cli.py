"""Batch front end: configured experiments with machine-readable outputs.

Commands
--------
``shellbound run <config.json>``
    Execute the task named in the config. Exit status 0 on success, 2
    when a certification search ends without a negative-definite trial
    form, 1 on errors.
``shellbound compare <config.json>``
    Run the variational certification and the grid oracle on the same
    problem and check ``oracle_count >= certified``. Exit status 3 on
    violation (a bug by the variational inequality), otherwise as run.

Both commands accept ``--output <dir>``, ``--threads <k>`` and
``--seed <u64>``. Identical config + seed + thread count reproduces
byte-identical JSON output.

Config schema (JSON object; keys by task):

- ``task``: one of ``surface-spectrum``, ``bound-count``,
  ``rayleigh-ritz``, ``point-test``, ``oracle``, ``spin-orbit``
  (ignored by ``compare``).
- ``symbol``: ``{"kind": roton|bcs|mexican-hat|custom-radial,
  "dimension": 2|3, "params": {...}}`` with params ``delta, mu, p0`` /
  ``mu, beta`` / ``p0`` / ``radii, values``.
- ``potential``: ``{"kind": gaussian-well|ball-well|gaussian-dimple-mix|
  tabulated|none, "params": {...}}`` with params ``c, sigma`` /
  ``c, radius`` / ``c1, sigma1, c2, sigma2`` / ``path``.
- ``surface``: ``{"resolution": int, "half_width_fraction": float}``.
- ``spin_orbit``: ``{"kind": rashba|dresselhaus, "alpha": float}``.
- ``rayleigh_ritz``: ``{"n_states": int, "eps_schedule": [floats],
  "transverse_order": int}``.
- ``oracle``: ``{"box_edge": float, "grid": int, "k_max": int,
  "delta_levels": float}``.
- ``point_test``: ``{"n_points": int, "tolerance": float, "sets": int}``.
- ``output``: default output directory (overridden by ``--output``).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

SCHEMA_VERSION = 1
TASKS = (
    "surface-spectrum",
    "bound-count",
    "rayleigh-ritz",
    "point-test",
    "oracle",
    "spin-orbit",
)


def main(argv=None) -> int:
    args = _parse_args(argv)
    # BLAS/OpenMP pools size themselves at import; pin before numpy loads
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(args.threads)

    from .errors import ToolkitError

    try:
        config = _load_config(args.config)
        output_dir = Path(args.output or config.get("output", "."))
        output_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "run":
            return _command_run(config, args, output_dir)
        return _command_compare(config, args, output_dir)
    except (ToolkitError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="shellbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "execute the configured task"),
                       ("compare", "certification vs oracle consistency check")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("config", help="path to the JSON experiment config")
        cmd.add_argument("--output", default=None, help="output directory")
        cmd.add_argument("--threads", type=int, default=1, help="worker thread count")
        cmd.add_argument("--seed", type=_seed, default=0, help="random seed (u64)")
    return parser.parse_args(argv)


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _load_config(path):
    from .errors import ConfigurationError

    with open(path, encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ConfigurationError("config root must be a JSON object")
    known = set(TASKS) | {
        "task", "symbol", "potential", "surface", "spin_orbit",
        "rayleigh_ritz", "oracle", "point_test", "output",
    }
    for key in config:
        if key not in known:
            raise ConfigurationError(f"unknown config key '{key}'")
    return config


def _block(config, name, required=True):
    from .errors import ConfigurationError

    block = config.get(name)
    if block is None:
        if required:
            raise ConfigurationError(f"missing config block '{name}'")
        return {}
    if not isinstance(block, dict):
        raise ConfigurationError(f"config block '{name}' must be an object")
    return block


def _need(block, name, path, kind=float):
    from .errors import ConfigurationError

    if name not in block:
        raise ConfigurationError(f"missing config key '{path}.{name}'")
    try:
        return kind(block[name])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"config key '{path}.{name}' is malformed: {exc}") from exc


def _build_symbol(config):
    from . import symbols
    from .errors import ConfigurationError

    block = _block(config, "symbol")
    kind = _need(block, "kind", "symbol", str)
    dimension = int(block.get("dimension", 2))
    params = _block(block, "params", required=False)
    if kind == "roton":
        return symbols.roton(
            _need(params, "delta", "symbol.params"),
            _need(params, "mu", "symbol.params"),
            _need(params, "p0", "symbol.params"),
            dimension,
        )
    if kind == "bcs":
        return symbols.bcs(
            _need(params, "mu", "symbol.params"),
            _need(params, "beta", "symbol.params"),
            dimension,
        )
    if kind == "mexican-hat":
        return symbols.mexican_hat(_need(params, "p0", "symbol.params"), dimension)
    if kind == "custom-radial":
        return symbols.custom_radial(
            _need(params, "radii", "symbol.params", list),
            _need(params, "values", "symbol.params", list),
            dimension,
        )
    raise ConfigurationError(f"unknown symbol.kind '{kind}'")


def _build_potential(config, dimension, required=True):
    from . import potentials
    from .errors import ConfigurationError

    block = _block(config, "potential", required=required)
    if not block:
        return None
    kind = _need(block, "kind", "potential", str)
    params = _block(block, "params", required=False)
    if kind == "none":
        return potentials.zero(dimension)
    if kind == "gaussian-well":
        return potentials.gaussian_well(
            _need(params, "c", "potential.params"),
            _need(params, "sigma", "potential.params"),
            dimension,
        )
    if kind == "ball-well":
        return potentials.ball_well(
            _need(params, "c", "potential.params"),
            _need(params, "radius", "potential.params"),
            dimension,
        )
    if kind == "gaussian-dimple-mix":
        return potentials.gaussian_dimple_mix(
            _need(params, "c1", "potential.params"),
            _need(params, "sigma1", "potential.params"),
            _need(params, "c2", "potential.params"),
            _need(params, "sigma2", "potential.params"),
            dimension,
        )
    if kind == "tabulated":
        loaded = potentials.tabulated_from_file(_need(params, "path", "potential.params", str))
        if loaded.dimension != dimension:
            raise ConfigurationError(
                f"potential table dimension {loaded.dimension} does not match symbol dimension {dimension}"
            )
        return loaded
    raise ConfigurationError(f"unknown potential.kind '{kind}'")


def _command_run(config, args, output_dir: Path) -> int:
    from .errors import ConfigurationError

    task = config.get("task")
    if task not in TASKS:
        raise ConfigurationError(f"config key 'task' must be one of {', '.join(TASKS)}")
    results, sweep_rows, status = _run_task(task, config, args.seed)
    _write_json(output_dir / f"{task}.json", config, args, task, results)
    if sweep_rows is not None:
        _write_csv(output_dir / f"{task}.csv", sweep_rows)
    return status


def _run_task(task, config, seed):
    if task == "surface-spectrum":
        return _task_surface_spectrum(config)
    if task == "bound-count":
        return _task_bound_count(config)
    if task == "rayleigh-ritz":
        return _task_rayleigh_ritz(config)
    if task == "point-test":
        return _task_point_test(config, seed)
    if task == "oracle":
        return _task_oracle(config, seed)
    return _task_spin_orbit(config, seed)


def _scalar_problem(config):
    from . import surface

    symbol = _build_symbol(config)
    potential = _build_potential(config, symbol.dimension)
    surface_block = _block(config, "surface")
    resolution = _need(surface_block, "resolution", "surface", int)
    _, radius = symbol.find_minimum()
    mesh = surface.build_mesh(radius, symbol.dimension, resolution)
    return symbol, potential, mesh, surface_block


def _spectrum_payload(operator, threshold=None):
    from . import surface_operator as so

    return {
        "mesh_size": operator.mesh.size,
        "surface_radius": operator.mesh.radius,
        "eigenvalues": [float(v) for v in operator.eigenvalues],
        "negative_count": so.count_negative(operator, threshold),
        "threshold": float(threshold if threshold is not None else 1e-8 * max(1.0, operator.norm)),
    }


def _task_surface_spectrum(config):
    from . import surface_operator as so

    symbol, potential, mesh, _ = _scalar_problem(config)
    operator = so.assemble(mesh, potential)
    minimum, _ = symbol.find_minimum()
    results = _spectrum_payload(operator)
    results["potential"] = {"kind": potential.kind, "params": potential.params}
    results["symbol_minimum"] = minimum
    return results, None, 0


def _task_bound_count(config):
    from . import surface, surface_operator as so

    symbol, potential, mesh, surface_block = _scalar_problem(config)
    coarse = so.assemble(mesh, potential)
    fine_mesh = surface.build_mesh(mesh.radius, mesh.dimension, 2 * _need(surface_block, "resolution", "surface", int))
    fine = so.assemble(fine_mesh, potential)
    threshold = 1e-8 * max(1.0, coarse.norm)
    count = so.count_negative(coarse, threshold)
    count_doubled = so.count_negative(fine, threshold)
    results = {
        "resolution": coarse.mesh.size,
        "doubled_resolution": fine.mesh.size,
        "threshold": threshold,
        "count": count,
        "count_doubled": count_doubled,
        "stable": count == count_doubled,
        "stable_count": min(count, count_doubled),
    }
    return results, None, 0


def _certificate_payload(certificate):
    per_eps_definite = [top < 0.0 for top in certificate.top_eigenvalues]
    return {
        "requested": certificate.requested,
        "certified_count": certificate.certified_count,
        "certified_eps": certificate.certified_eps,
        "eps_schedule": list(certificate.eps_schedule),
        "negative_definite": per_eps_definite,
        "limit_values": [float(v) for v in certificate.limit_values],
        "max_errors": [float(v) for v in certificate.max_errors],
    }


def _sweep_rows(certificate):
    rows = [("eps", "j", "k", "re_h", "im_h")]
    for eps, matrix in zip(certificate.eps_schedule, certificate.matrices):
        n = matrix.shape[0]
        for j in range(n):
            for k in range(n):
                entry = complex(matrix[j, k])
                rows.append((repr(eps), j, k, repr(entry.real), repr(entry.imag)))
    return rows


def _certify_from_config(config):
    from . import rayleigh_ritz

    symbol, potential, mesh, surface_block = _scalar_problem(config)
    rr = _block(config, "rayleigh_ritz")
    schedule = rr.get("eps_schedule", list(rayleigh_ritz.DEFAULT_SCHEDULE))
    certificate = rayleigh_ritz.certify(
        symbol, potential, mesh,
        _need(rr, "n_states", "rayleigh_ritz", int),
        schedule,
        half_width_fraction=float(surface_block.get("half_width_fraction", 0.25)),
        transverse_order=int(rr.get("transverse_order", 12)),
    )
    return certificate


def _task_rayleigh_ritz(config):
    certificate = _certify_from_config(config)
    status = 0 if certificate.certified else 2
    return _certificate_payload(certificate), _sweep_rows(certificate), status


def _task_point_test(config, seed):
    import numpy as np

    from . import surface_operator as so

    symbol = _build_symbol(config)
    potential = _build_potential(config, symbol.dimension)
    block = _block(config, "point_test")
    n_points = _need(block, "n_points", "point_test", int)
    tolerance = float(block.get("tolerance", 1e-12))
    sets = int(block.get("sets", 1))
    _, radius = symbol.find_minimum()
    rng = np.random.default_rng(seed)
    outcomes = []
    for _ in range(sets):
        points = _sample_shell_points(rng, radius, symbol.dimension, n_points)
        matrix, negative_definite = so.point_matrix_test(potential, points, tolerance)
        outcomes.append({
            "largest_eigenvalue": float(np.linalg.eigvalsh(matrix)[-1]),
            "is_negative_definite": negative_definite,
            "points": [[float(c) for c in p] for p in points],
        })
    results = {
        "tolerance": tolerance,
        "sets": outcomes,
        "is_negative_definite": all(o["is_negative_definite"] for o in outcomes),
    }
    return results, None, 0


def _sample_shell_points(rng, radius, dimension, count):
    import numpy as np

    while True:
        if dimension == 2:
            angles = rng.uniform(0.0, 2.0 * np.pi, count)
            points = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        else:
            raw = rng.standard_normal((count, dimension))
            points = radius * raw / np.linalg.norm(raw, axis=1, keepdims=True)
        if count < 2:
            return points
        diffs = points[:, None, :] - points[None, :, :]
        dist2 = (diffs**2).sum(axis=-1)
        if dist2[~np.eye(count, dtype=bool)].min() > 0.0:
            return points


def _oracle_from_config(config, seed):
    from . import direct_oracle

    symbol = _build_symbol(config)
    potential = _build_potential(config, symbol.dimension, required=False)
    block = _block(config, "oracle")
    ham = direct_oracle.build_hamiltonian(
        symbol, potential,
        _need(block, "box_edge", "oracle"),
        _need(block, "grid", "oracle", int),
        float(block.get("delta_levels", 3.0)),
    )
    k_max = int(block.get("k_max", 16))
    outcome = direct_oracle.count_below(ham, k_max=k_max, seed=seed)
    payload = {
        "box_edge": ham.box_edge,
        "grid": ham.grid,
        "k_max": k_max,
        "minimum": ham.minimum,
        "delta": ham.delta,
        "energy": outcome.energy,
        "eigenvalues": [float(v) for v in outcome.eigenvalues],
        "residuals": [float(r) for r in outcome.residuals],
        "residual_tolerance": outcome.tolerance,
        "count": outcome.count,
        "is_lower_bound": outcome.is_lower_bound,
    }
    return outcome, payload


def _task_oracle(config, seed):
    _, payload = _oracle_from_config(config, seed)
    return payload, None, 0


def _task_spin_orbit(config, seed):
    from . import spin_orbit, surface
    from .errors import ConfigurationError

    block = _block(config, "spin_orbit")
    kind = _need(block, "kind", "spin_orbit", str)
    alpha = _need(block, "alpha", "spin_orbit")
    if kind == "rashba":
        symbol = spin_orbit.rashba(alpha)
    elif kind == "dresselhaus":
        symbol = spin_orbit.dresselhaus(alpha)
    else:
        raise ConfigurationError(f"unknown spin_orbit.kind '{kind}'")
    potential = _build_potential(config, 2)
    surface_block = _block(config, "surface")
    minimum, radius = symbol.find_minimum()
    mesh = surface.build_mesh(radius, 2, _need(surface_block, "resolution", "surface", int))
    operator = spin_orbit.assemble_spin_kernel(symbol, mesh, potential)
    results = _spectrum_payload(operator)
    results.update({
        "kind": kind,
        "alpha": alpha,
        "band_minimum": minimum,
        "circle_radius": radius,
        "gauge_deviation": spin_orbit.gauge_deviation(symbol, mesh, potential, trials=20, seed=seed),
    })
    return results, None, 0


def _command_compare(config, args, output_dir: Path) -> int:
    certificate = _certify_from_config(config)
    outcome, oracle_payload = _oracle_from_config(config, args.seed)
    consistent = outcome.count >= certificate.certified_count
    results = {
        "certified": certificate.certified_count,
        "oracle_count": outcome.count,
        "oracle_count_is_lower_bound": outcome.is_lower_bound,
        "consistent": consistent,
        "certificate": _certificate_payload(certificate),
        "oracle": oracle_payload,
    }
    _write_json(output_dir / "compare.json", config, args, "compare", results)
    _write_csv(output_dir / "compare.csv", _sweep_rows(certificate))
    if not consistent:
        print(
            f"error: oracle count {outcome.count} fell below certified {certificate.certified_count}",
            file=sys.stderr,
        )
        return 3
    return 0


def _write_json(path: Path, config, args, task, results) -> None:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    document = {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": _version(),
        "task": task,
        "seed": args.seed,
        "threads": args.threads,
        "config": config,
        "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "results": results,
    }
    path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _write_csv(path: Path, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerows(rows)
    print(f"wrote {path}")


def _version() -> str:
    from . import __version__

    return __version__


if __name__ == "__main__":
    sys.exit(main())
