"""Batch front end: configured experiments with machine-readable outputs.

Commands
--------
``shellbound run <config.json>``
    Execute the task named in the config. Exit status 0 on success, 2
    when a certification search ends without a negative-definite trial
    form, 1 on errors.
``shellbound compare <config.json>``
    Run the variational certification and the grid oracle on the same
    problem and check ``oracle_count >= certified``. Exit status 0 when
    it holds or the oracle count is flagged as a lower bound, even if the
    search found no negative-definite trial form; 3 when a settled count
    falls short (a bug by the variational inequality); 1 on errors.

Both commands accept ``--output <dir>``, ``--threads <k>`` and
``--seed <u64>``, and write ``<task>.json`` (``compare.json`` for
``compare``) plus ``<task>.csv`` for the tasks with trial-form rows.
Identical config + seed + thread count reproduces byte-identical JSON
output.

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
  "delta_levels": float}``; ``box_edge``, ``delta_levels`` positive, finite.
- ``point_test``: ``{"n_points": int, "tolerance": float, "sets": int}``;
  ``n_points`` and ``sets`` are at least 1, ``tolerance`` finite and >= 0.
- ``output``: default output directory (overridden by ``--output``).

Every ``int`` above rejects booleans and non-integral numbers.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import warnings
from pathlib import Path

SCHEMA_VERSION = 1
# kind -> (constructor name in ``symbols`` / ``potentials``, parameter
# names); the constructor is looked up on its module at call time
SYMBOL_KINDS = {
    "roton": ("roton", ("delta", "mu", "p0")),
    "bcs": ("bcs", ("mu", "beta")),
    "mexican-hat": ("mexican_hat", ("p0",)),
    "custom-radial": ("custom_radial", ("radii", "values")),
}
POTENTIAL_KINDS = {
    "none": ("zero", ()),
    "gaussian-well": ("gaussian_well", ("c", "sigma")),
    "ball-well": ("ball_well", ("c", "radius")),
    "gaussian-dimple-mix": ("gaussian_dimple_mix", ("c1", "sigma1", "c2", "sigma2")),
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    # BLAS/OpenMP pools size themselves when numpy loads, and importing
    # this module has already loaded numpy through shellbound/__init__,
    # so these reach only pools started later (ROADMAP.md, item 7)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(args.threads)

    from .errors import ConfigurationError, ToolkitError

    # warnings print as one line like the errors; the filters still apply
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            config = _load_config(args.config)
            output_dir = Path(args.output or _need(config, "output", None, Path, Path(".")))
            output_dir.mkdir(parents=True, exist_ok=True)
            task = "compare" if args.command == "compare" else config.get("task")
            runnable = tuple(name for name in TASKS if name != "compare")
            if args.command == "run" and task not in runnable:
                raise ConfigurationError(f"config key 'task' must be one of {', '.join(runnable)}")
            results, rows, status = TASKS[task](config, args.seed)
            _write_json(output_dir / f"{task}.json", config, args, task, results)
            if rows is not None:
                _write_csv(output_dir / f"{task}.csv", rows)
        except (ToolkitError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if status == 3:
        print(
            f"error: oracle count {results['oracle_count']} fell below certified {results['certified']}",
            file=sys.stderr,
        )
    return status


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
    known = {
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


def _need(block, name, path, kind=float, default=None):
    """``kind(block[name])``, or ``default`` when the key is absent and a default is given.

    A missing required key or a value ``kind`` rejects raises
    ``ConfigurationError`` naming the key; ``path`` is None at the root.
    """
    from .errors import ConfigurationError

    key = f"{path}.{name}" if path else name
    if name not in block:
        if default is None:
            raise ConfigurationError(f"missing config key '{key}'")
        return default
    try:
        return kind(block[name])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"config key '{key}' is malformed: {exc}") from exc


def _integer(value) -> int:
    """A ``_need`` kind for integer keys: ``int(value)``, but no boolean or fraction."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _count(value) -> int:
    """A ``_need`` kind for counts that must be at least 1."""
    value = _integer(value)
    if value < 1:
        raise ValueError(f"expected at least 1, got {value}")
    return value


def _construct(module, kinds, path, kind, block, dimension):
    """``module.<constructor>(*params, dimension)`` for ``kind`` by the ``kinds`` table."""
    from .errors import ConfigurationError

    params = _block(block, "params", required=False)
    if kind not in kinds:
        raise ConfigurationError(f"unknown {path}.kind '{kind}'")
    constructor, names = kinds[kind]
    # custom-radial's profile samples are lists, every other parameter a float
    value_kind = list if kind == "custom-radial" else float
    values = [_need(params, name, f"{path}.params", value_kind) for name in names]
    return getattr(module, constructor)(*values, dimension)


def _build_symbol(config):
    from . import symbols

    block = _block(config, "symbol")
    kind = _need(block, "kind", "symbol", str)
    dimension = _need(block, "dimension", "symbol", _integer, 2)
    return _construct(symbols, SYMBOL_KINDS, "symbol", kind, block, dimension)


def _build_potential(config, dimension, required=True):
    from . import potentials
    from .errors import ConfigurationError

    block = _block(config, "potential", required=required)
    if not block:
        return None
    kind = _need(block, "kind", "potential", str)
    if kind != "tabulated":
        return _construct(potentials, POTENTIAL_KINDS, "potential", kind, block, dimension)
    params = _block(block, "params", required=False)
    loaded = potentials.tabulated_from_file(_need(params, "path", "potential.params", str))
    if loaded.dimension != dimension:
        raise ConfigurationError(
            f"potential table dimension {loaded.dimension} does not match symbol dimension {dimension}"
        )
    return loaded


def _scalar_problem(config):
    from . import surface

    symbol = _build_symbol(config)
    potential = _build_potential(config, symbol.dimension)
    surface_block = _block(config, "surface")
    resolution = _need(surface_block, "resolution", "surface", _integer)
    _, radius = symbol.find_minimum()
    mesh = surface.build_mesh(radius, symbol.dimension, resolution)
    return symbol, potential, mesh, surface_block


def _spectrum_payload(operator):
    from . import surface_operator as so

    threshold = so._default_threshold(operator)
    return {
        "mesh_size": operator.mesh.size,
        "surface_radius": operator.mesh.radius,
        "eigenvalues": [float(v) for v in operator.eigenvalues],
        "negative_count": so.count_negative(operator, threshold),
        "threshold": threshold,
    }


def _task_surface_spectrum(config, seed):
    from . import surface_operator as so

    symbol, potential, mesh, _ = _scalar_problem(config)
    operator = so.assemble(mesh, potential)
    minimum, _ = symbol.find_minimum()
    results = _spectrum_payload(operator)
    results["potential"] = {"kind": potential.kind, "params": potential.params}
    results["symbol_minimum"] = minimum
    return results, None, 0


def _task_bound_count(config, seed):
    from . import surface, surface_operator as so

    symbol, potential, mesh, surface_block = _scalar_problem(config)
    coarse = so.assemble(mesh, potential)
    resolution = _need(surface_block, "resolution", "surface", _integer)
    fine = so.assemble(surface.build_mesh(mesh.radius, mesh.dimension, 2 * resolution), potential)
    threshold = so._default_threshold(coarse)
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


def _certify(config, symbol, potential, mesh, surface_block):
    from . import rayleigh_ritz

    rr = _block(config, "rayleigh_ritz")
    return rayleigh_ritz.certify(
        symbol, potential, mesh,
        _need(rr, "n_states", "rayleigh_ritz", _integer),
        _need(rr, "eps_schedule", "rayleigh_ritz", lambda values: [float(e) for e in values],
              rayleigh_ritz.DEFAULT_SCHEDULE),
        half_width_fraction=_need(surface_block, "half_width_fraction", "surface", float, 0.25),
        transverse_order=_need(rr, "transverse_order", "rayleigh_ritz", _integer, 12),
    )


def _task_rayleigh_ritz(config, seed):
    certificate = _certify(config, *_scalar_problem(config))
    status = 0 if certificate.certified else 2
    return _certificate_payload(certificate), _sweep_rows(certificate), status


def _task_point_test(config, seed):
    import numpy as np

    from . import surface_operator as so

    symbol = _build_symbol(config)
    potential = _build_potential(config, symbol.dimension)
    block = _block(config, "point_test")
    n_points = _need(block, "n_points", "point_test", _count)
    tolerance = _need(block, "tolerance", "point_test", float, 1e-12)
    sets = _need(block, "sets", "point_test", _count, 1)
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


def _count_oracle(config, seed, symbol, potential):
    from . import direct_oracle

    block = _block(config, "oracle")
    k_max = _need(block, "k_max", "oracle", _integer, 16)
    ham = direct_oracle.build_hamiltonian(
        symbol, potential,
        _need(block, "box_edge", "oracle"),
        _need(block, "grid", "oracle", _integer),
        _need(block, "delta_levels", "oracle", float, 3.0),
    )
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
    symbol = _build_symbol(config)
    potential = _build_potential(config, symbol.dimension, required=False)
    _, payload = _count_oracle(config, seed, symbol, potential)
    return payload, None, 0


def _task_spin_orbit(config, seed):
    from . import spin_orbit, surface
    from .errors import ConfigurationError

    block = _block(config, "spin_orbit")
    kind = _need(block, "kind", "spin_orbit", str)
    alpha = _need(block, "alpha", "spin_orbit")
    if kind not in ("rashba", "dresselhaus"):
        raise ConfigurationError(f"unknown spin_orbit.kind '{kind}'")
    symbol = getattr(spin_orbit, kind)(alpha)
    potential = _build_potential(config, 2)
    surface_block = _block(config, "surface")
    minimum, radius = symbol.find_minimum()
    mesh = surface.build_mesh(radius, 2, _need(surface_block, "resolution", "surface", _integer))
    operator = spin_orbit.assemble_spin_kernel(symbol, mesh, potential)
    results = _spectrum_payload(operator)
    results.update({
        "kind": kind,
        "alpha": alpha,
        "band_minimum": minimum,
        "circle_radius": radius,
        "gauge_deviation": spin_orbit.gauge_deviation(symbol, mesh, potential, seed=seed),
    })
    return results, None, 0


def _task_compare(config, seed):
    """Certificate and oracle count on one symbol, potential and mesh; status 3 if they clash."""
    symbol, potential, mesh, surface_block = _scalar_problem(config)
    certificate = _certify(config, symbol, potential, mesh, surface_block)
    outcome, oracle_payload = _count_oracle(config, seed, symbol, potential)
    # a flagged count is only a lower bound, so falling short contradicts nothing
    consistent = outcome.is_lower_bound or outcome.count >= certificate.certified_count
    results = {
        "certified": certificate.certified_count,
        "oracle_count": outcome.count,
        "oracle_count_is_lower_bound": outcome.is_lower_bound,
        "consistent": consistent,
        "certificate": _certificate_payload(certificate),
        "oracle": oracle_payload,
    }
    return results, _sweep_rows(certificate), 0 if consistent else 3


# task name -> (config, seed) -> (results, CSV rows or None, exit status);
# ``run`` takes every task but ``compare``, which has its own command
TASKS = {
    "surface-spectrum": _task_surface_spectrum,
    "bound-count": _task_bound_count,
    "rayleigh-ritz": _task_rayleigh_ritz,
    "point-test": _task_point_test,
    "oracle": _task_oracle,
    "spin-orbit": _task_spin_orbit,
    "compare": _task_compare,
}


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
