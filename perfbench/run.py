"""End-to-end and per-layer benchmark of the shellbound CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload certify-radial --seed 1 --seconds 40 --trace 0

Each pass runs the workload's job list through ``shellbound.cli.main``
in a fresh interpreter (``worker.py``), started with
``OMP/OPENBLAS/MKL_NUM_THREADS=1`` in its environment because the CLI's
``--threads`` applies only after numpy has loaded. Passes run one after
another, a closed loop with one client, until the next one would end
after ``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics, medians over the passes:

- ``wall_s``: first CLI call to the end of the last, set-up excluded;
- ``setup_s``: process start to ready-to-run (``import shellbound.cli``
  and writing the inputs), also sampled by a few processes that stop
  there;
- ``peak_rss_mb``: the pass process's ``ru_maxrss``.

The host's speed drifts by more than the bounds over minutes, so the
parent process times the host-speed probe of ``probe.py`` before the
first process and after each one, and scales each process's ``wall_s``
and ``setup_s`` by ``probe.REFERENCE_S`` over the mean of the readings
on either side of it: the reported times are seconds on a host where the
probe takes ``probe.REFERENCE_S``. The unscaled medians and the probe
readings are printed too.

Untraced pass ``i`` gives the CLI the seed ``pass_seed(seed, i)`` (pass 0
gets ``--seed`` itself), so a run's median spans several oracle start
blocks; the same ``--seed`` always gives the same passes.

``--trace 1`` alternates untraced and traced passes, all with ``--seed``,
and reports the per-layer metrics of ``metrics.json`` (medians over the
traced passes) plus ``trace.overhead_s``, the median traced minus the
median untraced ``wall_s``, both scaled as above. It also requires the traced results JSON and
CSV files to be byte-identical to the untraced ones.

Every job's results are checked against ``references.json``; a job that
raises, exits non-zero or disagrees is counted in ``failed``. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give
each metric's median, quartiles and sample count and the machine and
software the run used. Working files go to ``.perfbench_work/`` in the
current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench_work")
DEADLINE_S = 170.0
SETUP_ONLY = 3  # extra set-up-only processes per run, for more setup_s samples
BLAS_PIN = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pass_seed(seed, index):
    """The CLI seed of untraced pass ``index``: a fixed function of the workload seed."""
    return (seed + index * 0x9E3779B97F4A7C15) % 2**64


def run_pass(workload, seed, pass_dir, mode, deadline):
    """One worker process; returns its report with ``setup_s`` added.

    ``mode`` is None, ``--trace`` or ``--setup-only``.
    """
    report_path = pass_dir / "report.json"
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
               (pass_dir.parent / "inputs").as_posix(), (pass_dir / "out").as_posix(),
               report_path.as_posix()] + ([mode] if mode else [])
    env = dict(os.environ, **BLAS_PIN, PYTHONHASHSEED="0")
    pass_dir.mkdir(parents=True)
    spawned = time.monotonic()
    try:
        done = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"pass in {pass_dir} ran past the {DEADLINE_S:.0f} s deadline") from exc
    if done.returncode != 0 or not report_path.exists():
        raise BenchmarkError(f"worker exited with {done.returncode}:\n{done.stderr[-4000:]}")
    report = json.loads(report_path.read_text())
    report["setup_s"] = report["ready"] - spawned
    report["dir"] = pass_dir
    return report


def outputs(pass_dir: Path, job) -> dict[str, bytes]:
    """Every results file one job of a pass wrote, by file name."""
    out = pass_dir / "out" / job
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def machine(seed) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "shellbound" / "cli.py").is_file():
        print(f"error: no shellbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)  # before numpy loads, so the probe uses one thread as the passes do
    import probe

    speed = probe.Probe()
    readings = [speed()]

    def scaled(report):
        """Time the probe after a pass and record the pass's scale factor."""
        readings.append(speed())
        report["scale"] = 2 * probe.REFERENCE_S / (readings[-2] + readings[-1])
        return report

    seed = args.seed % 2**64
    started = time.monotonic()
    deadline = started + DEADLINE_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)

    setups, passes, traced = [], [], []
    try:
        if not args.trace:
            setups = [scaled(run_pass(args.workload, seed, work / f"setup{i}", "--setup-only", deadline))
                      for i in range(SETUP_ONLY)]
        looping = time.monotonic()
        while True:
            index = len(passes) + len(traced)
            if args.trace and index % 2:
                traced.append(scaled(run_pass(args.workload, seed, work / f"pass{index}", "--trace", deadline)))
            else:
                passes.append(scaled(run_pass(args.workload, seed if args.trace else pass_seed(seed, index),
                                              work / f"pass{index}", None, deadline)))
            now = time.monotonic()
            if now + (now - looping) / (index + 1) > started + args.seconds and index >= args.trace:
                break
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for report in traced:
        for job in report["jobs"]:
            if outputs(report["dir"], job["job"]) != outputs(passes[0]["dir"], job["job"]):
                job["problems"].append("traced results differ from the untraced ones")
    jobs = [(report["dir"].name, job) for report in passes + traced for job in report["jobs"]]
    problems = [f"{where} {job['job']}: {p}" for where, job in jobs for p in job["problems"]]
    failed = sum(1 for _, job in jobs if job["problems"])

    specs = json.loads((HERE / "metrics.json").read_text())
    units = {spec["name"]: spec["unit"] for spec in specs["end_to_end"] + specs["per_layer"]}
    if args.trace:
        samples = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
        samples["trace.overhead_s"] = [statistics.median(r["wall_s"] * r["scale"] for r in traced)
                                       - statistics.median(r["wall_s"] * r["scale"] for r in passes)]
    else:
        samples = {
            "wall_s": [r["wall_s"] * r["scale"] for r in passes],
            "setup_s": [r["setup_s"] * r["scale"] for r in setups + passes],
            "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in passes],
        }

    info = dict(machine(seed), **passes[0]["software"], workload=args.workload, trace=args.trace)
    print("machine: " + json.dumps(info, sort_keys=True))
    q1, q3 = quartiles(readings)
    print(f"host probe median {statistics.median(readings):.6g} s (quartiles {q1:.6g}..{q3:.6g}, "
          f"n={len(readings)}; reference {probe.REFERENCE_S} s); unscaled medians: "
          f"wall_s {statistics.median(r['wall_s'] for r in passes):.6g} s, "
          f"setup_s {statistics.median(r['setup_s'] for r in setups + passes):.6g} s")
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        print(f"{name:40s} median {statistics.median(values):.6g} {units[name]}"
              f"  (quartiles {q1:.6g}..{q3:.6g}, n={len(values)})")
    for job, layers in (traced[len(traced) // 2]["layers_per_job"] if traced else {}).items():
        share = layers["potentials.kernel_matrix_s"] / (layers["rayleigh_ritz.certify_s"] or 1.0)
        print(f"job {job}: kernel_matrix_s/certify_s {share:.3f}, "
              f"lobpcg.chunks {layers['direct_oracle.lobpcg.chunks']}, "
              f"converged_frac {layers['direct_oracle.converged_frac']:.4g}")
    print(f"failed_frac {failed}/{len(jobs)} = {failed / len(jobs):.3g}")
    for problem in problems:
        print("problem: " + problem)

    result = {
        "correct": not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values), "unit": units[name]}
                    for name, values in samples.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
