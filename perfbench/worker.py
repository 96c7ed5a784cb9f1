"""One pass of a workload in a fresh interpreter; started by ``run.py``.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED INPUTS OUT_DIR REPORT [--trace|--setup-only]``

Set-up is the import of ``shellbound.cli`` and the writing of the
workload's inputs; the report's ``ready`` is the ``time.monotonic()``
reading when set-up ends, which the parent compares with the reading it
took before starting this process. The timed part calls
``shellbound.cli.main`` once per job, with ``--threads 1`` and the
workload seed, and ends with the last call. Results are checked after
the timed part, and with ``--trace`` the per-layer metrics are computed
from the spans after it too. ``--setup-only`` stops after set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv) -> int:
    workload, seed, inputs, out_dir, report_path = argv[:5]
    mode = argv[5] if len(argv) > 5 else None
    pin = {var: os.environ.get(var) for var in BLAS_PIN}
    sys.path.insert(0, str(ROOT / "src"))

    import shellbound.cli as cli

    import workloads

    out_dir = Path(out_dir)
    jobs = workloads.write_inputs(workload, Path(inputs))
    ready = time.monotonic()
    if mode == "--setup-only":
        Path(report_path).write_text(json.dumps({"ready": ready}) + "\n")
        return 0

    tracer = None
    if mode == "--trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    exits = []
    sink = io.StringIO()
    start = time.perf_counter()
    for name, command in jobs:
        argv_job = command + ["--output", (out_dir / name).as_posix(), "--seed", seed, "--threads", "1"]
        try:
            with contextlib.redirect_stdout(sink):
                exits.append(cli.main(argv_job))
        except Exception:  # a crashing job is a failed job, not a crashed benchmark
            traceback.print_exc()
            exits.append(None)
    wall = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import checks

    references = checks.load_references()[workload]
    outcomes = []
    for (name, command), code in zip(jobs, exits):
        document = None
        task = "compare" if command[0] == "compare" else json.loads(Path(command[1]).read_text())["task"]
        result_file = out_dir / name / f"{task}.json"
        if result_file.exists():
            document = json.loads(result_file.read_text())
        outcomes.append({"job": name, "exit": code,
                         "problems": checks.check_job(references[name], code, document)})

    report = {"ready": ready, "wall_s": wall, "peak_rss_kb": peak_rss_kb,
              "jobs": outcomes, "software": software(pin)}
    if tracer is not None:
        tracer.uninstall()
        per_job = [tracing.layer_metrics(spans) for spans in tracing.split_by_root(tracer.spans)]
        report["layers"] = tracing.layer_metrics(tracer.spans)
        report["layers_per_job"] = dict(zip((name for name, _ in jobs), per_job))
        spans = [{"name": n, "start": a, "end": b, "parent": p} for n, a, b, p, _ in tracer.spans]
        Path(report_path).with_name("spans.json").write_text(json.dumps(spans) + "\n")
    Path(report_path).write_text(json.dumps(report, indent=1) + "\n")
    return 0


def software(pin) -> dict:
    import numpy
    import scipy

    import shellbound

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "shellbound.HAVE_EXTENSION": shellbound.HAVE_EXTENSION,
        "blas_thread_pin": pin,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
