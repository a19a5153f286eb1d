"""One benchmark worker: a fresh process that sets up one workload, makes the
timed entry call once, checks its output, and writes a JSON report.

    python3 perfbench/worker.py --workload quad_L512 --seed 0 --report out.json

`--spawned-at` is the parent's `time.monotonic()` just before it started this
process, so set-up time includes interpreter start-up and imports.
`--setup-only` stops after set-up. With `--trace` every layer boundary records
spans. `--record` also writes the output tables to perfbench/reference, the
seed-0 outputs later runs are compared against.
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args):
    import numpy  # noqa: F401  (imports are part of set-up)
    import scipy  # noqa: F401
    import fermiproc  # noqa: F401

    import tracing
    import workloads

    report = {"workload": args.workload, "seed": args.seed, "ok": False, "error": None}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=args.scratch))
    try:
        prepared = workloads.prepare(args.workload, args.seed, scratch)
        tick = time.monotonic()
        if args.setup_only:
            report.update(setup_s=tick - args.spawned_at, ok=True)
            return report
        result = prepared.call()
        wall = time.monotonic() - tick
        report.update(setup_s=tick - args.spawned_at, wall_s=wall,
                      intervals=prepared.intervals, peak_rss_mb=_peak_rss_mb())
        if tracer is not None:
            spans = tracer.records()
            report["spans"] = spans
            report["layers"] = tracing.layer_metrics(spans)
        if args.record:
            traj = result.trajectories["quadratic"] if args.workload == "p2_L200" else result
            path = workloads.reference_path(args.workload)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w") as fh:
                json.dump(workloads.trajectory_table(traj), fh)
                fh.write("\n")
        checks = prepared.check(result)
        report["checks"] = checks
        failed = sorted(k for k, c in checks.items() if not c["passed"])
        report["ok"] = not failed
        if failed:
            report["error"] = "failed checks: " + ", ".join(failed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["environment"] = _environment()
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="0")
    parser.add_argument("--spawned-at", type=float, default=_STARTED)
    parser.add_argument("--scratch", default=str(HERE / "out"))
    parser.add_argument("--report", required=True)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    Path(args.scratch).mkdir(parents=True, exist_ok=True)
    try:
        report = run(args)
    except Exception:  # reported to the parent, which counts the failure
        report = {"workload": args.workload, "seed": args.seed, "ok": False,
                  "error": traceback.format_exc()}
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
