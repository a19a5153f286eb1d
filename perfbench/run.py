"""fermiproc benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload quad_L512 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one table

Each run starts fresh worker processes (perfbench/worker.py) one after
another: a few that only set up (imports, config, assembly), then timed ones
until `--seconds` is spent, at least one. A timed worker sets up its workload,
makes the entry call once and checks the output. The run reports medians over
its workers. With `--trace 1` the timed workers alternate between untraced and
traced; the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A full result with provenance,
every worker's report and the traced spans goes to perfbench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("p2_L200", "quad_L512", "exact_L8")
END_TO_END = {  # name -> unit
    "wall_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_WORKERS = 4  # plus the timed workers' own set-up, for the setup_s median
RUN_DEADLINE_S = 170  # a worker still running then is killed and counts as failed
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: BLAS threads per worker unless the caller sets them: one thread keeps
#: timings steady on a shared machine and is within nproc everywhere
DEFAULT_THREADS = "1"


def _git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed, env):
    revision = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain") if revision else None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: env.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
        "workload_seed": seed,
    }


def run_worker(workload, seed, mode, run_id, env, scratch, timeout):
    """One fresh worker; mode is "setup", "plain" or "traced"."""
    report = Path(scratch) / f"worker-{run_id}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--run-id", run_id, "--scratch", str(scratch),
           "--report", str(report)]
    if mode != "plain":
        cmd.append("--setup-only" if mode == "setup" else "--trace")
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "mode": mode, "error": f"timeout after {timeout:.0f} s"}
    duration = time.monotonic() - spawned
    try:
        with open(report) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {"ok": False, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result.update(mode=mode, duration_s=duration)
    return result


def measure(workload, seed, seconds, trace):
    """SETUP_WORKERS set-up-only workers, then timed workers (alternating
    plain and traced with `trace`) until `seconds` is spent, at least one of
    each timed kind. Returns every worker's report."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, DEFAULT_THREADS)
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    reports = []
    with tempfile.TemporaryDirectory(prefix="workers-", dir=OUT) as scratch:
        def spawn(mode):
            timeout = max(1.0, RUN_DEADLINE_S - (time.monotonic() - start))
            rep = run_worker(workload, seed, mode, f"{workload}-{seed}-{len(reports)}",
                             env, scratch, timeout)
            reports.append(rep)
            return rep.get("duration_s", timeout)

        for _ in range(0 if trace else SETUP_WORKERS):
            spawn("setup")
        modes = ("plain", "traced") if trace else ("plain",)
        timed = longest = 0
        while True:
            longest = max(longest, spawn(modes[timed % len(modes)]))
            timed += 1
            elapsed = time.monotonic() - start
            if timed >= len(modes) and elapsed + longest > min(seconds, RUN_DEADLINE_S):
                break
    return reports, provenance(seed, env)


def summarize(reports, trace):
    ok = [r for r in reports if r["ok"]]
    plain = [r for r in ok if r["mode"] == "plain"]
    setups = [r["setup_s"] for r in ok if r["mode"] != "traced"]
    summary = {"attempted": len(reports), "failed": len(reports) - len(ok)}
    summary["ops_failed"] = summary["failed"] / summary["attempted"]
    if plain:
        summary["end_to_end"] = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "steps_per_s": statistics.median(r["intervals"] / r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setups),
        }
        summary["samples"] = len(plain)
    traced = [r for r in ok if r["mode"] == "traced"]
    if trace and traced and plain:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - summary["end_to_end"]["wall_s"])
        summary["per_layer"] = {
            name: {"value": layers[name], "unit": spec[0], "base": spec[2]}
            for name, spec in tracing.LAYER_METRICS.items()
        }
    return summary


def write_result(workload, seed, trace, reports, prov, summary):
    env = next((r["environment"] for r in reports if "environment" in r), None)
    path = OUT / f"{workload}-seed{seed}-trace{int(bool(trace))}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload, "provenance": {**prov, "worker": env},
                   "summary": summary, "workers": reports}, fh)
        fh.write("\n")
    return path


def run_one(workload, seed, seconds, trace):
    reports, prov = measure(workload, seed, seconds, trace)
    summary = summarize(reports, trace)
    path = write_result(workload, seed, trace, reports, prov, summary)
    for rep in reports:
        if not rep["ok"]:
            print(f"{workload}: worker failed: {rep['error']}", file=sys.stderr)
    e2e = summary.get("end_to_end", {})
    line = "  ".join(f"{k}={v:.6g} {END_TO_END[k]}" for k, v in e2e.items())
    print(f"{workload} seed={seed}: {line}  ops_failed={summary['ops_failed']:.3g}"
          f" ({summary['failed']}/{summary['attempted']})")
    if workload == "quad_L512" and e2e:
        print(f"{workload}: projected_1e4_s={1e4 / e2e['steps_per_s']:.1f} s "
              "(10^4 steps at this steps_per_s; informational)")
    print(f"{workload}: result written to {path.relative_to(ROOT)}")
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fermiproc").is_dir() or not (ROOT / "configs").is_dir():
        print(f"no fermiproc source tree at {ROOT}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {name: run_one(name, args.seed, args.seconds, args.trace) for name in names}

    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    metrics = {}
    for name, s in summaries.items():
        prefix = f"{name}." if args.workload == "all" else ""
        if args.trace:
            layers = s.get("per_layer", {})
            metrics.update({prefix + k: {"value": v["value"], "unit": v["unit"]}
                            for k, v in layers.items()})
        else:
            metrics.update({prefix + k: {"value": v, "unit": END_TO_END[k]}
                            for k, v in s.get("end_to_end", {}).items()})
    correct = failed == 0 and all(
        ("per_layer" if args.trace else "end_to_end") in s for s in summaries.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
