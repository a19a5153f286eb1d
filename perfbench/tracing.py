"""Spans around the calls into each fermiproc module, and the per-layer
metrics derived from them.

Nothing inside the package is edited: `install` replaces the module
attributes that callers look up (for example `fermiproc.harness.propagate_grid`
or `fermiproc.propagator.expm_unitary`) with wrappers that record a span per
call. Spans are kept in memory and handed back when the worker ends.
"""

import functools
import os
import time
from collections import defaultdict

SPAN_FIELDS = ("name", "start", "end", "parent", "run_id")


class Tracer:
    """In-memory span recorder for one worker (single-threaded)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, meta]
        self._stack = []

    def wrap(self, name, fn, meta=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if meta is not None:
                span[4] = meta(args, result)
            return result

        return traced

    def records(self):
        """Spans as dicts with SPAN_FIELDS plus any per-call measurements."""
        out = []
        for name, start, end, parent, meta in self.spans:
            rec = dict(zip(SPAN_FIELDS, (name, start, end, parent, self.run_id)))
            if meta:
                rec.update(meta)
            out.append(rec)
        return out


def _grid_meta(args, result):
    dim = result[0].matrix.shape[0] if result else 0
    return {"intervals": len(result), "dim": dim}


def _file_meta(args, result):
    return {"bytes": os.path.getsize(result)}


def install(tracer):
    """Wrap every layer boundary the workloads cross, for the worker's life."""
    from fermiproc import drive, harness, observables, propagator, quadratic

    points = [
        (harness, "run_plain", "harness.run", None),
        (harness, "quadratic_trajectory", "harness.loop", None),
        (harness, "exact_trajectory", "harness.loop", None),
        (harness, "propagate_grid", "propagator.grid", _grid_meta),
        (propagator, "expm_unitary", "linalg.expm", None),
        (harness, "gibbs_correlation", "quadratic.gibbs_correlation", None),
        (harness, "correlation_entropy", "quadratic.correlation_entropy", None),
        (harness, "quadratic_observable", "quadratic.probe", None),
        (harness, "quadratic_entropy_ledger", "quadratic.ledger", None),
        (harness, "reference_scalars", "quadratic.reference_scalars", None),
        (quadratic, "reference_scalars", "quadratic.reference_scalars", None),
        (quadratic.ScalarDriveReferenceCache, "__init__", "quadratic.reference_cache", None),
        (quadratic.ScalarDriveReferenceCache, "__call__", "quadratic.reference_cache", None),
        (harness, "gibbs_state", "states.gibbs", None),
        (observables, "gibbs_state", "states.gibbs", None),
        (observables, "relative_entropy", "states.relative_entropy", None),
        (harness, "von_neumann_entropy", "states.von_neumann", None),
        (harness, "entropy_rate", "observables.entropy_rate", None),
        (harness, "expectation", "observables.expectation", None),
        (observables, "expectation", "observables.expectation", None),
        (harness, "hopping_hamiltonian", "lattice.build", None),
        (harness, "number_operator", "lattice.build", None),
        (harness, "one_body_laplacian", "lattice.build", None),
        (harness, "quadratic_fock_operator", "lattice.build", None),
        (drive, "build_one_body", "drive.build", None),
        (drive, "build_perturbation", "drive.build", None),
        (harness, "write_series_csv", "storage.write", _file_meta),
    ]
    for owner, attr, name, meta in points:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), meta))


# -- per-layer metrics -------------------------------------------------------------

ALL = ("p2_L200", "quad_L512", "exact_L8")
WALL = {w: "wall_s" for w in ALL}

#: name -> (unit, better, base, {workload: end-to-end metric the layer metric
#: should move there, or "flat" where no movement is expected}). A layer that
#: does not run on a workload reads 0 there.
LAYER_METRICS = {
    "propagator.grid_s": ("s", "lower", "time in propagate_grid",
                          {"p2_L200": "wall_s", "quad_L512": "flat"}),
    "propagator.intervals": ("count", "higher", "grid intervals propagated", {}),
    "propagator.expm_per_interval": ("ratio", "lower", "expm calls per interval",
                                     {"p2_L200": "wall_s", "quad_L512": "flat"}),
    "propagator.accept_ratio": ("ratio", "higher", "1.5 * intervals / expm calls",
                                {"p2_L200": "wall_s", "quad_L512": "flat"}),
    "propagator.held_bytes_computed": ("bytes", "lower", "intervals * dim^2 * 16 B",
                                       {"quad_L512": "peak_rss_mb",
                                        "p2_L200": "peak_rss_mb"}),
    "linalg.expm_calls": ("count", "lower", "expm_unitary calls", WALL),
    "linalg.expm_s": ("s", "lower", "time in expm_unitary", WALL),
    "linalg.expm_ms_per_call": ("ms", "lower", "per expm_unitary call", WALL),
    "harness.loop_self_s": ("s", "lower", "trajectory-loop self time (state update)",
                            {"quad_L512": "wall_s", "p2_L200": "flat"}),
    "harness.run_self_s": ("s", "lower", "run_plain self time (verdicts, manifest)",
                           {"p2_L200": "flat"}),
    "quadratic.reference_cache_s": ("s", "lower", "Chebyshev cache build and lookups",
                                    {"quad_L512": "wall_s"}),
    "quadratic.reference_scalars_calls": ("count", "lower", "direct O(L^3) evaluations",
                                          {"quad_L512": "wall_s"}),
    "quadratic.ledger_s": ("s", "lower", "time in quadratic_entropy_ledger",
                           {"quad_L512": "wall_s"}),
    "quadratic.probe_s": ("s", "lower", "time in quadratic_observable",
                          {"quad_L512": "wall_s"}),
    "quadratic.probe_calls": ("count", "lower", "probes * grid times",
                              {"quad_L512": "wall_s"}),
    "quadratic.gibbs_correlation_s": ("s", "lower", "time in gibbs_correlation",
                                      {"quad_L512": "wall_s"}),
    "states.gibbs_s": ("s", "lower", "time in gibbs_state", {"exact_L8": "wall_s"}),
    "states.gibbs_calls": ("count", "lower", "gibbs_state calls", {"exact_L8": "wall_s"}),
    "states.relative_entropy_s": ("s", "lower", "time in relative_entropy",
                                  {"exact_L8": "wall_s"}),
    "states.von_neumann_s": ("s", "lower", "time in von_neumann_entropy",
                             {"exact_L8": "wall_s"}),
    "observables.entropy_rate_s": ("s", "lower", "time in entropy_rate",
                                   {"exact_L8": "wall_s"}),
    "observables.expectation_s": ("s", "lower", "time in expectation",
                                  {"exact_L8": "wall_s"}),
    "observables.expectation_calls": ("count", "lower", "expectation calls",
                                      {"exact_L8": "wall_s"}),
    "lattice.build_s": ("s", "lower", "Fock operators and one-body Laplacian",
                        {"exact_L8": "wall_s, setup_s"}),
    "drive.build_s": ("s", "lower", "drive matrices, one-body and Fock",
                      {"exact_L8": "wall_s, setup_s"}),
    "storage.write_s": ("s", "lower", "time in write_series_csv", {"p2_L200": "flat"}),
    "storage.bytes": ("bytes", "lower", "series CSV bytes written", {"p2_L200": "flat"}),
    "trace.overhead_s": ("s", "lower", "traced wall_s - untraced median wall_s", {}),
}


def layer_metrics(spans):
    """Per-layer metrics of one traced worker (trace.overhead_s excluded).

    Times sum each span name's durations, skipping spans nested inside a span
    of the same name; self time subtracts the time covered by child spans.
    """
    total = defaultdict(float)
    count = defaultdict(int)
    self_time = defaultdict(float)
    child_time = defaultdict(float)
    intervals = held = csv_bytes = 0
    for span in spans:
        parent = span["parent"]
        dur = span["end"] - span["start"]
        if parent >= 0:
            child_time[parent] += dur
        ancestor, nested = parent, False
        while ancestor >= 0 and not nested:
            nested = spans[ancestor]["name"] == span["name"]
            ancestor = spans[ancestor]["parent"]
        if not nested:
            total[span["name"]] += dur
        count[span["name"]] += 1
        if span["name"] == "propagator.grid":
            intervals += span["intervals"]
            held += span["intervals"] * span["dim"] ** 2 * 16
        elif span["name"] == "storage.write":
            csv_bytes += span["bytes"]
    for i, span in enumerate(spans):
        self_time[span["name"]] += span["end"] - span["start"] - child_time[i]

    expm_calls = count["linalg.expm"]
    return {
        "propagator.grid_s": total["propagator.grid"],
        "propagator.intervals": intervals,
        "propagator.expm_per_interval": expm_calls / intervals if intervals else 0.0,
        "propagator.accept_ratio": 1.5 * intervals / expm_calls if expm_calls else 0.0,
        "propagator.held_bytes_computed": held,
        "linalg.expm_calls": expm_calls,
        "linalg.expm_s": total["linalg.expm"],
        "linalg.expm_ms_per_call": 1e3 * total["linalg.expm"] / expm_calls if expm_calls else 0.0,
        "harness.loop_self_s": self_time["harness.loop"],
        "harness.run_self_s": self_time["harness.run"],
        "quadratic.reference_cache_s": total["quadratic.reference_cache"],
        "quadratic.reference_scalars_calls": count["quadratic.reference_scalars"],
        "quadratic.ledger_s": total["quadratic.ledger"],
        "quadratic.probe_s": total["quadratic.probe"],
        "quadratic.probe_calls": count["quadratic.probe"],
        "quadratic.gibbs_correlation_s": total["quadratic.gibbs_correlation"],
        "states.gibbs_s": total["states.gibbs"],
        "states.gibbs_calls": count["states.gibbs"],
        "states.relative_entropy_s": total["states.relative_entropy"],
        "states.von_neumann_s": total["states.von_neumann"],
        "observables.entropy_rate_s": total["observables.entropy_rate"],
        "observables.expectation_s": total["observables.expectation"],
        "observables.expectation_calls": count["observables.expectation"],
        "lattice.build_s": total["lattice.build"],
        "drive.build_s": total["drive.build"],
        "storage.write_s": total["storage.write"],
        "storage.bytes": csv_bytes,
    }
