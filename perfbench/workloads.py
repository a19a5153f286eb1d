"""The benchmark's reference workloads: inputs from a seed, the timed entry
call, and the correctness checks applied to its outputs.

Every workload drives the reference 4x4 one-body kernel of `configs/` on four
central sites. Seed 0 uses that kernel as is; any other seed perturbs it by a
random real-symmetric matrix (entries ~ 0.02 * N(0, 1)) and rescales the result
to the reference kernel's spectral norm. Fully random kernels change the
integrator's refinement work by up to 1.8x between seeds (15.5 to 27.25 Taylor
exponentials per interval on the periodic grid), which would make seed-to-seed
spread measure the kernel rather than the program.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

KERNEL_PERTURBATION = 0.02

# bounds of the correctness gate applied to every timed run
ENTROPY_DRIFT_BOUND = 1e-7
CHARGE_DRIFT_BOUND = 1e-8
PAULI_BOUND = 1e-9
REFERENCE_TOL = 1e-7  # seed 0 only: ledger and probes against perfbench/reference

P2_PERIODS = 2  # drive periods of the L=200 periodic run
QUAD_T_START = 30.0  # saturated segment of the L=512 switch-on run
QUAD_INTERVALS = 150
EXACT_T_FINAL = 4.0


def workload_kernel(reference, seed):
    """The seed's drive kernel: the reference itself at seed 0."""
    reference = np.asarray(reference, dtype=float)
    if seed == 0:
        return reference
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=reference.shape)
    kernel = reference + KERNEL_PERTURBATION * 0.5 * (noise + noise.T)
    return kernel * (np.linalg.norm(reference, 2) / np.linalg.norm(kernel, 2))


def _seeded_config(H, name, seed):
    cfg = H.load_config(CONFIGS / name)
    for k in cfg.drive.kernels:
        k.coeffs = workload_kernel(k.coeffs, seed).tolist()
    return cfg


@dataclass
class Prepared:
    """A workload after set-up: `call()` is the timed entry call and
    `check(result)` returns the correctness checks of its output."""

    call: Callable
    intervals: int
    check: Callable


def prepare(name, seed, scratch_dir):
    """Load the config and assemble the inputs of workload `name`."""
    from fermiproc import harness as H
    from fermiproc.states import GibbsParams

    if name == "p2_L200":
        cfg = _seeded_config(H, "process2_L200.yaml", seed)
        # the output grid of process II: T/8 phase samples, each subdivided so
        # the step does not exceed the configured grid_step
        phase = cfg.drive.period / 8.0
        step = phase / math.ceil(phase / cfg.output.grid_step)
        cfg.output.grid_step = step
        cfg.output.t_final = P2_PERIODS * cfg.drive.period
        cfg.output.directory = str(scratch_dir)
        intervals = int(round(cfg.output.t_final / step))
        return Prepared(lambda: H.run_plain(cfg), intervals,
                        lambda result: _check_p2(H, cfg, name, seed, result))

    if name == "quad_L512":
        cfg = _seeded_config(H, "process1_L512.yaml", seed)
        times = QUAD_T_START + cfg.output.grid_step * np.arange(QUAD_INTERVALS + 1)
        rep = "one_body"
        runner = H.quadratic_trajectory
    elif name == "exact_L8":
        sites = [2, 3, 4, 5]
        ref = H.load_config(CONFIGS / "process1_L200.yaml").drive.kernels[0].coeffs
        cfg = H.parse_config({
            "lattice": {"L": 8, "local_region": sites},
            "gibbs": {"beta": 1.0, "mu": 0.2},
            "drive": {"type": "switch_on", "amplitude": 0.05, "tau_r": 2.0,
                      "kernels": [{"degree": 1, "sites": sites,
                                   "coeffs": workload_kernel(ref, seed).tolist()}]},
            "path": "exact",
            "integrator": {"tol": 1e-6},
            "output": {"grid_step": 0.1},
        })
        times = H.time_grid(0.0, EXACT_T_FINAL, cfg.output.grid_step)
        rep = "fock"
        runner = H.exact_trajectory
    else:
        raise ValueError(f"unknown workload {name!r}")

    spec = H.lattice_spec(cfg)
    params = GibbsParams(cfg.gibbs.beta, cfg.gibbs.mu)
    protocol = H.build_protocol(cfg, spec)
    ops = H.probe_matrices(H.probe_site_pairs(cfg, spec), spec, rep)
    tol = cfg.integrator.tol
    return Prepared(lambda: runner(spec, params, protocol, times, tol, ops),
                    len(times) - 1,
                    lambda traj: _check_trajectory(name, seed, traj, rep))


# -- correctness ----------------------------------------------------------------

def _bounded(value, bound):
    value = float(value)
    return {"value": value, "bound": bound, "passed": bool(value <= bound)}


def _check_trajectory(name, seed, traj, rep):
    from fermiproc.quadratic import pauli_defect

    q0 = traj.records[0].q
    checks = {
        "entropy_drift": _bounded(traj.entropy_drift, ENTROPY_DRIFT_BOUND),
        "charge_drift": _bounded(max(abs(r.q - q0) for r in traj.records),
                                 CHARGE_DRIFT_BOUND),
    }
    if rep == "one_body":
        checks["pauli_defect"] = _bounded(pauli_defect(traj.final_state), PAULI_BOUND)
    if seed == 0:
        checks["reference_deviation"] = _bounded(
            reference_deviation(name, traj), REFERENCE_TOL)
    return checks


def _check_p2(H, cfg, name, seed, result):
    from fermiproc.storage import read_series_csv

    traj = result.trajectories[cfg.path]
    checks = _check_trajectory(name, seed, traj, "one_body")
    out = Path(cfg.output.directory)
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    rows = len(read_series_csv(out / "series.csv"))
    invariants_ok = (H.manifest_passed(manifest) and bool(manifest["invariants"])
                     and rows == len(traj.times))
    checks["manifest_invariants"] = {"value": float(not invariants_ok), "bound": 0.0,
                                     "passed": invariants_ok}
    return checks


def trajectory_table(traj):
    """Ledger columns (the CSV fields) and the probe series, as plain lists."""
    from fermiproc.observables import ProcessRecord

    return {
        "columns": list(ProcessRecord.CSV_FIELDS),
        "ledger": [list(r.csv_row()) for r in traj.records],
        "probes": np.asarray(traj.probe_series).tolist(),
    }


def reference_path(name):
    return REFERENCE_DIR / f"{name}_seed0.json"


def reference_deviation(name, traj):
    """Largest absolute deviation from the recorded seed-0 outputs.

    NaN matches NaN (the probe deviation column is NaN without a target); a
    shape mismatch or a one-sided NaN counts as an infinite deviation.
    """
    with open(reference_path(name)) as fh:
        ref = json.load(fh)
    got = trajectory_table(traj)
    worst = 0.0
    for key in ("ledger", "probes"):
        a = np.asarray(got[key], dtype=float)
        b = np.asarray(ref[key], dtype=float)
        if a.shape != b.shape or np.any(np.isnan(a) != np.isnan(b)):
            return math.inf
        both = ~np.isnan(a)
        if both.any():
            worst = max(worst, float(np.max(np.abs(a[both] - b[both]))))
    return worst
