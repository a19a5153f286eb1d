"""`linalg.sector_map` and the exact path on it: the charge sectors spread
over threads give the serial run's outputs bit for bit, and a failure in one
sector surfaces as itself."""

import multiprocessing
import os
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fermiproc.harness as harness
import fermiproc.linalg as linalg
import fermiproc.propagator as propagator
from fermiproc.drive import KernelSpec, Perturbation, switch_on_protocol
from fermiproc.harness import (DriveConfig, GibbsConfig, IntegratorConfig, KernelConfig,
                               LatticeConfig, OutputConfig, RunConfig, time_grid)
from fermiproc.lattice import LatticeSpec
from fermiproc.linalg import sector_map
from fermiproc.states import GibbsParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _workers(monkeypatch, n):
    """Make `sector_map` see n CPUs: 1 runs every call serially in the
    calling thread, more run them through the pool on any machine."""
    monkeypatch.setattr(linalg, "sector_workers", lambda: n)


def _exact_l8():
    """The exact-path benchmark's settings: L = 8, a switch-on ramp of the
    reference kernel on sites 2-5, grid 0.1 to t = 4, tol 1e-6."""
    sites = (2, 3, 4, 5)
    kernel = harness.load_config(CONFIGS / "process1_L200.yaml").drive.kernels[0].coeffs
    spec = LatticeSpec(8, local_region=sites)
    protocol = switch_on_protocol(Perturbation([KernelSpec(1, sites, kernel)], spec),
                                  0.0, 0.05, 2.0)
    return spec, GibbsParams(1.0, 0.2), protocol, time_grid(0.0, 4.0, 0.1), 1e-6


def _refined():
    """A grid whose intervals fail the CFM4 pair test, so `_adaptive` halves
    them from the pair test's steps (and is handed the one over [a, b])."""
    spec = LatticeSpec(6, local_region=(1, 2))
    kernel = [[0.6, 0.3], [0.3, -0.5]]
    protocol = switch_on_protocol(Perturbation([KernelSpec(1, (1, 2), kernel)], spec),
                                  0.0, 0.8, 0.5)
    return spec, GibbsParams(1.2, 0.1), protocol, time_grid(0.0, 1.5, 0.5), 1e-10


def _complex():
    """A complex Hermitian drive kernel: the sector blocks are complex128."""
    spec = LatticeSpec(6, local_region=(1, 2, 3))
    kernel = [[0.5, 0.3 + 0.2j, 0.0], [0.3 - 0.2j, -0.4, 0.2], [0.0, 0.2, 0.1]]
    protocol = switch_on_protocol(Perturbation([KernelSpec(1, (1, 2, 3), kernel)], spec),
                                  0.0, 0.5, 0.4)
    return spec, GibbsParams(1.2, 0.3), protocol, time_grid(0.0, 0.8, 0.1), 1e-8


def _run(case):
    spec, params, protocol, times, tol = case
    pairs = harness.probe_site_pairs(RunConfig(LatticeConfig(spec.n_sites), GibbsConfig(1.0)),
                                     spec)
    return harness.exact_trajectory(spec, params, protocol, times, tol,
                                    harness.probe_matrices(pairs, spec, "fock"))


def _same(a, b):
    """Whether two exact trajectories are identical bit for bit."""
    return ([r.csv_row() for r in a.records] == [r.csv_row() for r in b.records]
            and a.probe_series.tobytes() == b.probe_series.tobytes()
            and a.final_state.dtype == b.final_state.dtype
            and a.final_state.tobytes() == b.final_state.tobytes()
            and a.entropy_drift == b.entropy_drift and a.integrator == b.integrator)


@pytest.mark.parametrize("case", [_exact_l8, _refined, _complex],
                         ids=["exact_L8", "refined", "complex"])
def test_pool_and_serial_exact_paths_are_identical(monkeypatch, case):
    _workers(monkeypatch, 1)
    serial = _run(case())
    _workers(monkeypatch, 3)
    pooled = _run(case())
    assert _same(serial, pooled)
    if case is _refined:
        assert pooled.integrator.refined_intervals > 0
    if case is _complex:
        assert np.iscomplexobj(pooled.final_state) and np.any(pooled.final_state.imag)


def _both_config():
    """A process I run on both paths at L = 6, short enough for tier-1."""
    return RunConfig(
        lattice=LatticeConfig(L=6, local_region=[1, 2]),
        gibbs=GibbsConfig(beta=1.2, mu=0.1),
        drive=DriveConfig(type="switch_on", amplitude=0.05, tau_r=0.25,
                          kernels=[KernelConfig(1, [1, 2], [[0.6, 0.3], [0.3, -0.5]])]),
        path="both",
        integrator=IntegratorConfig(tol=1e-9),
        output=OutputConfig(grid_step=0.05),
        seed=1,
    )


def test_pool_and_serial_both_runs_are_identical(monkeypatch):
    cfg = _both_config()
    _workers(monkeypatch, 1)
    serial = harness.execute_run(cfg)
    _workers(monkeypatch, 2)
    pooled = harness.execute_run(cfg)
    assert set(pooled.manifest["environment"]) == {
        "python", "numpy", "scipy", "fermiproc", "blas_threads", "sector_workers"}
    assert pooled.manifest["environment"]["sector_workers"] == 2
    assert serial.manifest["invariants"] == pooled.manifest["invariants"]
    assert pooled.manifest["invariants"]["oracle_equivalence"]["passed"]
    assert serial.manifest["summary"] == pooled.manifest["summary"]
    assert _same(serial.trajectories["exact"], pooled.trajectories["exact"])


def test_failure_in_one_sector_surfaces_and_the_pool_survives(monkeypatch):
    _workers(monkeypatch, 3)
    cfm4 = propagator.cfm4

    def failing(samples, dt):
        if samples[0].shape[-1] == 56:  # sectors 3 and 5 of L = 8
            raise ArithmeticError("sector fault")
        return cfm4(samples, dt)

    monkeypatch.setattr(propagator, "cfm4", failing)
    with pytest.raises(ArithmeticError, match="sector fault"):
        _run(_exact_l8())
    monkeypatch.setattr(propagator, "cfm4", cfm4)
    pooled = _run(_refined())
    _workers(monkeypatch, 1)
    assert _same(_run(_refined()), pooled)


def test_sweep_on_the_exact_path_matches_single_runs(monkeypatch, tmp_path):
    # the sweep's children share the pool from their own threads
    _workers(monkeypatch, 2)
    cfg = replace(_both_config(), path="exact",
                  output=OutputConfig(grid_step=0.05, directory=str(tmp_path)))
    values = [0.5, 1.2, 2.0]
    index = harness.run_sweep(cfg, "beta", values)
    assert [run["status"] for run in index["runs"]] == ["ok"] * len(values)
    for value, run in zip(values, index["runs"]):
        single = harness.execute_run(replace(cfg, gibbs=replace(cfg.gibbs, beta=value),
                                             output=replace(cfg.output, directory=None)))
        assert run["summary"] == single.manifest["summary"]


def test_sector_map_keeps_input_order(monkeypatch):
    _workers(monkeypatch, 3)
    dims = [1, 8, 28, 56, 70, 56, 28, 8, 1]
    out = sector_map(lambda a, k: (a.shape[0], k, threading.current_thread().name),
                     [np.zeros((d, d)) for d in dims], range(len(dims)))
    assert [(d, k) for d, k, _ in out] == list(zip(dims, range(len(dims))))
    # the largest sector runs in the calling thread, others in the pool
    names = {d: name for d, _, name in out}
    assert names[70] == threading.current_thread().name
    assert any(name.startswith("fermiproc-sector") for *_, name in out)


def test_sector_map_runs_serially_for_one_call_or_one_cpu(monkeypatch):
    here = threading.current_thread().name

    def where(a):
        return threading.current_thread().name

    _workers(monkeypatch, 4)
    assert sector_map(where, [np.eye(5)]) == [here]
    assert sector_map(where, []) == []
    _workers(monkeypatch, 1)
    assert sector_map(where, [np.eye(d) for d in (1, 4, 6, 4, 1)]) == [here] * 5


def test_sector_map_raises_a_task_failure_after_every_bin_ends(monkeypatch):
    _workers(monkeypatch, 2)
    done = []

    def task(a):
        if a.shape[0] == 70:
            raise KeyError("sector 4")
        time.sleep(0.05)  # the raise comes first, in the calling thread
        done.append(a.shape[0])
        return a.shape[0]

    with pytest.raises(KeyError, match="sector 4"):
        sector_map(task, [np.zeros((d, d)) for d in (8, 70, 56, 28)])
    # the calling thread's bin holds the 70-row task alone; the pool's bin
    # ran to its end before the raise
    assert sorted(done) == [8, 28, 56]


def test_concurrent_callers_share_the_pool(monkeypatch):
    # more bins than cores and six callers at once, switching threads often:
    # every call gets its own results in order, and every caller ends
    _workers(monkeypatch, 8)
    dims = (1, 8, 28, 8, 1)
    finished, errors = [], []

    def caller(k):
        try:
            for _ in range(20):
                out = sector_map(np.sum, [np.full((d, d), float(k)) for d in dims])
                if out != [k * d * d for d in dims]:
                    raise AssertionError(f"caller {k} got {out}")
            finished.append(k)
        except Exception as exc:  # reported below, from the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert sorted(finished) == list(range(6))


def _child_map():
    """Exit 0 when `sector_map` works in this (forked) process."""
    out = sector_map(np.sum, [np.ones((d, d)) for d in (2, 3, 4)])
    os._exit(0 if out == [4.0, 9.0, 16.0] else 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a threaded process
def test_a_forked_child_starts_its_own_pool(monkeypatch):
    # the parent's pool threads do not exist in a forked child, which would
    # otherwise wait on them forever
    _workers(monkeypatch, 2)
    sector_map(np.sum, [np.ones((2, 2))] * 2)
    child = multiprocessing.get_context("fork").Process(target=_child_map)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
