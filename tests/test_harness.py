"""Config parsing, process runs at desk scale, verification suite, sweeps, CLI."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
import yaml

import fermiproc.harness as harness
from fermiproc.harness import (ConfigError, DriveConfig, GibbsConfig, KernelConfig,
                               IntegratorConfig, LatticeConfig, OutputConfig,
                               RunConfig, execute_run, load_config, manifest_passed,
                               parse_config, recurrence_window, run_process_I,
                               run_process_II, run_sweep, run_verify, time_grid)
from fermiproc.storage import format_float, read_series_csv, write_series_csv

KERNEL = [[0.6, 0.3], [0.3, -0.5]]


def small_process1_config(tmp_path=None, path="quadratic", L=40):
    lo = L // 2 - 1
    return RunConfig(
        lattice=LatticeConfig(L=L, boundary="dirichlet", local_region=[lo, lo + 1]),
        gibbs=GibbsConfig(beta=1.0, mu=0.0),
        drive=DriveConfig(type="switch_on", amplitude=0.08, tau_r=1.0,
                          kernels=[KernelConfig(1, [lo, lo + 1], KERNEL)]),
        path=path,
        integrator=IntegratorConfig(tol=1e-8),
        output=OutputConfig(grid_step=0.05,
                            directory=str(tmp_path) if tmp_path else None),
        seed=7,
    )


# -- config ------------------------------------------------------------------

def test_parse_config_roundtrip():
    data = {
        "lattice": {"L": 6, "boundary": "periodic", "local_region": [2, 3]},
        "gibbs": {"beta": 1.5, "mu": -0.2},
        "drive": {"type": "switch_on", "amplitude": 0.1, "tau_r": 0.5,
                  "kernels": [{"degree": 1, "sites": [2, 3], "coeffs": KERNEL}]},
        "path": "exact",
        "integrator": {"tol": 1e-9},
        "output": {"grid_step": 0.1, "t_final": 1.0},
        "seed": 3,
    }
    cfg = parse_config(data)
    assert cfg.lattice.L == 6
    assert cfg.drive.kernels[0].sites == [2, 3]


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config({"lattice": {"L": 4}, "gibbs": {"beta": 1.0}, "bogus": 1})
    with pytest.raises(ConfigError, match="unknown"):
        parse_config({"lattice": {"L": 4, "sites": 3}, "gibbs": {"beta": 1.0}})


def test_required_sections():
    with pytest.raises(ConfigError, match="requires"):
        parse_config({"lattice": {"L": 4}})


def test_path_site_cap():
    from fermiproc.lattice import LatticeSpec, LatticeTooLargeError
    with pytest.raises(ConfigError, match="exact path"):
        parse_config({"lattice": {"L": 32}, "gibbs": {"beta": 1.0}, "path": "exact"})
    # the sector path refuses before it builds any Fock-space array
    with pytest.raises(LatticeTooLargeError):
        harness.exact_trajectory(LatticeSpec(13), harness.GibbsParams(1.0), None,
                                 [0.0, 0.1], 1e-8)


def test_both_path_needs_small_lattice():
    with pytest.raises(ConfigError, match="both"):
        parse_config({"lattice": {"L": 11}, "gibbs": {"beta": 1.0}, "path": "both"})
    parse_config({"lattice": {"L": 10}, "gibbs": {"beta": 1.0}, "path": "both"})


def test_quadratic_path_rejects_interaction_kernels():
    with pytest.raises(ConfigError, match="degree-1"):
        parse_config({
            "lattice": {"L": 8},
            "gibbs": {"beta": 1.0},
            "path": "quadratic",
            "drive": {"type": "switch_on", "amplitude": 0.1, "tau_r": 1.0,
                      "kernels": [{"degree": 2, "sites": [3, 4],
                                   "coeffs": np.zeros((2, 2, 2, 2)).tolist()}]},
        })


def test_load_config_yaml(tmp_path):
    text = """
lattice:
  L: 5
  boundary: dirichlet
gibbs:
  beta: 1.0
path: exact
output:
  grid_step: 0.2
"""
    p = tmp_path / "cfg.yaml"
    p.write_text(text)
    cfg = load_config(p)
    assert cfg.lattice.L == 5
    assert cfg.output.grid_step == 0.2


def test_recurrence_window():
    assert recurrence_window(200) == pytest.approx(0.8 * 200 / 2.0)


def test_streamed_steps_match_full_grid():
    # step_grid over consecutive three-point grids repeats its pair
    # computations over the whole grid exactly, on the fast path's
    # interaction-picture steps: at L = 20 every window is one pair, and
    # each piece's frame basis is the whole grid's
    from fermiproc.harness import build_protocol, lattice_spec
    from fermiproc.lattice import one_body_laplacian
    from conftest import grid_steps
    from fermiproc.quadratic import interaction_picture
    cfg = small_process1_config(L=20)
    spec = lattice_spec(cfg)
    protocol = build_protocol(cfg, spec)
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    times = time_grid(0.0, 2.3, 0.1)  # odd interval count: a lone last interval
    tol = 1e-7  # refines three late pairs only
    full = grid_steps(steps, times, tol)
    streamed = [p for k in range(0, len(times) - 1, 2)
                for p in grid_steps(steps, times[k:k + 3], tol)]
    assert len(streamed) == len(full) == 23
    assert any(p.refined for p in full) and not all(p.refined for p in full)
    for a, b in zip(streamed, full):
        assert all(np.array_equal(x, y) for x, y in zip(a.matrix, b.matrix))
        assert (a.t_start, a.t_end, a.est_error, a.refined) == \
            (b.t_start, b.t_end, b.est_error, b.refined)
    traj = harness.quadratic_trajectory(spec, harness.GibbsParams(1.0, 0.0), protocol,
                                        times, tol)
    assert traj.integrator.est_error == sum(p.est_error for p in full)
    assert traj.integrator.refined_intervals == sum(p.refined for p in full)
    # refined intervals failed the CFM4 pair test and took steps narrower than
    # one interval, and the report keeps the narrowest accepted step of all
    # intervals
    assert all(p.min_step < p.t_end - p.t_start for p in full if p.refined)
    assert traj.integrator.min_step == min(p.min_step for p in full)
    assert traj.integrator.min_step < 0.1


def test_quadratic_probes_match_quadratic_observable():
    # probes and ledger read from Gamma on the drive's rows and the probe
    # sites give quadratic_observable's sums on the whole Gamma; the last
    # probe lies outside the drive's rows
    from fermiproc.harness import (build_protocol, lattice_spec, probe_matrices,
                                   probe_site_pairs)
    from fermiproc.quadratic import quadratic_observable
    cfg = small_process1_config(L=20)
    spec = lattice_spec(cfg)
    protocol = build_protocol(cfg, spec)
    ops = probe_matrices(probe_site_pairs(cfg, spec) + [(3, 3), (2, 15)], spec,
                         "one_body")
    h0 = harness.one_body_laplacian(spec)
    times = time_grid(0.0, 1.0, 0.1)
    for k in range(1, len(times)):
        traj = harness.quadratic_trajectory(spec, harness.GibbsParams(1.0, 0.0), protocol,
                                            times[:k + 1], 1e-8, ops)
        gamma, t = traj.final_state, times[k]
        want = [quadratic_observable(gamma, w) for w in ops]
        assert np.max(np.abs(traj.probe_series[-1] - want)) <= 1e-13
        rec = traj.records[-1]
        energy = quadratic_observable(gamma, h0 + protocol.operator(t, "one_body"))
        assert abs(rec.U - energy) <= 1e-12
        assert abs(rec.q - np.trace(gamma).real) <= 1e-12


def _quadratic_peak_bytes(n_intervals):
    from fermiproc.harness import (build_protocol, lattice_spec, probe_matrices,
                                   probe_site_pairs)
    cfg = small_process1_config(L=128)
    spec = lattice_spec(cfg)
    protocol = build_protocol(cfg, spec)
    ops = probe_matrices(probe_site_pairs(cfg, spec), spec, "one_body")
    times = 5.0 + 0.05 * np.arange(n_intervals + 1)
    tracemalloc.start()
    try:
        harness.quadratic_trajectory(spec, harness.GibbsParams(1.0, 0.0), protocol,
                                     times, 1e-4, ops)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_memory_does_not_grow_with_intervals():
    # the state and the update's L x L temporaries are all a trajectory holds;
    # steps are streamed, and each is a factor of rank at most 3|R|
    matrix_bytes = 128 * 128 * 16
    short, long_ = _quadratic_peak_bytes(20), _quadratic_peak_bytes(200)
    assert long_ - short <= 2 * matrix_bytes
    assert long_ <= 20 * matrix_bytes


def _exact_peak_bytes(n_intervals):
    # the exact-path benchmark's run: L = 8, a switch-on ramp of the reference
    # kernel on sites 2-5, grid 0.1 from t = 0, tol 1e-6, the default probes
    from fermiproc.harness import build_protocol, lattice_spec, probe_matrices, probe_site_pairs
    sites = [2, 3, 4, 5]
    kernel = load_config(Path(__file__).resolve().parents[1] / "configs"
                         / "process1_L200.yaml").drive.kernels[0].coeffs
    cfg = RunConfig(lattice=LatticeConfig(L=8, local_region=sites),
                    gibbs=GibbsConfig(beta=1.0, mu=0.2),
                    drive=DriveConfig(type="switch_on", amplitude=0.05, tau_r=2.0,
                                      kernels=[KernelConfig(1, sites, kernel)]),
                    path="exact")
    spec = lattice_spec(cfg)
    protocol = build_protocol(cfg, spec)
    ops = probe_matrices(probe_site_pairs(cfg, spec), spec, "fock")
    times = 0.1 * np.arange(n_intervals + 1)
    tracemalloc.start()
    try:
        harness.exact_trajectory(spec, harness.GibbsParams(1.0, 0.2), protocol, times, 1e-6,
                                 ops)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_trajectory_memory_does_not_grow_with_intervals():
    # the sector blocks of rho and one pair test's steps are all an exact
    # trajectory holds: steps are streamed, one pair per window, and a pair
    # test forms its sectors' exponentials one step at a time
    sector_bytes = sum(math.comb(8, n) ** 2 for n in range(9)) * 16
    short, long_ = _exact_peak_bytes(20), _exact_peak_bytes(80)
    assert long_ - short <= 2 * sector_bytes


def test_health_verdicts_fail_on_corrupted_final_state(monkeypatch):
    # entropy drift and the Pauli defect of the final Gamma are verdicts of
    # every process run; the trajectory reports both from the final spectrum,
    # so a corrupted final state arrives with its own Pauli defect
    from dataclasses import replace

    from fermiproc.quadratic import pauli_defect
    cfg = small_process1_config(L=20)
    cfg.output.t_final = 0.5
    healthy = harness.run_plain(cfg).manifest["invariants"]
    assert healthy["entropy_drift"]["passed"] and healthy["pauli_defect"]["passed"]
    real = harness.quadratic_trajectory

    def corrupted(*args, **kwargs):
        traj = real(*args, **kwargs)
        shifted = traj.final_state - 0.1 * np.eye(traj.final_state.shape[0])
        return replace(traj, final=lambda: shifted, entropy_drift=1e-5,
                       pauli_defect=pauli_defect(shifted))

    monkeypatch.setattr(harness, "quadratic_trajectory", corrupted)
    result = harness.run_plain(cfg)
    invariants = result.manifest["invariants"]
    assert not invariants["pauli_defect"]["passed"]
    assert not invariants["entropy_drift"]["passed"]
    assert not result.passed


@pytest.mark.parametrize("field", ["region", "kernel", "probe"])
def test_run_plain_rejects_non_integer_sites(field):
    # a config built in Python skips validate_config: the lattice, the kernel
    # and the probes refuse non-integer sites themselves instead of truncating
    cfg = small_process1_config(L=6)
    cfg.output.t_final = 0.2
    if field == "region":
        cfg.lattice.local_region = [2.7, 3]
    elif field == "kernel":
        cfg.drive.kernels[0].sites = [2.2, 3.9]
    else:
        cfg.output.probes = [[2.5]]
    with pytest.raises(ValueError, match="integers"):
        harness.run_plain(cfg)


def test_integrator_method_validated():
    with pytest.raises(ConfigError, match="method"):
        parse_config({"lattice": {"L": 4}, "gibbs": {"beta": 1.0},
                      "integrator": {"method": "rk4"}})


def test_time_grid_validation():
    with pytest.raises(ConfigError):
        time_grid(0.0, 0.01, 0.5)


# -- process I ----------------------------------------------------------------

def test_process1_small_quadratic(tmp_path):
    cfg = small_process1_config(tmp_path)
    result = run_process_I(cfg)
    m = result.manifest
    assert "process1_decay_ratio" in m["invariants"]
    assert m["invariants"]["entropy_monotone_start"]["passed"]
    assert m["invariants"]["relative_entropy_positive"]["passed"]
    assert (tmp_path / "series.csv").exists()
    assert (tmp_path / "manifest.json").exists()
    # determinism: identical config gives bit-identical CSV
    first = (tmp_path / "series.csv").read_bytes()
    run_process_I(cfg)
    assert (tmp_path / "series.csv").read_bytes() == first


def test_process1_zero_amplitude_flat():
    cfg = small_process1_config()
    cfg.drive.amplitude = 0.0
    result = run_process_I(cfg)
    recs = result.records["quadratic"]
    assert max(r.D_probe for r in recs) <= 1e-9
    assert max(abs(r.Sdot) for r in recs) <= 1e-12


def test_process1_rejects_short_window():
    cfg = small_process1_config(L=10)
    cfg.drive.tau_r = 2.0  # window 0.4*10 = 4 < 3*tau_r = 6
    with pytest.raises(ConfigError, match="enlarge L"):
        run_process_I(cfg)


def test_process1_requires_switch_on():
    cfg = small_process1_config()
    cfg.drive.type = "periodic"
    cfg.drive.period = 1.0
    with pytest.raises(ConfigError, match="switch_on"):
        run_process_I(cfg)


def test_process1_manifest_notes_window():
    cfg = small_process1_config()
    result = run_process_I(cfg)
    assert "recurrence window" in result.manifest["notes"]["recurrence_window"]


def test_drive_certificate_in_driven_manifests_only(tmp_path):
    # a note on the paper's hypotheses, never a verdict or a summary scalar
    m = run_process_I(small_process1_config(tmp_path)).manifest
    on_disk = json.loads((tmp_path / "manifest.json").read_text())["drive"]
    assert on_disk == m["drive"]
    assert math.isfinite(on_disk["smallness"]) and on_disk["inside_hypothesis"] is False
    assert on_disk["smallness_threshold"] == pytest.approx(1 / (24 * math.pi))
    assert not any("smallness" in key for key in chain(m["invariants"], m["summary"]))
    cfg = small_process1_config()
    cfg.drive = DriveConfig()
    cfg.output.t_final = 1.0
    assert "drive" not in execute_run(cfg).manifest


def test_wide_kernel_run_records_why_smallness_is_missing():
    # sites 0 and 12 put the kernel's bumps past the smallness grid's box;
    # the run completes and the certificate says why it has no value
    cfg = small_process1_config(L=20)
    cfg.lattice.local_region = [0, 12]
    cfg.drive.kernels = [KernelConfig(1, [0, 12], KERNEL)]
    m = run_process_I(cfg).manifest
    assert "process1_decay_ratio" in m["invariants"]
    assert "box edge" in m["drive"]["smallness"]
    assert m["drive"]["inside_hypothesis"] is None
    assert m["drive"]["sup_norm"] > 0


# -- process II -----------------------------------------------------------------

def test_process2_small_quadratic():
    cfg = small_process1_config(L=48)
    cfg.drive = DriveConfig(type="periodic", amplitude=0.08, period=1.6,
                            waveform="sin",
                            kernels=[KernelConfig(1, [23, 24], KERNEL)])
    result = run_process_II(cfg)
    m = result.manifest
    d_seq = m["summary"]["cycle_distances"]
    assert len(d_seq) >= 3
    assert "process2_cycle_ratio" in m["invariants"]
    assert "process2_spearman" in m["invariants"]


def test_process2_period_refines_no_interval():
    # one period of process II's reference drive at L = 40, on its output grid
    # T/64 at tol 1e-6: the three-node Magnus moments resolve the frame phases
    # e^{i eps t}, so every pair passes the CFM4 pair test (two-node Gauss
    # sampling of the phases refined all 64 intervals)
    from fermiproc.lattice import one_body_laplacian
    from fermiproc.propagator import step_grid
    from fermiproc.quadratic import interaction_picture
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs"
                      / "process2_L200.yaml")
    sites = [18, 19, 20, 21]
    cfg.lattice = LatticeConfig(L=40, boundary="dirichlet", local_region=sites)
    cfg.drive.kernels[0].sites = sites
    spec = harness.lattice_spec(cfg)
    steps, _ = interaction_picture(one_body_laplacian(spec),
                                   harness.build_protocol(cfg, spec))
    step = cfg.drive.period / 64
    grid = [p for block in step_grid(steps, step * np.arange(65), 1e-6)
            for p in block.propagators]
    assert len(grid) == 64
    assert not any(p.refined for p in grid)
    assert all(p.min_step == p.t_end - p.t_start for p in grid)


def test_spearman_matches_scipy_with_ties(rng):
    # process II's trend statistic: average ranks for ties, as scipy's spearmanr
    from scipy.stats import spearmanr
    x = np.arange(1, 12)
    for y in (rng.normal(size=11), np.round(rng.normal(size=11)), np.r_[x[:6], x[:5]]):
        for a, b in ((x, y), (y, x), (y, y[::-1])):
            assert abs(harness._spearman(a, b) - spearmanr(a, b).statistic) <= 1e-12


def test_process2_zero_amplitude():
    cfg = small_process1_config(L=48)
    cfg.drive = DriveConfig(type="periodic", amplitude=0.0, period=1.6,
                            kernels=[KernelConfig(1, [23, 24], KERNEL)])
    result = run_process_II(cfg)
    assert max(result.manifest["summary"]["cycle_distances"]) <= 1e-9
    assert result.manifest["invariants"]["process2_cycle_ratio"]["passed"]
    assert result.manifest["invariants"]["process2_spearman"]["passed"]


def test_process2_rejects_long_period():
    cfg = small_process1_config(L=20)  # window 8
    cfg.drive = DriveConfig(type="periodic", amplitude=0.05, period=3.0,
                            kernels=[KernelConfig(1, [9, 10], KERNEL)])
    with pytest.raises(ConfigError, match="periods"):
        run_process_II(cfg)


# -- periodic reuse ---------------------------------------------------------------

PERIOD = 2 * np.pi  # grid times T k / 64 plus T often differ in their last bits


def _periodic_case(L=40):
    """A T = 2 pi drive on the two central sites of an L-site chain, as a
    config, its lattice and its protocol."""
    cfg = small_process1_config(L=L)
    lo = L // 2 - 1
    cfg.drive = DriveConfig(type="periodic", amplitude=0.08, period=PERIOD,
                            kernels=[KernelConfig(1, [lo, lo + 1], KERNEL)])
    spec = harness.lattice_spec(cfg)
    return cfg, spec, harness.build_protocol(cfg, spec)


@pytest.mark.parametrize("tol,refined", [(1e-6, 0), (1e-7, 112)], ids=["accepted", "refining"])
def test_periodic_reuse_matches_stepped_run(monkeypatch, tol, refined):
    # 3.5 periods on the process II grid T/64 at L = 40: every interval after
    # the first period is reused, whether or not its pair was refined, and
    # the ledger and probes match the run that steps every pair to 1e-12
    cfg, spec, protocol = _periodic_case()
    ops = harness.probe_matrices(harness.probe_site_pairs(cfg, spec), spec, "one_body")
    params = harness.GibbsParams(1.0, 0.0)
    times = time_grid(0.0, 3.5 * PERIOD, PERIOD / 64)
    assert len(times) == 225
    reused = harness.quadratic_trajectory(spec, params, protocol, times, tol, ops)
    step_grid = harness.step_grid
    monkeypatch.setattr(harness, "step_grid",
                        lambda steps, times, tol, period: step_grid(steps, times, tol))
    stepped = harness.quadratic_trajectory(spec, params, protocol, times, tol, ops)
    assert reused.integrator.reused_intervals == 224 - 64
    assert stepped.integrator.reused_intervals == 0
    assert reused.integrator.refined_intervals == stepped.integrator.refined_intervals == refined
    assert harness.path_deviation(reused, stepped) <= 1e-12
    assert [r.t for r in reused.records] == list(times)


def test_windows_restart_at_each_period(monkeypatch):
    # L = 200, 20 grid pairs per period: windows of 16 and 4 pairs restart at
    # each period, so every window after the first period is the one a
    # period earlier, and the last half period's window of 10 pairs reuses
    # the leading pairs of its 16-pair twin; the ledger and probes match
    # the run that steps every pair to 1e-12
    cfg, spec, protocol = _periodic_case(L=200)
    ops = harness.probe_matrices(harness.probe_site_pairs(cfg, spec), spec, "one_body")
    params = harness.GibbsParams(1.0, 0.0)
    times = time_grid(0.0, 2.5 * PERIOD, PERIOD / 40)
    reused = harness.quadratic_trajectory(spec, params, protocol, times, 1e-6, ops)
    step_grid = harness.step_grid
    monkeypatch.setattr(harness, "step_grid",
                        lambda steps, times, tol, period: step_grid(steps, times, tol))
    stepped = harness.quadratic_trajectory(spec, params, protocol, times, 1e-6, ops)
    assert (reused.integrator.windows, stepped.integrator.windows) == (5, 4)
    assert reused.integrator.reused_intervals == 100 - 40
    assert harness.path_deviation(reused, stepped) <= 1e-12


@pytest.mark.parametrize("step,reused", [(PERIOD / 64, 160), (0.1, 0)],
                         ids=["repeating", "never_repeating"])
def test_period_cache_holds_one_period(step, reused):
    # the Blocks step_grid still holds after yielding each window (each
    # alive first Propagator is one) never exceed one period's windows,
    # those that start within T of the latest, whether or not the grid's
    # times repeat one period later
    from fermiproc.propagator import step_grid
    from fermiproc.quadratic import interaction_picture
    _, spec, protocol = _periodic_case()
    steps, _ = interaction_picture(harness.one_body_laplacian(spec), protocol)
    times = time_grid(0.0, 3.5 * PERIOD, step)
    refs, starts, most, count = [], [], 0, 0
    for block in step_grid(steps, times, 1e-6, (0.0, PERIOD)):
        refs.append(weakref.ref(block.propagators[0]))
        starts.append(block.propagators[0].t_start)
        count += sum(p.reused for p in block.propagators)
        del block
        most = max(most, sum(r() is not None for r in refs))
    assert count == reused
    assert most == max(sum(s > a - PERIOD + 1e-9 for s in starts[:i + 1])
                       for i, a in enumerate(starts))


def test_periodic_both_run_passes_oracle(tmp_path):
    # both_L8's drive made periodic, over three periods: the reused fast
    # path against the exact path, which steps every pair
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "both_L8.yaml")
    cfg.drive.type, cfg.drive.period, cfg.drive.tau_r = "periodic", PERIOD, None
    cfg.integrator.tol = 1e-6  # process II's; the paths agree to 2e-9
    cfg.output = OutputConfig(grid_step=PERIOD / 64, t_final=3 * PERIOD,
                              directory=str(tmp_path))
    result = harness.run_plain(cfg)
    assert result.manifest["invariants"]["oracle_equivalence"]["passed"]
    report = result.manifest["integrator"]
    assert report["quadratic"]["reused_intervals"] == 192 - 64
    assert report["exact"]["reused_intervals"] == 0
    # the frame basis fills the L = 8 one-particle space, so each window is
    # one pair, and the widest update has its product's rank 5; the exact
    # path has neither, and steps one pair per window
    for key, value in (("window_basis_width", 8), ("max_block_rank", 5), ("windows", 96)):
        assert (report["quadratic"][key], report["exact"][key]) == (
            value, 96 if key == "windows" else None), key


# -- both-path oracle ---------------------------------------------------------

def test_both_path_oracle_small(tmp_path):
    cfg = RunConfig(
        lattice=LatticeConfig(L=5, local_region=[1, 2]),
        gibbs=GibbsConfig(beta=1.2, mu=0.1),
        drive=DriveConfig(type="switch_on", amplitude=0.05, tau_r=0.25,
                          kernels=[KernelConfig(1, [1, 2], KERNEL)]),
        path="both",
        integrator=IntegratorConfig(tol=1e-9),
        output=OutputConfig(grid_step=0.05,
                            directory=str(tmp_path)),
        seed=1,
    )
    result = execute_run(cfg)
    assert result.manifest["invariants"]["oracle_equivalence"]["passed"]
    assert (tmp_path / "series_exact.csv").exists()
    assert (tmp_path / "series_quadratic.csv").exists()


# -- sector-blocked exact path against the dense Fock oracle ---------------------

def _sector_case(n_sites, degree, drive, hop=0.3):
    """The drive on sites 1..3, with `hop` the hopping from site 2 to site 1:
    a complex `hop` makes V_1 complex Hermitian, and its sector blocks
    complex128."""
    from fermiproc.drive import (KernelSpec, Perturbation, periodic_protocol,
                                 switch_on_protocol)
    from fermiproc.lattice import LatticeSpec
    region = (1, 2, 3)
    spec = LatticeSpec(n_sites, local_region=region)
    kernels = [KernelSpec(1, region, [[0.5, hop, 0.0], [np.conj(hop), -0.4, 0.2],
                                      [0.0, 0.2, 0.1]])]
    if degree == 2:
        w2 = np.zeros((3,) * 4)
        w2[0, 1, 1, 0] = 0.7  # n_1 n_2
        w2[0, 2, 2, 1] = w2[1, 2, 2, 0] = 0.25  # hop 2 <-> 1 next to an occupied 3
        kernels.append(KernelSpec(2, region, w2))
    pert = Perturbation(kernels, spec)
    if drive == "switch_on":
        return spec, switch_on_protocol(pert, 0.0, 0.5, 0.4)
    return spec, periodic_protocol(pert, 0.8, "sin", 0.0, 0.4)


@pytest.mark.parametrize("n_sites,degree,drive,hop", [
    pytest.param(5, 1, "switch_on", 0.3, id="5-1-switch_on"),
    pytest.param(6, 2, "periodic", 0.3, id="6-2-periodic"),
    pytest.param(5, 1, "periodic", 0.3, id="5-1-periodic"),
    pytest.param(6, 2, "switch_on", 0.3, id="6-2-switch_on"),
    # complex Hermitian V_1: the exact path on complex128 blocks
    pytest.param(5, 1, "switch_on", 0.3 + 0.2j, id="5-1-switch_on-complex"),
])
def test_sector_exact_path_matches_dense_oracle(n_sites, degree, drive, hop):
    from conftest import dense_exact_trajectory
    spec, protocol = _sector_case(n_sites, degree, drive, hop)
    params = harness.GibbsParams(1.2, 0.3)
    times = time_grid(0.0, 0.8, 0.1)
    pairs = harness.probe_site_pairs(RunConfig(LatticeConfig(n_sites), GibbsConfig(1.0)),
                                     spec)
    ops = harness.probe_matrices(pairs, spec, "fock")
    sector = harness.exact_trajectory(spec, params, protocol, times, 1e-8, ops)
    dense = dense_exact_trajectory(spec, params, protocol, times, 1e-8, ops)
    assert harness.path_deviation(sector, dense) <= 1e-12
    assert np.max(np.abs(sector.final_state - dense.final_state)) <= 1e-12
    assert sector.integrator.refined_intervals == dense.integrator.refined_intervals
    # the Gibbs probe values at any lambda and the drive norms, from the blocks
    for lam in ([0.0], [0.4], [-1.3]):
        assert np.max(np.abs(sector.gibbs_probes(lam) - dense.gibbs_probes(lam))) <= 1e-12
    assert len(sector.drive_norms) == len(dense.drive_norms) == 1
    assert np.max(np.abs(np.subtract(sector.drive_norms, dense.drive_norms))) <= 1e-12


@pytest.mark.parametrize("hop", [0.3, 0.3 + 0.2j], ids=["real", "complex"])
def test_stacked_reads_match_per_operator_expectations(monkeypatch, hop):
    # every row's U, <V_j>_rho, <V_j>_ref and probe values, and the Gibbs
    # probe values, from the stacked reads equal `expectation` summed over
    # the same sector blocks: float64 blocks for the real drive, complex128
    # for the complex one, with a current probe i(a_1^* a_2 - a_2^* a_1)
    from fermiproc.lattice import one_body_laplacian, quadratic_blocks
    from fermiproc.observables import expectation
    spec, protocol = _sector_case(5, 1, "switch_on", hop)
    params = harness.GibbsParams(1.2, 0.3)
    pairs = harness.probe_site_pairs(RunConfig(LatticeConfig(5), GibbsConfig(1.0)), spec)
    ops = harness.probe_matrices(pairs, spec, "fock")
    if isinstance(hop, complex):
        current = np.zeros((5, 5), dtype=complex)
        current[1, 2], current[2, 1] = 1j, -1j
        ops.append(quadratic_blocks(spec, current))
    (v,) = [c.blocks() for c in protocol.components]
    probes = ops
    assert {b.dtype for b in v} == {np.dtype(type(hop))}

    def trace(rho, blocks):
        return sum(expectation(r, b) for r, b in zip(rho, blocks))

    # the states in grid order: the reference states are formed a chunk of
    # grid times ahead of their rows, after the initial Gibbs state
    references, states, rows = [], [], []
    gibbs, reads, ledger = harness.sector_gibbs_state, harness._sector_reads, harness.ledger_row

    def recorded_gibbs(h, p):
        references.append((h, gibbs(h, p)))
        return references[-1][1]

    def recorded_reads(stacks, rho, which=slice(None)):
        if which == slice(None):
            states.append(rho)
        return reads(stacks, rho, which)

    def recorded_ledger(t, energy, q, drive, g, gradient, *args):
        rows.append((energy, drive, gradient))
        return ledger(t, energy, q, drive, g, gradient, *args)

    monkeypatch.setattr(harness, "sector_gibbs_state", recorded_gibbs)
    monkeypatch.setattr(harness, "_sector_reads", recorded_reads)
    monkeypatch.setattr(harness, "ledger_row", recorded_ledger)
    traj = harness.exact_trajectory(spec, params, protocol, time_grid(0.0, 0.8, 0.1), 1e-8,
                                    ops)
    assert len(references) == 10 and len(states) == 9
    rows = [(*row, h, rho, ref.rho)
            for row, (h, ref), rho in zip(rows, references[1:], states)]
    assert len(rows) == len(traj.probe_series) == 9
    for (energy, drive, gradient, h, rho, ref), values in zip(rows, traj.probe_series):
        assert abs(energy - trace(rho, h)) <= 1e-13
        assert abs(drive[0] - trace(rho, v)) <= 1e-13
        assert abs(gradient[0] - trace(ref, v)) <= 1e-13
        assert np.max(np.abs(values - [trace(rho, a) for a in probes])) <= 1e-13
    h0 = quadratic_blocks(spec, one_body_laplacian(spec))
    for lam in (0.0, 0.4):
        ref = gibbs(tuple(a + lam * b for a, b in zip(h0, v)), params).rho
        assert np.max(np.abs(traj.gibbs_probes([lam])
                             - [trace(ref, a) for a in probes])) <= 1e-13


@pytest.mark.parametrize("degree,drive", [(1, "switch_on"), (2, "periodic")])
def test_sector_saturation_coefficient_matches_dense(monkeypatch, degree, drive):
    # sdot_bound_coefficient from each path's drive norms equals the dense
    # entropy_rate_bound with that path's N: Fock space (n on sector n, never
    # built as a 2^L x 2^L matrix) and, for the degree-1 drive, the one-body
    # path (N = I)
    from fermiproc.lattice import number_operator
    from fermiproc.observables import entropy_rate_bound
    spec, protocol = _sector_case(6, degree, drive)
    params = harness.GibbsParams(1.2, 0.3)
    t = 0.3
    lam_dot = protocol.lam_dot(t)
    times = time_grid(0.0, 0.2, 0.1)
    cases = [("fock", harness.exact_trajectory, number_operator(spec))]
    if degree == 1:
        cases.append(("one_body", harness.quadratic_trajectory, np.eye(spec.n_sites)))

    def no_dense_n(*args, **kwargs):
        raise AssertionError("a dense number operator was built")

    monkeypatch.setattr(harness, "number_operator", no_dense_n)
    for rep, simulate, n_op in cases:
        dense = entropy_rate_bound(params, protocol.d_operator(t, rep), lam_dot,
                                   protocol.operator(t, rep), n_op)
        traj = simulate(spec, params, protocol, times, 1e-8)
        value = harness.sdot_bound_coefficient(traj, params.beta, lam_dot)
        assert dense > 0
        assert abs(value - dense) <= 1e-12, rep


def _exact_process1_config(directory=None):
    return RunConfig(
        lattice=LatticeConfig(L=6, local_region=[0, 1]),
        gibbs=GibbsConfig(beta=4.0, mu=0.2),
        drive=DriveConfig(type="switch_on", amplitude=0.05, tau_r=0.3,
                          kernels=[KernelConfig(1, [0, 1], KERNEL)]),
        path="exact", output=OutputConfig(grid_step=0.1, directory=directory))


def test_exact_process1_builds_the_hopping_hamiltonian_once(monkeypatch):
    # process I's verdict reads its Gibbs target and drive norms from the
    # trajectory: no second Fock-space H_0. The one H_0 is its sector blocks,
    # second-quantized from the one-body Laplacian; the dense H_0 is never built
    cfg = _exact_process1_config()
    calls = []
    real = harness.one_body_laplacian
    monkeypatch.setattr(harness, "one_body_laplacian",
                        lambda spec: calls.append(spec) or real(spec))
    monkeypatch.setattr(harness, "hopping_hamiltonian", _no_dense)
    result = run_process_I(cfg)
    assert len(calls) == 1
    assert result.manifest["summary"]["sdot_bound_coefficient"] > 0
    assert all(np.isfinite(r.D_probe) for r in result.records["exact"])


def _no_dense(*args, **kwargs):
    raise AssertionError("a dense Fock operator was built")


#: the builders of dense 2^L x 2^L Fock operators, by module and name
DENSE_BUILDERS = [("fermiproc.lattice", "quadratic_fock_operator"),
                  ("fermiproc.lattice", "monomial_matrix"),
                  ("fermiproc.drive", "build_perturbation"),
                  ("fermiproc.harness", "quadratic_fock_operator"),
                  ("fermiproc.harness", "hopping_hamiltonian"),
                  ("fermiproc.harness", "number_operator")]


def test_exact_path_builds_no_dense_operator(monkeypatch, tmp_path):
    # with every dense Fock builder raising, the exact path runs from its
    # sector blocks alone, bit for bit as it does with them: a degree-1 and
    # a degree-2 drive with the default probes, an exact process I run, and
    # the norm of a degree-2 kernel
    def trajectories():
        out = []
        for n_sites, degree, drive in ((5, 1, "switch_on"), (6, 2, "periodic")):
            spec, protocol = _sector_case(n_sites, degree, drive)
            pairs = harness.probe_site_pairs(RunConfig(LatticeConfig(n_sites), GibbsConfig(1.0)),
                                             spec)
            out.append(harness.exact_trajectory(spec, harness.GibbsParams(1.2, 0.3), protocol,
                                                time_grid(0.0, 0.5, 0.1), 1e-8,
                                                harness.probe_matrices(pairs, spec, "fock")))
        return out

    def process(name):
        cfg = _exact_process1_config(str(tmp_path / name))
        result = harness.execute_run(cfg)
        return (result, (tmp_path / name / "series.csv").read_bytes(),
                {k: result.manifest[k] for k in ("integrator", "invariants", "summary")})

    def quartic_norm():
        return _sector_case(6, 2, "switch_on")[1].components[0].norm()

    free = trajectories(), process("free"), quartic_norm()
    for module, name in DENSE_BUILDERS:
        monkeypatch.setattr(f"{module}.{name}", _no_dense)
    patched = trajectories(), process("patched"), quartic_norm()
    for a, b in zip(free[0], patched[0]):
        assert ([r.csv_row() for r in a.records] == [r.csv_row() for r in b.records]
                and a.probe_series.tobytes() == b.probe_series.tobytes()
                and a.final_state.tobytes() == b.final_state.tobytes()
                and a.drive_norms == b.drive_norms)
    assert free[1][0].passed and patched[1][0].passed
    assert free[1][1:] == patched[1][1:]
    assert free[2] == patched[2] > 0


class _HandMadeComponent:
    """A drive component given by its monomials (c, creators, annihilators),
    which no kernel builds and nothing checks before the exact path reads
    its sector blocks."""

    def __init__(self, n_sites, terms):
        self.n_sites, self.terms = n_sites, terms

    def blocks(self):
        from fermiproc.lattice import FockBasis
        return FockBasis(self.n_sites).blocks(self.terms)


def test_sector_exact_path_refuses_off_sector_drive(monkeypatch):
    from dataclasses import replace
    spec, protocol = _sector_case(5, 1, "switch_on")
    # 0.3 (a_2^* + a_2)
    off_sector = replace(protocol, components=(
        _HandMadeComponent(5, [(0.3, (2,), ()), (0.3, (), (2,))]),))

    def no_steps(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(harness, "step_grid", no_steps)
    monkeypatch.setattr(harness, "sector_gibbs_state", no_steps)
    with pytest.raises(ValueError, match="couples charge sectors"):
        harness.exact_trajectory(spec, harness.GibbsParams(1.0), off_sector,
                                 time_grid(0.0, 0.2, 0.1), 1e-8)


# -- exact-path relative entropy -------------------------------------------------

def _exact_switch_on(beta, mu, t_final):
    return RunConfig(
        lattice=LatticeConfig(L=6, local_region=[2, 3]),
        gibbs=GibbsConfig(beta=beta, mu=mu),
        drive=DriveConfig(type="switch_on", amplitude=0.1, tau_r=0.5,
                          kernels=[KernelConfig(1, [2, 3], KERNEL)]),
        path="exact",
        output=OutputConfig(grid_step=0.1, t_final=t_final),
    )


def test_exact_low_temperature_run_completes():
    # at beta = 8 the Gibbs reference has weights below the entropy floor, so
    # relS must not come from diagonalizing it (it raised SupportError)
    result = harness.run_plain(_exact_switch_on(8.0, 0.0, 2.0))
    assert min(r.relS for r in result.records["exact"]) >= -1e-10
    assert result.manifest["invariants"]["relative_entropy_positive"]["passed"]


def test_exact_relative_entropy_matches_klein_route():
    # relS = beta*(U - mu*q - G) - S_vN(rho) is tr(rho ln rho - rho ln sigma)
    from fermiproc.lattice import hopping_hamiltonian, number_operator
    from fermiproc.states import gibbs_state, relative_entropy
    cfg = _exact_switch_on(1.0, 0.3, 1.0)
    spec = harness.lattice_spec(cfg)
    params = harness.GibbsParams(cfg.gibbs.beta, cfg.gibbs.mu)
    protocol = harness.build_protocol(cfg, spec)
    times = time_grid(0.0, cfg.output.t_final, cfg.output.grid_step)
    traj = harness.exact_trajectory(spec, params, protocol, times, 1e-8)
    h_t = hopping_hamiltonian(spec) + protocol.operator(times[-1], "fock")
    sigma = gibbs_state(h_t, number_operator(spec), params).rho
    klein = relative_entropy(traj.final_state, sigma)
    assert klein > 1e-6  # the drive moved the state off the reference
    assert abs(traj.records[-1].relS - klein) <= 1e-10


# -- verification ----------------------------------------------------------------

@pytest.fixture(scope="module")
def verify_manifest():
    cfg = RunConfig(lattice=LatticeConfig(L=5), gibbs=GibbsConfig(beta=1.1, mu=0.2),
                    path="both", seed=11)
    return run_verify(cfg)


def test_verify_all_pass(verify_manifest):
    failed = [k for k, v in verify_manifest["invariants"].items() if not v["passed"]]
    assert not failed, f"failed invariants: {failed}"
    assert manifest_passed(verify_manifest)


def test_verify_covers_expected_suites(verify_manifest):
    assert set(verify_manifest["invariants"]) == {
        "car_relations", "hopping_charge_commute", "sector_block_structure",
        "gauge_multiplicative", "propagator_unitarity", "cocycle_law",
        "dyson_direct_agreement", "free_energy_conservation",
        "heisenberg_schrodinger_duality", "klein_positivity",
        "entropy_unitary_invariance", "entropy_rate_two_route", "first_law_residual",
        "charge_conservation", "entropy_monotone_start", "oracle_equivalence",
        "pauli_bounds", "smallness_homogeneity"}


def test_verify_detects_corrupted_propagator(monkeypatch):
    # fault injection: a propagator that violates unitarity must be named
    import fermiproc.propagator as prop

    real_propagate = harness.propagate

    def corrupted(h, s, t, tol=1e-8):
        out = real_propagate(h, s, t, tol)
        bad = out.matrix.copy()
        bad[0, 0] += 1e-5
        return prop.Propagator(bad, out.t_start, out.t_end, out.method, out.est_error)

    monkeypatch.setattr(harness, "propagate", corrupted)
    cfg = RunConfig(lattice=LatticeConfig(L=4), gibbs=GibbsConfig(beta=1.0))
    manifest = run_verify(cfg)
    assert not manifest["invariants"]["propagator_unitarity"]["passed"]
    assert not manifest_passed(manifest)


# -- sweeps ----------------------------------------------------------------------

def test_sweep_beta(tmp_path):
    cfg = small_process1_config(tmp_path)
    index = run_sweep(cfg, "beta", [0.5, 1.0, 2.0])
    assert len(index["runs"]) == 3
    for outcome in index["runs"]:
        assert outcome["status"] == "ok"
        assert outcome["summary"]["delta_S_final"] >= -1e-8
    assert (tmp_path / "sweep_index.json").exists()
    assert (tmp_path / "beta_0.5" / "series.csv").exists()


def test_sweep_single_value_matches_single_run(tmp_path):
    cfg = small_process1_config(tmp_path / "sweep")
    index = run_sweep(cfg, "amplitude", [0.08])
    single = run_process_I(small_process1_config(tmp_path / "single"))
    swept = index["runs"][0]["summary"]["deviation_ratio"]
    assert swept == pytest.approx(single.manifest["summary"]["deviation_ratio"], rel=1e-12)


def test_sweep_records_child_failure(tmp_path):
    cfg = small_process1_config(tmp_path)
    cfg.drive.tau_r = 3.0
    # amplitude sweep at tau_r too long for the window: every child fails
    index = run_sweep(cfg, "amplitude", [0.05])
    assert index["runs"][0]["status"] == "error"
    assert "enlarge L" in index["runs"][0]["error"]


def test_sweep_axis_validation(tmp_path):
    cfg = small_process1_config()
    with pytest.raises(ConfigError, match="axis"):
        run_sweep(cfg, "temperature", [1.0])


def test_sweep_rejects_values_sharing_a_directory(tmp_path):
    # 1 and 1.0000001 both print as beta_1: refused before any child runs
    with pytest.raises(ConfigError, match="beta_1"):
        run_sweep(small_process1_config(tmp_path), "beta", [1.0, 1.0000001])
    assert not any(tmp_path.iterdir())


# -- storage ----------------------------------------------------------------------

def test_series_csv_roundtrip(tmp_path):
    from fermiproc.observables import ProcessRecord
    recs = [ProcessRecord(t=0.1 * k, U=1.0 / (k + 1), q=2.0, S=0.5, Sdot=1e-17,
                          relS=0.0, work=-0.25, G=3.3, D_probe=float("nan"))
            for k in range(3)]
    p = write_series_csv(tmp_path / "series.csv", recs)
    back = read_series_csv(p)
    assert len(back) == 3
    assert back[1].U == recs[1].U  # 17 significant digits round-trip doubles
    assert math.isnan(back[0].D_probe)


def test_format_float_17_digits():
    x = 1.0 / 3.0
    assert float(format_float(x)) == x


# -- CLI -------------------------------------------------------------------------

def write_cfg(tmp_path, **overrides):
    data = {
        "lattice": {"L": 40, "local_region": [19, 20]},
        "gibbs": {"beta": 1.0},
        "path": "quadratic",
        "output": {"grid_step": 0.05, "t_final": 2.0},
    }
    data.update(overrides)
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump(data))
    return p


def test_cli_run(tmp_path, capsys):
    from fermiproc.cli import main
    cfg = write_cfg(tmp_path)
    code = main(["run", str(cfg), "--out", str(tmp_path / "out"), "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    assert (tmp_path / "out" / "series.csv").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    from fermiproc.cli import main
    p = tmp_path / "bad.yaml"
    p.write_text("lattice: {L: 99}\ngibbs: {beta: 1.0}\npath: exact\n")
    assert main(["run", str(p)]) == 2
    assert main(["run", str(tmp_path / "missing.yaml")]) == 2


_SWITCH_ON = {"type": "switch_on", "amplitude": 0.1, "tau_r": 0.5}


@pytest.mark.parametrize("section, value", [
    ("lattice", {"L": 6, "local_region": [7]}),
    ("lattice", {"L": 6, "boundary": "open"}),
    ("drive", dict(_SWITCH_ON, kernels=[{"degree": 1, "sites": [0, 1],
                                         "coeffs": KERNEL}])),
    ("drive", dict(_SWITCH_ON, kernels=[{"degree": 1, "sites": [2, 3],
                                         "coeffs": [[1.0, 0.0, 0.0]] * 3}])),
    ("output", {"probes": [[9]]}),
    ("output", {"probes": [[-1]]}),
    ("output", {"probes": []}),
    ("lattice", {"L": 6.0}),
    ("lattice", {"L": 6, "local_region": [2.7, 3]}),
    ("drive", dict(_SWITCH_ON, kernels=[{"degree": 1, "sites": [2.2, 3.9],
                                         "coeffs": KERNEL}])),
    ("output", {"probes": [[2.5]]}),
    ("integrator", {"tol": -1e-8}),
    ("integrator", {"tol": "tight"}),
    ("integrator", {"method": "dyson"}),
    ("gibbs", {"beta": math.inf}),
    ("gibbs", {"beta": 1.0, "mu": math.nan}),
    ("drive", {"type": "periodic", "amplitude": 0.1, "period": "long",
               "kernels": [{"degree": 1, "sites": [2, 3], "coeffs": KERNEL}]}),
    ("seed", "x"),
    ("lattice", {"L": 6, "local_region": []}),
    ("gibbs", {"beta": True}),
    ("gibbs", {"beta": 1.0, "mu": True}),
], ids=["region_off_lattice", "unknown_boundary", "kernel_off_region",
        "kernel_shape", "probe_off_lattice", "probe_negative", "probes_empty",
        "float_size", "float_region_site", "float_kernel_site", "float_probe_site",
        "negative_tol", "string_tol", "removed_method_key", "infinite_beta",
        "nan_mu", "string_period", "string_seed", "empty_region", "bool_beta", "bool_mu"])
def test_cli_malformed_config_exit_code(tmp_path, capsys, section, value):
    # malformed configs are configuration errors (exit 2, one line), never
    # tracebacks, hangs (a negative tol never meets its budget) or silently
    # reinterpreted input; verify is the command that draws from the seed
    from fermiproc.cli import main
    data = {"lattice": {"L": 6, "local_region": [2, 3]}, "gibbs": {"beta": 1.0},
            "path": "exact", section: value}
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(data))
    assert main(["verify" if section == "seed" else "run", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_cli_norm(tmp_path, capsys):
    from fermiproc.cli import main
    kfile = tmp_path / "kern.json"
    kfile.write_text(json.dumps({
        "terms": [{"degree": 1, "sites": [0, 1],
                   "coeffs": [[1e-5, 0.0], [0.0, -1e-5]]}],
        "profile_terms": [{"profile": "hermite0", "ndim": 1, "amplitude": 1e-6}],
    }))
    code = main(["norm", str(kfile), "--points", "256"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "1/(24*pi)" in out


def _norm_of(tmp_path, capsys, spec):
    from fermiproc.cli import main
    kfile = tmp_path / "kern.json"
    kfile.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    code = main(["norm", str(kfile), "--points", "256"])
    return code, capsys.readouterr()


def test_cli_norm_weights_by_abs_sup_scale(tmp_path, capsys):
    # the aggregate takes |sup_scale|, so a sign flip cannot pass a large kernel
    outputs = []
    for sup_scale in (1.0, -1.0):
        code, captured = _norm_of(tmp_path, capsys, {
            "profile_terms": [{"profile": "hermite0", "ndim": 1}], "sup_scale": sup_scale})
        assert code == 1
        outputs.append([line for line in captured.out.splitlines()
                        if line.startswith("aggregate")])
    # hermite0's exact norm is 1, weighted by 2^5 * 1 * |sup_scale|
    assert outputs[0] == outputs[1]
    assert float(outputs[0][0].split()[4]) == pytest.approx(32.0, rel=1e-3)


@pytest.mark.parametrize("spec", [
    {"profile_terms": [{"profile": "lorentz", "ndim": 1}]},
    {"terms": [{"degree": 1, "sites": [0, 1], "coeffs": [[1.0, 0.0, 0.0]]}]},
    '{"terms": [',
], ids=["unknown_profile", "coeffs_shape", "not_json"])
def test_cli_norm_malformed_kernel_file(tmp_path, capsys, spec):
    code, captured = _norm_of(tmp_path, capsys, spec)
    assert code == 2
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1


def test_cli_sweep(tmp_path, capsys):
    from fermiproc.cli import main
    cfg = write_cfg(tmp_path)
    code = main(["sweep", str(cfg), "--axis", "beta", "--values", "0.8,1.2",
                 "--out", str(tmp_path / "sw")])
    assert code == 0
    assert (tmp_path / "sw" / "sweep_index.json").exists()


@pytest.mark.parametrize("axis, values", [("beta", "abc"), ("beta", "0,inf"),
                                          ("mu", "0.1,nan")])
def test_cli_sweep_refuses_bad_values(tmp_path, capsys, axis, values):
    # a value that is not a number, beta <= 0 or a non-finite value: one
    # config error line and exit 2, before any child starts
    from fermiproc.cli import main
    cfg = write_cfg(tmp_path, lattice={"L": 4}, path="exact")
    assert main(["sweep", str(cfg), "--axis", axis, "--values", values,
                 "--out", str(tmp_path / "sw")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "sw").exists()


def test_cli_path_override(tmp_path, capsys):
    from fermiproc.cli import main
    cfg = write_cfg(tmp_path, lattice={"L": 5, "local_region": [1, 2]})
    code = main(["run", str(cfg), "--path", "both"])
    assert code == 0
    out = capsys.readouterr().out
    assert "oracle_equivalence" in out


def test_cli_failed_verdict_exit_code(tmp_path, capsys):
    # small-window process I cannot meet the reference decay bound; the run
    # completes, records the failed verdict, and exits 1
    from fermiproc.cli import main
    cfg = write_cfg(tmp_path, drive={
        "type": "switch_on", "amplitude": 0.08, "tau_r": 1.0,
        "kernels": [{"degree": 1, "sites": [19, 20], "coeffs": KERNEL}]},
        output={"grid_step": 0.05})
    assert main(["run", str(cfg)]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_verify(tmp_path, capsys):
    from fermiproc.cli import main
    cfg = write_cfg(tmp_path, lattice={"L": 4}, path="exact")
    code = main(["verify", str(cfg)])
    assert code == 0
    assert "[PASS] car_relations" in capsys.readouterr().out


def test_harness_import_leaves_scipy_stats_and_special_out():
    # importing a run's modules loads neither scipy.stats nor scipy.special:
    # each costs set-up time and memory in every run
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import sys, fermiproc.cli, fermiproc.harness; print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.stats', 'scipy.special'))))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- benchmark tracer ------------------------------------------------------------

def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps fermiproc functions by name, and a renamed or
    # deleted one raises AttributeError there. It runs in a child process:
    # its wrappers stay for the life of the process that installs them.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       str(root / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer('t'))"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
