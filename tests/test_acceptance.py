"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 10 and 11 execute
the full-scale reference processes (several minutes each); criterion 13
measures representative segments of the L = 512 run and extrapolates the
10^4-step wall time.
"""

import math
import time

import numpy as np
import pytest

from fermiproc.drive import KernelSpec, Perturbation, switch_on_protocol
from fermiproc.harness import (DriveConfig, GibbsConfig, IntegratorConfig,
                               KernelConfig, LatticeConfig, OutputConfig,
                               RunConfig, build_protocol, car_defect, charge_drift,
                               entropy_gap, exact_trajectory, first_law_residual,
                               klein_minimum, lattice_spec, path_deviation,
                               probe_matrices, probe_site_pairs,
                               propagator_law_defects, quadratic_trajectory,
                               recurrence_window, run_process_I, run_process_II,
                               smallness_homogeneity_defect, time_grid,
                               two_route_entropy_rate_defect)
from fermiproc.lattice import (LatticeSpec, LatticeTooLargeError,
                               hopping_hamiltonian, number_operator)
from fermiproc.propagator import TimeDependentHamiltonian
from fermiproc.smallness import kernel_norm
from fermiproc.states import GibbsParams, gibbs_state, von_neumann_entropy


def report(number, name, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} ({detail}; {elapsed:.1f} s)")
    assert passed, f"criterion {number} ({name}): {detail}"


KERNEL4 = np.array([[0.8, 0.4, 0.0, 0.0],
                    [0.4, -0.5, 0.3, 0.0],
                    [0.0, 0.3, 0.6, 0.2],
                    [0.0, 0.0, 0.2, -0.7]])


def reference_process1_config(L=200, tol=1e-6):
    lo = L // 2 - 2
    region = [lo, lo + 1, lo + 2, lo + 3]
    return RunConfig(
        lattice=LatticeConfig(L=L, local_region=region),
        gibbs=GibbsConfig(beta=1.0, mu=0.0),
        drive=DriveConfig(type="switch_on", amplitude=0.05, tau_r=2.0,
                          kernels=[KernelConfig(1, region, KERNEL4.tolist())]),
        path="quadratic",
        integrator=IntegratorConfig(tol=tol),
        output=OutputConfig(grid_step=0.1),
        seed=1,
    )


def reference_process2_config(L=200):
    cfg = reference_process1_config(L)
    region = cfg.lattice.local_region
    cfg.drive = DriveConfig(type="periodic", amplitude=0.05, period=6.0,
                            waveform="sin",
                            kernels=[KernelConfig(1, region, KERNEL4.tolist())])
    return cfg


@pytest.fixture(scope="module")
def l6_trajectory():
    """Driven L=6 run: 10^3 output steps at grid h = 1e-3 (criteria 3,5,6,7,8)."""
    spec = LatticeSpec(6, local_region=(2, 3))
    params = GibbsParams(1.2, 0.2)
    pert = Perturbation([KernelSpec(1, (2, 3), np.array([[0.6, 0.3], [0.3, -0.5]]))], spec)
    protocol = switch_on_protocol(pert, 0.0, 0.25, 0.15)
    times = time_grid(0.0, 1.0, 1e-3)
    traj = exact_trajectory(spec, params, protocol, times, 1e-8)
    return spec, params, protocol, traj


@pytest.fixture(scope="module")
def process1_result():
    return run_process_I(reference_process1_config())


@pytest.fixture(scope="module")
def process2_result():
    return run_process_II(reference_process2_config())


def test_criterion_01_car_conformance():
    t0 = time.time()
    worst = car_defect(8)
    elapsed = time.time() - t0
    report(1, "CAR conformance L=1..8", worst <= 1e-12 and elapsed < 10.0,
           f"max anticommutator defect {worst:.2e}", elapsed)


def test_criterion_02_propagator_laws(rng):
    t0 = time.time()
    spec = LatticeSpec(4, local_region=(1, 2))
    pert = Perturbation([KernelSpec(1, (1, 2), np.array([[0.5, 0.2], [0.2, -0.4]]))], spec)
    protocol = switch_on_protocol(pert, 0.0, 0.7, 0.4)
    mids = [float(rng.uniform(0.3, 1.7)) for _ in range(3)]
    unit, cocycle, dy, dy_bound = propagator_law_defects(spec, protocol, 2.0, mids, 1e-8,
                                                         0.3 * pert.fock())
    elapsed = time.time() - t0
    ok = unit <= 1e-9 and cocycle <= 1e-7 and dy <= dy_bound and elapsed < 60.0
    report(2, "propagator laws", ok,
           f"unitarity {unit:.2e}, cocycle {cocycle:.2e}, dyson-direct {dy:.2e}",
           elapsed)


def test_criterion_03_entropy_invariance(l6_trajectory):
    t0 = time.time()
    spec, params, protocol, _ = l6_trajectory
    h0 = hopping_hamiltonian(spec)
    n_op = number_operator(spec)
    from fermiproc.propagator import propagate_grid
    times = time_grid(0.0, 1.0, 1e-3)
    rho = gibbs_state(h0, n_op, params).rho
    s0 = von_neumann_entropy(rho)
    tdh = TimeDependentHamiltonian(h0, protocol, 0.0, "fock")
    drift = 0.0
    for step in propagate_grid(tdh, times, 1e-8):
        rho = step.matrix @ rho @ step.matrix.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        drift = max(drift, abs(von_neumann_entropy(rho) - s0))
    elapsed = time.time() - t0
    report(3, "entropy unitary invariance (1000 steps, L=6)",
           drift <= 1e-7 and elapsed < 300.0, f"max |S(t)-S(t0)| = {drift:.2e}",
           elapsed)


def test_criterion_04_klein_positivity():
    t0 = time.time()
    worst = klein_minimum(np.random.default_rng(4), 1000, 64)
    elapsed = time.time() - t0
    report(4, "Klein positivity (1000 pairs, dim <= 64)",
           worst >= -1e-10 and elapsed < 30.0, f"min value {worst:.2e}", elapsed)


def test_criterion_05_second_law_start(l6_trajectory, process1_result,
                                       process2_result):
    t0 = time.time()
    worst = min(entropy_gap(records) for records in (
        [l6_trajectory[3].records] + list(process1_result.records.values())
        + list(process2_result.records.values())))
    elapsed = time.time() - t0
    report(5, "second law start S(t) >= S(t0)", worst >= -1e-8,
           f"min S(t)-S(t0) = {worst:.2e} over all reference runs", elapsed)


def test_criterion_06_two_route_entropy_rate(l6_trajectory):
    t0 = time.time()
    spec, params, protocol, traj = l6_trajectory
    # route agreement: formula vs energy/charge/grand-potential decomposition
    worst_pair = two_route_entropy_rate_defect(spec, params, protocol, traj.times[::100],
                                               1e-8)
    # numeric derivative of the recorded S at h = 1e-3
    s = np.array([r.S for r in traj.records])
    sdot = np.array([r.Sdot for r in traj.records])
    numeric = (s[2:] - s[:-2]) / (2e-3)
    worst_fd = float(np.max(np.abs(numeric - sdot[1:-1])))
    elapsed = time.time() - t0
    ok = worst_pair <= 1e-8 and worst_fd <= 1e-5 and elapsed < 300.0
    report(6, "two-route entropy rate", ok,
           f"route gap {worst_pair:.2e}, numeric dS/dt gap {worst_fd:.2e}", elapsed)


def test_criterion_07_first_law(l6_trajectory):
    t0 = time.time()
    _, params, _, traj = l6_trajectory
    residual = first_law_residual(traj.records, params)
    elapsed = time.time() - t0
    report(7, "first law residual (L=6, h=1e-3)", residual <= 1e-4,
           f"|dU - T dS + dA| = {residual:.2e}", elapsed)


def test_criterion_08_charge_conservation(l6_trajectory, process1_result):
    t0 = time.time()
    worst = max(charge_drift(records) for records in (
        [l6_trajectory[3].records] + list(process1_result.records.values())))
    elapsed = time.time() - t0
    report(8, "charge conservation under gauge-invariant drives",
           worst <= 1e-8, f"max |q(t)-q(t0)| = {worst:.2e}", elapsed)


def test_criterion_09_fast_path_oracle():
    t0 = time.time()
    rng = np.random.default_rng(9)
    worst = 0.0
    for n_sites in (2, 3, 4, 5, 6, 8):
        region = tuple(range(max(0, n_sites // 2 - 1), min(n_sites, n_sites // 2 + 1)))
        spec = LatticeSpec(n_sites, local_region=region)
        m = len(region)
        c = rng.normal(size=(m, m))
        pert = Perturbation([KernelSpec(1, region, 0.5 * (c + c.T))], spec)
        protocol = switch_on_protocol(pert, 0.0, 0.8, 0.25)
        params = GibbsParams(1.1, 0.15)
        times = time_grid(0.0, 1.5, 0.075)  # 20 sample intervals
        pairs = probe_site_pairs(RunConfig(LatticeConfig(n_sites), GibbsConfig(1.1)),
                                 spec)
        te = exact_trajectory(spec, params, protocol, times, 1e-9,
                              probe_matrices(pairs, spec, "fock"))
        tq = quadratic_trajectory(spec, params, protocol, times, 1e-9,
                                  probe_matrices(pairs, spec, "one_body"))
        worst = max(worst, path_deviation(te, tq))
    elapsed = time.time() - t0
    report(9, "fast-path oracle equivalence L=2..6, 8",
           worst <= 1e-7 and elapsed < 600.0,
           f"max ledger/probe deviation {worst:.2e}", elapsed)


def test_criterion_10_process_I(process1_result):
    t0 = time.time()
    m = process1_result.manifest
    decay = m["invariants"]["process1_decay_ratio"]
    sdot = m["invariants"]["process1_sdot_ratio"]
    elapsed = m["timing_seconds"]
    ok = decay["passed"] and sdot["passed"] and elapsed < 600.0
    report(10, "process I surrogate (L=200 switch-on)", ok,
           f"decay ratio {decay['value']:.3f} <= {decay['bound']}, "
           f"|Sdot| ratio {sdot['value']:.2e} <= {sdot['bound']}, "
           f"run {elapsed:.0f}s", time.time() - t0)


def test_criterion_11_process_II(process2_result):
    t0 = time.time()
    m = process2_result.manifest
    cyc = m["invariants"]["process2_cycle_ratio"]
    sp = m["invariants"]["process2_spearman"]
    elapsed = m["timing_seconds"]
    ok = cyc["passed"] and sp["passed"] and elapsed < 600.0
    report(11, "process II surrogate (L=200 periodic)", ok,
           f"cycle ratio {cyc['value']:.3f} <= {cyc['bound']}, "
           f"Spearman {sp['value']:.3f} < {sp['bound']}, run {elapsed:.0f}s",
           time.time() - t0)


def test_criterion_12_smallness_norm():
    t0 = time.time()

    def hermite0(x):
        return np.pi**-0.25 * np.exp(-0.5 * np.asarray(x) ** 2)

    est = kernel_norm(hermite0, 1)  # doubles the grid internally
    hom = smallness_homogeneity_defect(512, (2.0, 0.3, 7.5))
    elapsed = time.time() - t0
    ok = abs(est.value - 1.0) <= 0.01 and hom <= 1e-10 and elapsed < 60.0
    report(12, "smallness norm", ok,
           f"oscillator norm {est.value:.6f} (err {abs(est.value - 1):.2e}), "
           f"homogeneity {hom:.2e}", elapsed)


def test_criterion_13_performance():
    t0 = time.time()
    # exact path must refuse oversized lattices with a clean error
    with pytest.raises(LatticeTooLargeError):
        hopping_hamiltonian(LatticeSpec(15, local_region=(0,)))
    from fermiproc.harness import ConfigError, parse_config
    with pytest.raises(ConfigError):
        parse_config({"lattice": {"L": 20}, "gibbs": {"beta": 1.0}, "path": "exact"})

    # L = 512 run: measure ramp and saturated segments, extrapolate 10^4 steps
    cfg = reference_process1_config(L=512, tol=1e-6)
    cfg.output.grid_step = recurrence_window(512) / 10000.0
    spec = lattice_spec(cfg)
    params = GibbsParams(cfg.gibbs.beta, cfg.gibbs.mu)
    protocol = build_protocol(cfg, spec)
    ops = probe_matrices(probe_site_pairs(cfg, spec), spec, "one_body")
    step = cfg.output.grid_step

    def segment_seconds(t_start, n_intervals):
        times = t_start + step * np.arange(n_intervals + 1)
        tick = time.time()
        quadratic_trajectory(spec, params, protocol, times, cfg.integrator.tol, ops)
        return (time.time() - tick) / n_intervals

    ramp = segment_seconds(0.0, 60)
    late = segment_seconds(30.0, 150)
    # the exponential ramp occupies < 10% of the window; weigh it double
    projected = (0.2 * ramp + 0.8 * late) * 10000.0
    elapsed = time.time() - t0
    ok = projected < 1800.0
    report(13, "performance (L=512 fast path; exact-path cap)", ok,
           f"projected 10^4-step wall {projected / 60:.1f} min "
           f"(ramp {ramp * 1e3:.0f} ms, saturated {late * 1e3:.0f} ms per step)",
           elapsed)
