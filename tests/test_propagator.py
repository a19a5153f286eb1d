"""Propagator laws: unitarity, cocycle, Dyson series, Heisenberg picture."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from fermiproc import harness, propagator
from fermiproc.drive import KernelSpec, Perturbation, switch_on_protocol
from fermiproc.lattice import (LatticeSpec, hopping_hamiltonian, number_operator,
                               one_body_laplacian, quadratic_blocks, quadratic_fock_operator)
from fermiproc.linalg import expm_unitary, max_abs, unitarity_defect
from fermiproc.propagator import (ROUNDOFF_FLOOR, DenseSteps, FrameWindow, IntegrationError,
                                  InteractionSteps, TimeDependentHamiltonian, cfm4,
                                  dyson_propagator, dyson_remainder, heisenberg_evolve,
                                  interaction_to_schrodinger, propagate, propagate_grid,
                                  step_grid)
from fermiproc.states import GibbsParams, gibbs_state

from conftest import cfm4_step as _cfm4_step
from conftest import random_hermitian, taylor_expm

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def driven_problem(rng):
    spec = LatticeSpec(4, local_region=(1, 2))
    coeffs = np.array([[0.4, 0.2], [0.2, -0.3]])
    pert = Perturbation([KernelSpec(1, (1, 2), coeffs)], spec)
    protocol = switch_on_protocol(pert, 0.0, 0.7, 0.5)
    h0 = hopping_hamiltonian(spec)
    return spec, h0, TimeDependentHamiltonian(h0, protocol, 0.0, "fock"), protocol


def _config_problem(name):
    """One-body H(t) of a reference config, and the config."""
    cfg = harness.load_config(CONFIGS / f"{name}.yaml")
    spec = harness.lattice_spec(cfg)
    return TimeDependentHamiltonian(one_body_laplacian(spec),
                                    harness.build_protocol(cfg, spec), 0.0,
                                    "one_body"), cfg


def test_taylor_exponential_matches_spectral(rng):
    # the spectral exponential against the scaled-and-squared Taylor one
    for dim, dt in ((40, 0.05), (40, 1.7), (7, 0.3)):
        h = rng.normal(size=(dim, dim))
        h = 0.5 * (h + h.T)
        u_t = taylor_expm(h, dt)[0]
        u_s = expm_unitary(h, dt)
        assert max_abs(u_t - u_s) <= 1e-12


def test_free_propagation_is_exponential(driven_problem):
    spec, h0, _, _ = driven_problem
    u = propagate(h0, 0.0, 1.3, 1e-10)
    exact = expm_unitary(h0, 1.3)
    assert max_abs(u.matrix - exact) <= 1e-10
    assert u.est_error <= 1e-9


def test_equal_endpoints_identity(driven_problem):
    _, _, tdh, _ = driven_problem
    u = propagate(tdh, 0.7, 0.7, 1e-8)
    assert np.array_equal(u.matrix, np.eye(16, dtype=complex))


def test_unitarity(driven_problem):
    _, _, tdh, _ = driven_problem
    u = propagate(tdh, 0.0, 2.0, 1e-8)
    assert unitarity_defect(u.matrix) <= 1e-9


def test_cocycle_law(driven_problem, rng):
    _, _, tdh, _ = driven_problem
    tol = 1e-8
    u_full = propagate(tdh, 0.0, 1.5, tol)
    for _ in range(3):
        mid = float(rng.uniform(0.2, 1.3))
        u1 = propagate(tdh, 0.0, mid, tol)
        u2 = propagate(tdh, mid, 1.5, tol)
        assert max_abs(u_full.matrix - u2.matrix @ u1.matrix) <= 10 * tol


def test_backward_propagation_inverts(driven_problem):
    _, _, tdh, _ = driven_problem
    fwd = propagate(tdh, 0.0, 1.0, 1e-9)
    bwd = propagate(tdh, 1.0, 0.0, 1e-9)
    assert max_abs(bwd.matrix - fwd.matrix.conj().T) <= 1e-12


def test_nonfinite_hamiltonian_aborts():
    # the step rule refuses the samples before a moment or `eigh` is formed,
    # naming its interval: the first half step of the lone interval [0, 1]
    bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(IntegrationError,
                       match=r"non-finite Hamiltonian entries on \[0\.0, 0\.5\]"):
        propagate(bad, 0.0, 1.0, 1e-8)


def test_nonfinite_control_aborts_the_exact_path(monkeypatch):
    # the exact path forms each step's exponents from the controls at its
    # Gauss nodes; a NaN control at a node (here only between the grid
    # times 0.1 and 0.2, so the reference rows stay finite) is refused
    # before any exponent's `eigh`, naming the first interval with one
    from dataclasses import replace
    sites = (1, 2)
    spec = LatticeSpec(5, local_region=sites)
    protocol = switch_on_protocol(
        Perturbation([KernelSpec(1, sites, [[0.6, 0.3], [0.3, -0.5]])], spec), 0.0, 0.5, 0.4)
    lam = protocol.lam_fn
    bad = replace(protocol, lam_fn=lambda t: np.nan if 0.1 < t < 0.2 else lam(t))

    def refuse(*args, **kwargs):
        raise AssertionError("an exponent's eigh ran before the finiteness check")

    monkeypatch.setattr(propagator, "cfm4", refuse)
    with pytest.raises(IntegrationError,
                       match=r"non-finite Hamiltonian entries on \[0\.1, 0\.2\]"):
        harness.exact_trajectory(spec, GibbsParams(1.0), bad, harness.time_grid(0.0, 0.2, 0.1),
                                 1e-8)


def test_propagate_argument_validation():
    h = np.eye(2)
    with pytest.raises(ValueError):
        propagate(h, 0.0, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        propagate_grid(h, [0.0, 0.5, 1.0], tol=-1e-8)
    with pytest.raises(ValueError):
        propagate(h, 0.0, np.inf, 1e-8)


def test_dyson_quadrature_nonconvergence():
    # a wildly oscillating drive cannot stabilize on a handful of nodes
    h0 = np.diag([0.0, 1.0]).astype(complex)

    def w(t):
        return np.array([[0.0, np.sin(900.0 * t)], [np.sin(900.0 * t), 0.0]])

    with pytest.raises(IntegrationError, match="stabilize"):
        dyson_propagator(h0, w, 0.0, 1.0, 4, 1e-12, node_limit=16)


def test_energy_conservation_free():
    spec = LatticeSpec(4)
    h0 = hopping_hamiltonian(spec)
    params = GibbsParams(1.2, 0.1)
    rho = gibbs_state(h0, number_operator(spec), params).rho
    u = propagate(h0, 0.0, 3.0, 1e-9)
    rho_t = u.matrix @ rho @ u.matrix.conj().T
    drift = abs(np.real(np.trace((rho_t - rho) @ h0)))
    assert drift <= 1e-9


# -- CFM4 step -------------------------------------------------------------------

@pytest.mark.parametrize("case", ["fock", "one_body"])
def test_cfm4_step_is_fourth_order(case, driven_problem):
    # local error O(dt^5): halving the step divides it by ~32; the midpoint
    # rule, the second-order oracle, by ~8
    def midpoint_step(h_at, a, b):
        return expm_unitary(h_at(0.5 * (a + b)), b - a)

    if case == "fock":
        h, t = driven_problem[2], 0.1
    else:
        h, t = _config_problem("process2_L200")[0], 1.0
    errs = {}
    for step in (_cfm4_step, midpoint_step):
        errs[step] = [max_abs(step(h, t, t + dt)
                              - propagate(h, t, t + dt, 1e-12).matrix)
                      for dt in (0.4, 0.2)]
    cfm4, midpoint = errs[_cfm4_step], errs[midpoint_step]
    assert cfm4[0] / cfm4[1] > 20
    assert midpoint[0] / midpoint[1] < 10
    assert cfm4[1] < midpoint[1]


@pytest.mark.parametrize("dim", [16, 200])
def test_cfm4_step_constant_hamiltonian(dim, rng):
    # B0 = h and B1 = 0: the two factors are exp(-i dt h / 2) each
    if dim == 16:
        h = random_hermitian(rng, dim)
    else:
        h, _ = _config_problem("process2_L200")
        h = h(1.3)  # real, 200 rows
    u = _cfm4_step(lambda t: h, 0.0, 0.3)
    assert max_abs(u - expm_unitary(h, 0.3)) <= 1e-14


def test_two_node_moments_are_two_point_cfm4(rng):
    # the moment form at the two-point Gauss nodes 1/2 -+ sqrt(3)/6 (weights
    # 1/2) is CFM4 as exp(-i dt (w1 h- + w2 h+)) exp(-i dt (w2 h- + w1 h+)),
    # w1,2 = (3 -+ 2 sqrt(3)) / 12: the exponents agree to 1e-15, and the
    # unitaries to the roundoff of their eigendecompositions
    nodes = 0.5 + np.sqrt(3.0) / 6.0 * np.array([-1.0, 1.0])
    w1, w2 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
    moments = propagator._moment_exponents(nodes, np.array([0.5, 0.5]))
    for dim, dt in ((6, 0.1), (40, 0.7)):
        early, late = random_hermitian(rng, dim), random_hermitian(rng, dim)
        exponents = (moments @ np.stack([early, late]).reshape(2, -1)).reshape(1, 2, dim, dim)
        got = next(cfm4(exponents, [dt]))
        second, first = exponents[0]  # the right factor acts first
        assert max_abs(first - (w2 * early + w1 * late)) <= 1e-15
        assert max_abs(second - (w1 * early + w2 * late)) <= 1e-15
        want = (expm_unitary(w1 * early + w2 * late, dt)
                @ expm_unitary(w2 * early + w1 * late, dt))
        assert max_abs(got - want) <= 1e-14


def _counted_exponentials(monkeypatch):
    """The step widths of the exponentials the propagator takes from now on."""
    calls = []

    def counted(*args):
        calls.append(args[1])
        return expm_unitary(*args)

    monkeypatch.setattr(propagator, "expm_unitary", counted)
    return calls


def test_saturated_pair_keeps_cfm4_steps(monkeypatch):
    # L = 512 past the ramp: the CFM4 pair test accepts at its cost of three
    # steps (6 exponentials), and each interval is exactly the test's
    # one-interval step
    h, cfg = _config_problem("process1_L512")
    times = 30.0 + cfg.output.grid_step * np.arange(3)
    calls = _counted_exponentials(monkeypatch)
    grid = propagate_grid(h, times, cfg.integrator.tol)
    monkeypatch.undo()
    assert len(calls) == 6
    for p, a, b in zip(grid, times[:-1], times[1:]):
        assert np.array_equal(p.matrix, _cfm4_step(h, a, b))
        assert (p.refined, p.min_step) == (False, b - a)


def test_refined_pair_meets_budget():
    # a process II L = 200 pair passes the CFM4 pair test at tol 1e-6, and
    # its steps lie within tol * dt of the tol 1e-10 result
    h, cfg = _config_problem("process2_L200")
    step = cfg.drive.period / 64  # process II's output grid
    times = 1.5 + step * np.arange(3)
    loose = propagate_grid(h, times, 1e-6)
    tight = propagate_grid(h, times, 1e-10)
    for p, q in zip(loose, tight):
        assert not p.refined and p.min_step == p.t_end - p.t_start
        assert max_abs(p.matrix - q.matrix) <= 1e-6 * step
    # at tol 1e-10 the pair test fails: the halved steps are narrower than
    # the grid step, and the run's report keeps the narrowest of them
    assert all(q.refined and q.min_step < q.t_end - q.t_start for q in tight)
    report = harness.IntegratorReport()
    for q in tight:
        report.add(q)
    assert report.min_step == min(q.min_step for q in tight)
    assert report.min_step < step


def test_lone_last_interval_is_a_pair_of_half_steps(monkeypatch):
    # an odd grid's last interval: one CFM4 step against two half steps (6
    # exponentials) keeps the half steps; if that fails, it halves them
    h, cfg = _config_problem("process1_L512")
    a, b = 30.0, 30.0 + cfg.output.grid_step
    m = 0.5 * (a + b)
    calls = _counted_exponentials(monkeypatch)
    (p,) = propagate_grid(h, [a, b], cfg.integrator.tol)
    monkeypatch.undo()
    assert len(calls) == 6
    assert np.array_equal(p.matrix, _cfm4_step(h, m, b) @ _cfm4_step(h, a, m))
    assert (p.refined, p.min_step) == (False, 0.5 * (b - a))

    h, cfg = _config_problem("process2_L200")
    step = cfg.drive.period / 64
    (p,) = propagate_grid(h, [1.5, 1.5 + step], 1e-8)
    assert p.refined and p.min_step <= 0.25 * step
    assert max_abs(p.matrix - propagate(h, 1.5, 1.5 + step, 1e-10).matrix) <= 1e-8 * step


def _halved(steps, a, b, whole, tol):
    """The accepted pieces (a, b, U, est_error) of [a, b] by depth-first
    recursive halving from `whole`, one CFM4 step over [a, b], a pair test
    at a time."""
    m = 0.5 * (a + b)
    left, right, fine, err = steps.pair_tests([(a, m, b)], [whole])[0]
    if err <= tol * (b - a) + ROUNDOFF_FLOOR:
        return [(a, b, fine, err / 15.0)]
    return _halved(steps, a, m, left, tol) + _halved(steps, m, b, right, tol)


def test_propagate_is_the_one_interval_grid(driven_problem):
    # on an interval that refines, propagate's step_grid over [a, b] gives
    # bit for bit the depth-first halving from one CFM4 step over [a, b],
    # its pieces composed left to right
    _, _, tdh, _ = driven_problem
    a, b, tol = 0.0, 1.5, 1e-8
    p = propagate(tdh, a, b, tol)
    steps = propagator._one_block(tdh)
    pieces = _halved(steps, a, b, (_cfm4_step(tdh, a, b),), tol)
    assert p.refined and len(pieces) > 1
    u = pieces[0][2]
    for piece in pieces[1:]:
        u = steps.compose(piece[2], u)
    assert np.array_equal(p.matrix, u[0])
    assert (p.est_error, p.min_step) == (float(sum(piece[3] for piece in pieces)),
                                         0.5 * min(hi - lo for lo, hi, *_ in pieces))


#: a drive on two sites that switches on at once at t = 0.3
JUMP_KERNEL = 3.0 * np.array([[0.6, 0.3], [0.3, -0.5]])


def _jump(t):
    return (np.asarray(t) >= 0.3).astype(float)


@pytest.mark.parametrize("path", ["dense", "interaction"])
def test_step_underflow_at_a_jump(monkeypatch, path):
    # every test across a jump of the drive fails down to 2^-42 of its
    # interval, where the refinement raises, naming t within 1e-12 of the
    # jump; each halving depth's tests are one `pair_tests` call, and away
    # from the jump they pass, so the pending tests stay at most 4 a depth
    # over the 43 depths: a 4 x 4 dense H on [0, 1], and the L = 32
    # interaction-picture steps on the grid [0, 0.5, 1]
    kind = DenseSteps if path == "dense" else FrameWindow
    rows, pair_tests = [], kind.pair_tests

    def counted(self, pairs, wholes=None):
        rows.append(len(pairs))
        return pair_tests(self, pairs, wholes)

    monkeypatch.setattr(kind, "pair_tests", counted)
    if path == "dense":
        h0, v = one_body_laplacian(LatticeSpec(4)), np.zeros((4, 4))
        v[1:3, 1:3] = JUMP_KERNEL
        with pytest.raises(IntegrationError, match="step underflow") as raised:
            propagate(lambda t: h0 + _jump(t) * v, 0.0, 1.0, 1e-8)
    else:
        eps, phi = np.linalg.eigh(one_body_laplacian(LatticeSpec(32)))
        steps = InteractionSteps(eps, phi, np.array([15, 16]),
                                 lambda times: _jump(times)[:, None, None] * JUMP_KERNEL)
        with pytest.raises(IntegrationError, match="step underflow") as raised:
            list(step_grid(steps, [0.0, 0.5, 1.0], 1e-6))
    t = float(re.search(r"at t=(\S+):", str(raised.value)).group(1))
    assert abs(t - 0.3) <= 1e-12
    assert sum(rows) <= 4 * 43


def _sector_hamiltonian(kernel):
    """Per charge sector of L = 8, H(t) = H_0 + lambda(t) V, for the
    exact-path benchmark's switch-on ramp of `kernel` on sites 2-5 (float64
    blocks for a real kernel, complex128 otherwise): `h_at(times)` stacks
    its samples at the given times, and `exponents(lows, widths)` gives each
    step's CFM4 exponents from lambda at its Gauss nodes and the stacks
    [H_0, V], as the exact path forms them."""
    sites = (2, 3, 4, 5)
    spec = LatticeSpec(8, local_region=sites)
    protocol = switch_on_protocol(Perturbation([KernelSpec(1, sites, kernel)], spec),
                                  0.0, 0.05, 2.0)
    h0 = quadratic_blocks(spec, one_body_laplacian(spec))
    v = protocol.components[0].blocks()
    stacks = [np.stack(ops) for ops in zip(h0, v)]

    def lam(times):
        return np.array([protocol.controls(t)[0] for t in times])

    def h_at(times):
        return tuple(h + lam(times)[:, None, None] * vn for h, vn in zip(h0, v))

    def exponents(lows, widths):
        controls = lam(propagator.node_times(lows, widths)).reshape(len(lows), 3, 1)
        return propagator.affine_exponents(controls, stacks)

    return h_at, exponents


@pytest.mark.parametrize("kernel", ["real", "complex"])
def test_affine_exponents_match_the_sampled_exponents(kernel):
    # on every sector of L = 8, the exponents from the controls at the Gauss
    # nodes and the stacked [H_0, V] equal `_EXPONENTS` @ the samples of H
    # at those nodes to 1e-14 relative, of the same dtype
    h_at, exponents = _sector_hamiltonian(_kernel(kernel))
    lows, widths = np.array([0.0, 0.05, 0.4, 3.9]), np.array([0.05, 0.1, 0.2, 0.1])
    samples = h_at(propagator.node_times(lows, widths))
    got = exponents(lows, widths)
    assert len(got) == len(samples) == 9
    for h, a in zip(samples, got, strict=True):
        d = h.shape[-1]
        want = (propagator._EXPONENTS @ h.reshape(len(lows), 3, d * d)).reshape(a.shape)
        assert a.dtype == h.dtype
        assert max_abs(a - want) <= 1e-14 * max_abs(want)


def _kernel(kind):
    """The reference kernel, real, or with a complex hopping."""
    coeffs = np.array(harness.load_config(CONFIGS / "process1_L200.yaml")
                      .drive.kernels[0].coeffs, dtype=complex)
    if kind == "complex":
        coeffs[0, 1], coeffs[1, 0] = coeffs[0, 1] + 0.2j, coeffs[1, 0] - 0.2j
        return coeffs
    return coeffs.real


def _per_matrix_step(exponents, a, b):
    """One CFM4 step per block, by the per-matrix formula: two `expm_unitary`
    calls of the step's exponents and their product."""
    return tuple(expm_unitary(plus, b - a) @ expm_unitary(minus, b - a)
                 for (plus, minus), in exponents(np.array([a]), np.array([b - a])))


def _per_matrix_pair_test(exponents, a, m, b, whole=None):
    left, right = _per_matrix_step(exponents, a, m), _per_matrix_step(exponents, m, b)
    whole = _per_matrix_step(exponents, a, b) if whole is None else whole
    fine = tuple(r @ l for r, l in zip(right, left))
    return left, right, fine, max(max_abs(f - w) for f, w in zip(fine, whole))


def _identical(got, want):
    *units, err = got
    *want_units, want_err = want
    return err == want_err and all(
        len(x) == len(y) and all(np.array_equal(u, w) and u.dtype == w.dtype
                                 for u, w in zip(x, y))
        for x, y in zip(units, want_units))


@pytest.mark.parametrize("kernel", ["real", "complex"])
def test_stacked_pair_tests_match_the_per_matrix_formula(kernel):
    # one stacked `eigh` per sector of every exponent of the pair tests gives
    # the per-matrix CFM4 steps, products and distances bit for bit: a
    # multi-pair call (with the lone last interval), a test with the step
    # over [a, b] given, as a refinement test reads it, and the lone interval
    # of an odd grid as `step_grid` keeps it
    coeffs = _kernel(kernel)
    _, exponents = _sector_hamiltonian(coeffs)
    steps = DenseSteps(exponents)
    assert all(a.dtype == coeffs.dtype for a in exponents(np.zeros(1), np.ones(1)))
    pairs = [(0.0, 0.1, 0.2, False), (1.2, 1.3, 1.4, False), (3.9, 3.95, 4.0, True)]
    for got, (a, m, b, _) in zip(steps.pair_tests(pairs), pairs, strict=True):
        assert _identical(got, _per_matrix_pair_test(exponents, a, m, b))
    whole = _per_matrix_step(exponents, 0.4, 0.6)
    assert _identical(steps.pair_tests([(0.4, 0.5, 0.6)], [whole])[0],
                      _per_matrix_pair_test(exponents, 0.4, 0.5, 0.6, whole))
    *_, last = step_grid(steps, [3.7, 3.8, 3.9, 4.0], 1e-4)
    (p,) = last.propagators
    fine = _per_matrix_pair_test(exponents, 3.9, 3.95, 4.0)[2]
    assert not p.refined
    assert all(np.array_equal(u, w) for u, w in zip(p.matrix, fine, strict=True))


def test_stacked_pair_test_of_one_block_matches_the_per_matrix_formula(driven_problem):
    # `_one_block` of a one-matrix callable: a pair test is the per-matrix
    # formula on the whole matrix, its exponents `_EXPONENTS` @ the samples,
    # with and without the step over [a, b]
    _, _, tdh, _ = driven_problem

    def exponents(lows, widths):
        samples = np.stack([tdh(t) for t in propagator.node_times(lows, widths)])
        return ((propagator._EXPONENTS @ samples.reshape(len(lows), 3, -1))
                .reshape((len(lows), 2) + samples.shape[1:]),)

    steps = propagator._one_block(tdh)
    assert _identical(steps.pair_tests([(0.2, 0.35, 0.5)])[0],
                      _per_matrix_pair_test(exponents, 0.2, 0.35, 0.5))
    whole = _per_matrix_step(exponents, 0.2, 0.5)
    assert _identical(steps.pair_tests([(0.2, 0.35, 0.5)], [whole])[0],
                      _per_matrix_pair_test(exponents, 0.2, 0.35, 0.5, whole))


def test_manifest_counts_refined_intervals(tmp_path):
    cfg = harness.RunConfig(
        lattice=harness.LatticeConfig(L=20, boundary="dirichlet", local_region=[9, 10]),
        gibbs=harness.GibbsConfig(beta=1.0),
        drive=harness.DriveConfig(type="periodic", amplitude=0.08, period=1.6,
                                  kernels=[harness.KernelConfig(1, [9, 10],
                                                                [[0.6, 0.3], [0.3, -0.5]])]),
        path="quadratic",
        integrator=harness.IntegratorConfig(tol=1e-8),
        output=harness.OutputConfig(grid_step=0.1, t_final=1.6, directory=str(tmp_path)),
    )
    harness.run_plain(cfg)
    with open(tmp_path / "manifest.json") as fh:
        report = json.load(fh)["integrator"]["quadratic"]
    assert set(report) == {"est_error", "refined_intervals", "min_step", "reused_intervals",
                           "windows", "max_block_rank", "window_basis_width"}
    assert 0 < report["refined_intervals"] <= 16
    assert report["reused_intervals"] == 0  # one period: nothing to reuse


# -- Dyson series -------------------------------------------------------------

def test_dyson_order_zero_is_identity(driven_problem):
    _, h0, _, protocol = driven_problem
    u = dyson_propagator(h0, lambda t: protocol.operator(t, "fock"), 0.0, 1.0, 0)
    assert max_abs(u.matrix - np.eye(16)) == 0
    # remainder bound for the empty series is e^x - 1 > 0
    assert u.est_error > 0


def test_dyson_matches_direct_static(driven_problem):
    _, h0, _, _ = driven_problem
    spec = LatticeSpec(4, local_region=(1, 2))
    w = 0.2 * Perturbation([KernelSpec(1, (1, 2), np.array([[0.4, 0.2], [0.2, -0.3]]))],
                           spec).fock()
    u_dyson = dyson_propagator(h0, lambda t: w, 0.0, 1.0, 8, 1e-10)
    u_direct = propagate(lambda t: h0 + w, 0.0, 1.0, 1e-10)
    u_conv = interaction_to_schrodinger(u_dyson, h0, 0.0, 1.0)
    assert max_abs(u_conv.matrix - u_direct.matrix) <= max(1e-6, 10 * u_dyson.est_error)


def test_dyson_matches_direct_time_dependent(driven_problem):
    _, h0, tdh, protocol = driven_problem
    u_dyson = dyson_propagator(h0, lambda t: 0.3 * protocol.operator(t, "fock"),
                               0.0, 1.2, 10, 1e-11)
    scaled = TimeDependentHamiltonian(h0, None, 0.0)

    def h_at(t):
        return h0 + 0.3 * protocol.operator(t, "fock")

    u_direct = propagate(h_at, 0.0, 1.2, 1e-11)
    u_conv = interaction_to_schrodinger(u_dyson, h0, 0.0, 1.2)
    assert max_abs(u_conv.matrix - u_direct.matrix) <= max(1e-6, 10 * u_dyson.est_error)


def test_dyson_remainder_formula():
    # independent oracle: the truncated exponential tail summed directly
    tail = sum(0.5**k / math.factorial(k) for k in range(7, 60))
    assert dyson_remainder(0.5, 6) == pytest.approx(tail, rel=1e-12)


def test_dyson_reported_bound_matches_strength(driven_problem):
    # remainder reported for a constant-norm W must equal the tail formula
    _, h0, _, _ = driven_problem
    spec = LatticeSpec(4, local_region=(1, 2))
    w = Perturbation([KernelSpec(1, (1, 2), np.array([[0.4, 0.2], [0.2, -0.3]]))],
                     spec).fock()
    w = w / np.max(np.abs(np.linalg.eigvalsh(w))) * 0.5  # spectral norm 0.5
    u = dyson_propagator(h0, lambda t: w, 0.0, 1.0, 6)
    tail = sum(0.5**k / math.factorial(k) for k in range(7, 60))
    assert u.est_error == pytest.approx(tail, rel=1e-2)


def test_dyson_remainder_warning(driven_problem):
    _, h0, _, _ = driven_problem
    w = 3.0 * np.eye(16)
    u = dyson_propagator(h0, lambda t: w, 0.0, 1.0, 1)
    assert u.warning is not None and "0.5" in u.warning


def test_interaction_free_case(driven_problem):
    _, h0, _, _ = driven_problem
    eye = np.eye(16, dtype=complex)
    from fermiproc.propagator import Propagator
    u = interaction_to_schrodinger(Propagator(eye, 0.0, 0.9, "dyson(0)", 0.0), h0, 0.0, 0.9)
    assert max_abs(u.matrix - expm_unitary(h0, 0.9)) <= 1e-12


def test_interaction_endpoint_mismatch(driven_problem):
    _, h0, _, _ = driven_problem
    from fermiproc.propagator import Propagator
    u = Propagator(np.eye(16, dtype=complex), 0.0, 0.9, "dyson(0)", 0.0)
    with pytest.raises(ValueError, match="endpoint"):
        interaction_to_schrodinger(u, h0, 0.0, 1.0)


# -- Heisenberg picture --------------------------------------------------------

def test_heisenberg_identity_fixed(driven_problem):
    _, _, tdh, _ = driven_problem
    u = propagate(tdh, 0.0, 1.0, 1e-9)
    eye = np.eye(16, dtype=complex)
    # bounded by the accumulated unitarity defect of the composed steps
    assert max_abs(heisenberg_evolve(eye, u) - eye) <= 1e-10


def test_heisenberg_preserves_spectrum(driven_problem, rng):
    _, _, tdh, _ = driven_problem
    u = propagate(tdh, 0.0, 1.5, 1e-9)
    a = random_hermitian(rng, 16)
    evolved = heisenberg_evolve(a, u)
    assert np.allclose(np.linalg.eigvalsh(evolved), np.linalg.eigvalsh(a), atol=1e-9)


def test_heisenberg_composition(driven_problem):
    _, _, tdh, _ = driven_problem
    a = quadratic_fock_operator(LatticeSpec(4), np.diag([1.0, 0, 0, 0]))
    u_full = propagate(tdh, 0.0, 1.5, 1e-10)
    u1 = propagate(tdh, 0.0, 0.6, 1e-10)
    u2 = propagate(tdh, 0.6, 1.5, 1e-10)
    # alpha_{t0,t} = alpha_{t0,t1} o alpha_{t1,t}
    direct = heisenberg_evolve(a, u_full)
    composed = heisenberg_evolve(heisenberg_evolve(a, u2), u1)
    assert max_abs(direct - composed) <= 1e-8


def test_schrodinger_heisenberg_duality(driven_problem):
    spec, h0, tdh, _ = driven_problem
    params = GibbsParams(1.0, 0.0)
    rho0 = gibbs_state(h0, number_operator(spec), params).rho
    a = quadratic_fock_operator(spec, np.diag([0, 1.0, 0, 0]))
    u = propagate(tdh, 0.0, 1.7, 1e-10)
    lhs = np.real(np.trace(u.matrix @ rho0 @ u.matrix.conj().T @ a))
    rhs = np.real(np.trace(rho0 @ heisenberg_evolve(a, u)))
    assert abs(lhs - rhs) <= 1e-9


def test_number_conservation_gauge_invariant_drive(driven_problem):
    spec, h0, tdh, protocol = driven_problem
    n_op = number_operator(spec)
    h = h0 + protocol.operator(1.0, "fock")
    # DN/Dt = i[H, N]
    assert max_abs(1j * (h @ n_op - n_op @ h)) <= 1e-12


def test_expectation_derivative_matches_heisenberg(driven_problem):
    # d/dt <A(t)> equals <alpha(DA/Dt)> : checked by centered differences
    spec, h0, tdh, protocol = driven_problem
    params = GibbsParams(1.1, 0.2)
    rho0 = gibbs_state(h0, number_operator(spec), params).rho
    a = quadratic_fock_operator(spec, np.diag([0, 1.0, 0.5, 0]))
    t, h = 0.9, 1e-3

    def expect_at(tt):
        u = propagate(tdh, 0.0, tt, 1e-11)
        return np.real(np.trace(rho0 @ heisenberg_evolve(a, u)))

    numeric = (expect_at(t + h) - expect_at(t - h)) / (2 * h)
    u = propagate(tdh, 0.0, t, 1e-11)
    h = h0 + protocol.operator(t, "fock")
    da_dt = 1j * (h @ a - a @ h)  # DA/Dt = i[H, A] for a time-independent A
    analytic = np.real(np.trace(rho0 @ heisenberg_evolve(da_dt, u)))
    assert abs(numeric - analytic) <= 5e-5  # O(h^2) stencil at h = 1e-3
