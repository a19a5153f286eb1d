"""Propagator laws: unitarity, cocycle, Dyson series, Heisenberg picture."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from fermiproc import harness, propagator
from fermiproc.drive import KernelSpec, Perturbation, switch_on_protocol
from fermiproc.lattice import (LatticeSpec, hopping_hamiltonian, number_operator,
                               one_body_laplacian, quadratic_fock_operator)
from fermiproc.linalg import expm_unitary, max_abs, unitarity_defect
from fermiproc.propagator import (DenseSteps, IntegrationError, TimeDependentHamiltonian,
                                  _adaptive, cfm4, dyson_propagator,
                                  dyson_remainder, heisenberg_evolve,
                                  interaction_to_schrodinger, propagate, propagate_grid)
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


def test_two_node_moments_are_two_point_cfm4(rng, monkeypatch):
    # the moment form at the two-point Gauss nodes 1/2 -+ sqrt(3)/6 (weights
    # 1/2) is CFM4 as exp(-i dt (w1 h- + w2 h+)) exp(-i dt (w2 h- + w1 h+)),
    # w1,2 = (3 -+ 2 sqrt(3)) / 12: the exponents agree to 1e-15, and the
    # unitaries to the roundoff of their eigendecompositions
    nodes = 0.5 + np.sqrt(3.0) / 6.0 * np.array([-1.0, 1.0])
    w1, w2 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
    exponents = []

    def recorded(h, dt):
        exponents.append(h)
        return expm_unitary(h, dt)

    monkeypatch.setattr(propagator, "expm_unitary", recorded)
    for dim, dt in ((6, 0.1), (40, 0.7)):
        early, late = random_hermitian(rng, dim), random_hermitian(rng, dim)
        got = cfm4([early, late], dt, nodes, [0.5, 0.5])
        second, first = exponents[-2:]  # the right factor acts first
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


def test_propagate_is_the_one_interval_grid(driven_problem):
    # on an interval that refines, propagate's step_grid over [a, b] gives
    # bit for bit the halving from one CFM4 step over [a, b]
    _, _, tdh, _ = driven_problem
    a, b, tol = 0.0, 1.5, 1e-8
    p = propagate(tdh, a, b, tol)
    steps = DenseSteps(lambda t: (tdh(t),))
    q = _adaptive(steps, [(a, b, steps.step(a, b))], tol)
    assert p.refined and q.refined
    assert np.array_equal(p.matrix, q.matrix[0])
    assert (p.est_error, p.min_step) == (q.est_error, q.min_step)


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
                           "max_block_rank"}
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
