"""Ledger identities: rates, two-route entropy production, first law."""

import numpy as np
import pytest

from fermiproc.drive import KernelSpec, Perturbation, switch_on_protocol
from fermiproc.harness import exact_trajectory, time_grid
from fermiproc.lattice import (LatticeSpec, creation_op, gauge_transform,
                               hopping_hamiltonian, number_operator)
from fermiproc.observables import (ProcessRecord, charge, charge_rate, delta_entropy,
                                   energy_rate, entropy_rate, entropy_rate_decomposed,
                                   entropy_rate_bound, expectation, gibbs_gradient,
                                   internal_energy, work_accumulate)
from fermiproc.propagator import TimeDependentHamiltonian, propagate
from fermiproc.states import (GibbsParams, gibbs_state, relative_entropy,
                              von_neumann_entropy)

from conftest import random_hermitian


@pytest.fixture
def setup():
    spec = LatticeSpec(4, local_region=(1, 2))
    h0 = hopping_hamiltonian(spec)
    n_op = number_operator(spec)
    params = GibbsParams(1.2, 0.3)
    pert = Perturbation([KernelSpec(1, (1, 2), np.array([[0.5, 0.2], [0.2, -0.4]]))], spec)
    protocol = switch_on_protocol(pert, 0.0, 0.6, 0.4)
    return spec, h0, n_op, params, protocol


def test_internal_energy_eigenvector():
    h = np.diag([0.0, 1.5, 3.0]).astype(complex)
    rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
    assert internal_energy(rho, h) == pytest.approx(1.5, abs=1e-14)


def test_internal_energy_thermodynamic_identity(setup):
    # U = -d/dbeta ln Xi at fixed beta*mu, by centered finite differences
    spec, h0, n_op, params, _ = setup
    res = gibbs_state(h0, n_op, params)
    u_val = internal_energy(res.rho, h0)
    h_step = 1e-5
    lnxi = {}
    for db in (-h_step, h_step):
        beta = params.beta + db
        mu = params.beta * params.mu / beta  # hold beta*mu fixed
        lnxi[db] = -gibbs_state(h0, n_op, GibbsParams(beta, mu)).beta_g
    numeric = -(lnxi[h_step] - lnxi[-h_step]) / (2 * h_step)
    assert abs(numeric - u_val) <= 1e-6


def test_charge_range_and_symmetry(setup):
    spec, h0, n_op, params, _ = setup
    rho = np.eye(16, dtype=complex) / 16
    assert charge(rho, n_op) == pytest.approx(2.0, abs=1e-12)  # L/2 at half filling
    val = charge(gibbs_state(h0, n_op, params).rho, n_op)
    assert 0.0 <= val <= 4.0


def test_charge_single_mode_formula():
    eps, beta, mu = 0.9, 1.6, 0.2
    h = np.diag([0.0, eps]).astype(complex)
    n = np.diag([0.0, 1.0]).astype(complex)
    rho = gibbs_state(h, n, GibbsParams(beta, mu)).rho
    assert charge(rho, n) == pytest.approx(1.0 / (1.0 + np.exp(beta * (eps - mu))), abs=1e-10)


def test_ledger_entropy_initial_value(setup):
    # S(t0) = beta*(U - mu*q - G) of the initial Gibbs state is its entropy
    spec, h0, n_op, params, protocol = setup
    traj = exact_trajectory(spec, params, protocol, time_grid(0.0, 0.1, 0.05), 1e-9)
    s_vn = von_neumann_entropy(gibbs_state(h0, n_op, params).rho)
    assert traj.records[0].S == pytest.approx(s_vn, abs=1e-9)


def test_energy_rate_zero_and_linear(setup, rng):
    spec, h0, n_op, params, protocol = setup
    rho = gibbs_state(h0, n_op, params).rho
    v = protocol.d_operator(1.0, "fock")
    assert energy_rate(rho, v, [0.0]) == 0.0
    # linear ramp W = c*t*V: dU/dt = c <V>
    c = 0.37
    assert energy_rate(rho, v, [c]) == pytest.approx(c * expectation(rho, v[0]), abs=1e-12)
    with pytest.raises(ValueError):
        energy_rate(rho, v, [0.1, 0.2])


def test_energy_rate_matches_finite_difference(setup):
    # centered difference of U(t) along the trajectory at h = 1e-3
    spec, h0, n_op, params, protocol = setup
    tdh = TimeDependentHamiltonian(h0, protocol, 0.0, "fock")
    t, h = 0.8, 1e-3
    rho0 = gibbs_state(h0, n_op, params).rho

    def u_at(tt):
        u = propagate(tdh, 0.0, tt, 1e-10)
        rho = u.matrix @ rho0 @ u.matrix.conj().T
        return internal_energy(rho, h0 + protocol.operator(tt, "fock"))

    numeric = (u_at(t + h) - u_at(t - h)) / (2 * h)
    u = propagate(tdh, 0.0, t, 1e-10)
    rho_t = u.matrix @ rho0 @ u.matrix.conj().T
    analytic = energy_rate(rho_t, protocol.d_operator(t, "fock"), protocol.lam_dot(t))
    assert abs(numeric - analytic) <= 1e-6


def test_charge_rate_gauge_invariant_and_zero(setup):
    spec, h0, n_op, params, protocol = setup
    rho = gibbs_state(h0, n_op, params).rho
    w = protocol.operator(1.0, "fock")
    assert abs(charge_rate(rho, w, n_op)) <= 1e-10
    assert abs(charge_rate(rho, np.zeros_like(w), n_op)) == 0.0


def test_charge_rate_two_routes_parity_probe(setup):
    # W = a_0^* + a_0 is charge-raising (test-only, not buildable from kernels)
    spec, h0, n_op, params, _ = setup
    a0 = creation_op(spec, 0)
    w = a0 + a0.conj().T
    u = propagate(h0 + w, 0.0, 0.4, 1e-10)  # entangle so the rate is nonzero
    rho = gibbs_state(h0, n_op, params).rho
    rho = u.matrix @ rho @ u.matrix.conj().T
    commutator_route = charge_rate(rho, w, n_op)
    # dq/dt = -d/dtau <e^{i tau N} W e^{-i tau N}> at tau = 0, by a centered
    # finite difference in the gauge angle: an independent route, O(step^2)
    step = 1e-4
    gauge_route = -(expectation(rho, gauge_transform(w, step))
                    - expectation(rho, gauge_transform(w, -step))) / (2.0 * step)
    assert abs(commutator_route) > 1e-3
    assert abs(commutator_route - gauge_route) <= 1e-6


def test_gibbs_gradient_finite_difference(setup):
    spec, h0, n_op, params, protocol = setup
    lam = 0.21
    v = protocol.components[0].fock()
    grad = gibbs_gradient(h0 + lam * v, n_op, params, [v])
    h_step = 1e-4
    gp = gibbs_state(h0 + (lam + h_step) * v, n_op, params).grand_potential
    gm = gibbs_state(h0 + (lam - h_step) * v, n_op, params).grand_potential
    assert abs(grad[0] - (gp - gm) / (2 * h_step)) <= 1e-6


def test_gibbs_gradient_zero_for_absent_control(setup, rng):
    spec, h0, n_op, params, _ = setup
    unused = random_hermitian(rng, 16)
    grad = gibbs_gradient(h0, n_op, params, [np.zeros((16, 16)), unused])
    assert grad[0] == 0.0


def test_gibbs_gradient_at_start_is_gibbs_expectation(setup):
    # with W = lambda*V, dG/dlambda at lambda=0 equals <V> in the bare state
    spec, h0, n_op, params, protocol = setup
    v = protocol.components[0].fock()
    grad = gibbs_gradient(h0, n_op, params, [v])
    rho0 = gibbs_state(h0, n_op, params).rho
    assert grad[0] == pytest.approx(expectation(rho0, v), abs=1e-10)


def test_entropy_rate_zero_cases(setup):
    spec, h0, n_op, params, protocol = setup
    res = gibbs_state(h0, n_op, params)
    # at t0 the state coincides with the reference and W(t0) = 0
    rate = entropy_rate(res.rho, res.rho, protocol.d_operator(0.0, "fock"),
                        protocol.lam_dot(0.0), protocol.operator(0.0, "fock"),
                        n_op, params)
    assert abs(rate) <= 1e-12
    # W = 0 for all time
    rate = entropy_rate(res.rho, res.rho, [], [], np.zeros_like(h0), n_op, params)
    assert rate == 0.0


def test_entropy_rate_two_routes_agree(setup):
    spec, h0, n_op, params, protocol = setup
    tdh = TimeDependentHamiltonian(h0, protocol, 0.0, "fock")
    rho = gibbs_state(h0, n_op, params).rho
    t_prev = 0.0
    for t in (0.3, 0.8, 1.4):
        u = propagate(tdh, t_prev, t, 1e-10)
        rho = u.matrix @ rho @ u.matrix.conj().T
        t_prev = t
        w = protocol.operator(t, "fock")
        dw = protocol.d_operator(t, "fock")
        lam_dot = protocol.lam_dot(t)
        ref = gibbs_state(h0 + w, n_op, params).rho
        r1 = entropy_rate(rho, ref, dw, lam_dot, w, n_op, params)
        r2 = entropy_rate_decomposed(rho, h0 + w, n_op, params, dw, lam_dot, w, ref)
        assert abs(r1 - r2) <= 1e-8


def test_entropy_rate_matches_numeric_derivative(setup):
    # centered difference of S(t) at h = 1e-3 on a driven trajectory
    spec, h0, n_op, params, protocol = setup
    times = time_grid(0.0, 1.0, 1e-3)
    traj = exact_trajectory(spec, params, protocol, times, 1e-9)
    s = np.array([r.S for r in traj.records])
    sdot = np.array([r.Sdot for r in traj.records])
    numeric = (s[2:] - s[:-2]) / (2e-3)
    assert np.max(np.abs(numeric - sdot[1:-1])) <= 1e-5


def test_work_static_perturbation_is_zero(setup):
    spec, h0, n_op, params, _ = setup
    recs = [ProcessRecord(t=float(t), U=0, q=0.7, S=0, Sdot=0, relS=0, work=0,
                          G=0, dG_dt=0.0) for t in np.linspace(0, 1, 11)]
    assert work_accumulate(recs, params) == [0.0] * 11


def test_work_requires_monotone_grid(setup):
    _, _, _, params, _ = setup
    recs = [ProcessRecord(t=t, U=0, q=0, S=0, Sdot=0, relS=0, work=0, G=0)
            for t in (0.0, 0.5, 0.4)]
    with pytest.raises(ValueError, match="increasing"):
        work_accumulate(recs, params)


def test_first_law_residual(setup):
    # |Delta U - T*Delta S + int dA| small at grid h = 1e-3 over a driven run
    spec, h0, n_op, params, protocol = setup
    times = time_grid(0.0, 1.0, 1e-3)
    traj = exact_trajectory(spec, params, protocol, times, 1e-9)
    recs = traj.records
    delta_u = recs[-1].U - recs[0].U
    t_ds = delta_entropy(recs) / params.beta
    work = work_accumulate(recs, params)[-1]
    assert recs[-1].work == pytest.approx(work, abs=1e-12)
    assert abs(delta_u - t_ds + work) <= 1e-4


def test_charge_conserving_work_reduces_to_control_term(setup):
    # gauge-invariant drive: dq = 0, so work is the control contribution alone
    spec, h0, n_op, params, protocol = setup
    times = time_grid(0.0, 0.8, 0.01)
    traj = exact_trajectory(spec, params, protocol, times, 1e-9)
    recs = traj.records
    q_drift = max(abs(r.q - recs[0].q) for r in recs)
    assert q_drift <= 1e-8
    control_only = -np.trapezoid([r.dG_dt for r in recs], [r.t for r in recs])
    assert work_accumulate(recs, params)[-1] == pytest.approx(control_only, abs=1e-10)


def test_delta_entropy_consistency(setup):
    spec, h0, n_op, params, protocol = setup
    times = time_grid(0.0, 1.0, 1e-3)
    traj = exact_trajectory(spec, params, protocol, times, 1e-9)
    recs = traj.records
    ds = delta_entropy(recs)
    assert abs(ds - (recs[-1].S - recs[0].S)) <= 1e-4
    assert ds >= -1e-8
    # zero drive: flat entropy
    traj0 = exact_trajectory(spec, params, None, time_grid(0.0, 0.5, 0.05), 1e-9)
    assert abs(delta_entropy(traj0.records)) <= 1e-12


def test_entropy_functional_dominates_initial(setup):
    spec, h0, n_op, params, protocol = setup
    times = time_grid(0.0, 1.2, 0.01)
    traj = exact_trajectory(spec, params, protocol, times, 1e-9)
    s0 = traj.records[0].S
    for rec in traj.records:
        assert rec.S - s0 >= -1e-8
        assert rec.relS >= -1e-10
        # relS equals the entropy gap along the trajectory
        assert abs(rec.relS - (rec.S - s0)) <= 1e-7


def test_saturation_bound(setup):
    # probe-pinned states have provably small entropy rate
    spec, h0, n_op, params, protocol = setup
    times = time_grid(0.0, 1.0, 0.02)
    traj = exact_trajectory(spec, params, protocol, times, 1e-9)
    tdh = TimeDependentHamiltonian(h0, protocol, 0.0, "fock")
    for k in (10, 25, 50):
        t = times[k]
        rec = traj.records[k]
        w = protocol.operator(t, "fock")
        dw = protocol.d_operator(t, "fock")
        lam_dot = protocol.lam_dot(t)
        ref = gibbs_state(h0 + w, n_op, params).rho
        u = propagate(tdh, 0.0, t, 1e-9)
        rho = u.matrix @ gibbs_state(h0, n_op, params).rho @ u.matrix.conj().T
        # deviation measured on norm-scaled probes: |tr((rho - ref) A)|/||A||
        eps = max(abs(expectation(rho, d) - expectation(ref, d))
                  / np.max(np.abs(np.linalg.eigvalsh(d))) for d in dw)
        bound = entropy_rate_bound(params, dw, lam_dot, w, n_op)
        # slack covers the integration-route difference between rho here
        # and the ledger's incrementally propagated rho
        assert abs(rec.Sdot) <= bound * eps + 1e-8
