import os

# one BLAS thread per test process: on a shared or small machine, BLAS threads
# oversubscribe the cores and the timing criterion measures the contention;
# set before numpy is imported, which is when BLAS reads them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from fermiproc import harness  # noqa: E402
from fermiproc.lattice import hopping_hamiltonian, number_operator  # noqa: E402
from fermiproc.linalg import spectral_norm, symmetrize  # noqa: E402
from fermiproc.observables import (charge, charge_rate, expectation,  # noqa: E402
                                   internal_energy, ledger_row)
from fermiproc.propagator import (GAUSS_NODES, Block, DenseSteps,  # noqa: E402
                                  LowRankUnitary, _cumulative, _on_joint_span, cfm4,
                                  TimeDependentHamiltonian, propagate_grid)
from fermiproc.states import gibbs_state, von_neumann_entropy  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240619)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def dense_exact_trajectory(spec, params, protocol, times, tol, probe_ops=None):
    """The exact path on dense 2^L x 2^L Fock matrices (the oracle of the
    sector-blocked `harness.exact_trajectory`): `propagate_grid` steps, per
    row the dense `gibbs_state`, `expectation` and `charge_rate`, the Gibbs
    probe values from the dense `gibbs_state` of H_0 + sum_j lambda_j V_j, and
    the spectral norm of each dense V_j."""
    h0 = hopping_hamiltonian(spec)
    n_op = number_operator(spec)
    tdh = TimeDependentHamiltonian(h0, protocol, times[0], "fock")
    vs = protocol.d_operator(times[0], "fock") if protocol else []
    rho0 = gibbs_state(h0, n_op, params).rho
    s_start = von_neumann_entropy(rho0)

    def observe(rho, t):
        w_t = protocol.operator(t, "fock") if protocol else np.zeros_like(h0)
        dw = protocol.d_operator(t, "fock") if protocol else []
        lam_dot = protocol.lam_dot(t) if protocol else np.zeros(0)
        h_t = h0 + w_t
        ref = gibbs_state(h_t, n_op, params)
        rec = ledger_row(t, internal_energy(rho, h_t), charge(rho, n_op),
                         [expectation(rho, d) for d in dw], ref.grand_potential,
                         [expectation(ref.rho, d) for d in dw], lam_dot, params,
                         s_start, charge_rate(rho, w_t, n_op))
        return rec, np.array([expectation(rho, a) for a in probe_ops or []])

    def gibbs_probes(lam):
        rho = gibbs_state(h0 + sum(lj * v for lj, v in zip(lam, vs)), n_op, params).rho
        return np.array([expectation(rho, a) for a in probe_ops or []])

    rep = harness._Representation(
        rho0, s_start, (Block((p.t_end,), (p,)) for p in propagate_grid(tdh, times, tol)),
        harness._one_at_a_time(
            lambda rho, step: symmetrize(step.matrix @ rho @ step.matrix.conj().T), observe),
        lambda rho, t: (rho, von_neumann_entropy(rho), None),
        gibbs_probes, tuple(map(spectral_norm, vs)))
    return harness._trajectory(rep, params, times)


def cfm4_step(h_at, a, b):
    """One dense CFM4 step of the matrix h_at(t) over [a, b]: `DenseSteps`'
    one-block case."""
    return DenseSteps(lambda t: (h_at(t),)).step(a, b)[0]


def interaction_step(steps, a, b):
    """One CFM4 step of `InteractionSteps`' drive over [a, b] on L-vectors,
    uncompressed (the reference of its pair test): Q and R from the QR of the
    L x 3|R| frames [Y(a + c_i dt)], K = cfm4 of the samples
    R_i C(a + c_i dt) R_i^dagger, minus I."""
    dt, n = b - a, steps.rows.size
    times = [a + c * dt for c in GAUSS_NODES]
    q, r = np.linalg.qr(np.hstack([steps.frame(t, steps.rows) for t in times]))
    samples = [r[:, i * n:(i + 1) * n] @ h @ r[:, i * n:(i + 1) * n].conj().T
               for i, h in enumerate(steps.coupling(times))]
    return LowRankUnitary(q, cfm4(samples, dt) - np.eye(q.shape[1]))


def two_qr_pair(steps, a, m, b):
    """The pair test on L-vectors with two QRs: the uncompressed steps over
    [a, m], [m, b] and [a, b] (`interaction_step`), the product over [a, b]
    on the joint span of the first two, and the spectral norm of its
    difference from the third on the joint span of both: (first, fine,
    whole, err)."""
    left, right, whole = (interaction_step(steps, lo, hi) for lo, hi in ((a, m), (m, b), (a, b)))
    fine = _cumulative(*_on_joint_span(left, right))[1]
    return left, fine, whole, float(np.linalg.norm(np.subtract(*_on_joint_span(fine, whole)[1]), 2))


def correlation_update(gamma, u):
    """conj(u) Gamma u^T: Gamma_ij = <a_i^* a_j> after the dense one-particle
    propagator u (the oracle rule of the fast path)."""
    return u.conj() @ gamma @ u.T


TRIDIAGONAL = np.array([[0.8, 0.4, 0.0, 0.0],
                        [0.4, -0.5, 0.3, 0.0],
                        [0.0, 0.3, 0.6, 0.2],
                        [0.0, 0.0, 0.2, -0.7]])
FILLED = np.array([[0.8, 0.4, -0.1, 0.05],
                   [0.4, -0.5, 0.3, 0.1],
                   [-0.1, 0.3, 0.6, 0.2],
                   [0.05, 0.1, 0.2, -0.7]])


def low_rank_dense(u):
    """The dense I + Q K Q^dagger of a LowRankUnitary."""
    return np.eye(u.q.shape[0]) + u.q @ u.k @ u.q.conj().T


def from_lower(a):
    """The Hermitian matrix whose lower triangle `a` holds (`rank_update`'s
    storage): the strict upper triangle is replaced by the conjugate of the
    strict lower one."""
    return np.tril(a) + np.tril(a, -1).conj().T


#: norm ||dt h||_inf up to which `taylor_expm` uses its polynomial unsquared
TAYLOR_THETA = 0.1


def taylor_expm(h, dt):
    """exp(-i dt h) by the degree-8/9 cos/sin Taylor polynomials of dt h
    scaled below TAYLOR_THETA, then squared: (U, number of squarings)."""
    nrm = abs(dt) * float(np.linalg.norm(h, np.inf))
    squarings = max(0, int(np.ceil(np.log2(nrm / TAYLOR_THETA)))) if nrm > TAYLOR_THETA else 0
    x = (dt / 2.0**squarings) * h
    eye = np.eye(x.shape[0])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    x8 = x4 @ x4
    c = eye - x2 / 2.0 + x4 / 24.0 - x6 / 720.0 + x8 / 40320.0
    s = x @ (eye - x2 / 6.0 + x4 / 120.0 - x6 / 5040.0 + x8 / 362880.0)
    u = c - 1j * s
    for _ in range(squarings):
        u = u @ u
    return u, squarings
