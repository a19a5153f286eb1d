import os
from dataclasses import replace

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
                                   internal_energy, ledger_row, work_accumulate)
from fermiproc.propagator import (GAUSS_NODES, FrameWindow,  # noqa: E402
                                  LowRankUnitary, _on_joint_spans,
                                  cfm4, TimeDependentHamiltonian, propagate_grid, step_grid)
from fermiproc.quadratic import advance_window, diagonal_state  # noqa: E402
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
    sector-blocked `harness.exact_trajectory`), with its own row loop:
    `propagate_grid` steps, per row the dense `gibbs_state`, `expectation`
    and `charge_rate` handed to `ledger_row`, the work from
    `work_accumulate`, the Gibbs probe values from the dense `gibbs_state` of
    H_0 + sum_j lambda_j V_j, and the spectral norm of each dense V_j."""
    h0 = hopping_hamiltonian(spec)
    n_op = number_operator(spec)
    tdh = TimeDependentHamiltonian(h0, protocol, times[0], "fock")
    vs = protocol.d_operator(times[0], "fock") if protocol else []
    rho = gibbs_state(h0, n_op, params).rho
    s_start = von_neumann_entropy(rho)
    report = harness.IntegratorReport()
    records, probes = [], []
    for step, t in zip([None] + propagate_grid(tdh, times, tol), times):
        if step is not None:
            report.add(step)
            report.windows += 1
            rho = symmetrize(step.matrix @ rho @ step.matrix.conj().T)
        w_t = protocol.operator(t, "fock") if protocol else np.zeros_like(h0)
        dw = protocol.d_operator(t, "fock") if protocol else []
        lam_dot = protocol.lam_dot(t) if protocol else np.zeros(0)
        h_t = h0 + w_t
        ref = gibbs_state(h_t, n_op, params)
        records.append(ledger_row(t, internal_energy(rho, h_t), charge(rho, n_op),
                                  [expectation(rho, d) for d in dw], ref.grand_potential,
                                  [expectation(ref.rho, d) for d in dw], lam_dot, params,
                                  s_start, charge_rate(rho, w_t, n_op)))
        probes.append([expectation(rho, a) for a in probe_ops or []])
    for rec, work in zip(records, work_accumulate(records, params)):
        rec.work = work

    def gibbs_probes(lam):
        rho = gibbs_state(h0 + sum(lj * v for lj, v in zip(lam, vs)), n_op, params).rho
        return np.array([expectation(rho, a) for a in probe_ops or []])

    return harness.Trajectory(records, np.array(probes), np.asarray(times), lambda: rho,
                              abs(von_neumann_entropy(rho) - s_start), report, None,
                              gibbs_probes, tuple(map(spectral_norm, vs)))


def cfm4_step(h_at, a, b):
    """One dense CFM4 step of the matrix h_at(t) over [a, b]: `cfm4` of one
    step, as `DenseSteps` samples it."""
    samples = np.stack([h_at(a + c * (b - a)) for c in GAUSS_NODES])
    return next(cfm4(samples[:, None], [b - a]))


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
    return LowRankUnitary(q, next(cfm4(np.stack(samples)[:, None], [dt])) - np.eye(q.shape[1]))


def two_qr_pair(steps, a, m, b):
    """The pair test on L-vectors with two QRs: the uncompressed steps over
    [a, m], [m, b] and [a, b] (`interaction_step`), the product over [a, b]
    on the joint span of the first two, and the spectral norm of its
    difference from the third on the joint span of both: (first, fine,
    whole, err)."""
    left, right, whole = (interaction_step(steps, lo, hi) for lo, hi in ((a, m), (m, b), (a, b)))
    p, ks = _on_joint_spans([(left, right)])
    kl, kr = ks[:, 0]
    fine = LowRankUnitary(p[0], kl + kr + kr @ kl)
    diff = np.subtract(*_on_joint_spans([(fine, whole)])[1][:, 0])
    return left, fine, whole, float(np.linalg.norm(diff, 2))


def lifted(frame, u):
    """A factor (q, k) in a FrameWindow's coordinates as the LowRankUnitary
    I + B_a q k q^dagger B_a^dagger on L-vectors."""
    return LowRankUnitary(frame.vectors @ u.q, u.k)


def window_update(block):
    """The update of G that `advance_window` forms for a Block of
    `InteractionSteps` (the window's product, compressed to its rank), lifted
    to L-vectors, from a diagonal G, which the update does not depend on."""
    g = diagonal_state(np.linspace(0.05, 0.95, block.frame.steps.eps.size))
    return lifted(block.frame, advance_window(g, block)[2])


def pair_window(steps, a, b):
    """The FrameWindow at a of `InteractionSteps` with a frame basis for
    [a, b]: the window of pair tests within [a, b]."""
    return FrameWindow(steps, steps.frame_basis(b - a), a)


def grid_steps(steps, times, tol):
    """`step_grid`'s per-interval Propagators, each factor lifted to
    L-vectors (`lifted`)."""
    return [replace(p, matrix=lifted(block.frame, p.matrix))
            for block in step_grid(steps, times, tol) for p in block.propagators]


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
