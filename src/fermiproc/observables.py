"""Thermodynamic ledger along a driven trajectory.

Internal energy, charge, the entropy functional relative to the running
reference state, its rate, the work differential, and their integrated
budgets. `ledger_row` is the one formula for S, dS/dt and dG/dt, and
`harness._trajectory` forms every row of both state representations with it.
The entropy rate also comes in two algebraically equivalent routes (the
direct formula and the energy/charge/grand-potential decomposition) so
checks can assert the identity rather than trust one code path.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import spectral_norm
# relative_entropy is re-exported: the benchmark's tracer wraps it here
from .states import gibbs_state, relative_entropy


@dataclass
class ProcessRecord:
    """One output-grid row of a simulated thermodynamic process.

    Fields mirror the CSV schema `t,U,q,S,Sdot,relS,work,G,D_probe`; `dG_dt`
    additionally stores (dG/dlambda) . lambda_dot for the work quadrature and
    is not serialized.
    """

    t: float
    U: float
    q: float
    S: float
    Sdot: float
    relS: float
    work: float
    G: float
    D_probe: float = float("nan")
    dG_dt: float = field(default=0.0, repr=False)

    CSV_FIELDS = ("t", "U", "q", "S", "Sdot", "relS", "work", "G", "D_probe")

    def csv_row(self):
        return tuple(getattr(self, name) for name in self.CSV_FIELDS)


def expectation(rho, a):
    """tr(rho A), returned as a real number (Hermitian observables)."""
    return float(np.real(np.einsum("ij,ji->", np.asarray(rho), np.asarray(a))))


def internal_energy(rho, h_t):
    """U(t) = <H_t> in the evolved state."""
    rho = np.asarray(rho)
    h_t = np.asarray(h_t)
    if rho.shape != h_t.shape:
        raise ValueError("state and Hamiltonian dimensions differ")
    return expectation(rho, h_t)


def charge(rho, n_op):
    """q(t) = <N> in the evolved state."""
    rho = np.asarray(rho)
    n_op = np.asarray(n_op)
    if rho.shape != n_op.shape:
        raise ValueError("state and charge-operator dimensions differ")
    return expectation(rho, n_op)


def energy_rate(rho, dw_dlambda, lambda_dot):
    """dU/dt = <dW/dlambda>_rho . lambda_dot."""
    lam_dot = np.atleast_1d(np.asarray(lambda_dot, dtype=float))
    if len(dw_dlambda) != lam_dot.size:
        raise ValueError(
            f"control dimension mismatch: {len(dw_dlambda)} operators, "
            f"{lam_dot.size} rates"
        )
    return float(sum(expectation(rho, dw) * ld for dw, ld in zip(dw_dlambda, lam_dot)))


def charge_rate(rho, w_t, n_op):
    """dq/dt = i <[W, N]>_rho (exactly zero for gauge-invariant W).

    N is diagonal in the occupation basis, so [W, N]_ij = W_ij (n_j - n_i)
    entrywise, with no dense products.
    """
    n = np.real(np.diagonal(n_op))
    comm = np.asarray(w_t) * (n[None, :] - n[:, None])
    return float(np.real(1j * np.einsum("ij,ji->", np.asarray(rho), comm)))


def gibbs_gradient(h_t, n_op, params, dw_dlambda, reference_rho=None):
    """dG/dlambda_j = <dW/dlambda_j> in the instantaneous reference state."""
    if reference_rho is None:
        reference_rho = gibbs_state(h_t, n_op, params).rho
    return np.array([expectation(reference_rho, dw) for dw in dw_dlambda])


def entropy_rate(rho, reference_rho, dw_dlambda, lambda_dot, w_t, n_op, params):
    """dS/dt = beta*[<dW/dl>_rho - <dW/dl>_ref] . lambda_dot - beta*mu*dq/dt.

    The gauge term enters through the identity
    d/dtau <phi_tau(W)>|_0 = -dq/dt = -i<[W,N]>, evaluated with the exact
    commutator.
    """
    lam_dot = np.atleast_1d(np.asarray(lambda_dot, dtype=float))
    drive_term = sum(
        (expectation(rho, dw) - expectation(reference_rho, dw)) * ld
        for dw, ld in zip(dw_dlambda, lam_dot)
    )
    return float(params.beta * drive_term - params.beta * params.mu * charge_rate(rho, w_t, n_op))


def entropy_rate_decomposed(rho, h_t, n_op, params, dw_dlambda, lambda_dot, w_t,
                            reference_rho=None):
    """dS/dt = beta*dU/dt - beta*mu*dq/dt - beta*(dG/dlambda . lambda_dot)."""
    lam_dot = np.atleast_1d(np.asarray(lambda_dot, dtype=float))
    du = energy_rate(rho, dw_dlambda, lam_dot)
    dq = charge_rate(rho, w_t, n_op)
    dg = float(gibbs_gradient(h_t, n_op, params, dw_dlambda, reference_rho) @ lam_dot)
    return params.beta * (du - params.mu * dq - dg)


def ledger_row(t, energy, q, drive_expect, grand_potential, gradient, lam_dot,
               params, s_start, qdot=None):
    """One ledger row: the only place S, dS/dt and dG/dt are formed.

    S = beta*(U - mu*q - G); dS/dt = beta*sum_j (<dW/dl_j>_rho - dG/dl_j)
    lambda_dot_j - beta*mu*dq/dt; dG/dt = sum_j dG/dl_j lambda_dot_j, with
    `drive_expect` the <dW/dl_j>_rho and `gradient` the dG/dl_j = <dW/dl_j> in
    the reference state. `qdot` is omitted where the representation conserves
    charge by construction (one-body drives, charge-sector blocks). `s_start`
    is the initial von Neumann entropy, which the unitary flow conserves, and
    relS = S - s_start is the relative entropy to the Gibbs reference sigma in
    closed form: -tr(rho ln sigma) = S, since ln sigma = -beta*(H - mu*N - G).
    `work` is left at zero.
    """
    beta, mu = params.beta, params.mu
    s_val = beta * (energy - mu * q - grand_potential)
    sdot = beta * sum((d - g) * ld for d, g, ld in zip(drive_expect, gradient, lam_dot))
    if qdot is not None:
        sdot = sdot - beta * mu * qdot
    dg_dt = sum(g * ld for g, ld in zip(gradient, lam_dot))
    return ProcessRecord(t=t, U=energy, q=q, S=s_val, Sdot=float(sdot),
                         relS=s_val - s_start, work=0.0,
                         G=grand_potential, dG_dt=float(dg_dt))


def _check_monotone(times):
    t = np.asarray(times, dtype=float)
    if t.size >= 2 and np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly increasing")
    return t


def work_accumulate(records: Sequence[ProcessRecord], params):
    """Running work int dA = int [-mu dq - (dG/dlambda).dlambda] from the first
    record to each record, as a list (0.0 first; the last entry is the total).

    The charge contribution uses the exact increments of the recorded q; the
    control contribution integrates the recorded (dG/dlambda).lambda_dot by
    the trapezoid rule, summed interval by interval from the left.
    """
    _check_monotone([r.t for r in records])
    work = [0.0] if records else []
    for prev, cur in zip(records, records[1:]):
        dt = cur.t - prev.t
        work.append(work[-1]
                    + (-params.mu * (cur.q - prev.q) - 0.5 * (cur.dG_dt + prev.dG_dt) * dt))
    return work


def delta_entropy(records: Sequence[ProcessRecord]):
    """Delta S = int dS/dt dt by the trapezoid rule over the output grid."""
    if len(records) < 2:
        return 0.0
    t = _check_monotone([r.t for r in records])
    sdot = np.array([r.Sdot for r in records])
    return float(np.trapezoid(sdot, t))


def entropy_rate_bound(params, dw_dlambda, lambda_dot, w_t, n_op):
    """Coefficient C with |dS/dt| <= C * eps when local probes pin the state.

    eps bounds |tr((rho - rho_ref) A)| over the probe set; the constant
    collects beta * sum_j ||dW_j|| |lambda_dot_j| plus the gauge-route term
    beta * |mu| * ||[W, N]||, every operator a dense matrix. This general
    formula is the reference of `harness.sdot_bound_coefficient`, which
    reads the drive norms from the path that ran.
    """
    lam_dot = np.atleast_1d(np.asarray(lambda_dot, dtype=float))
    drive = sum(spectral_norm(dw) * abs(ld) for dw, ld in zip(dw_dlambda, lam_dot))
    gauge = spectral_norm(w_t @ n_op - n_op @ w_t)
    return float(params.beta * (drive + abs(params.mu) * gauge))


__all__ = [
    "ProcessRecord", "expectation", "internal_energy", "charge", "energy_rate",
    "charge_rate", "gibbs_gradient", "entropy_rate", "entropy_rate_decomposed",
    "ledger_row", "work_accumulate", "delta_entropy", "entropy_rate_bound",
    "relative_entropy",
]
