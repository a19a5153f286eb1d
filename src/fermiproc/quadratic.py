"""Free-fermion fast path: one-particle dynamics for quadratic drives.

A quasi-free state is fully described by its correlation matrix
Gamma_ij = <a_i^* a_j>. For a quadratic Hamiltonian H = sum h_ij a_i^* a_j the
evolved correlations are Gamma(t) = conj(u) Gamma conj(u)^dagger with u the
one-particle propagator of h(t); Gibbs states have Gamma = transpose of the
Fermi-Dirac function of h. The transpose/conjugate placement is the classic
bug source; it is pinned by exact-diagonalization and dense oracles in the
test suite before anything large runs on it.

The trajectory runs in the interaction picture of h0 = phi diag(eps) phi^T
(`interaction_picture`): the state is G = conj(Gamma) in h0's eigenbasis, a
Gibbs start is diag(f(eps)), and an interval's propagator is a
`LowRankUnitary` of rank 2|R| per CFM4 step, R being the sites the drive acts
on, which `rank_update` applies in O(|R| L^2).
"""

from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .linalg import ensure_hermitian, symmetrize
from .observables import ledger_row
from .propagator import InteractionSteps
from .states import EIG_FLOOR


def gibbs_correlation(h, params):
    """Correlation matrix of the grand-canonical state of a quadratic H.

    Gamma = transpose of (1 + exp(beta*(h - mu)))^{-1}; eigenvalues are the
    Fermi-Dirac occupations of the modes of h, and [Gamma, h^T] = 0.
    """
    h = ensure_hermitian(np.asarray(h), "one-body Hamiltonian")
    w, v = np.linalg.eigh(h)
    occ = expit(-params.beta * (w - params.mu))
    return symmetrize(((v * occ) @ v.conj().T).conj())


def interaction_picture(h0, protocol):
    """CFM4 steps of `protocol` in the interaction picture of h0, and the
    drive's R x R blocks dW/dlambda_j.

    R is the set of rows where a component's one-body matrix is nonzero
    (empty without a drive); one `eigh` of h0 serves the whole trajectory.
    """
    eps, phi = np.linalg.eigh(h0)
    mats = [c.one_body() for c in protocol.components] if protocol is not None else []
    rows = np.flatnonzero(sum((np.any(m != 0, axis=1) for m in mats), np.zeros(eps.size)))
    blocks = [m[np.ix_(rows, rows)] for m in mats]

    def coupling(t):
        lam = protocol.controls(t) if protocol is not None else ()
        return sum((lj * c for lj, c in zip(lam, blocks)), np.zeros((rows.size,) * 2))

    return InteractionSteps(eps, phi, rows, coupling), blocks


def rank_update(g, u):
    """U G U^dagger for Hermitian G and U = I + Q K Q^dagger, in two GEMMs.

    With X = Q^dagger G and Y = K X + K (X Q) K^dagger Q^dagger / 2, the
    update is G + Q Y + Y^dagger Q^dagger = G + [Q, Y^dagger] [Y; Q^dagger]:
    O(r L^2) for rank r, and a full-rank factor (Q = I) takes the same path.
    """
    q, k = u
    qh = q.conj().T
    x = qh @ g
    y = k @ x + 0.5 * (k @ (x @ q) @ k.conj().T) @ qh
    return g + np.hstack([q, y.conj().T]) @ np.vstack([y, qh])


def quadratic_observable(gamma, w):
    """Expectation <sum_ij w_ij a_i^* a_j> = sum_ij w_ij Gamma_ij."""
    gamma = np.asarray(gamma)
    w = np.asarray(w)
    if gamma.shape != w.shape:
        raise ValueError("kernel and correlation matrix dimensions differ")
    val = complex(np.sum(w * gamma))
    return float(val.real)


def correlation_entropy(gamma):
    """Von Neumann entropy of the quasi-free state with correlations Gamma."""
    nu = np.clip(np.linalg.eigvalsh(np.asarray(gamma)), 0.0, 1.0)
    out = 0.0
    for x in nu:
        if x > EIG_FLOOR:
            out -= x * np.log(x)
        if 1.0 - x > EIG_FLOOR:
            out -= (1.0 - x) * np.log(1.0 - x)
    return float(out)


def pauli_defect(gamma):
    """How far the spectrum of Gamma escapes [0, 1]."""
    nu = np.linalg.eigvalsh(np.asarray(gamma))
    return float(max(0.0, -nu.min(), nu.max() - 1.0))


class ReferenceScalars(NamedTuple):
    """Reference-state inputs to the ledger at one time."""

    grand_potential: float
    gradient: np.ndarray  # <dW/dlambda_j> in the reference state, per control


def reference_scalars(h_t, params, d_kernels):
    """Direct evaluation of G and the reference gradient at one Hamiltonian."""
    h_t = np.asarray(h_t)
    w, v = np.linalg.eigh(h_t)
    beta_g = -float(np.sum(np.logaddexp(0.0, -params.beta * (w - params.mu))))
    occ = expit(-params.beta * (w - params.mu))
    gamma_ref = ((v * occ) @ v.conj().T).conj()
    grads = np.array([float(np.real(np.sum(np.asarray(dk) * gamma_ref)))
                      for dk in d_kernels])
    return ReferenceScalars(beta_g / params.beta, grads)


class _ChebyshevFit:
    """Deterministic Chebyshev interpolant on first-kind nodes over [lo, hi]."""

    def __init__(self, lo, hi, values):
        n = len(values)
        j = np.arange(n)
        theta = np.pi * (2 * j + 1) / (2 * n)
        # coefficients of the degree-(n-1) interpolant through f(cos theta_j)
        k = np.arange(n)[:, None]
        self.coeffs = (2.0 / n) * (np.cos(k * theta[None, :]) @ np.asarray(values))
        self.coeffs[0] *= 0.5
        self.lo, self.hi = lo, hi

    def __call__(self, x):
        u = (2.0 * x - (self.lo + self.hi)) / (self.hi - self.lo)
        return float(np.polynomial.chebyshev.chebval(u, self.coeffs))


class ScalarDriveReferenceCache:
    """Chebyshev interpolation of G(lambda) and <dW/dlambda>_ref(lambda).

    For a single-control linear drive h(lambda) = h0 + lambda*v the reference
    scalars are analytic functions of the scalar lambda; interpolating them on
    Chebyshev nodes replaces an O(L^3) eigendecomposition per output time with
    an O(nodes) evaluation. Accuracy is checked against the direct route at
    construction; out-of-range lookups fall back to the direct route.
    """

    def __init__(self, h0, v, params, lam_min, lam_max, nodes=33, check_tol=1e-9):
        self.lam_min = float(lam_min)
        self.lam_max = float(lam_max)
        if self.lam_max <= self.lam_min:
            self.lam_max = self.lam_min + 1e-12
        j = np.arange(nodes)
        x = np.cos(np.pi * (2 * j + 1) / (2 * nodes))  # first-kind nodes on (-1, 1)
        lams = 0.5 * (self.lam_min + self.lam_max) + 0.5 * (self.lam_max - self.lam_min) * x
        g_vals, d_vals = [], []
        for lam in lams:
            ref = reference_scalars(h0 + lam * v, params, [v])
            g_vals.append(ref.grand_potential)
            d_vals.append(ref.gradient[0])
        self._g = _ChebyshevFit(self.lam_min, self.lam_max, g_vals)
        self._d = _ChebyshevFit(self.lam_min, self.lam_max, d_vals)
        self._h0, self._v, self._params = h0, v, params
        mid = 0.5 * (self.lam_min + self.lam_max) + 0.123456 * (self.lam_max - self.lam_min) / 2
        exact = reference_scalars(h0 + mid * v, params, [v])
        err = max(abs(self._g(mid) - exact.grand_potential),
                  abs(self._d(mid) - exact.gradient[0]))
        if err > check_tol:
            raise RuntimeError(f"reference interpolation error {err:.3e} exceeds {check_tol:.1e}")

    def __call__(self, lam):
        lam = float(lam)
        if not (self.lam_min - 1e-12 <= lam <= self.lam_max + 1e-12):
            return reference_scalars(self._h0 + lam * self._v, self._params, [self._v])
        return ReferenceScalars(self._g(lam), np.array([self._d(lam)]))


def quadratic_entropy_ledger(t, free_energy, q, gamma_rr, blocks, lam, lam_dot, params,
                             s_start, reference: ReferenceScalars):
    """One ledger row of a quadratic-drive process at time t.

    `free_energy` = sum_k eps_k G_kk = <h0> and `q` = tr G; `gamma_rr` is
    Gamma on the drive's rows R, where `blocks` are the dW/dlambda_j, so
    U = <h0> + sum_j lambda_j <dW/dlambda_j>. `s_start` is the initial entropy,
    conserved by the unitary flow, so relS is the entropy gap S - s_start.
    Degree-1 drives conserve charge exactly: the row has no charge-rate term.
    """
    drive_expect = [float(np.real(np.sum(c * gamma_rr))) for c in blocks]
    energy = free_energy + sum(lj * d for lj, d in zip(lam, drive_expect))
    return ledger_row(t, float(energy), q, drive_expect, reference.grand_potential,
                      reference.gradient, lam_dot, params, s_start)


__all__ = [
    "gibbs_correlation", "interaction_picture",
    "rank_update",
    "quadratic_observable", "correlation_entropy", "pauli_defect", "ReferenceScalars",
    "reference_scalars", "ScalarDriveReferenceCache", "quadratic_entropy_ledger",
]
