"""Free-fermion fast path: one-particle dynamics for quadratic drives.

A quasi-free state is fully described by its correlation matrix
Gamma_ij = <a_i^* a_j>. For a quadratic Hamiltonian H = sum h_ij a_i^* a_j the
evolved correlations are Gamma(t) = conj(u) Gamma conj(u)^dagger with u the
one-particle propagator of h(t); Gibbs states have Gamma = transpose of the
Fermi-Dirac function of h. The transpose/conjugate placement is the classic
bug source; it is pinned by exact-diagonalization and dense oracles in the
test suite before anything large runs on it.

The trajectory runs in the interaction picture of h0 = phi diag(eps) phi^T
(`interaction_picture`, one tridiagonal eigensolve for an open chain): the
state is G = conj(Gamma) in h0's eigenbasis, a Gibbs start is diag(f(eps)),
and an interval's propagator is a `LowRankUnitary` of rank at most 3|R| per
CFM4 step (three Gauss nodes' frames, compressed to the eigen-directions above
roundoff), R being the sites the drive acts on. Every CFM4 pair test runs in
coordinates on the run's one frame basis B (L x d, d about 20-35 for the
reference runs), which holds the frames of R and of the probe sites over a
window of grid pairs. G is stored as the lower triangle of a Fortran-ordered
complex128 array and advances one window of up to 16 grid pairs at a time
(`advance_window`): one BLAS `zhemm`, G diag(e^{i eps a}) B, gives every row
of the window in coordinates, and `rank_update` overwrites the triangle with
one `zher2k` at the rank of the window's product, O(d L^2) per window and
nothing of size L x L allocated; whatever reads G reads that triangle only
(`zhemm`, `eigvalsh(..., UPLO="L")`). Each row's reference scalars come from
|R| x |R| resolvents (`ScalarDriveReferenceCache`), with no L x L `eigh`.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import zhemm, zher2k

from .linalg import ensure_hermitian, symmetrize
from .observables import ledger_row
from .propagator import InteractionSteps, LowRankUnitary, _eigen_order, cumulative_factors
from .states import EIG_FLOOR


def expit(x):
    """The logistic function 1 / (1 + e^{-x}) of each entry of a 1-D x, 0
    where e^{-x} overflows: scipy.special's formula on libm's `exp`, bit for
    bit (numpy's vectorised `exp` differs in the last bit on about 2% of
    inputs)."""
    def one(v):
        try:
            return 1.0 / (1.0 + math.exp(-v))
        except OverflowError:
            return 0.0
    return np.array([one(v) for v in np.asarray(x, dtype=float).tolist()])


def gibbs_correlation(h, params):
    """Correlation matrix of the grand-canonical state of a quadratic H.

    Gamma = transpose of (1 + exp(beta*(h - mu)))^{-1}; eigenvalues are the
    Fermi-Dirac occupations of the modes of h, and [Gamma, h^T] = 0.
    """
    h = ensure_hermitian(np.asarray(h), "one-body Hamiltonian")
    w, v = np.linalg.eigh(h)
    occ = expit(-params.beta * (w - params.mu))
    return symmetrize(((v * occ) @ v.conj().T).conj())


def eigenbasis(h0):
    """The eigenvalues eps and eigenvectors phi of h0: `eigh_tridiagonal`
    for a real h0 with no entries beyond its first off-diagonal (open
    chains), `eigh` otherwise (periodic ones)."""
    if np.isrealobj(h0) and not np.any(np.triu(h0, 2)):
        return eigh_tridiagonal(np.diagonal(h0), np.diagonal(h0, 1))
    return np.linalg.eigh(h0)


def interaction_picture(h0, protocol, probe_sites=()):
    """CFM4 steps of `protocol` in the interaction picture of h0, and the
    drive's R x R blocks dW/dlambda_j.

    R is the set of rows where a component's one-body matrix is nonzero
    (empty without a drive); the steps' frame sites S are R and
    `probe_sites`. One eigendecomposition of h0 (`eigenbasis`) serves the
    whole trajectory.
    """
    eps, phi = eigenbasis(h0)
    mats = [c.one_body() for c in protocol.components] if protocol is not None else []
    rows = np.flatnonzero(sum((np.any(m != 0, axis=1) for m in mats), np.zeros(eps.size)))
    blocks = [m[np.ix_(rows, rows)] for m in mats]
    stack = np.array(blocks).reshape(len(blocks), rows.size, rows.size)

    def coupling(times):
        lam = [protocol.controls(t) if protocol is not None else () for t in times]
        return np.tensordot(np.reshape(lam, (len(times), len(blocks))), stack, 1)

    sites = np.union1d(rows, np.asarray(probe_sites, dtype=int))
    return InteractionSteps(eps, phi, rows, coupling, sites), blocks


def rank_update(g, u, w=None):
    """Overwrite the lower triangle of a Hermitian G with that of U G U^dagger,
    for U = I + Q K Q^dagger, and return G.

    G must be a square, writable, Fortran-ordered complex128 array, of which
    only the lower triangle is read; anything else raises ValueError rather
    than being copied. `w` is G Q when the caller has it (the fast path reads
    it from the one `zhemm` that also serves its rows); otherwise `zhemm`
    takes it here. With W = G Q (so X = Q^dagger G = W^dagger),
    Y = K X + K (X Q) K^dagger Q^dagger / 2 and
    Y^dagger = W K^dagger + Q K (Q^dagger W) K^dagger / 2, the update is
    G + Q Y + Y^dagger Q^dagger: one `zher2k` with beta = 1, O(r L^2) for rank
    r. It is Hermitian by construction (BLAS keeps the diagonal real), and a
    full-rank factor (Q = I) takes the same path.
    """
    if not (g.dtype == np.complex128 and g.ndim == 2 and g.shape[0] == g.shape[1]
            and g.flags.f_contiguous and g.flags.writeable):
        raise ValueError("rank_update overwrites a square, writable, Fortran-ordered "
                         f"complex128 G; got {g.dtype} {g.shape} "
                         f"(Fortran order: {g.flags.f_contiguous})")
    q, k = u
    kh = k.conj().T
    if w is None:
        w = zhemm(1.0, g, q, lower=1)
    y_h = w @ kh + 0.5 * (q @ (k @ (q.conj().T @ w) @ kh))
    return zher2k(1.0, q, y_h, beta=1.0, c=g, lower=1, overwrite_c=1)


def diagonal_reads(g, eps):
    """sum_k eps_k G_kk and tr G, from G's real diagonal."""
    g_diag = np.real(np.diagonal(g))
    return float(eps @ g_diag), float(np.sum(g_diag))


def advance_window(g, block):
    """Advance G over one window, a Block of `InteractionSteps`: one `zhemm`
    reads G and one `zher2k` (`rank_update`) writes its lower triangle.
    Returns the updated G, each block time's (sum_k eps_k G_kk, tr G,
    Gamma_SS), and the window's update (V, K) in its frame coordinates.

    With B_a = diag(e^{i eps a}) B the window's frame basis, X = G B_a,
    H = B_a^dagger X and U(t_i, a) = I + B_a D_i B_a^dagger, one pass over
    the factors (q, k) takes H_i = (I + D_i) H (I + D_i)^dagger =
    B_a^dagger G_i B_a and D_i (`cumulative_factors`), each at O(d^2 r).
    Then Gamma_SS = conj(c^dagger H_i c) for the frames' coordinates c,
    tr G_i = tr G + tr(H_i - H), and sum_k eps_k (G_i)_kk = sum_k eps_k G_kk
    + tr(E_B (H_i - H)) + 2 Re tr(D_i A), with E_B = B^dagger diag(eps) B
    and A = (X - B_a H)^dagger diag(eps) B_a: O(d^2 (r + |S|)) per row and
    nothing of size d^3. The last D_i is the window's product; its
    eigen-directions above ROUNDOFF_FLOOR (`_eigen_order`) give the update
    at its rank r, written with G B_a V = X V. The last row reads the
    updated diagonal, so no error accumulates across windows.
    """
    frame = block.frame
    eps, basis, e_b = frame.steps.eps, frame.vectors, frame.basis.energy
    x = zhemm(1.0, g, basis, lower=1)
    h = basis.conj().T @ x
    a = x.conj().T @ (eps[:, None] * basis) - h @ e_b
    energy0, charge0 = diagonal_reads(g, eps)
    h_i, reads = h, []
    for step, c, d_i in zip(block.propagators, frame.coordinates(block.times),
                            cumulative_factors(block.propagators, len(h))):
        q, k = step.matrix
        qh = q.conj().T
        u_h = h_i + q @ (k @ (qh @ h_i))
        h_i = u_h + (u_h @ q) @ k.conj().T @ qh
        gamma = (c.conj().T @ h_i @ c).conj()
        dh = h_i - h
        reads.append((energy0 + float(np.real(np.sum(e_b * dh.T) + 2 * np.sum(d_i * a.T))),
                      charge0 + float(np.real(np.trace(dh))), gamma))
    v, form, keep = _eigen_order(d_i)
    update = LowRankUnitary(v[:, keep], form[np.ix_(keep, keep)])
    if len(update.k):
        g = rank_update(g, LowRankUnitary(basis @ update.q, update.k), x @ update.q)
    reads[-1] = (*diagonal_reads(g, eps), gamma)
    return g, reads, update


def diagonal_state(occupations):
    """G = diag(occupations) in `rank_update`'s storage: Fortran-ordered
    complex128, built in place."""
    g = np.zeros((len(occupations),) * 2, dtype=complex, order="F")
    np.fill_diagonal(g, occupations)
    return g


def quadratic_observable(gamma, w):
    """Expectation <sum_ij w_ij a_i^* a_j> = sum_ij w_ij Gamma_ij."""
    gamma = np.asarray(gamma)
    w = np.asarray(w)
    if gamma.shape != w.shape:
        raise ValueError("kernel and correlation matrix dimensions differ")
    val = complex(np.sum(w * gamma))
    return float(val.real)


def binary_entropy(nu):
    """sum_k -nu_k ln nu_k - (1 - nu_k) ln(1 - nu_k): the von Neumann entropy
    of the quasi-free state whose correlation matrix has spectrum nu, clipped
    to [0, 1]; terms below EIG_FLOOR contribute zero."""
    nu = np.clip(np.asarray(nu, dtype=float), 0.0, 1.0)
    out = 0.0
    for x in (nu, 1.0 - nu):
        x = x[x > EIG_FLOOR]
        out -= float(np.sum(x * np.log(x)))
    return out


def pauli_excess(nu):
    """How far the spectrum nu of a correlation matrix escapes [0, 1]."""
    return float(max(0.0, -np.min(nu), np.max(nu) - 1.0))


def correlation_entropy(gamma):
    """Von Neumann entropy of the quasi-free state with correlations Gamma
    (its lower triangle is read)."""
    return binary_entropy(np.linalg.eigvalsh(np.asarray(gamma), UPLO="L"))


def pauli_defect(gamma):
    """How far the spectrum of Gamma (its lower triangle) escapes [0, 1]."""
    return pauli_excess(np.linalg.eigvalsh(np.asarray(gamma), UPLO="L"))


class ReferenceScalars(NamedTuple):
    """Reference-state inputs to the ledger at one time."""

    grand_potential: float
    gradient: np.ndarray  # <dW/dlambda_j> in the reference state, per control


def reference_scalars(h_t, params, d_kernels):
    """Direct evaluation of G and the reference gradient at one Hamiltonian:
    one L x L `eigh`, the oracle for `ScalarDriveReferenceCache`."""
    h_t = np.asarray(h_t)
    w, v = np.linalg.eigh(h_t)
    beta_g = -float(np.sum(np.logaddexp(0.0, -params.beta * (w - params.mu))))
    occ = expit(-params.beta * (w - params.mu))
    gamma_ref = ((v * occ) @ v.conj().T).conj()
    grads = np.array([float(np.real(np.sum(np.asarray(dk) * gamma_ref)))
                      for dk in d_kernels])
    return ReferenceScalars(beta_g / params.beta, grads)


def _fermi_poles(n):
    """Ozaki's n poles i z_p and residues r_p (Phys. Rev. B 75, 035123 (2007)):
    1/(1 + e^x) = 1/2 - sum_p r_p (1/(x - i z_p) + 1/(x + i z_p)) to 1e-14 for
    |x| <= (n - 2)^2 / 4, with 1/z_p the positive eigenvalues of a tridiagonal."""
    m = np.arange(1, 2 * n)
    b = 0.5 / np.sqrt((2 * m - 1) * (2 * m + 1))
    vals, vecs = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
    pos = vals > 0
    return 1.0 / vals[pos], vecs[0, pos] ** 2 / (4.0 * vals[pos] ** 2)


class ScalarDriveReferenceCache:
    """G(lambda) and <dW/dlambda_j>_ref(lambda) from |R| x |R| resolvents.

    h(lambda) = h0 + sum_j lambda_j V_j, h0 = phi diag(eps) phi^dagger and V_j
    the block C_j on the rows R. With the Fermi poles w_p = mu + i z_p / beta,
    G0(w) = phi_R diag(1/(w - eps)) phi_R^dagger (built once), C = sum_j
    lambda_j C_j and the Dyson resolvent (I - G0 C)^-1 G0 on R:
        <V_j>_ref = tr C_j / 2 + sum_p (2 r_p / beta) Re tr(C_j (I - G0 C)^-1 G0),
        G = G(0) + tr C / 2 - sum_p (2 r_p / beta) ln|det(I - G0(w_p) C)|,
    G(0) from eps. The pole count follows from beta times a bound on
    |spec h(lambda) - mu| for |lambda_j| <= lam_bound_j; a call beyond it raises.
    A call takes one control vector or a stack of them, such as every grid
    time's, as stacked `solve` and `slogdet` calls: each lambda's scalars
    are those of its own call, bit for bit.
    """

    def __init__(self, eps, phi_r, blocks, params, lam_bound):
        self.blocks = np.array(blocks, dtype=complex).reshape((len(blocks),) + (len(phi_r),) * 2)
        self.lam_bound = np.asarray(lam_bound, dtype=float)
        width = np.max(np.abs(eps - params.mu)) + sum(
            b * np.linalg.norm(c, 2) for b, c in zip(self.lam_bound, self.blocks))
        z, r = _fermi_poles(int(np.ceil(2.0 * np.sqrt(params.beta * width))) + 2)
        self.weights = 2.0 * r / params.beta
        w = params.mu + 1j * z / params.beta
        self.g0 = (phi_r * (1.0 / (w[:, None] - eps))[:, None, :]) @ phi_r.conj().T
        beta_g = -float(np.sum(np.logaddexp(0.0, -params.beta * (eps - params.mu))))
        self.g_zero = beta_g / params.beta

    def __call__(self, lam):
        """The ReferenceScalars at the controls `lam`, of shape (k,) or
        (n, k); for a stack, G has shape (n,) and the gradient (n, k)."""
        lam = np.asarray(lam, dtype=float)
        beyond = np.any(np.abs(lam) > self.lam_bound, axis=-1)
        if np.any(beyond):
            raise ValueError(f"controls {lam[beyond] if lam.ndim > 1 else lam} leave the "
                             f"bound {self.lam_bound} the Fermi poles were sized for")
        c = np.tensordot(lam, self.blocks, axes=1)[..., None, :, :]  # one per pole
        m = np.eye(c.shape[-1]) - self.g0 @ c
        resolvent = np.linalg.solve(m, self.g0)  # [(w_p - h)^-1]_RR
        grads = (np.real(np.einsum("jaa->j", self.blocks)) / 2
                 + np.real(np.einsum("jab,...pba->...jp", self.blocks, resolvent))
                 @ self.weights)
        # the pole sum as one dot per lambda, as a single call takes it
        log_dets = np.linalg.slogdet(m)[1][..., None]
        g = (self.g_zero + np.real(np.trace(c[..., 0, :, :], axis1=-2, axis2=-1)) / 2
             - (self.weights @ log_dets)[..., 0])
        return ReferenceScalars(g if lam.ndim > 1 else float(g), grads)


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
    "expit", "gibbs_correlation", "eigenbasis", "interaction_picture",
    "rank_update", "diagonal_reads", "advance_window", "diagonal_state", "quadratic_observable",
    "binary_entropy", "pauli_excess", "correlation_entropy", "pauli_defect", "ReferenceScalars",
    "reference_scalars", "ScalarDriveReferenceCache", "quadratic_entropy_ledger",
]
