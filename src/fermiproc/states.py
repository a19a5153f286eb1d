"""Grand-canonical Gibbs states and entropies."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import assemble_blocks, decoupled_blocks, ensure_hermitian, symmetrize

#: eigenvalues below this contribute zero to entropy sums (x ln x -> 0)
EIG_FLOOR = 1e-14
#: density-matrix eigenvalues may dip this far below zero before we error
NEGATIVE_EIG_TOL = 1e-12


class SupportError(ValueError):
    """Reference state vanishes on part of the true state's support."""


@dataclass(frozen=True)
class GibbsParams:
    """Inverse temperature and chemical potential of the thermal ensemble."""

    beta: float
    mu: float = 0.0

    def __post_init__(self):
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")


class GibbsResult(NamedTuple):
    """Gibbs state with its grand potential.

    `rho` is dense (`gibbs_state`) or a tuple of charge-sector blocks
    (`sector_gibbs_state`). `beta_g` is -ln Xi (dimensionless);
    `grand_potential` is beta_g / beta.
    `min_eigenvalue` is the smallest Boltzmann weight of rho (always > 0).
    """

    rho: np.ndarray
    grand_potential: float
    beta_g: float
    min_eigenvalue: float


def gibbs_state(h, n_op, params):
    """Grand-canonical state rho = exp(-beta*(H - mu*N)) / Xi.

    Diagonalizes K = H - mu*N one decoupled block (charge sector, for a
    gauge-invariant H) at a time and shifts by the ground energy before
    exponentiating (log-sum-exp stabilization), so arbitrary beta are safe.
    Returns the state together with the grand potential G and beta*G = -ln Xi.
    """
    h = ensure_hermitian(np.asarray(h), "Hamiltonian")
    n_op = ensure_hermitian(np.asarray(n_op), "charge operator")
    if h.shape != n_op.shape:
        raise ValueError("Hamiltonian and charge operator dimensions differ")
    k = h - params.mu * n_op
    keys = decoupled_blocks(k)
    eigs = [np.linalg.eigh(k[key]) for key in keys]
    weights, beta_g = _boltzmann_weights([w for w, _ in eigs], params.beta)
    rho = assemble_blocks(keys, [(v * p) @ v.conj().T for (_, v), p in zip(eigs, weights)],
                          k.shape)
    return GibbsResult(symmetrize(rho), beta_g / params.beta, beta_g,
                       float(min(p.min() for p in weights)))


def _boltzmann_weights(spectra, beta):
    """Weights exp(-beta*w) / Xi of the blocks' spectra of K = H - mu*N, and
    beta*G = -ln Xi, shifted by the ground energy (log-sum-exp)."""
    w_ground = min(w[0] for w in spectra)
    zs = [np.exp(-beta * (w - w_ground)) for w in spectra]
    xi_shifted = float(sum(np.sum(z) for z in zs))
    return [z / xi_shifted for z in zs], float(beta * w_ground - np.log(xi_shifted))


def sector_gibbs_state(h_sectors, params):
    """`gibbs_state` of a charge-conserving H given by its charge-sector
    blocks: `h_sectors[n]` is H on the n-particle sector, where N = n.

    Each block is diagonalized once and its spectrum shifted by -mu*n; the
    weights use `gibbs_state`'s log-sum-exp. `rho` is the tuple of the
    state's sector blocks.
    """
    eigs = [np.linalg.eigh(h) for h in h_sectors]
    weights, beta_g = _boltzmann_weights(
        [w - params.mu * n for n, (w, _) in enumerate(eigs)], params.beta)
    rho = tuple(symmetrize((v * p) @ v.conj().T) for (_, v), p in zip(eigs, weights))
    return GibbsResult(rho, beta_g / params.beta, beta_g,
                       float(min(p.min() for p in weights)))


def von_neumann_entropy(rho):
    """S(rho) = -tr(rho ln rho), eigenvalues below 1e-14 contributing zero."""
    w = np.linalg.eigvalsh(np.asarray(rho))
    if w[0] < -NEGATIVE_EIG_TOL:
        raise ValueError(f"negative eigenvalue {w[0]:.3e} beyond tolerance")
    w = w[w > EIG_FLOOR]
    return float(-np.sum(w * np.log(w)))


def relative_entropy(state, reference):
    """Relative entropy of `state` with respect to `reference`.

    Computes tr(rho ln rho - rho ln sigma) for rho = state, sigma = reference;
    non-negative (Klein inequality) and zero iff the states coincide. The
    reference must be strictly positive, or at least carry the state's
    support; a support violation raises `SupportError` naming the deficient
    eigenspace. Both states are diagonalized one block of their joint
    exact-zero pattern at a time.
    """
    rho = np.asarray(state)
    sigma = np.asarray(reference)
    if rho.shape != sigma.shape:
        raise ValueError("state dimensions differ")
    n_null, null_mass, wr_min, s_rho, cross = 0, 0.0, np.inf, 0.0, 0.0
    for key in decoupled_blocks(rho, sigma):
        r = rho[key]
        ws, vs = np.linalg.eigh(sigma[key])
        null = ws <= EIG_FLOOR
        if np.any(null):
            null_vecs = vs[:, null]
            n_null += int(null.sum())
            null_mass += float(np.real(np.sum(null_vecs.conj() * (r @ null_vecs))))
        wr = np.linalg.eigvalsh(r)
        wr_min = min(wr_min, wr[0])
        wr = wr[wr > EIG_FLOOR]
        s_rho += float(np.sum(wr * np.log(wr)))  # tr(rho ln rho)
        keep = vs[:, ~null]
        diag = np.real(np.sum(keep.conj() * (r @ keep), axis=0))
        cross += float(np.sum(diag * np.log(ws[~null])))  # tr(rho ln sigma) on the support
    if null_mass > 1e-12:
        raise SupportError(
            f"reference state has {n_null} null direction(s) "
            f"carrying state mass {null_mass:.3e}"
        )
    if wr_min < -NEGATIVE_EIG_TOL:
        raise ValueError(f"state eigenvalue {wr_min:.3e} beyond tolerance")
    return s_rho - cross


__all__ = [
    "GibbsParams", "GibbsResult", "SupportError", "gibbs_state", "sector_gibbs_state",
    "von_neumann_entropy", "relative_entropy", "EIG_FLOOR",
]
