"""Grand-canonical Gibbs states and entropies."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import ensure_hermitian, sector_map, symmetrize

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

    `rho` is dense (`gibbs_state`, one eigendecomposition of the whole
    matrix) or a tuple of charge-sector blocks (`sector_gibbs_state`, one per
    sector). `beta_g` is -ln Xi (dimensionless);
    `grand_potential` is beta_g / beta.
    `min_eigenvalue` is the smallest Boltzmann weight of rho (always > 0).
    """

    rho: np.ndarray
    grand_potential: float
    beta_g: float
    min_eigenvalue: float


def gibbs_state(h, n_op, params):
    """Grand-canonical state rho = exp(-beta*(H - mu*N)) / Xi.

    Diagonalizes K = H - mu*N once and shifts by the ground energy before
    exponentiating (log-sum-exp stabilization), so arbitrary beta are safe.
    Returns the state together with the grand potential G and beta*G = -ln Xi.
    A charge-conserving H given by its sector blocks goes to
    `sector_gibbs_state` instead.
    """
    h = ensure_hermitian(np.asarray(h), "Hamiltonian")
    n_op = ensure_hermitian(np.asarray(n_op), "charge operator")
    if h.shape != n_op.shape:
        raise ValueError("Hamiltonian and charge operator dimensions differ")
    w, v = np.linalg.eigh(h - params.mu * n_op)
    (p,), beta_g = _boltzmann_weights([w], params.beta)
    return GibbsResult(symmetrize((v * p) @ v.conj().T), beta_g / params.beta, beta_g,
                       float(p.min()))


def _boltzmann_weights(spectra, beta):
    """Weights exp(-beta*w) / Xi of the blocks' spectra of K = H - mu*N, and
    beta*G = -ln Xi, shifted by the ground energy (log-sum-exp)."""
    w_ground = min(w[0] for w in spectra)
    zs = [np.exp(-beta * (w - w_ground)) for w in spectra]
    xi_shifted = float(sum(np.sum(z) for z in zs))
    return [z / xi_shifted for z in zs], float(beta * w_ground - np.log(xi_shifted))


def _weighted(v, p):
    """V diag(p) V^dagger, made exactly Hermitian."""
    return symmetrize((v * p) @ v.conj().T)


def sector_gibbs_state(h_sectors, params):
    """`gibbs_state` of a charge-conserving H given by its charge-sector
    blocks: `h_sectors[n]` is H on the n-particle sector, where N = n.

    Each block is diagonalized once and its spectrum shifted by -mu*n; the
    weights use `gibbs_state`'s log-sum-exp, summed over the sectors in
    order. The `eigh`s, and then the rho blocks, are each one `sector_map`
    over the sectors, so they run on every CPU with the serial result bit for
    bit. `rho` is the tuple of the state's sector blocks, of each H block's
    dtype: a real symmetric block (every reference drive's H(t), from
    `FockBasis.sectors`) takes a real `eigh`, about a quarter of a complex
    Hermitian one's flops, and gives a real rho block.
    """
    spectra, vectors = zip(*sector_map(np.linalg.eigh, h_sectors))
    weights, beta_g = _boltzmann_weights(
        [w - params.mu * n for n, w in enumerate(spectra)], params.beta)
    rho = tuple(sector_map(_weighted, vectors, weights))
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
    eigenspace. One eigendecomposition of sigma and one spectrum of rho.
    """
    rho = np.asarray(state)
    sigma = np.asarray(reference)
    if rho.shape != sigma.shape:
        raise ValueError("state dimensions differ")
    ws, vs = np.linalg.eigh(sigma)
    null = ws <= EIG_FLOOR
    if np.any(null):
        null_vecs = vs[:, null]
        null_mass = float(np.real(np.sum(null_vecs.conj() * (rho @ null_vecs))))
        if null_mass > 1e-12:
            raise SupportError(
                f"reference state has {int(null.sum())} null direction(s) "
                f"carrying state mass {null_mass:.3e}"
            )
    wr = np.linalg.eigvalsh(rho)
    if wr[0] < -NEGATIVE_EIG_TOL:
        raise ValueError(f"state eigenvalue {wr[0]:.3e} beyond tolerance")
    wr = wr[wr > EIG_FLOOR]
    keep = vs[:, ~null]
    diag = np.real(np.sum(keep.conj() * (rho @ keep), axis=0))
    # tr(rho ln rho) - tr(rho ln sigma) on sigma's support
    return float(np.sum(wr * np.log(wr))) - float(np.sum(diag * np.log(ws[~null])))


__all__ = [
    "GibbsParams", "GibbsResult", "SupportError", "gibbs_state", "sector_gibbs_state",
    "von_neumann_entropy", "relative_entropy", "EIG_FLOOR",
]
