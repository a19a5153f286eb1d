"""Finite fermionic lattice kinematics.

Occupation-number Fock space over a 1-D chain of L spinless-fermion sites,
with creation/annihilation matrices satisfying the canonical anticommutation
relations (CAR), the hopping Hamiltonian (second-quantized discrete
Laplacian), the particle-number operator, and gauge transformations generated
by it. The chain singles out a local region, the support of every drive
kernel: locality is checked on the kernels' sites
(`drive.KernelSpec.validate_support`), never on Fock matrices.

Basis convention: basis index k in [0, 2^L) encodes the occupation bitstring,
bit j of k being the occupancy of site j. Operator products use site-ascending
ordering for the Jordan-Wigner strings, i.e. |k> = prod_{sites s ascending}
(a_s^dagger)^{n_s} |vac>.

Every gauge-invariant Fock operator is scattered from its monomials into its
charge-sector blocks (`FockBasis.blocks`); dense ones are `FockBasis.assemble`d.
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .linalg import ensure_hermitian, max_abs

#: largest site count for which the exact path runs. Its operators are
#: charge-sector blocks (`FockBasis.blocks`) of C(2L, L) entries each, 21.6 MB
#: as float64 at L = 12, where one dense complex 2^L x 2^L matrix is 268 MB.
#: Measured peak RSS of a 2-interval exact run, the reference 4x4 kernel on
#: the central sites and the default ten probes, one BLAS thread: 325 MB at
#: L = 11 and 1039 MB at L = 12, most of it the stacked pair-test samples and
#: the sector unitaries, which grow about fourfold per site (a sector of
#: L = 13 has up to 1716 rows). 12 stays the cap until L = 13 is measured.
EXACT_SITE_CAP = 12


class LatticeTooLargeError(ValueError):
    """Fock-space construction requested beyond the exact-path site cap."""


class Boundary(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    PERIODIC = "periodic"


def site_index(value, what="sites"):
    """`value` as a site index or count; ValueError unless it is an integer
    (int() would silently truncate 2.7 to site 2)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{what} must be integers, got {value!r}")


@dataclass(frozen=True)
class LatticeSpec:
    """1-D chain geometry: site count, boundary condition, local region.

    `local_region` is an ordered tuple of distinct sites singled out as the
    support of external perturbations and of the local probe set.
    """

    n_sites: int
    boundary: Boundary = Boundary.DIRICHLET
    local_region: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "n_sites", site_index(self.n_sites, "n_sites"))
        if self.n_sites < 1:
            raise ValueError("n_sites must be positive")
        region = (tuple(site_index(s, "local_region sites") for s in self.local_region)
                  or tuple(range(self.n_sites)))
        object.__setattr__(self, "local_region", region)
        if not 1 <= len(region) <= self.n_sites:
            raise ValueError("local_region must contain between 1 and n_sites sites")
        if len(set(region)) != len(region):
            raise ValueError("local_region sites must be distinct")
        if any(not 0 <= s < self.n_sites for s in region):
            raise ValueError("local_region site out of range")
        if not isinstance(self.boundary, Boundary):
            object.__setattr__(self, "boundary", Boundary(self.boundary))

    @property
    def fock_dim(self):
        _check_cap(self.n_sites)
        return 1 << self.n_sites


def _check_cap(n_sites):
    if n_sites > EXACT_SITE_CAP:
        raise LatticeTooLargeError(f"exact path limited to {EXACT_SITE_CAP} sites, got L={n_sites}")


@lru_cache(maxsize=32)
def _popcounts(n_sites):
    _check_cap(n_sites)
    dim = 1 << n_sites
    k = np.arange(dim, dtype=np.int64)
    pops = np.zeros(dim, dtype=np.int64)
    for j in range(n_sites):
        pops += (k >> j) & 1
    return pops


class FockBasis:
    """Occupation-number basis bookkeeping for L sites (dimension 2^L).

    The charge sectors n = 0..L are Fock space's block structure: every
    gauge-invariant operator is block-diagonal over them. `blocks` builds an
    operator's diagonal blocks from its monomials, each basis index ranked
    within its sector, and `assemble` puts blocks together as a dense matrix.
    """

    def __init__(self, n_sites):
        self.n_sites, self.dim = n_sites, 1 << n_sites
        self.popcounts = _popcounts(n_sites)
        # each basis index's rank within its sector, each sector's size and
        # the offset of its block in `blocks`' flat buffer (one more: the end)
        self._ranks = np.empty_like(self.popcounts)
        for n in range(n_sites + 1):
            idx = self.sector_indices(n)
            self._ranks[idx] = np.arange(idx.size)
        self._sizes = np.bincount(self.popcounts)
        self._offsets = np.concatenate(([0], np.cumsum(self._sizes**2)))

    def sector_indices(self, n_particles):
        """Basis indices of the n-particle sector, ascending."""
        return np.nonzero(self.popcounts == n_particles)[0]

    def blocks(self, terms, name="operator"):
        """The n-particle diagonal blocks, n = 0..L, of the Fock operator
        sum_t c_t a_{c1}^* ... a_{cM}^* a_{d1} ... a_{dK}, `terms` holding
        each monomial's (c_t, creators, annihilators).

        The terms' `_monomial` entries are scattered in order into one flat
        buffer of C(2L, L) entries that the blocks view, so each entry sums
        its terms in their order and no 2^L x 2^L array is made. The blocks
        are float64 when no entry has an imaginary part (H_0, real kernels'
        drives and the density and hopping probes, whose `eigh`s then take
        about a quarter of the complex flops), complex128 otherwise, and each
        is certified Hermitian. A monomial that changes the charge is refused.
        """
        flat = np.zeros(self._offsets[-1], dtype=complex)
        for c, creators, annihilators in terms:
            if len(creators) != len(annihilators):
                raise ValueError(f"{name}: a monomial with creators {tuple(creators)} and "
                                 f"annihilators {tuple(annihilators)} couples charge sectors")
            rows, cols, signs = _monomial(self.n_sites, creators, annihilators)
            n = self.popcounts[cols]
            flat[self._offsets[n] + self._ranks[rows] * self._sizes[n]
                 + self._ranks[cols]] += c * signs
        if not np.any(flat.imag):
            flat = flat.real.copy()
        return tuple(ensure_hermitian(flat[a:b].reshape(m, m), name)
                     for a, b, m in zip(self._offsets, self._offsets[1:], self._sizes))

    def assemble(self, blocks, dtype=None):
        """Dense block-diagonal Fock matrix with `blocks[n]` on sector n, of
        `dtype` (the blocks' common type by default)."""
        out = np.zeros((self.dim, self.dim), dtype or np.result_type(*blocks))
        for n, block in enumerate(blocks):
            idx = self.sector_indices(n)
            out[np.ix_(idx, idx)] = block
        return out


def _monomial(n_sites, creators, annihilators):
    """(rows, cols, signs) of the nonzero entries of the Fock matrix of
    a_{c1}^* ... a_{cM}^* a_{d1} ... a_{dK}: the one Jordan-Wigner sign rule.

    Operators act on a ket right to left (a_{dK} first), each taking the sign
    (-1)^{# occupied sites below it}. Every column holds at most one entry.
    Repeated sites in either list annihilate the whole monomial.
    """
    pops = _popcounts(n_sites)
    k = np.arange(pops.size, dtype=np.int64)
    sign = np.ones(k.size, dtype=np.int64)
    alive = np.ones(k.size, dtype=bool)
    for s, occupied in ([(s, True) for s in reversed(tuple(annihilators))]
                        + [(s, False) for s in reversed(tuple(creators))]):
        bit = np.int64(1 << int(s))
        alive &= ((k & bit) != 0) == occupied
        sign *= 1 - 2 * (pops[k & (bit - 1)] & 1)
        k = k ^ bit
    return k[alive], np.flatnonzero(alive), sign[alive]


def monomial_matrix(n_sites, creators, annihilators):
    """Dense matrix of a_{c1}^* ... a_{cM}^* a_{d1} ... a_{dK} (`_monomial`)."""
    rows, cols, signs = _monomial(n_sites, creators, annihilators)
    mat = np.zeros((1 << n_sites,) * 2, dtype=complex)
    mat[rows, cols] = signs
    return mat


def creation_op(spec, site):
    """Creation matrix a_site^* on the full Fock space (Jordan-Wigner signs)."""
    n = spec.n_sites if isinstance(spec, LatticeSpec) else int(spec)
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for L={n}")
    return monomial_matrix(n, (site,), ())


def annihilation_op(spec, site):
    return creation_op(spec, site).conj().T


def number_operator(spec):
    """Total particle number N = sum_i a_i^* a_i (diagonal: popcount)."""
    n = spec.n_sites if isinstance(spec, LatticeSpec) else int(spec)
    return np.diag(_popcounts(n).astype(complex))


def one_body_laplacian(spec):
    """L x L graph Laplacian of the chain with the spec's boundary condition.

    Dirichlet: 2*I - adjacency (diagonal 2 everywhere, endpoints included).
    Neumann: degree - adjacency (diagonal 1 at the ends).
    Periodic: degree - adjacency with the wrap edge (L=2 carries the doubled
    bond, L=1 gives 0).
    """
    n = spec.n_sites
    h = np.zeros((n, n))
    i = np.arange(n)
    h[i[:-1], i[1:]] = h[i[1:], i[:-1]] = -1.0
    if spec.boundary is Boundary.PERIODIC:
        h[0, -1] -= 1.0
        h[-1, 0] -= 1.0
    h[i, i] += 2.0 if spec.boundary is Boundary.DIRICHLET else -h.sum(axis=1)
    return h


def one_body_terms(w):
    """The terms (w_ij, (i,), (j,)) of sum_{ij} w_ij a_i^* a_j, one per
    nonzero entry of w, row by row."""
    return [(w[i, j], (i,), (j,)) for i, j in zip(*np.nonzero(w))]


def quadratic_blocks(spec_or_sites, w):
    """Charge-sector blocks of sum_{ij} w_ij a_i^* a_j (`FockBasis.blocks`)."""
    n = spec_or_sites.n_sites if isinstance(spec_or_sites, LatticeSpec) else int(spec_or_sites)
    w = np.asarray(w, dtype=complex)
    if w.shape != (n, n):
        raise ValueError(f"one-body matrix must be {n}x{n}, got {w.shape}")
    return FockBasis(n).blocks(one_body_terms(w))


def quadratic_fock_operator(spec_or_sites, w):
    """sum_{ij} w_ij a_i^* a_j as a dense complex Fock matrix."""
    blocks = quadratic_blocks(spec_or_sites, w)
    return FockBasis(len(blocks) - 1).assemble(blocks, complex)


def hopping_hamiltonian(spec):
    """Hopping Hamiltonian: second-quantized discrete Laplacian (dense).

    Commutes with the number operator and is block diagonal over
    particle-number sectors; the one-particle block equals
    `one_body_laplacian(spec)`.
    """
    return quadratic_fock_operator(spec, one_body_laplacian(spec))


def gauge_transform(a, tau, n_sites=None):
    """Gauge transformation e^{i tau N} A e^{-i tau N}.

    A *-automorphism for each tau; observables are its fixed points.
    """
    a = np.asarray(a)
    n_sites = _infer_sites(a.shape[0]) if n_sites is None else n_sites
    if a.shape != (1 << n_sites,) * 2:
        raise ValueError("operator dimension does not match the Fock space")
    pops = _popcounts(n_sites)
    # phase differences keep charge-diagonal blocks exactly fixed
    return a * np.exp(1j * tau * (pops[:, None] - pops[None, :]))


def is_gauge_invariant(a, tol=1e-10, n_sites=None):
    """True iff ||[A, N]||_max <= tol (then gauge_transform leaves A fixed)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.asarray(a)
    pops = _popcounts(_infer_sites(a.shape[0]) if n_sites is None else n_sites)
    # [A, N]_ij = A_ij (N_j - N_i), read on A's nonzero entries only
    rows, cols = np.nonzero(a)
    return max_abs(a[rows, cols] * (pops[cols] - pops[rows])) <= tol


def _infer_sites(dim):
    n = int(dim).bit_length() - 1
    if 1 << n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


__all__ = [
    "EXACT_SITE_CAP", "Boundary", "LatticeSpec", "FockBasis", "LatticeTooLargeError",
    "creation_op", "annihilation_op", "number_operator", "one_body_laplacian",
    "quadratic_fock_operator", "quadratic_blocks", "one_body_terms", "hopping_hamiltonian",
    "gauge_transform", "is_gauge_invariant", "monomial_matrix", "ensure_hermitian",
    "site_index",
]
