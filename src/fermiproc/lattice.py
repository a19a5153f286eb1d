"""Finite fermionic lattice kinematics.

Occupation-number Fock space over a 1-D chain of L spinless-fermion sites,
with creation/annihilation matrices satisfying the canonical anticommutation
relations (CAR), the hopping Hamiltonian (second-quantized discrete
Laplacian), the particle-number operator, gauge transformations generated by
it, and embedding of operators supported on a distinguished local region.

Basis convention: basis index k in [0, 2^L) encodes the occupation bitstring,
bit j of k being the occupancy of site j. Operator products use site-ascending
ordering for the Jordan-Wigner strings, i.e. |k> = prod_{sites s ascending}
(a_s^dagger)^{n_s} |vac>.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .linalg import ensure_hermitian, max_abs

#: largest site count for which full Fock-space (2^L-dimensional) matrices
#: are constructed; beyond this the exact path refuses to run. The exact path
#: steps charge-sector blocks, but its inputs are dense: H_0, each V_j and
#: the probes take 16 * 4^L bytes each (the default ten probes alone 2.5 GiB
#: at L = 12). Measured peak RSS with the default ten probes, one BLAS thread:
#: 1057 MB for a 2-interval exact run at L = 11, 3919 MB at L = 12 (the x4 of
#: one more site), and 1215 MB for a 44-interval process I run at L = 11,
#: about 4.9 GB extrapolated to L = 12. L = 13 would need four times that,
#: so 12 is the cap that fits an 8 GB machine.
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
        if self.n_sites > EXACT_SITE_CAP:
            raise LatticeTooLargeError(
                f"exact path limited to {EXACT_SITE_CAP} sites "
                f"(2^{self.n_sites} Fock dimension requested); use the quadratic path"
            )
        return 1 << self.n_sites


def _check_cap(n_sites):
    if n_sites > EXACT_SITE_CAP:
        raise LatticeTooLargeError(
            f"exact path limited to {EXACT_SITE_CAP} sites, got L={n_sites}"
        )


@lru_cache(maxsize=32)
def _popcounts(n_sites):
    _check_cap(n_sites)
    dim = 1 << n_sites
    k = np.arange(dim, dtype=np.int64)
    pops = np.zeros(dim, dtype=np.int64)
    for j in range(n_sites):
        pops += (k >> j) & 1
    return pops


@dataclass(frozen=True)
class FockBasis:
    """Occupation-number basis bookkeeping for L sites (dimension 2^L).

    The charge sectors n = 0..L are Fock space's block structure: every
    gauge-invariant operator is block-diagonal over them. `sectors` slices a
    matrix into its diagonal blocks and `assemble` puts blocks back.
    """

    n_sites: int
    popcounts: np.ndarray = field(init=False, repr=False, compare=False)
    _keys: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "popcounts", _popcounts(self.n_sites))
        object.__setattr__(self, "_keys", tuple(
            np.ix_(idx, idx) for idx in map(self.sector_indices, range(self.n_sites + 1))))

    @property
    def dim(self):
        return 1 << self.n_sites

    def sector_indices(self, n_particles):
        """Basis indices of the n-particle sector, ascending."""
        return np.nonzero(self.popcounts == n_particles)[0]

    def sectors(self, a):
        """The n-particle diagonal blocks of a Fock matrix, n = 0..L."""
        return tuple(a[key] for key in self._keys)

    def assemble(self, blocks):
        """Dense block-diagonal Fock matrix with `blocks[n]` on sector n."""
        out = np.zeros((self.dim, self.dim), np.result_type(*blocks))
        for key, block in zip(self._keys, blocks):
            out[key] = block
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
    Periodic: 2*I - shift - shift^T (wrap edge; L=2 carries the doubled bond).
    """
    n, bc = spec.n_sites, spec.boundary
    h = np.zeros((n, n))
    if bc is Boundary.PERIODIC:
        shift = np.zeros((n, n))
        for i in range(n):
            shift[i, (i + 1) % n] = 1.0
        h = 2.0 * np.eye(n) - shift - shift.T
        if n == 1:
            h[:] = 0.0
        return h
    for i in range(n - 1):
        h[i, i + 1] = h[i + 1, i] = -1.0
    if bc is Boundary.DIRICHLET:
        h += 2.0 * np.eye(n)
    else:  # Neumann: diagonal = vertex degree
        deg = np.full(n, 2.0)
        deg[0] = deg[-1] = 1.0 if n > 1 else 0.0
        h += np.diag(deg)
    return h


def quadratic_fock_operator(spec_or_sites, w):
    """Second quantization sum_{ij} w_ij a_i^* a_j as a dense Fock matrix,
    scattered term by term from `_monomial`."""
    n = spec_or_sites.n_sites if isinstance(spec_or_sites, LatticeSpec) else int(spec_or_sites)
    _check_cap(n)
    w = np.asarray(w, dtype=complex)
    if w.shape != (n, n):
        raise ValueError(f"one-body matrix must be {n}x{n}, got {w.shape}")
    mat = np.zeros((1 << n,) * 2, dtype=complex)
    for i, j in zip(*np.nonzero(w)):
        rows, cols, signs = _monomial(n, (i,), (j,))
        mat[rows, cols] += w[i, j] * signs
    return mat


def hopping_hamiltonian(spec):
    """Hopping Hamiltonian: second-quantized discrete Laplacian.

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
    if n_sites is None:
        n_sites = _infer_sites(a.shape[0])
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
    if n_sites is None:
        n_sites = _infer_sites(a.shape[0])
    pops = _popcounts(n_sites)
    comm = a * (pops[None, :] - pops[:, None])
    return max_abs(comm) <= tol


def _infer_sites(dim):
    n = int(dim).bit_length() - 1
    if 1 << n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def _mode_permutation(spec):
    """Signed basis permutation moving local_region sites to the low bits.

    Returns (new_index, sign) arrays over the full Fock basis. The sign is
    the fermionic reordering parity: the inversion count of the occupied
    sites' target positions, read in ascending site order.
    """
    n = spec.n_sites
    order = list(spec.local_region) + [s for s in range(n) if s not in spec.local_region]
    site_to_pos = {s: p for p, s in enumerate(order)}
    dim = 1 << n
    new_index = np.zeros(dim, dtype=np.int64)
    sign = np.ones(dim, dtype=np.int64)
    for k in range(dim):
        positions = [site_to_pos[s] for s in range(n) if (k >> s) & 1]
        knew = 0
        inversions = 0
        for idx, p in enumerate(positions):
            knew |= 1 << p
            inversions += sum(1 for q in positions[idx + 1:] if q < p)
        new_index[k] = knew
        sign[k] = -1 if inversions & 1 else 1
    return new_index, sign


def local_parity_defect(a_local):
    """Max modulus of matrix elements connecting even and odd parity sectors."""
    a_local = np.asarray(a_local)
    n_loc = _infer_sites(a_local.shape[0])
    par = _popcounts(n_loc) & 1
    mixed = par[:, None] != par[None, :]
    return max_abs(np.where(mixed, a_local, 0.0))


def embed_local(a_local, spec, parity_tol=1e-12):
    """Extend an operator on Fock(local_region) to the full lattice.

    Only even-parity local operators are accepted: for those the embedding
    agrees with rewriting the operator's CAR monomials in the full-space
    creation/annihilation operators, so locality is unambiguous. Odd-parity
    operators carry a Jordan-Wigner ordering ambiguity and are rejected.
    """
    a_local = np.asarray(a_local, dtype=complex)
    m = len(spec.local_region)
    if a_local.shape != (1 << m, 1 << m):
        raise ValueError(f"local operator must act on Fock dimension 2^{m}")
    defect = local_parity_defect(a_local)
    if defect > parity_tol:
        raise ValueError(
            f"local operator mixes fermion parity (defect {defect:.3e}); "
            "only even-parity operators embed unambiguously"
        )
    spec.fock_dim  # enforces the exact-path site cap
    rest = np.eye(1 << (spec.n_sites - m), dtype=complex)
    block = np.kron(rest, a_local)
    new_index, sign = _mode_permutation(spec)
    out = block[np.ix_(new_index, new_index)]
    out *= sign[:, None] * sign[None, :]
    return out


def restrict_local(a, spec):
    """Compress a full-space operator to Fock(local_region).

    Reads the matrix elements between states whose complement sites are all
    empty, undoing the reordering signs of `embed_local`. For an operator that
    is an embedding this inverts it exactly.
    """
    a = np.asarray(a)
    m = len(spec.local_region)
    new_index, sign = _mode_permutation(spec)
    # full-space index whose position-ordered image is the bare local index
    lookup = np.empty(1 << spec.n_sites, dtype=np.int64)
    lookup[new_index] = np.arange(1 << spec.n_sites)
    idx = lookup[np.arange(1 << m)]
    s = sign[idx]
    return (s[:, None] * s[None, :]) * a[np.ix_(idx, idx)]


def locality_defect(a, spec):
    """||A - embed_local(restrict_local(A))||_max.

    Zero (to roundoff) iff A acts trivially outside the local region.
    """
    return max_abs(np.asarray(a) - embed_local(restrict_local(a, spec), spec))


__all__ = [
    "EXACT_SITE_CAP", "Boundary", "LatticeSpec", "FockBasis", "LatticeTooLargeError",
    "creation_op", "annihilation_op", "number_operator", "one_body_laplacian",
    "quadratic_fock_operator", "hopping_hamiltonian", "gauge_transform",
    "is_gauge_invariant", "monomial_matrix", "embed_local", "local_parity_defect",
    "restrict_local", "locality_defect", "ensure_hermitian", "site_index",
]
