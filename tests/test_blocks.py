"""Charge sectors as Fock space's block structure: the one Fock-operator
scatter, `FockBasis.blocks` (float64 blocks where the operator is real),
pinned bit for bit against the dense scatter it replaces, sliced by
`FockBasis.sector_indices`, and `assemble`; the sector Gibbs state against
the dense one at L = 8, and the dense Gibbs state, relative entropy and
exponential against their formulas, including Fock matrices that are not
gauge-invariant."""

import numpy as np
import pytest
from conftest import sector_slices

from fermiproc.drive import (KernelSpec, Perturbation, build_perturbation, perturbation_terms,
                             switch_on_protocol)
from fermiproc.harness import (GibbsConfig, LatticeConfig, RunConfig, probe_matrices,
                               probe_site_pairs)
from fermiproc.lattice import (Boundary, FockBasis, LatticeSpec, _monomial, creation_op,
                               hopping_hamiltonian, number_operator, one_body_laplacian,
                               one_body_terms, quadratic_blocks, quadratic_fock_operator)
from fermiproc.linalg import ensure_hermitian, expm_unitary
from fermiproc.states import (GibbsParams, SupportError, gibbs_state, relative_entropy,
                              sector_gibbs_state)

PARAMS = GibbsParams(beta=1.3, mu=0.2)


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


# dense formulas: one eigendecomposition of the whole matrix

def _dense_expm(h, dt):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * dt * w)) @ v.conj().T


def _dense_gibbs(h, n_op, params):
    k = h - params.mu * n_op
    w, v = np.linalg.eigh(k)
    z = np.exp(-params.beta * (w - w[0]))
    xi = float(np.sum(z))
    beta_g = float(params.beta * w[0] - np.log(xi))
    rho = (v * (z / xi)) @ v.conj().T
    return 0.5 * (rho + rho.conj().T), beta_g


def _dense_relative_entropy(rho, sigma):
    wr = np.linalg.eigvalsh(rho)
    wr = wr[wr > 1e-14]
    ws, vs = np.linalg.eigh(sigma)
    diag = np.real(np.einsum("ik,ij,jk->k", vs.conj(), rho, vs))
    return float(np.sum(wr * np.log(wr)) - np.sum(diag * np.log(ws)))


def _driven_fock(degree, amplitude):
    spec = LatticeSpec(8, local_region=(2, 3, 4))
    if degree == 1:
        kernel = KernelSpec(1, (2, 3, 4), np.array([[0.6, 0.3, 0.0],
                                                    [0.3, -0.5, 0.2],
                                                    [0.0, 0.2, 0.1]]))
    else:
        w2 = np.zeros((3,) * 4)
        w2[0, 1, 1, 0] = 0.7  # n_2 n_3
        w2[0, 2, 2, 1] = w2[1, 2, 2, 0] = 0.25  # hop 3 <-> 2 next to an occupied 4
        kernel = KernelSpec(2, (2, 3, 4), w2)
    h = hopping_hamiltonian(spec) + amplitude * Perturbation([kernel], spec).fock()
    return h, number_operator(spec)


@pytest.mark.parametrize("beta", [1.3, 8.0])
def test_sector_gibbs_state_matches_dense_at_L8(beta):
    # what the exact-zero block search guarded: the dense Gibbs state of a
    # driven degree-2 Hamiltonian, one eigendecomposition of 256 rows, equals
    # the charge-sector one assembled
    h, n_op = _driven_fock(2, 0.4)
    params = GibbsParams(beta=beta, mu=0.2)
    basis = FockBasis(8)
    dense = gibbs_state(h, n_op, params)
    sector = sector_gibbs_state(sector_slices(h), params)
    assert np.max(np.abs(dense.rho - basis.assemble(sector.rho))) <= 1e-12
    assert abs(dense.beta_g - sector.beta_g) <= 1e-12
    # h is block-diagonal over the sectors: slicing and assembling is exact
    assert np.array_equal(basis.assemble(sector_slices(h)), h)


def _dense_scatter(n_sites, terms):
    """The dense route `FockBasis.blocks` replaces: each term's `_monomial`
    entries scattered into one complex 2^L x 2^L matrix, in turn."""
    mat = np.zeros((1 << n_sites,) * 2, dtype=complex)
    for c, creators, annihilators in terms:
        rows, cols, signs = _monomial(n_sites, creators, annihilators)
        mat[rows, cols] += c * signs
    return mat


def _dense_quadratic(n_sites, w):
    """sum_ij w_ij a_i^* a_j by the dense scatter, term by term in row order."""
    w = np.asarray(w, dtype=complex)
    return _dense_scatter(n_sites, [(w[i, j], (i,), (j,)) for i, j in zip(*np.nonzero(w))])


def _dense_perturbation(kernel, spec):
    """W of one kernel by the dense route: a degree-1 kernel's one-body
    matrix second-quantized, a degree-2 kernel's nonzero coefficients
    scattered in order; then certified Hermitian."""
    if kernel.degree == 1:
        w = np.zeros((spec.n_sites,) * 2, dtype=complex)
        w[np.ix_(kernel.sites, kernel.sites)] += kernel.coeffs
        mat = _dense_quadratic(spec.n_sites, w)
    else:
        mat = _dense_scatter(spec.n_sites, [
            (kernel.coeffs[idx], tuple(kernel.sites[i] for i in idx[:2]),
             tuple(kernel.sites[i] for i in idx[2:])) for idx in zip(*np.nonzero(kernel.coeffs))])
    return ensure_hermitian(mat, "perturbation")


SITES = (2, 3, 4, 5)
W2 = np.zeros((4,) * 4)
W2[0, 1, 1, 0] = W2[1, 0, 0, 1] = 0.4
W2[0, 1, 2, 0] = W2[0, 2, 1, 0] = 0.3
KERNELS = {
    "real-1": KernelSpec(1, SITES, [[0.8, 0.4, -0.1, 0.05], [0.4, -0.5, 0.3, 0.1],
                                    [-0.1, 0.3, 0.6, 0.2], [0.05, 0.1, 0.2, -0.7]]),
    "complex-1": KernelSpec(1, SITES, [[0.5, 0.3 + 0.2j, 0.0, 0.1j], [0.3 - 0.2j, -0.4, 0.2, 0.0],
                                       [0.0, 0.2, 0.1, 0.25], [-0.1j, 0.0, 0.25, 0.3]]),
    "degree-2": KernelSpec(2, SITES[:3], W2[:3, :3, :3, :3]),
}


def _same_blocks(built, sliced):
    """Equal bit for bit, block by block, with the same dtypes."""
    return (len(built) == len(sliced)
            and all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                    for a, b in zip(built, sliced)))


def test_built_blocks_match_sliced_dense_operators():
    # H_0 for every boundary, a real and a complex degree-1 kernel, a
    # degree-2 kernel and every default probe at L = 8: the scatter into
    # sector blocks gives the dense operators' slices, dtypes included
    spec = LatticeSpec(8, local_region=SITES)
    for bc in Boundary:
        lap = one_body_laplacian(LatticeSpec(8, bc))
        assert _same_blocks(quadratic_blocks(8, lap), sector_slices(_dense_quadratic(8, lap))), bc
    for name, kernel in KERNELS.items():
        sliced = sector_slices(_dense_perturbation(kernel, spec))
        assert _same_blocks(Perturbation([kernel], spec).blocks(), sliced), name
        assert {b.dtype for b in sliced} == {np.dtype(complex if "complex" in name else float)}
    pairs = probe_site_pairs(RunConfig(LatticeConfig(8), GibbsConfig(1.0)), spec)
    assert len(pairs) == 10
    for (i, j), blocks in zip(pairs, probe_matrices(pairs, spec, "fock")):
        w = np.zeros((8, 8))
        w[i, j] = w[j, i] = 1.0
        assert _same_blocks(blocks, sector_slices(_dense_quadratic(8, w))), (i, j)


def test_assembled_blocks_match_dense_builders_bit_for_bit():
    # every dense Fock builder is `assemble` of its blocks, complex128, with
    # the dense scatter's values bit for bit
    spec = LatticeSpec(8, local_region=SITES)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    w = a + a.conj().T
    pairs = [(quadratic_fock_operator(spec, w), _dense_quadratic(8, w))]
    for bc in Boundary:
        bspec = LatticeSpec(8, bc)
        pairs.append((hopping_hamiltonian(bspec), _dense_quadratic(8, one_body_laplacian(bspec))))
    for kernel in KERNELS.values():
        dense = _dense_perturbation(kernel, spec)
        protocol = switch_on_protocol(Perturbation([kernel], spec), 0.0, 0.5, 0.3)
        lam = protocol.controls(0.7)[0]
        pairs += [(build_perturbation([kernel], spec), dense),
                  (protocol.operator(0.7, "fock"), lam * dense + np.zeros_like(dense))]
    for built, dense in pairs:
        assert built.dtype == dense.dtype == np.complex128
        assert built.tobytes() == dense.tobytes()


def test_sectors_are_float64_where_the_matrix_is_real():
    # terms whose sums have an exactly zero imaginary part give float64
    # blocks; an imaginary hopping 0.2j from site 4 to site 3 gives complex128
    # ones; assembling the blocks gives the dense scatter in both cases
    spec = LatticeSpec(8, local_region=(2, 3, 4))
    w2 = np.zeros((3,) * 4)
    w2[0, 1, 1, 0] = 0.7  # n_2 n_3
    w2[0, 2, 2, 1] = w2[1, 2, 2, 0] = 0.25  # hop 3 <-> 2 next to an occupied 4
    terms = (one_body_terms(one_body_laplacian(spec))
             + list(perturbation_terms([KernelSpec(2, (2, 3, 4), w2)], spec)))
    hop = [(0.2j, (3,), (4,)), (-0.2j, (4,), (3,))]
    basis = FockBasis(8)
    for ops, dtype in ((terms, np.float64), (terms + hop, np.complex128)):
        blocks = basis.blocks(ops)
        assert {b.dtype for b in blocks} == {np.dtype(dtype)}
        assert np.array_equal(basis.assemble(blocks), _dense_scatter(8, ops))


def test_charge_changing_term_is_refused():
    # a_2 + a_2^* moves one particle between sectors: no block holds it
    with pytest.raises(ValueError, match="couples charge sectors"):
        FockBasis(5).blocks([(0.3, (2,), ()), (0.3, (), (2,))])
    with pytest.raises(ValueError, match="couples charge sectors"):
        FockBasis(5).blocks([(0.3, (2, 3), (1,))])


@pytest.mark.parametrize("degree", [1, 2])
def test_blocked_kernels_match_dense_formulas(degree):
    h, n_op = _driven_fock(degree, 0.4)
    assert np.max(np.abs(expm_unitary(h, 0.37) - _dense_expm(h, 0.37))) <= 1e-12

    ref = gibbs_state(h, n_op, PARAMS)
    rho_dense, beta_g_dense = _dense_gibbs(h, n_op, PARAMS)
    assert np.max(np.abs(ref.rho - rho_dense)) <= 1e-12
    assert abs(ref.beta_g - beta_g_dense) <= 1e-12

    # a state of the undriven chain, evolved, against the driven reference
    rho0 = gibbs_state(hopping_hamiltonian(LatticeSpec(8)), n_op, GibbsParams(0.7, -0.1)).rho
    u = expm_unitary(h, 0.9)
    rho = u @ rho0 @ u.conj().T
    rel = relative_entropy(rho, ref.rho)
    assert abs(rel - _dense_relative_entropy(rho, ref.rho)) <= 1e-12
    assert rel > 0


def test_single_block_matches_dense_code_bit_for_bit():
    # a one-body matrix, a corner of a Fock matrix and the whole L = 8 one:
    # each takes one eigendecomposition of the whole matrix
    spec = LatticeSpec(200, local_region=(98, 99))
    h1 = one_body_laplacian(spec)
    h1[98, 99] = h1[99, 98] = -0.7
    fock, n_fock = _driven_fock(1, 0.4)
    small, n_small = fock[:64, :64], n_fock[:64, :64]
    for h, n_op in ((h1, np.eye(200)), (small, n_small), (fock, n_fock)):
        assert np.array_equal(expm_unitary(h, 0.3), _dense_expm(h, 0.3))
        ref = gibbs_state(h, n_op, PARAMS)
        rho_dense, beta_g_dense = _dense_gibbs(h, n_op, PARAMS)
        assert np.array_equal(ref.rho, rho_dense)
        assert ref.beta_g == beta_g_dense


def test_support_error_inside_one_sector():
    h, n_op = _driven_fock(1, 0.4)
    sigma = gibbs_state(h, n_op, PARAMS).rho
    sector = np.flatnonzero(np.diag(n_op) == 4)
    w, v = np.linalg.eigh(sigma[np.ix_(sector, sector)])
    null_vec = np.zeros(h.shape[0], dtype=complex)
    null_vec[sector] = v[:, 0]
    # remove one eigenvector of the 4-particle block: sigma is still
    # block-diagonal, with a null direction inside that sector
    deficient = sigma - w[0] * np.outer(null_vec, null_vec.conj())
    deficient /= np.trace(deficient).real
    rho = gibbs_state(hopping_hamiltonian(LatticeSpec(8)), n_op, PARAMS).rho
    with pytest.raises(SupportError, match="1 null direction"):
        relative_entropy(rho, deficient)
    # a state without mass on the null direction stays admissible
    assert abs(relative_entropy(deficient, deficient)) <= 1e-10


def test_non_gauge_invariant_fock_matrix():
    h, n_op = _driven_fock(1, 0.4)
    spec = LatticeSpec(8)
    c3, c4 = creation_op(spec, 3), creation_op(spec, 4)
    # a_3 + a_3^* couples every sector
    source = h + 0.3 * (c3 + c3.conj().T)
    assert np.array_equal(expm_unitary(source, 0.3), _dense_expm(source, 0.3))
    # pairing a_3^* a_4^* + h.c. keeps only the parity
    pairing = h + 0.3 * (c3 @ c4 + (c3 @ c4).conj().T)
    assert np.max(np.abs(expm_unitary(pairing, 0.3)
                         - _dense_expm(pairing, 0.3))) <= 1e-12
    ref = gibbs_state(pairing, n_op, PARAMS)
    rho_dense, beta_g_dense = _dense_gibbs(pairing, n_op, PARAMS)
    assert np.max(np.abs(ref.rho - rho_dense)) <= 1e-12
    assert abs(ref.beta_g - beta_g_dense) <= 1e-12
    rho = gibbs_state(h, n_op, PARAMS).rho
    assert abs(relative_entropy(rho, ref.rho)
               - _dense_relative_entropy(rho, ref.rho)) <= 1e-12
