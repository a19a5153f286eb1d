"""Charge sectors as Fock space's block structure: `FockBasis.sectors` (float64
blocks where the matrix is real) and `assemble`, the sector Gibbs state
against the dense one at L = 8, and the dense Gibbs state, relative entropy
and exponential against their formulas, including Fock matrices that are not
gauge-invariant."""

import numpy as np
import pytest

from fermiproc.drive import KernelSpec, Perturbation
from fermiproc.lattice import (FockBasis, LatticeSpec, creation_op, hopping_hamiltonian,
                               number_operator, one_body_laplacian, quadratic_fock_operator)
from fermiproc.linalg import expm_unitary
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
    sector = sector_gibbs_state(basis.sectors(h), params)
    assert np.max(np.abs(dense.rho - basis.assemble(sector.rho))) <= 1e-12
    assert abs(dense.beta_g - sector.beta_g) <= 1e-12
    # h is block-diagonal over the sectors: slicing and assembling is exact
    assert np.array_equal(basis.assemble(basis.sectors(h)), h)


def test_sectors_are_float64_where_the_matrix_is_real():
    # a complex128 matrix with an exactly zero imaginary part gives float64
    # blocks; an imaginary hopping 0.2j from site 4 to site 3 gives complex128
    # ones; assembling the blocks gives the matrix back in both cases
    h, _ = _driven_fock(2, 0.4)
    hop = np.zeros((8, 8), dtype=complex)
    hop[3, 4], hop[4, 3] = 0.2j, -0.2j
    complex_h = h + quadratic_fock_operator(LatticeSpec(8), hop)
    assert h.dtype == complex_h.dtype == np.complex128 and not np.any(h.imag)
    basis = FockBasis(8)
    for mat, dtype in ((h, np.float64), (complex_h, np.complex128)):
        blocks = basis.sectors(mat)
        assert {b.dtype for b in blocks} == {np.dtype(dtype)}
        assert np.array_equal(basis.assemble(blocks), mat)


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
