"""Blocked eigendecompositions: decoupled blocks of exact-zero patterns, and
the Gibbs state and relative entropy computed one block at a time against
their dense formulas (with the exponential, which takes no block search)."""

import numpy as np
import pytest

from fermiproc.drive import KernelSpec, Perturbation
from fermiproc.lattice import (LatticeSpec, creation_op, hopping_hamiltonian,
                               number_operator, one_body_laplacian)
from fermiproc.linalg import decoupled_blocks, expm_unitary
from fermiproc.states import GibbsParams, SupportError, gibbs_state, relative_entropy

PARAMS = GibbsParams(beta=1.3, mu=0.2)


def _block_sets(mat):
    sets = set()
    for key in decoupled_blocks(mat):
        rows = np.arange(mat.shape[0])[key[0]].ravel()
        sets.add(frozenset(rows.tolist()))
    return sets


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


def test_blocks_of_permuted_block_diagonal_matrix():
    rng = np.random.default_rng(3)
    sizes = [40, 1, 70, 17, 12]
    n = sum(sizes)
    a = np.zeros((n, n), dtype=complex)
    start = 0
    for size in sizes:
        a[start:start + size, start:start + size] = _random_hermitian(rng, size)
        start += size
    perm = rng.permutation(n)
    permuted = a[np.ix_(perm, perm)]
    # index i of `permuted` is index perm[i] of `a`
    position = np.argsort(perm)
    expected = set()
    start = 0
    for size in sizes:
        expected.add(frozenset(position[start:start + size].tolist()))
        start += size
    assert _block_sets(permuted) == expected


def test_blocks_of_joint_pattern_and_small_matrices():
    h, n_op = _driven_fock(1, 0.3)
    assert len(decoupled_blocks(h)) == 9  # one block per particle number
    # a matrix coupling sectors 0 and 1 merges them in the joint pattern
    link = np.zeros_like(h)
    link[0, 1] = link[1, 0] = 1.0
    assert len(decoupled_blocks(h, link)) == 8
    # below the dimension floor nothing is scanned: one whole-matrix block
    small, _ = _driven_fock(1, 0.3)
    small = small[:64, :64]
    assert decoupled_blocks(small) == [(slice(None), slice(None))]


@pytest.mark.parametrize("degree", [1, 2])
def test_blocked_kernels_match_dense_formulas(degree):
    h, n_op = _driven_fock(degree, 0.4)
    assert len(decoupled_blocks(h)) > 1
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
    # one-body matrix (one block) and a Fock matrix below the scan floor
    spec = LatticeSpec(200, local_region=(98, 99))
    h1 = one_body_laplacian(spec)
    h1[98, 99] = h1[99, 98] = -0.7
    small, n_small = _driven_fock(1, 0.4)
    small, n_small = small[:64, :64], n_small[:64, :64]
    for h, n_op in ((h1, np.eye(200)), (small, n_small)):
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
    assert len(decoupled_blocks(deficient)) == 9
    rho = gibbs_state(hopping_hamiltonian(LatticeSpec(8)), n_op, PARAMS).rho
    with pytest.raises(SupportError, match="1 null direction"):
        relative_entropy(rho, deficient)
    # a state without mass on the null direction stays admissible
    assert abs(relative_entropy(deficient, deficient)) <= 1e-10


def test_non_gauge_invariant_fock_matrix():
    h, n_op = _driven_fock(1, 0.4)
    spec = LatticeSpec(8)
    c3, c4 = creation_op(spec, 3), creation_op(spec, 4)
    # a_3 + a_3^* couples every sector: a single block, today's dense route
    source = h + 0.3 * (c3 + c3.conj().T)
    assert len(decoupled_blocks(source)) == 1
    assert np.array_equal(expm_unitary(source, 0.3), _dense_expm(source, 0.3))
    # pairing a_3^* a_4^* + h.c. keeps only the parity: two blocks, not nine
    pairing = h + 0.3 * (c3 @ c4 + (c3 @ c4).conj().T)
    assert len(decoupled_blocks(pairing)) == 2
    assert np.max(np.abs(expm_unitary(pairing, 0.3)
                         - _dense_expm(pairing, 0.3))) <= 1e-12
    ref = gibbs_state(pairing, n_op, PARAMS)
    rho_dense, beta_g_dense = _dense_gibbs(pairing, n_op, PARAMS)
    assert np.max(np.abs(ref.rho - rho_dense)) <= 1e-12
    assert abs(ref.beta_g - beta_g_dense) <= 1e-12
    rho = gibbs_state(h, n_op, PARAMS).rho
    assert abs(relative_entropy(rho, ref.rho)
               - _dense_relative_entropy(rho, ref.rho)) <= 1e-12
