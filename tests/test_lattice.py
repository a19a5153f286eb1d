"""Fock-space kinematics: CAR, hopping structure, gauge action, embeddings."""

import numpy as np
import pytest
from math import comb

from fermiproc.lattice import (Boundary, FockBasis, LatticeSpec, LatticeTooLargeError,
                               annihilation_op, creation_op, embed_local,
                               gauge_transform, hopping_hamiltonian,
                               is_gauge_invariant, local_parity_defect,
                               locality_defect, monomial_matrix, number_operator,
                               one_body_laplacian, quadratic_fock_operator,
                               restrict_local)
from fermiproc.linalg import max_abs

from conftest import random_hermitian


def car_defect(n_sites):
    spec = LatticeSpec(n_sites)
    ops = [creation_op(spec, s) for s in range(n_sites)]
    eye = np.eye(1 << n_sites)
    worst = 0.0
    for i in range(n_sites):
        for j in range(n_sites):
            ai = ops[i].conj().T
            anti = ai @ ops[j] + ops[j] @ ai
            target = eye if i == j else np.zeros_like(eye)
            worst = max(worst, max_abs(anti - target))
            worst = max(worst, max_abs(ai @ ops[j].conj().T + ops[j].conj().T @ ai))
    return worst


@pytest.mark.parametrize("n_sites", range(1, 7))
def test_car_relations(n_sites):
    assert car_defect(n_sites) <= 1e-12


def test_single_mode_creation_matrix():
    a_star = creation_op(LatticeSpec(1), 0)
    assert np.array_equal(a_star, np.array([[0, 0], [1, 0]], dtype=complex))
    a = a_star.conj().T
    assert max_abs(a @ a_star + a_star @ a - np.eye(2)) == 0


def test_creation_anticommute_distant_sites():
    spec = LatticeSpec(4)
    a1, a3 = creation_op(spec, 1), creation_op(spec, 3)
    assert max_abs(a1 @ a3 + a3 @ a1) == 0


def test_site_out_of_range():
    with pytest.raises(ValueError):
        creation_op(LatticeSpec(3), 3)


def test_fock_basis_sectors():
    basis = FockBasis(5)
    total = 0
    for n in range(6):
        idx = basis.sector_indices(n)
        assert len(idx) == comb(5, n)
        total += len(idx)
    assert total == 32


def test_number_operator_popcount():
    spec = LatticeSpec(2)
    n_op = number_operator(spec)
    assert np.array_equal(np.diagonal(n_op).real, [0, 1, 1, 2])
    # reconstruction from creation operators
    rebuilt = sum(creation_op(spec, s) @ annihilation_op(spec, s) for s in range(2))
    assert max_abs(n_op - rebuilt) <= 1e-12
    # diagonal exponential has unit-modulus entries
    phases = np.exp(1j * 0.7 * np.diagonal(n_op))
    assert np.allclose(np.abs(phases), 1.0)


@pytest.mark.parametrize("boundary, expected", [
    (Boundary.DIRICHLET, [[2.0]]),
    (Boundary.NEUMANN, [[0.0]]),
    (Boundary.PERIODIC, [[0.0]]),
])
def test_one_site_laplacian(boundary, expected):
    assert np.array_equal(one_body_laplacian(LatticeSpec(1, boundary)), expected)


def test_three_site_ring_spectrum():
    # 3-cycle graph Laplacian eigenvalues are {0, 3, 3}
    spec = LatticeSpec(3, Boundary.PERIODIC)
    basis = FockBasis(3)
    h0 = hopping_hamiltonian(spec)
    idx = basis.sector_indices(1)
    evals = np.linalg.eigvalsh(h0[np.ix_(idx, idx)])
    assert np.allclose(evals, [0.0, 3.0, 3.0], atol=1e-12)


@pytest.mark.parametrize("boundary", list(Boundary))
def test_hopping_commutes_with_number(boundary):
    spec = LatticeSpec(5, boundary)
    h0 = hopping_hamiltonian(spec)
    n_op = number_operator(spec)
    assert max_abs(h0 @ n_op - n_op @ h0) <= 1e-12


@pytest.mark.parametrize("boundary", list(Boundary))
def test_single_particle_block_is_laplacian(boundary):
    spec = LatticeSpec(4, boundary)
    basis = FockBasis(4)
    h0 = hopping_hamiltonian(spec)
    idx = basis.sector_indices(1)
    # one-particle states |1 << s> in index order s = 0..3
    assert np.allclose(h0[np.ix_(idx, idx)], one_body_laplacian(spec), atol=1e-13)


def test_sector_block_structure():
    spec = LatticeSpec(5)
    basis = FockBasis(5)
    h0 = hopping_hamiltonian(spec)
    for n in range(6):
        idx = basis.sector_indices(n)
        rest = np.setdiff1d(np.arange(basis.dim), idx)
        if idx.size and rest.size:
            assert max_abs(h0[np.ix_(idx, rest)]) <= 1e-12


def test_quadratic_fock_operator_matches_monomials(rng):
    spec = LatticeSpec(4)
    w = random_hermitian(rng, 4)
    built = quadratic_fock_operator(spec, w)
    direct = sum(w[i, j] * monomial_matrix(4, (i,), (j,))
                 for i in range(4) for j in range(4))
    # one sign rule, the terms summed in the same order: equal bit for bit
    assert np.array_equal(built, direct)


def test_gauge_fixes_number_operator():
    spec = LatticeSpec(3)
    n_op = number_operator(spec)
    assert max_abs(gauge_transform(n_op, 1.234) - n_op) == 0


def test_gauge_covariance_of_creation():
    spec = LatticeSpec(3)
    for site in range(3):
        a_star = creation_op(spec, site)
        rotated = gauge_transform(a_star, 0.7)
        assert max_abs(rotated - np.exp(1j * 0.7) * a_star) <= 1e-12


def test_gauge_invariant_hop_fixed():
    spec = LatticeSpec(3)
    a0, a1 = creation_op(spec, 0), creation_op(spec, 1)
    hop = a0 @ a1.conj().T
    assert is_gauge_invariant(hop)
    for tau in (0.3, 1.1, 5.0):
        assert max_abs(gauge_transform(hop, tau) - hop) <= 1e-12


def test_gauge_invariance_classification():
    spec = LatticeSpec(3)
    assert not is_gauge_invariant(creation_op(spec, 0))
    assert is_gauge_invariant(hopping_hamiltonian(spec))


def test_gauge_transform_multiplicative(rng):
    spec = LatticeSpec(3)
    dim = 8
    for _ in range(10):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        tau = rng.uniform(0, 2 * np.pi)
        lhs = gauge_transform(a @ b, tau)
        rhs = gauge_transform(a, tau) @ gauge_transform(b, tau)
        assert max_abs(lhs - rhs) <= 1e-10 * max(1.0, max_abs(lhs))


def test_gauge_preserves_adjoint_and_norm(rng):
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    tau = 0.9
    assert max_abs(gauge_transform(a.conj().T, tau) - gauge_transform(a, tau).conj().T) <= 1e-13
    assert abs(np.linalg.norm(gauge_transform(a, tau)) - np.linalg.norm(a)) <= 1e-10


# -- embedding ------------------------------------------------------------------

def test_embed_identity():
    spec = LatticeSpec(3, local_region=(0, 1))
    out = embed_local(np.eye(4, dtype=complex), spec)
    assert max_abs(out - np.eye(8)) == 0


def test_embed_local_number_operator():
    spec = LatticeSpec(3, local_region=(0,))
    n_local = np.diag([0.0, 1.0]).astype(complex)
    full = creation_op(spec, 0) @ annihilation_op(spec, 0)
    assert max_abs(embed_local(n_local, spec) - full) == 0


def test_embed_monomial_with_string():
    # a'_0^* a'_1 over local region (0, 2) must become a_0^* a_2, whose
    # Jordan-Wigner string crosses the excluded site 1
    spec = LatticeSpec(3, local_region=(0, 2))
    local = monomial_matrix(2, (0,), (1,))
    full = creation_op(spec, 0) @ annihilation_op(spec, 2)
    assert max_abs(embed_local(local, spec) - full) == 0


def test_embed_unsorted_region():
    spec = LatticeSpec(3, local_region=(2, 0))
    local = monomial_matrix(2, (0,), (1,))
    full = creation_op(spec, 2) @ annihilation_op(spec, 0)
    assert max_abs(embed_local(local, spec) - full) == 0


def test_embed_rejects_odd_parity():
    spec = LatticeSpec(3, local_region=(0,))
    a_local = monomial_matrix(1, (), (0,))
    assert local_parity_defect(a_local) == 1.0
    with pytest.raises(ValueError, match="parity"):
        embed_local(a_local, spec)


def test_embed_product_state_expectations(rng):
    # diagonal occupancy mixtures are product states; local expectations of
    # an embedded even operator must equal the local ones
    spec = LatticeSpec(4, local_region=(1, 2))
    probs = rng.uniform(0.1, 0.9, size=4)

    def product_state(sites):
        diag = np.ones(1 << len(sites))
        for pos, s in enumerate(sites):
            occ = (np.arange(1 << len(sites)) >> pos) & 1
            diag *= np.where(occ, probs[s], 1.0 - probs[s])
        return np.diag(diag).astype(complex)

    a_local = random_hermitian(rng, 4)
    # project out parity-mixing blocks to get an even operator
    par = np.array([0, 1, 1, 0])
    mask = par[:, None] == par[None, :]
    a_local = np.where(mask, a_local, 0.0)
    rho_local = product_state(spec.local_region)
    rho_full = product_state(tuple(range(4)))
    lhs = np.trace(rho_full @ embed_local(a_local, spec))
    rhs = np.trace(rho_local @ a_local)
    assert abs(lhs - rhs) <= 1e-12


def test_restrict_inverts_embedding(rng):
    spec = LatticeSpec(4, local_region=(0, 3))
    a_local = random_hermitian(rng, 4)
    par = np.array([0, 1, 1, 0])
    a_local = np.where(par[:, None] == par[None, :], a_local, 0.0)
    emb = embed_local(a_local, spec)
    assert max_abs(restrict_local(emb, spec) - a_local) <= 1e-13
    assert locality_defect(emb, spec) <= 1e-13


def test_locality_defect_detects_nonlocal():
    spec = LatticeSpec(3, local_region=(0,))
    nonlocal_op = creation_op(spec, 1) @ annihilation_op(spec, 1)
    assert locality_defect(nonlocal_op, spec) > 0.5


def test_site_cap():
    with pytest.raises(LatticeTooLargeError):
        LatticeSpec(13).fock_dim
    with pytest.raises(LatticeTooLargeError):
        number_operator(LatticeSpec(13, local_region=(0,)))
    with pytest.raises(LatticeTooLargeError):
        LatticeSpec(15).fock_dim
    with pytest.raises(LatticeTooLargeError):
        number_operator(LatticeSpec(20, local_region=(0,)))
    # quadratic-path objects above the cap stay usable
    assert one_body_laplacian(LatticeSpec(64)).shape == (64, 64)


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(0)
    with pytest.raises(ValueError):
        LatticeSpec(3, local_region=(0, 0))
    with pytest.raises(ValueError):
        LatticeSpec(3, local_region=(5,))
