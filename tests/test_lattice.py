"""Fock-space kinematics: CAR, hopping structure, gauge action."""

import numpy as np
import pytest
from math import comb

from fermiproc.lattice import (Boundary, FockBasis, LatticeSpec, LatticeTooLargeError,
                               annihilation_op, creation_op, gauge_transform,
                               hopping_hamiltonian, is_gauge_invariant, monomial_matrix,
                               number_operator, one_body_laplacian,
                               quadratic_fock_operator)
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
