"""Gibbs states, entropies, relative entropy: oracles and invariants."""

import numpy as np
import pytest
import scipy.linalg as sla

from fermiproc.lattice import LatticeSpec, hopping_hamiltonian, number_operator
from fermiproc.linalg import STRIP, NonHermitianError, ensure_hermitian, max_abs
from fermiproc.harness import random_density
from fermiproc.states import (GibbsParams, SupportError, gibbs_state, relative_entropy,
                              von_neumann_entropy)

from conftest import random_hermitian, random_unitary


def test_gibbs_params_validation():
    with pytest.raises(ValueError):
        GibbsParams(0.0)
    with pytest.raises(ValueError):
        GibbsParams(-1.0)
    with pytest.raises(ValueError):
        GibbsParams(np.inf)


def test_gibbs_infinite_temperature_limit():
    spec = LatticeSpec(3)
    res = gibbs_state(hopping_hamiltonian(spec), number_operator(spec),
                      GibbsParams(1e-8, 0.0))
    assert max_abs(res.rho - np.eye(8) / 8) <= 1e-6


def test_gibbs_single_mode_occupation():
    # H = eps * n on one mode: <n> = 1 / (1 + e^{beta*eps})
    eps, beta = 0.8, 1.7
    h = np.diag([0.0, eps]).astype(complex)
    n = np.diag([0.0, 1.0]).astype(complex)
    res = gibbs_state(h, n, GibbsParams(beta, 0.0))
    occupation = np.real(np.trace(res.rho @ n))
    assert abs(occupation - 1.0 / (1.0 + np.exp(beta * eps))) <= 1e-10


def test_grand_potential_against_expm_oracle(rng):
    # independent route: trace of the Pade matrix exponential
    spec = LatticeSpec(4)
    h = hopping_hamiltonian(spec) + random_hermitian(rng, 16, 0.2)
    n = number_operator(spec)
    params = GibbsParams(1.3, 0.4)
    res = gibbs_state(h, n, params)
    xi = np.real(np.trace(sla.expm(-params.beta * (h - params.mu * n))))
    assert abs(res.beta_g - (-np.log(xi))) <= 1e-9
    assert abs(res.grand_potential - res.beta_g / params.beta) <= 1e-12
    assert abs(np.trace(res.rho) - 1.0) <= 1e-10
    assert res.min_eigenvalue > 0


def test_gibbs_requires_hermitian(rng):
    bad = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ValueError):
        gibbs_state(bad, np.eye(4), GibbsParams(1.0))


@pytest.mark.parametrize("dtype", [float, complex])
def test_ensure_hermitian_reads_by_strips_without_writing(rng, dtype):
    # the drift is read by row strips: a Hermitian input, real or complex,
    # comes back as the same object, its entries untouched; a defect or a NaN
    # in the last strip still fails, and a small one is repaired exactly
    n = 2 * STRIP + 7
    a = rng.normal(size=(n, n)).astype(dtype)
    if dtype is complex:
        a = a + 1j * rng.normal(size=(n, n))
    a = a + a.conj().T
    kept = a.copy()
    assert ensure_hermitian(a) is a
    assert np.array_equal(a, kept)
    for defect in (1.0, np.nan):
        bad = a.copy()
        bad[n - 1, 3] += defect
        with pytest.raises(NonHermitianError):
            ensure_hermitian(bad)
    near = a.copy()
    near[n - 1, 3] += 1e-10
    fixed = ensure_hermitian(near)
    assert np.array_equal(fixed, fixed.conj().T)
    assert abs(fixed[n - 1, 3] - a[n - 1, 3]) <= 1e-10


def test_gibbs_commutes_with_number():
    spec = LatticeSpec(4)
    n = number_operator(spec)
    res = gibbs_state(hopping_hamiltonian(spec), n, GibbsParams(1.1, 0.3))
    assert max_abs(res.rho @ n - n @ res.rho) <= 1e-10


def test_gibbs_variational_property(rng):
    # the Gibbs state minimizes F(rho) = tr(rho K) - S(rho)/beta
    spec = LatticeSpec(3)
    h = hopping_hamiltonian(spec)
    n = number_operator(spec)
    params = GibbsParams(1.4, 0.2)
    res = gibbs_state(h, n, params)
    k = h - params.mu * n

    def free_energy(rho):
        return np.real(np.trace(rho @ k)) - von_neumann_entropy(rho) / params.beta

    f_gibbs = free_energy(res.rho)
    for _ in range(100):
        rho = random_density(rng, 8)
        assert free_energy(rho) >= f_gibbs - 1e-9


def test_von_neumann_entropy_values():
    # pure state
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert abs(von_neumann_entropy(pure)) <= 1e-10
    # maximally mixed on 2^3
    assert abs(von_neumann_entropy(np.eye(8) / 8) - 3 * np.log(2)) <= 1e-10
    # two-term sum by hand
    rho = np.diag([0.75, 0.25]).astype(complex)
    expected = -0.75 * np.log(0.75) - 0.25 * np.log(0.25)
    assert abs(von_neumann_entropy(rho) - expected) <= 1e-8


def test_von_neumann_rejects_negative():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.1, -0.1]))


def test_relative_entropy_coincident_states(rng):
    rho = random_density(rng, 6)
    assert abs(relative_entropy(rho, rho)) <= 1e-10


def test_relative_entropy_qubit_by_hand():
    rho = np.diag([0.9, 0.1]).astype(complex)
    sigma = np.diag([0.5, 0.5]).astype(complex)
    expected = 0.9 * np.log(0.9 / 0.5) + 0.1 * np.log(0.1 / 0.5)
    assert abs(relative_entropy(rho, sigma) - expected) <= 1e-8


def test_relative_entropy_commuting_matches_kl(rng):
    # rotate a common eigenbasis: relative entropy equals the classical KL
    # divergence of the eigenvalue vectors
    u = random_unitary(rng, 5)
    p = rng.uniform(0.1, 1.0, 5)
    p /= p.sum()
    q = rng.uniform(0.1, 1.0, 5)
    q /= q.sum()
    rho = u @ np.diag(p) @ u.conj().T
    sigma = u @ np.diag(q) @ u.conj().T
    kl = float(np.sum(p * np.log(p / q)))
    assert abs(relative_entropy(rho, sigma) - kl) <= 1e-9


def test_relative_entropy_support_violation():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(SupportError, match="null direction"):
        relative_entropy(rho, sigma)


def test_relative_entropy_klein_positivity(rng):
    worst = np.inf
    for _ in range(300):
        dim = int(rng.integers(2, 33))
        worst = min(worst, relative_entropy(random_density(rng, dim),
                                            random_density(rng, dim)))
    assert worst >= -1e-10
