"""Free-fermion fast path against the exact-diagonalization oracle."""

import itertools

import numpy as np
import pytest
from scipy.special import expit

from fermiproc.drive import KernelSpec, Perturbation, switch_on_protocol
from fermiproc.harness import (exact_trajectory, probe_matrices, probe_site_pairs,
                               quadratic_trajectory, time_grid)
from fermiproc.harness import LatticeConfig, GibbsConfig, RunConfig
from fermiproc.lattice import (Boundary, LatticeSpec, hopping_hamiltonian, number_operator,
                               one_body_laplacian, quadratic_fock_operator)
from fermiproc.linalg import max_abs
from fermiproc.observables import expectation
from fermiproc.propagator import TimeDependentHamiltonian, propagate
from fermiproc.harness import ConfigError
from fermiproc import quadratic
from fermiproc.quadratic import (ScalarDriveReferenceCache, binary_entropy,
                                 correlation_entropy, gibbs_correlation, pauli_defect,
                                 quadratic_observable, reference_scalars)
from fermiproc.states import GibbsParams, gibbs_state, von_neumann_entropy

from conftest import correlation_update, random_hermitian


def test_expit_is_scipy_expit_bit_for_bit(rng):
    # the Fermi occupations' logistic function on libm's exp is scipy's,
    # bit for bit, where e^{-x} overflows (x < -709.78) included
    x = np.concatenate([scale * rng.normal(size=20000) for scale in (1.0, 30.0, 1000.0)]
                       + [[-800.0, -709.8, -709.7, -0.0, 0.0, 5e-324, 709.8, 800.0]])
    assert np.array_equal(quadratic.expit(x), expit(x))


def test_gibbs_correlation_scalar():
    eps, beta, mu = 0.8, 1.4, 0.3
    gamma = gibbs_correlation(np.array([[eps]]), GibbsParams(beta, mu))
    assert gamma[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(beta * (eps - mu))), abs=1e-12)


def test_gibbs_correlation_filled_band():
    h = one_body_laplacian(LatticeSpec(5))
    params = GibbsParams(2.0, float(np.max(np.linalg.eigvalsh(h))) + 25.0)
    gamma = gibbs_correlation(h, params)
    assert max_abs(gamma - np.eye(5)) <= 1e-8


def test_gibbs_correlation_commutes_with_h():
    h = one_body_laplacian(LatticeSpec(6))
    gamma = gibbs_correlation(h, GibbsParams(1.1, 0.4))
    # Gamma = f(h)^T, so it commutes with h^T
    assert max_abs(gamma @ h.T - h.T @ gamma) <= 1e-10


@pytest.mark.parametrize("n_sites", [2, 4, 6])
def test_gibbs_correlation_matches_fock(n_sites, rng):
    spec = LatticeSpec(n_sites)
    params = GibbsParams(1.3, 0.2)
    rho = gibbs_state(hopping_hamiltonian(spec), number_operator(spec), params).rho
    gamma = gibbs_correlation(one_body_laplacian(spec), params)
    w = random_hermitian(rng, n_sites)
    fock_val = expectation(rho, quadratic_fock_operator(spec, w))
    assert quadratic_observable(gamma, w) == pytest.approx(fock_val, abs=1e-8)


def test_one_body_grand_potential_matches_fock():
    spec = LatticeSpec(5)
    params = GibbsParams(0.9, -0.3)
    g_fock = gibbs_state(hopping_hamiltonian(spec), number_operator(spec), params)
    g_one = reference_scalars(one_body_laplacian(spec), params, []).grand_potential
    assert g_one == pytest.approx(g_fock.grand_potential, abs=1e-10)
    assert params.beta * g_one == pytest.approx(g_fock.beta_g, abs=1e-10)


def test_static_evolution_conserves_number_and_entropy():
    h = one_body_laplacian(LatticeSpec(8))
    params = GibbsParams(1.0, 0.5)
    gamma0 = gibbs_correlation(h, params)
    gamma_t = correlation_update(gamma0, propagate(h, 0.0, 2.5, 1e-10).matrix)
    assert abs(np.trace(gamma_t).real - np.trace(gamma0).real) <= 1e-10
    assert abs(correlation_entropy(gamma_t) - correlation_entropy(gamma0)) <= 1e-9
    # t = s leaves Gamma unchanged
    assert max_abs(correlation_update(gamma0, propagate(h, 1.0, 1.0, 1e-10).matrix)
                   - gamma0) == 0


def test_two_site_rabi_conformance():
    # frozen convention check: h = sigma_x, particle starts on site 0,
    # occupation oscillates as cos^2(t)
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    gamma0 = np.diag([1.0, 0.0]).astype(complex)
    for t in (0.3, 0.7, 1.9):
        gamma = correlation_update(gamma0, propagate(h, 0.0, t, 1e-12).matrix)
        assert gamma[0, 0].real == pytest.approx(np.cos(t) ** 2, abs=1e-10)
        assert gamma[1, 1].real == pytest.approx(np.sin(t) ** 2, abs=1e-10)


def test_driven_occupations_match_fock_oracle():
    # the transpose/conjugate convention of the evolution is pinned here
    spec = LatticeSpec(4, local_region=(1, 2))
    coeffs = np.array([[0.6, 0.25], [0.25, -0.5]])
    pert = Perturbation([KernelSpec(1, (1, 2), coeffs)], spec)
    protocol = switch_on_protocol(pert, 0.0, 0.6, 0.4)
    params = GibbsParams(1.3, 0.2)
    rho = gibbs_state(hopping_hamiltonian(spec), number_operator(spec), params).rho
    tdh_f = TimeDependentHamiltonian(hopping_hamiltonian(spec), protocol, 0.0, "fock")
    gamma = gibbs_correlation(one_body_laplacian(spec), params)
    tdh_q = TimeDependentHamiltonian(one_body_laplacian(spec), protocol, 0.0, "one_body")
    t_prev = 0.0
    for t in (0.4, 1.1, 1.9):
        u = propagate(tdh_f, t_prev, t, 1e-9)
        rho = u.matrix @ rho @ u.matrix.conj().T
        gamma = correlation_update(gamma, propagate(tdh_q, t_prev, t, 1e-9).matrix)
        t_prev = t
        for site in range(4):
            w = np.zeros((4, 4))
            w[site, site] = 1.0
            fock_val = expectation(rho, quadratic_fock_operator(spec, w))
            assert quadratic_observable(gamma, w) == pytest.approx(fock_val, abs=1e-8)
    assert pauli_defect(gamma) <= 1e-9


def test_quadratic_observable_total_number():
    gamma = gibbs_correlation(one_body_laplacian(LatticeSpec(5)), GibbsParams(1.0, 0.2))
    total = quadratic_observable(gamma, np.eye(5))
    assert total == pytest.approx(np.trace(gamma).real, abs=1e-12)


def test_quadratic_observable_dimension_check():
    with pytest.raises(ValueError):
        quadratic_observable(np.eye(3), np.eye(4))


def _reference_drive(n_sites, kind):
    """Rows R and R x R blocks C_j: a complex Hermitian kernel, two hand-built
    controls, or no drive."""
    rows = np.arange(n_sites // 2 - 1, n_sites // 2 + 2)
    if kind == "none":
        return rows[:0], []
    complex_kernel = np.array([[0.7, 0.3 + 0.2j, -0.1j],
                               [0.3 - 0.2j, -0.4, 0.25],
                               [0.1j, 0.25, 0.5]])
    if kind == "complex":
        return rows, [complex_kernel]
    return rows, [np.diag([0.6, -0.3, 0.0]),
                  np.array([[0.0, 0.5, 0.0], [0.5, 0.0, -0.2], [0.0, -0.2, 0.0]])]


def test_reference_cache_matches_direct():
    # the resolvent route against one L x L eigh per control value, in G and
    # in every gradient entry, over lambda in [-1, 2]
    controls = {"complex": [[-1.0], [0.3], [2.0]],
                "two_controls": [[-1.0, 2.0], [1.5, -0.4]], "none": [[]]}
    for n_sites, boundary, beta, mu in itertools.product(
            (30, 512), (Boundary.DIRICHLET, Boundary.PERIODIC), (0.1, 1.0, 10.0),
            (-0.3, 0.0, 0.25)):
        h0 = one_body_laplacian(LatticeSpec(n_sites, boundary))
        eps, phi = np.linalg.eigh(h0)
        params = GibbsParams(beta, mu)
        for kind, lams in controls.items():
            rows, blocks = _reference_drive(n_sites, kind)
            cache = ScalarDriveReferenceCache(eps, phi[rows], blocks, params,
                                              np.max(np.abs(lams), axis=0))
            full = []
            for c in blocks:
                v = np.zeros((n_sites, n_sites), dtype=complex)
                v[np.ix_(rows, rows)] = c
                full.append(v)
            for lam in lams:
                h = h0 + sum((lj * v for lj, v in zip(lam, full)), np.zeros_like(h0))
                direct = reference_scalars(h, params, full)
                got = cache(lam)
                assert abs(got.grand_potential - direct.grand_potential) <= 1e-10
                assert got.gradient.shape == direct.gradient.shape
                assert np.max(np.abs(got.gradient - direct.gradient), initial=0.0) <= 1e-10


def test_reference_cache_refuses_controls_beyond_its_bound():
    # the pole count is sized for |lambda_j| <= the bound; beyond it, loud
    h0 = one_body_laplacian(LatticeSpec(30))
    eps, phi = np.linalg.eigh(h0)
    rows, blocks = _reference_drive(30, "two_controls")
    cache = ScalarDriveReferenceCache(eps, phi[rows], blocks, GibbsParams(1.0),
                                      [1.0, 0.5])
    cache([-1.0, 0.5])
    with pytest.raises(ValueError, match="bound"):
        cache([0.2, -0.6])


def test_ledger_rejects_interaction_kernels():
    # the fast path refuses degree-2 kernels before it writes any ledger row
    spec = LatticeSpec(4, local_region=(1, 2))
    quartic = KernelSpec(2, (1, 2), np.zeros((2, 2, 2, 2)))
    pert = Perturbation([quartic], spec)
    protocol = switch_on_protocol(pert, 0.0, 0.5, 0.1)
    with pytest.raises(ConfigError, match="degree-1"):
        quadratic_trajectory(spec, GibbsParams(1.0), protocol, time_grid(0.0, 0.2, 0.1),
                             1e-8)


def test_zero_drive_ledger_is_flat():
    spec = LatticeSpec(6)
    params = GibbsParams(1.2, 0.1)
    times = time_grid(0.0, 1.0, 0.1)
    traj = quadratic_trajectory(spec, params, None, times, 1e-9)
    u0 = traj.records[0].U
    for rec in traj.records:
        assert rec.Sdot == 0.0
        assert abs(rec.U - u0) <= 1e-9
        assert abs(rec.relS) <= 1e-9


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
def test_full_ledger_against_exact_path(n_sites, rng):
    # every ProcessRecord field from the one-particle route must match the
    # Fock-space route on random quadratic switch-on drives
    region = tuple(range(max(0, n_sites // 2 - 1), min(n_sites, n_sites // 2 + 1)))
    spec = LatticeSpec(n_sites, local_region=region)
    m = len(region)
    c = rng.normal(size=(m, m))
    kern = KernelSpec(1, region, 0.5 * (c + c.T))
    pert = Perturbation([kern], spec)
    protocol = switch_on_protocol(pert, 0.0, 0.8, 0.25)
    params = GibbsParams(1.1, 0.15)
    times = time_grid(0.0, 1.5, 0.075)  # 20 sample intervals
    pairs = probe_site_pairs(RunConfig(LatticeConfig(n_sites), GibbsConfig(1.1)), spec)
    te = exact_trajectory(spec, params, protocol, times, 1e-9,
                          probe_matrices(pairs, spec, "fock"))
    tq = quadratic_trajectory(spec, params, protocol, times, 1e-9,
                              probe_matrices(pairs, spec, "one_body"))
    for re_, rq in zip(te.records, tq.records):
        for name in ("t", "U", "q", "S", "Sdot", "relS", "work", "G"):
            assert abs(getattr(re_, name) - getattr(rq, name)) <= 1e-7, name
    assert np.max(np.abs(te.probe_series - tq.probe_series)) <= 1e-7


def test_correlation_entropy_matches_fock():
    spec = LatticeSpec(5)
    params = GibbsParams(0.8, 0.1)
    gamma = gibbs_correlation(one_body_laplacian(spec), params)
    s_quad = correlation_entropy(gamma)
    rho = gibbs_state(hopping_hamiltonian(spec), number_operator(spec), params).rho
    assert s_quad == pytest.approx(von_neumann_entropy(rho), abs=1e-9)


def test_pauli_bounds_along_run(rng):
    spec = LatticeSpec(24, local_region=(11, 12))
    c = rng.normal(size=(2, 2))
    pert = Perturbation([KernelSpec(1, (11, 12), 0.5 * (c + c.T))], spec)
    protocol = switch_on_protocol(pert, 0.0, 0.5, 0.4)
    params = GibbsParams(1.5, 0.0)
    gamma = gibbs_correlation(one_body_laplacian(spec), params)
    tdh = TimeDependentHamiltonian(one_body_laplacian(spec), protocol, 0.0, "one_body")
    t_prev = 0.0
    for t in np.linspace(0.5, 6.0, 12):
        gamma = correlation_update(gamma, propagate(tdh, t_prev, float(t), 1e-7).matrix)
        t_prev = float(t)
        assert pauli_defect(gamma) <= 1e-9


@pytest.mark.parametrize("beta,mu", [(0.3, 0.0), (1.0, 0.2), (40.0, -0.5), (400.0, 1.0)])
def test_closed_form_start_entropy(beta, mu):
    # the start entropy from the Gibbs occupations, against the entropy of
    # diag(f) through its spectrum; beta = 400 drives occupations to 0 and 1
    eps = np.linalg.eigvalsh(one_body_laplacian(LatticeSpec(64)))
    f = expit(-beta * (eps - mu))
    assert abs(binary_entropy(f) - correlation_entropy(np.diag(f))) <= 1e-12


def test_final_state_is_exactly_hermitian(rng):
    # Gamma is completed from one triangle, and the trajectory's Pauli defect
    # and entropy drift come from the final spectrum
    spec = LatticeSpec(40, local_region=(19, 20, 21))
    c = rng.normal(size=(3, 3))
    pert = Perturbation([KernelSpec(1, (19, 20, 21), 0.5 * (c + c.T))], spec)
    protocol = switch_on_protocol(pert, 0.0, 0.5, 0.4)
    traj = quadratic_trajectory(spec, GibbsParams(1.5, 0.1), protocol,
                                time_grid(0.0, 1.0, 0.1), 1e-8)
    gamma = traj.final_state
    assert gamma.dtype == complex and np.array_equal(gamma, gamma.conj().T)
    assert abs(traj.pauli_defect - pauli_defect(gamma)) <= 1e-12
    assert traj.pauli_defect <= 1e-9 and traj.entropy_drift <= 1e-9


@pytest.mark.parametrize("hop", [0.3, 0.3 + 0.2j], ids=["real", "complex"])
def test_gibbs_probes_read_the_probe_support(hop):
    # the fast path's Gibbs probe values, from Gamma_SS = conj(phi_S f phi_S^dagger)
    # of one eigh, equal the full L x L `gibbs_correlation` read by
    # `quadratic_observable`; one probe lies outside the drive's sites, and
    # the current i(a_19^* a_20 - a_20^* a_19) on the complex bond reads Im Gamma
    spec = LatticeSpec(40, local_region=(19, 20, 21))
    kernel = KernelSpec(1, (19, 20, 21), [[0.5, hop, 0.0], [np.conj(hop), -0.4, 0.2],
                                          [0.0, 0.2, 0.1]])
    protocol = switch_on_protocol(Perturbation([kernel], spec), 0.0, 0.5, 0.4)
    params = GibbsParams(1.5, 0.1)
    pairs = probe_site_pairs(RunConfig(LatticeConfig(40), GibbsConfig(1.5)), spec)
    current = np.zeros((40, 40), dtype=complex)
    current[19, 20], current[20, 19] = 1j, -1j
    ops = probe_matrices(pairs + [(5, 7)], spec, "one_body") + [current]
    traj = quadratic_trajectory(spec, params, protocol, time_grid(0.0, 0.2, 0.1), 1e-8, ops)
    (v,) = [c.one_body() for c in protocol.components]
    for lam in (0.0, 0.4, -1.3):
        gamma = gibbs_correlation(one_body_laplacian(spec) + lam * v, params)
        expected = [quadratic_observable(gamma, w) for w in ops]
        assert np.max(np.abs(traj.gibbs_probes([lam]) - expected)) <= 1e-12
