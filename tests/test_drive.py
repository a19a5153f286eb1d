"""Perturbation builders, control protocols, certification."""

import tracemalloc

import numpy as np
import pytest

from fermiproc.drive import (KernelSpec, Perturbation, build_one_body,
                             build_perturbation, certify_drive, periodic_protocol,
                             switch_on_protocol)
from fermiproc.lattice import (LatticeSpec, creation_op, is_gauge_invariant,
                               monomial_matrix, quadratic_fock_operator)
from fermiproc.linalg import max_abs, spectral_norm


@pytest.fixture
def spec():
    return LatticeSpec(3, local_region=(0, 1))


def test_single_site_kernel_is_number_operator(spec):
    kern = KernelSpec(1, (0,), np.array([[1.0]]))
    w = build_perturbation([kern], spec)
    n0 = creation_op(spec, 0) @ creation_op(spec, 0).conj().T
    assert max_abs(w - n0) == 0


def test_built_perturbations_are_gauge_invariant(spec, rng):
    c = rng.normal(size=(2, 2))
    w = build_perturbation([KernelSpec(1, (0, 1), 0.5 * (c + c.T))], spec)
    assert is_gauge_invariant(w)
    w2 = np.zeros((2, 2, 2, 2))
    w2[0, 1, 1, 0] = 0.4
    w2[1, 0, 0, 1] = 0.4
    w_quartic = build_perturbation([KernelSpec(2, (0, 1), w2)], spec)
    assert is_gauge_invariant(w_quartic)


def test_degree_two_kernel_matches_hand_assembly(spec):
    # w a_0^* a_1^* a_1 a_0 against the explicit monomial product
    w2 = np.zeros((2, 2, 2, 2))
    w2[0, 1, 1, 0] = 0.7
    built = build_perturbation([KernelSpec(2, (0, 1), w2)], spec)
    direct = 0.7 * monomial_matrix(3, (0, 1), (1, 0))
    assert max_abs(built - direct) <= 1e-12


def test_degree_two_build_makes_no_full_size_temporary():
    # L = 10: the Hermiticity drift is read by row strips and the gauge
    # condition on W's nonzero entries, so the build peaks below 1.5 W (3 W
    # with a 2^L x 2^L difference and commutator); W is the sum of its
    # monomials bit for bit
    spec = LatticeSpec(10, local_region=(3, 4, 5, 6))
    w2 = np.zeros((3, 3, 3, 3))
    w2[0, 1, 1, 0] = w2[1, 0, 0, 1] = 0.4
    w2[0, 1, 2, 0] = w2[0, 2, 1, 0] = 0.3
    kernel = KernelSpec(2, (3, 4, 5), w2)
    tracemalloc.start()
    try:
        w = build_perturbation([kernel], spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * w.nbytes
    direct = sum(c * monomial_matrix(10, (3 + i, 3 + j), (3 + k, 3 + m))
                 for (i, j, k, m), c in np.ndenumerate(w2) if c)
    assert np.array_equal(w, direct)


def test_kernel_validation(spec):
    with pytest.raises(ValueError, match="outside the local region"):
        build_perturbation([KernelSpec(1, (2,), np.array([[1.0]]))], spec)
    with pytest.raises(ValueError, match="Hermiticity"):
        build_perturbation([KernelSpec(1, (0, 1), np.array([[0.0, 1.0], [0.0, 0.0]]))], spec)
    with pytest.raises(ValueError, match="degree"):
        KernelSpec(3, (0,), np.zeros((1,) * 6))
    with pytest.raises(ValueError, match="shape"):
        KernelSpec(1, (0, 1), np.zeros((3, 3)))


def test_one_body_matrix(spec):
    c = np.array([[0.5, 0.2], [0.2, -0.4]])
    w = build_one_body([KernelSpec(1, (0, 1), c)], spec)
    expected = np.zeros((3, 3))
    expected[:2, :2] = c
    assert max_abs(w - expected) == 0
    assert np.isrealobj(w)
    with pytest.raises(ValueError, match="degree-1"):
        build_one_body([KernelSpec(2, (0, 1), np.zeros((2, 2, 2, 2)))], spec)


def test_one_body_and_fock_representations_agree(spec, rng):
    c = rng.normal(size=(2, 2))
    pert = Perturbation([KernelSpec(1, (0, 1), 0.5 * (c + c.T))], spec)
    assert max_abs(pert.fock() - quadratic_fock_operator(spec, pert.one_body())) <= 1e-12


# -- switch-on protocol ---------------------------------------------------------

@pytest.fixture
def switch_on(spec):
    pert = Perturbation([KernelSpec(1, (0, 1), np.array([[0.5, 0.2], [0.2, -0.4]]))], spec)
    return switch_on_protocol(pert, t0=0.0, tau_r=0.8, amplitude=0.6)


def test_switch_on_starts_at_zero(switch_on):
    assert switch_on.lam(0.0)[0] == 0.0
    assert max_abs(switch_on.operator(0.0, "fock")) == 0.0
    assert max_abs(switch_on.operator(-1.0, "fock")) == 0.0
    assert switch_on.lam(-5.0)[0] == 0.0  # frozen before t0


def test_switch_on_ramp_closed_form(switch_on):
    # ||W_t - W_inf|| = e^{-(t-t0)/tau_r} ||W_inf||
    w_inf = 0.6 * switch_on.components[0].fock()
    t = 0.8 * np.log(100.0)
    w_t = switch_on.operator(t, "fock")
    assert spectral_norm(w_t - w_inf) == pytest.approx(0.01 * spectral_norm(w_inf), rel=1e-8)


def test_switch_on_integrability_constant(switch_on, spec):
    cert = certify_drive(switch_on)
    w_inf_norm = 0.6 * spectral_norm(switch_on.components[0].fock())
    assert cert.integrability_constant == pytest.approx(0.8 * w_inf_norm, abs=1e-10)


def test_switch_on_derivative_matches_finite_difference(switch_on):
    for t in (0.1, 0.7, 2.3):
        h = 1e-6
        numeric = (switch_on.lam(t + h)[0] - switch_on.lam(t - h)[0]) / (2 * h)
        assert switch_on.lam_dot(t)[0] == pytest.approx(numeric, abs=1e-8)


# -- periodic protocol ------------------------------------------------------------

@pytest.fixture(params=["sin", "square"])
def periodic(request, spec):
    pert = Perturbation([KernelSpec(1, (0, 1), np.array([[0.5, 0.2], [0.2, -0.4]]))], spec)
    return periodic_protocol(pert, period=1.5, waveform=request.param, amplitude=0.3)


def test_periodicity_exact_on_dyadic_times(periodic, rng):
    # dyadic times add exactly in binary floating point, so lambda(t + T)
    # must reproduce lambda(t) bit for bit
    period = periodic.period
    for _ in range(100):
        t = float(rng.integers(0, 2**20)) * 2.0**-10
        assert periodic.lam(t + period)[0] == periodic.lam(t)[0]


def test_periodic_starts_at_zero(periodic):
    assert periodic.lam(0.0)[0] == pytest.approx(0.0, abs=1e-15)


def test_sin_waveform_derivative(spec):
    pert = Perturbation([KernelSpec(1, (0, 1), np.eye(2))], spec)
    prot = periodic_protocol(pert, period=2.0, waveform="sin", amplitude=0.7)
    for t in np.linspace(0.05, 3.9, 9):
        expected = 0.7 * (2 * np.pi / 2.0) * np.cos(2 * np.pi * t / 2.0)
        assert prot.lam_dot(t)[0] == pytest.approx(expected, abs=1e-12)


def test_square_waveform_c1(spec):
    pert = Perturbation([KernelSpec(1, (0, 1), np.eye(2))], spec)
    prot = periodic_protocol(pert, period=2.0, waveform="square", amplitude=1.0)
    # derivative matches finite differences everywhere, including ramps
    for t in np.linspace(0.01, 1.99, 40):
        h = 1e-7
        numeric = (prot.lam(t + h)[0] - prot.lam(t - h)[0]) / (2 * h)
        assert prot.lam_dot(t)[0] == pytest.approx(numeric, abs=1e-5)


def test_periodic_propagator_window_invariance(spec):
    # U(s + T, t + T) = U(s, t) when the drive is T-periodic for all times:
    # enforced by comparing propagators over shifted windows (t0 = -inf
    # behavior emulated by starting the drive well before the windows)
    from fermiproc.propagator import TimeDependentHamiltonian, propagate
    from fermiproc.lattice import hopping_hamiltonian
    pert = Perturbation([KernelSpec(1, (0, 1), np.array([[0.4, 0.1], [0.1, -0.3]]))], spec)
    prot = periodic_protocol(pert, period=1.25, amplitude=0.4, t0=-100.0)
    tdh = TimeDependentHamiltonian(hopping_hamiltonian(spec), prot, -100.0, "fock")
    tol = 1e-9
    u1 = propagate(tdh, 0.3, 1.1, tol)
    u2 = propagate(tdh, 0.3 + 1.25, 1.1 + 1.25, tol)
    assert max_abs(u1.matrix - u2.matrix) <= 10 * tol


def test_linear_builders_match_finite_difference(switch_on):
    t = 1.1
    lam = switch_on.lam(t)
    h = 1e-4
    v = switch_on.components[0].fock()
    numeric = ((lam[0] + h) * v - (lam[0] - h) * v) / (2 * h)
    assert max_abs(numeric - switch_on.d_operator(t, "fock")[0]) <= 1e-10


# -- certification -----------------------------------------------------------------

#: the 4-site kernel of configs/process1_L200.yaml, driven at amplitude 0.05
REFERENCE_KERNEL = np.array([[0.8, 0.4, 0.0, 0.0], [0.4, -0.5, 0.3, 0.0],
                             [0.0, 0.3, 0.6, 0.2], [0.0, 0.0, 0.2, -0.7]])


def test_certificate_local_gauge_invariant(switch_on, spec):
    cert = certify_drive(switch_on)
    assert isinstance(cert.smallness, float)
    assert cert.smallness_threshold == pytest.approx(1 / (24 * np.pi))
    assert cert.sup_norm > 0


def test_certificate_flags_tiny_drive_as_small(spec):
    pert = Perturbation([KernelSpec(1, (0, 1), 1e-5 * np.eye(2))], spec)
    prot = switch_on_protocol(pert, 0.0, 1.0, 1.0)
    cert = certify_drive(prot)
    assert cert.inside_hypothesis


def test_certificate_flags_large_drive(spec):
    pert = Perturbation([KernelSpec(1, (0, 1), np.eye(2))], spec)
    prot = switch_on_protocol(pert, 0.0, 1.0, 1.0)
    cert = certify_drive(prot)
    assert cert.inside_hypothesis is False


def test_certificate_large_lattice_one_body(rng):
    # dGamma(w) has the eigenvalues sum_{k occupied} e_k: its norm is the
    # larger of the positive and the negative eigenvalue sums of w
    big = LatticeSpec(64, local_region=(30, 31))
    c = rng.normal(size=(2, 2))
    c = 0.5 * (c + c.T)
    pert = Perturbation([KernelSpec(1, (30, 31), c)], big)
    cert = certify_drive(switch_on_protocol(pert, 0.0, 1.0, 0.05))
    e = np.linalg.eigvalsh(c)
    assert cert.sup_norm == pytest.approx(0.05 * max(e[e > 0].sum(), -e[e < 0].sum()),
                                          rel=1e-14)


def test_certificate_is_the_same_at_every_l():
    # the reference drive's sup_norm reads its kernel only: L = 8 and L = 64
    # agree bit for bit, and equal the dense Fock norm at L = 8
    certs = []
    for n_sites in (8, 64):
        start = n_sites // 2 - 2
        spec = LatticeSpec(n_sites, local_region=tuple(range(start, start + 4)))
        pert = Perturbation([KernelSpec(1, tuple(range(start, start + 4)), REFERENCE_KERNEL)],
                            spec)
        certs.append(certify_drive(switch_on_protocol(pert, 0.0, 2.0, 0.05)))
        if n_sites == 8:
            dense = spectral_norm(0.05 * pert.fock())
    assert certs[0] == certs[1]
    assert abs(certs[0].sup_norm - dense) <= 1e-12
    assert certs[0].integrability_constant == 2.0 * certs[0].sup_norm
    assert certs[0].inside_hypothesis is False


def test_degree_two_norm_matches_dense(rng):
    spec = LatticeSpec(6, local_region=(1, 2, 3))
    w2 = np.zeros((3, 3, 3, 3))
    w2[0, 1, 1, 0] = w2[1, 0, 0, 1] = 0.4
    w2[0, 2, 1, 0] = w2[0, 1, 2, 0] = 0.3
    c = rng.normal(size=(3, 3))
    pert = Perturbation([KernelSpec(2, (1, 2, 3), w2),
                         KernelSpec(1, (1, 2, 3), 0.5 * (c + c.T))], spec)
    assert abs(pert.norm() - spectral_norm(pert.fock())) <= 1e-12
    cert = certify_drive(periodic_protocol(pert, period=1.5, amplitude=-0.2))
    assert cert.sup_norm == pytest.approx(0.2 * pert.norm(), rel=1e-15)
    assert cert.integrability_constant is None
    assert isinstance(cert.smallness, float)
