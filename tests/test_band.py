"""Where the drive's one-body matrix is nonzero, and what that costs: the
drive's support R and the step's rank 2|R|, the L = 512 one-body exponential
against the scaled Taylor polynomial, the periodic chain's single dense block,
and the rank-r Gamma update against its dense formula."""

import numpy as np
import pytest

from fermiproc.drive import KernelSpec, Perturbation, switch_on_protocol
from fermiproc.lattice import Boundary, LatticeSpec, one_body_laplacian
from fermiproc.linalg import expm_unitary
from fermiproc.propagator import LowRankUnitary, step_grid
from fermiproc.quadratic import interaction_picture, rank_update

from conftest import (FILLED, TAYLOR_THETA, TRIDIAGONAL, low_rank_dense, random_unitary,
                      taylor_expm)


def _drive(n_sites, kernel, boundary=Boundary.DIRICHLET, amplitude=0.05):
    """h0, the drive's protocol and its one-body matrix at full strength
    (`amplitude` times the kernel's), on four central sites."""
    start = n_sites // 2 - 2
    sites = tuple(range(start, start + 4))
    spec = LatticeSpec(n_sites, boundary, sites)
    pert = Perturbation([KernelSpec(1, sites, kernel)], spec)
    protocol = switch_on_protocol(pert, 0.0, 0.5, amplitude)
    return one_body_laplacian(spec), protocol, amplitude * pert.one_body()


def _half_bandwidth(a):
    i, j = np.nonzero(a)
    return int(np.max(np.abs(i - j))) if i.size else 0


def test_half_bandwidth():
    # a step's width is 2|R|, R the drive's nonzero rows: it follows which
    # sites the kernel couples, not how far off the diagonal its entries sit
    corner = np.zeros((4, 4), dtype=complex)
    corner[3, 0], corner[0, 3] = 0.5j, -0.5j  # couples the end sites only
    diagonal = np.diag([0.3, 0.0, 0.0, -0.2])
    for kernel, local, k_h in ((corner, [0, 3], 3), (diagonal, [0, 3], 0),
                               (TRIDIAGONAL, [0, 1, 2, 3], 1), (FILLED, [0, 1, 2, 3], 3)):
        h0, protocol, v = _drive(40, kernel)
        assert _half_bandwidth(v) == k_h
        steps, blocks = interaction_picture(h0, protocol)
        assert list(steps.rows) == [18 + s for s in local]
        rr = np.ix_(steps.rows, steps.rows)
        assert np.max(np.abs(0.05 * blocks[0] - v[rr])) <= 1e-16
        assert steps.step(0.1, 0.2).q.shape == (40, 2 * len(local))
    steps, blocks = interaction_picture(one_body_laplacian(LatticeSpec(40)), None)
    assert steps.rows.size == 0 and blocks == []


def test_band_matmul_covering_band_is_plain_product(rng):
    # 2|R| >= L: the step's basis covers the whole space, and the update with
    # a full-rank factor (Q = I, as a Dyson step enters) is the plain product
    h0, protocol, _ = _drive(6, FILLED, Boundary.PERIODIC, amplitude=0.3)
    steps, _ = interaction_picture(h0, protocol)
    u = steps.step(0.0, 0.4)
    assert u.q.shape == (6, 6)
    assert np.max(np.abs(u.q.conj().T @ u.q - np.eye(6))) <= 1e-14
    dense = low_rank_dense(u)
    assert np.max(np.abs(dense.conj().T @ dense - np.eye(6))) <= 1e-14
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    g = a + a.conj().T
    for q, k in ((u.q, u.k), (np.eye(6), dense - np.eye(6))):
        got = rank_update(g, LowRankUnitary(q, k))
        assert np.max(np.abs(got - dense @ g @ dense.conj().T)) <= 1e-13


@pytest.mark.parametrize("kernel,k_h", [(TRIDIAGONAL, 1), (FILLED, 3)])
@pytest.mark.parametrize("squarings", [0, 1, 2])
def test_taylor_matches_unbanded_polynomial(kernel, k_h, squarings):
    # the one-body exponential of the L = 512 drive Hamiltonians (the dense
    # oracle's) against the scaled Taylor polynomial, whose terms vanish
    # beyond 9 k_h 2^squarings off the diagonal
    h0, _, v = _drive(512, kernel)
    h = h0 + v
    assert _half_bandwidth(h) == k_h
    # pick dt in the middle of the squaring count's norm range
    dt = 0.75 * 2.0**squarings * TAYLOR_THETA / float(np.linalg.norm(h, np.inf))
    want, used = taylor_expm(h, dt)
    assert used == squarings
    u = expm_unitary(h, dt)
    assert np.max(np.abs(u - want)) <= 1e-14
    i, j = np.indices(u.shape)
    assert np.max(np.abs(u[np.abs(i - j) > 9 * k_h * 2**squarings])) <= 1e-14


def test_periodic_chain_takes_dense_route_bit_for_bit(rng):
    # the wrap bond joins the chain into one block: the exponential is the
    # plain dense spectral one, bit for bit; it leaves R and the rank alone
    h0, protocol, v = _drive(200, TRIDIAGONAL, Boundary.PERIODIC)
    h = h0 + v
    assert _half_bandwidth(h) == 199  # the wrap bond
    w, vecs = np.linalg.eigh(h)
    assert np.array_equal(expm_unitary(h, 0.05), (vecs * np.exp(-0.05j * w)) @ vecs.conj().T)
    steps, _ = interaction_picture(h0, protocol)
    assert list(steps.rows) == [98, 99, 100, 101]
    u = steps.step(0.0, 0.05)
    assert u.q.shape == (200, 8)
    g = np.diag(rng.uniform(size=200)).astype(complex)
    dense = low_rank_dense(u)
    assert np.max(np.abs(rank_update(g, u) - dense @ g @ dense.conj().T)) <= 1e-13


@pytest.mark.parametrize("k", [9, 70])
def test_banded_gamma_update_matches_dense_random(rng, k):
    # a rank-k factor with O(1) entries against the dense U G U^dagger
    n = 300
    q, _ = np.linalg.qr(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))
    u = LowRankUnitary(q, random_unitary(rng, k) - np.eye(k))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = a + a.conj().T
    dense = low_rank_dense(u)
    want = dense @ g @ dense.conj().T
    got = rank_update(g, u)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("rank", [8, 16, 0], ids=["r8", "r16", "q_identity"])
def test_rank_update_is_exactly_hermitian(rng, rank):
    # G + (Z + Z^dagger) is Hermitian bit for bit whenever G is, so the
    # trajectory loop never symmetrizes; rank 0 stands for a full-rank factor
    # (Q = I, as a Dyson step enters)
    n = 200
    if rank:
        q, _ = np.linalg.qr(rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)))
        u = LowRankUnitary(q, random_unitary(rng, rank) - np.eye(rank))
    else:
        u = LowRankUnitary(np.eye(n), random_unitary(rng, n) - np.eye(n))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    got = rank_update(a + a.conj().T, u)
    assert np.array_equal(got, got.conj().T)


@pytest.mark.parametrize("kernel", [TRIDIAGONAL, FILLED])
def test_banded_gamma_update_matches_dense(kernel):
    # L = 512: each grid interval's factor, applied by two GEMMs, against the
    # dense U G U^dagger
    h0, protocol, _ = _drive(512, kernel, amplitude=0.3)
    steps, _ = interaction_picture(h0, protocol)
    g = np.diag(np.linspace(0.05, 0.95, 512)).astype(complex)
    for step in step_grid(steps, [0.0, 0.02048, 0.04096, 0.06144], 1e-6):
        u = low_rank_dense(step.matrix)
        want = u @ g @ u.conj().T
        assert step.matrix.q.shape[1] <= 16
        assert np.max(np.abs(rank_update(g, step.matrix) - want)) <= 1e-13
        g = want
