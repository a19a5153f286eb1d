"""Banded one-body products: `band_matmul` against `@`, the banded Taylor
exponential against the unbanded polynomial, the dense route of a periodic
chain, and the banded Gamma update against its dense formula."""

import numpy as np
import pytest

from fermiproc.drive import KernelSpec, Perturbation
from fermiproc.lattice import Boundary, LatticeSpec, one_body_laplacian
from fermiproc.linalg import (_BAND_BLOCK, _TAYLOR_THETA, band_matmul, expm_unitary,
                              half_bandwidth)
from fermiproc.propagator import TimeDependentHamiltonian, propagate_grid
from fermiproc.quadratic import correlation_update, gibbs_correlation
from fermiproc.states import GibbsParams

TRIDIAGONAL = np.array([[0.8, 0.4, 0.0, 0.0],
                        [0.4, -0.5, 0.3, 0.0],
                        [0.0, 0.3, 0.6, 0.2],
                        [0.0, 0.0, 0.2, -0.7]])
FILLED = np.array([[0.8, 0.4, -0.1, 0.05],
                   [0.4, -0.5, 0.3, 0.1],
                   [-0.1, 0.3, 0.6, 0.2],
                   [0.05, 0.1, 0.2, -0.7]])


def _banded(rng, n, k, complex_=False):
    a = rng.normal(size=(n, n))
    if complex_:
        a = a + 1j * rng.normal(size=(n, n))
    i, j = np.indices((n, n))
    a[np.abs(i - j) > k] = 0.0
    return a


def _one_body(n_sites, kernel, boundary=Boundary.DIRICHLET, amplitude=0.05):
    start = n_sites // 2 - 2
    sites = tuple(range(start, start + 4))
    spec = LatticeSpec(n_sites, boundary, sites)
    v = Perturbation([KernelSpec(1, sites, kernel)], spec).one_body()
    return one_body_laplacian(spec) + amplitude * v


def _taylor_unbanded(h, dt):
    """The scaled cos/sin Taylor exponential with dense products throughout."""
    nrm = abs(dt) * float(np.linalg.norm(h, np.inf))
    squarings = max(0, int(np.ceil(np.log2(nrm / _TAYLOR_THETA)))) if nrm > _TAYLOR_THETA else 0
    x = (dt / 2.0**squarings) * h
    eye = np.eye(x.shape[0])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    x8 = x4 @ x4
    c = eye - x2 / 2.0 + x4 / 24.0 - x6 / 720.0 + x8 / 40320.0
    s = x @ (eye - x2 / 6.0 + x4 / 120.0 - x6 / 5040.0 + x8 / 362880.0)
    u = c - 1j * s
    for _ in range(squarings):
        u = u @ u
    return u, squarings


def test_half_bandwidth(rng):
    assert half_bandwidth(np.zeros((5, 5))) == 0
    assert half_bandwidth(np.eye(5)) == 0
    a = np.zeros((6, 6), dtype=complex)
    a[4, 1] = 1.0  # below the diagonal only
    assert half_bandwidth(a) == 3
    a[0, 5] = 1j  # above it, complex
    assert half_bandwidth(a) == 5
    assert half_bandwidth(_banded(rng, 40, 7)) == 7


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("ka,kb", [(1, 1), (3, 17), (70, 5), (5, None), (200, 5)])
def test_band_matmul_matches_dense(rng, complex_, ka, kb):
    # n = 300 spans several blocks; ka = 70 is wider than a block, and
    # ka = 200 covers the matrix, which leaves the blocking to b's band
    n = 300
    a = _banded(rng, n, ka, complex_)
    b = _banded(rng, n, n if kb is None else kb, complex_)
    want = a @ b
    assert np.max(np.abs(band_matmul(a, ka, b, kb) - want)) <= 1e-12 * np.max(np.abs(want))
    # the transposed case: dense left factor, banded right factor
    if kb is not None:
        got = band_matmul(b.T, None, a.T, ka)
        assert np.max(np.abs(got - want.T)) <= 1e-12 * np.max(np.abs(want))


def test_band_matmul_covering_band_is_plain_product(rng):
    n = 150
    k = (n - _BAND_BLOCK) // 2  # 2k + block >= n: the band covers the matrix
    a = _banded(rng, n, k, True)
    b = _banded(rng, n, n, True)
    assert np.array_equal(band_matmul(a, k, a, k), a @ a)
    assert np.array_equal(band_matmul(a, k, b), a @ b)
    assert np.array_equal(band_matmul(b, None, a, k), b @ a)
    assert np.array_equal(band_matmul(a, None, b), a @ b)


@pytest.mark.parametrize("kernel,k_h", [(TRIDIAGONAL, 1), (FILLED, 3)])
@pytest.mark.parametrize("squarings", [0, 1, 2])
def test_taylor_matches_unbanded_polynomial(kernel, k_h, squarings):
    h = _one_body(512, kernel)
    assert half_bandwidth(h) == k_h
    # pick dt in the middle of the squaring count's norm range
    dt = 0.75 * 2.0**squarings * _TAYLOR_THETA / float(np.linalg.norm(h, np.inf))
    want, used = _taylor_unbanded(h, dt)
    assert used == squarings
    u, k = expm_unitary(h, dt)
    assert k == 9 * k_h * 2**squarings
    assert np.max(np.abs(u - want)) <= 1e-14
    assert np.array_equal(u, expm_unitary(h, dt, "taylor")[0])
    i, j = np.indices(u.shape)
    assert not np.any(u[np.abs(i - j) > k])  # exact zeros outside the band


def test_periodic_chain_takes_dense_route_bit_for_bit():
    h = _one_body(200, TRIDIAGONAL, Boundary.PERIODIC)
    assert half_bandwidth(h) == 199  # the wrap bond
    u, k = expm_unitary(h, 0.05)
    assert k == 199
    assert np.array_equal(u, _taylor_unbanded(h, 0.05)[0])
    gamma = gibbs_correlation(h, GibbsParams(1.0, 0.0))
    assert np.array_equal(correlation_update(gamma, u, k), u.conj() @ gamma @ u.T)


@pytest.mark.parametrize("k", [9, 70])
def test_banded_gamma_update_matches_dense_random(rng, k):
    # O(1) entries up to the edge of the band, which a propagator's outer
    # diagonals (of order dt^9 / 9!) do not have
    u = _banded(rng, 300, k, True)
    g = rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300))
    want = u.conj() @ (g + g.conj().T) @ u.T
    got = correlation_update(g + g.conj().T, u, k)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kernel", [TRIDIAGONAL, FILLED])
def test_banded_gamma_update_matches_dense(kernel):
    spec = LatticeSpec(512, Boundary.DIRICHLET, (254, 255, 256, 257))
    h0 = one_body_laplacian(spec)
    pert = Perturbation([KernelSpec(1, spec.local_region, kernel)], spec)
    tdh = TimeDependentHamiltonian(h0 + 0.05 * pert.one_body(), None, 0.0, "one_body")
    steps = propagate_grid(tdh, [0.0, 0.02048, 0.04096], 1e-6)
    gamma = gibbs_correlation(h0, GibbsParams(1.0, 0.0))
    for step in steps:
        assert step.band is not None and 2 * step.band + _BAND_BLOCK < 512
        u = step.matrix
        want = u.conj() @ gamma @ u.T
        assert np.max(np.abs(correlation_update(gamma, u, step.band) - want)) <= 1e-13
        gamma = want
