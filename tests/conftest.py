import os

# one BLAS thread per test process: on a shared or small machine, BLAS threads
# oversubscribe the cores and the timing criterion measures the contention;
# set before numpy is imported, which is when BLAS reads them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240619)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def correlation_update(gamma, u):
    """conj(u) Gamma u^T: Gamma_ij = <a_i^* a_j> after the dense one-particle
    propagator u (the oracle rule of the fast path)."""
    return u.conj() @ gamma @ u.T


TRIDIAGONAL = np.array([[0.8, 0.4, 0.0, 0.0],
                        [0.4, -0.5, 0.3, 0.0],
                        [0.0, 0.3, 0.6, 0.2],
                        [0.0, 0.0, 0.2, -0.7]])
FILLED = np.array([[0.8, 0.4, -0.1, 0.05],
                   [0.4, -0.5, 0.3, 0.1],
                   [-0.1, 0.3, 0.6, 0.2],
                   [0.05, 0.1, 0.2, -0.7]])


def low_rank_dense(u):
    """The dense I + Q K Q^dagger of a LowRankUnitary."""
    return np.eye(u.q.shape[0]) + u.q @ u.k @ u.q.conj().T


#: norm ||dt h||_inf up to which `taylor_expm` uses its polynomial unsquared
TAYLOR_THETA = 0.1


def taylor_expm(h, dt):
    """exp(-i dt h) by the degree-8/9 cos/sin Taylor polynomials of dt h
    scaled below TAYLOR_THETA, then squared: (U, number of squarings)."""
    nrm = abs(dt) * float(np.linalg.norm(h, np.inf))
    squarings = max(0, int(np.ceil(np.log2(nrm / TAYLOR_THETA)))) if nrm > TAYLOR_THETA else 0
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
