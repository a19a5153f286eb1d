"""Shared dense linear-algebra helpers: norms, Hermiticity policy, decoupled
blocks, unitary exponentials."""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

#: entrywise drift below which a matrix is accepted as Hermitian outright
HERMITIAN_TOL = 1e-12
#: drift above HERMITIAN_TOL but below this is repaired by symmetrization
HERMITIAN_REPAIR_TOL = 1e-8


class NonHermitianError(ValueError):
    """Operator fails the Hermiticity certificate beyond the repairable band."""


def max_abs(a):
    """Entrywise max-modulus norm ||A||_max."""
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def hermiticity_drift(a):
    """||A - A^dagger||_max."""
    return max_abs(a - a.conj().T)


def ensure_hermitian(a, name="operator"):
    """Certify `a` as Hermitian.

    Drift <= 1e-12 passes unchanged; drift below 1e-8 is repaired by
    A <- (A + A^dagger)/2; anything larger is a hard error.
    """
    a = np.asarray(a)
    drift = hermiticity_drift(a)
    if drift <= HERMITIAN_TOL:
        return a
    if drift < HERMITIAN_REPAIR_TOL:
        return 0.5 * (a + a.conj().T)
    raise NonHermitianError(f"{name}: Hermiticity drift {drift:.3e} exceeds {HERMITIAN_REPAIR_TOL:.0e}")


def symmetrize(a):
    """(A + A^dagger)/2, without certification."""
    return 0.5 * (a + np.asarray(a).conj().T)


def spectral_norm(a):
    """Operator 2-norm of a Hermitian matrix (max |eigenvalue|)."""
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


# -- decoupled blocks ----------------------------------------------------------

# below this dimension a dense eigendecomposition is cheaper than the block
# search plus the per-block gathers (measured crossover between 64 and 128 on
# charge-sector Hamiltonians: 0.8 ms dense vs 1.1 ms blocked at 64, 4.7 vs
# 1.9 ms at 128)
_BLOCK_MIN_DIM = 128
_WHOLE = (slice(None), slice(None))


def decoupled_blocks(*mats):
    """Diagonal blocks on which square matrices jointly decouple.

    The blocks are the connected components of the joint exact-zero pattern:
    every matrix vanishes exactly between indices of different blocks, so a
    Hermitian function of each matrix acts block by block. Returns a list of
    index keys, `a[key]` being a diagonal block. A single block (and any
    matrix below `_BLOCK_MIN_DIM`, which is not scanned) is the one key that
    views the whole matrix.
    """
    if mats[0].shape[0] < _BLOCK_MIN_DIM:
        return [_WHOLE]
    pattern = mats[0] != 0
    for a in mats[1:]:
        pattern |= a != 0
    n_blocks, labels = connected_components(csr_matrix(pattern), directed=False)
    if n_blocks == 1:
        return [_WHOLE]
    order = np.argsort(labels, kind="stable")
    return [np.ix_(idx, idx)
            for idx in np.split(order, np.cumsum(np.bincount(labels))[:-1])]


def assemble_blocks(keys, parts, shape):
    """Matrix with `parts` on the diagonal blocks `keys`, zero elsewhere."""
    if len(parts) == 1:  # the single key covers the whole matrix
        return parts[0]
    out = np.zeros(shape, np.result_type(*parts))
    for key, part in zip(keys, parts):
        out[key] = part
    return out


# -- unitary exponentials ----------------------------------------------------

# Taylor threshold: after scaling, |dt|*||h|| <= _TAYLOR_THETA keeps the
# degree-8 remainder below 3e-17.
_TAYLOR_THETA = 0.1
# below this dimension the spectral route is at least as fast as Taylor
_TAYLOR_MIN_DIM = 129


def expm_hermitian_spectral(h, dt):
    """exp(-i*dt*h) for Hermitian h via eigendecomposition (exactly unitary).

    Diagonalizes each decoupled block of h separately.
    """
    keys = decoupled_blocks(h)
    parts = []
    for key in keys:
        w, v = np.linalg.eigh(h[key])
        parts.append((v * np.exp(-1j * dt * w)) @ v.conj().T)
    return assemble_blocks(keys, parts, h.shape)


def _cos_sin_taylor(x):
    """(cos(x), sin(x)) of a square matrix with ||x|| <= theta, degree 8/9."""
    eye = np.eye(x.shape[0], dtype=x.dtype)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    x8 = x4 @ x4
    c = eye - x2 / 2.0 + x4 / 24.0 - x6 / 720.0 + x8 / 40320.0
    s = x @ (eye - x2 / 6.0 + x4 / 120.0 - x6 / 5040.0 + x8 / 362880.0)
    return c, s


def expm_hermitian_taylor(h, dt):
    """exp(-i*dt*h) via scaled cos/sin Taylor series.

    For real-symmetric h the powers stay in real arithmetic, which is the
    fast path for large one-particle matrices. Truncation error < 1e-16.
    """
    nrm = abs(dt) * float(np.linalg.norm(h, np.inf))
    squarings = max(0, int(np.ceil(np.log2(nrm / _TAYLOR_THETA)))) if nrm > _TAYLOR_THETA else 0
    x = (dt / 2.0**squarings) * h
    c, s = _cos_sin_taylor(x)
    u = c - 1j * s
    for _ in range(squarings):
        u = u @ u
    return u


def expm_unitary(h, dt, method="auto"):
    """exp(-i*dt*h) for Hermitian h.

    method: "spectral", "taylor", or "auto" (Taylor for large real-symmetric
    matrices, spectral otherwise).
    """
    if method == "spectral":
        return expm_hermitian_spectral(h, dt)
    if method == "taylor":
        return expm_hermitian_taylor(h, dt)
    if h.shape[0] >= _TAYLOR_MIN_DIM and np.isrealobj(h):
        return expm_hermitian_taylor(h, dt)
    return expm_hermitian_spectral(h, dt)


def unitarity_defect(u):
    """||U^dagger U - 1||_max."""
    return max_abs(u.conj().T @ u - np.eye(u.shape[0]))
