"""Shared dense linear-algebra helpers: norms, Hermiticity policy, decoupled
blocks, banded products, unitary exponentials."""

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


def ensure_hermitian(a, name="operator"):
    """Certify `a` as Hermitian.

    Drift <= 1e-12 passes unchanged; drift below 1e-8 is repaired by
    A <- (A + A^dagger)/2; anything larger is a hard error.
    """
    a = np.asarray(a)
    drift = max_abs(a - a.conj().T)
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


# -- banded products -----------------------------------------------------------

#: rows (columns) per block of `band_matmul`; 64 measured well at L = 200..512
_BAND_BLOCK = 64


def half_bandwidth(a):
    """Largest |i - j| over the nonzero entries of a matrix (0 if there are none)."""
    nz = np.asarray(a) != 0
    rows = np.flatnonzero(nz.any(axis=1))
    if rows.size == 0:
        return 0
    first = nz[rows].argmax(axis=1)
    last = nz.shape[1] - 1 - nz[rows, ::-1].argmax(axis=1)
    return int(max(np.max(rows - first), np.max(last - rows)))


def _covers(k, n):
    """Whether a half-bandwidth k (None: dense) leaves a block of rows of an
    n x n matrix no zero columns to skip."""
    return k is None or 2 * k + _BAND_BLOCK >= n


def _band_blocks(n, k):
    """Row blocks of an n x n matrix of half-bandwidth k, each with the column
    range the band fills in it."""
    for r0 in range(0, n, _BAND_BLOCK):
        r1 = min(n, r0 + _BAND_BLOCK)
        yield slice(r0, r1), slice(max(0, r0 - k), min(n, r1 + k))


def band_matmul(a, ka, b, kb=None):
    """a @ b for square operands of half-bandwidths ka and kb (None: dense).

    Entries of a banded operand outside its band must be exact zeros. The
    product runs over blocks of `_BAND_BLOCK` rows of a (of columns of b when
    only b's band leaves zeros to skip); each block multiplies only the inner
    range and the output columns the bands allow, with one BLAS call. When
    both bands cover the matrix, the result is plain `a @ b`, bit for bit.
    """
    if _covers(ka, a.shape[0]):
        if _covers(kb, b.shape[0]):
            return a @ b
        return band_matmul(b.T, kb, a.T).T
    n, m = a.shape[0], b.shape[1]
    out = np.zeros((n, m), np.result_type(a, b))
    for rows, inner in _band_blocks(n, ka):
        cols = slice(None) if kb is None else slice(max(0, inner.start - kb),
                                                    min(m, inner.stop + kb))
        out[rows, cols] = a[rows, inner] @ b[inner, cols]
    return out


def _entrywise_on_band(f, k, *mats):
    """f(*mats) for an entrywise f with f(0, ..., 0) = 0 on matrices of
    half-bandwidth k, evaluated only on the blocks the band fills."""
    n = mats[0].shape[0]
    if _covers(k, n):
        return f(*mats)
    out = None
    for rows, cols in _band_blocks(n, k):
        part = f(*(a[rows, cols] for a in mats))
        if out is None:
            out = np.zeros(mats[0].shape, part.dtype)
        out[rows, cols] = part
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


def _cos_sin_taylor(x, k):
    """(cos(x), sin(x)) of a square matrix with ||x|| <= theta, degree 8/9.

    x has half-bandwidth k; x^p has half-bandwidth p*k, and every product
    runs on those bands.
    """
    eye = np.eye(x.shape[0], dtype=x.dtype)
    x2 = band_matmul(x, k, x, k)
    x4 = band_matmul(x2, 2 * k, x2, 2 * k)
    x6 = band_matmul(x4, 4 * k, x2, 2 * k)
    x8 = band_matmul(x4, 4 * k, x4, 4 * k)
    powers = (eye, x2, x4, x6, x8)
    c = _entrywise_on_band(
        lambda e, y2, y4, y6, y8: e - y2 / 2.0 + y4 / 24.0 - y6 / 720.0 + y8 / 40320.0,
        8 * k, *powers)
    s = _entrywise_on_band(
        lambda e, y2, y4, y6, y8: e - y2 / 6.0 + y4 / 120.0 - y6 / 5040.0 + y8 / 362880.0,
        8 * k, *powers)
    return c, band_matmul(x, k, s, 8 * k)


def _taylor_banded(h, dt):
    """exp(-i*dt*h) by the scaled cos/sin Taylor series, and its half-bandwidth.

    A degree-9 polynomial in h of half-bandwidth b has half-bandwidth 9b, and
    each squaring doubles it; the result is n - 1 at most.
    """
    nrm = abs(dt) * float(np.linalg.norm(h, np.inf))
    squarings = max(0, int(np.ceil(np.log2(nrm / _TAYLOR_THETA)))) if nrm > _TAYLOR_THETA else 0
    k = half_bandwidth(h)
    x = (dt / 2.0**squarings) * h
    c, s = _cos_sin_taylor(x, k)
    k *= 9
    u = _entrywise_on_band(lambda cb, sb: cb - 1j * sb, k, c, s)
    for _ in range(squarings):
        u = band_matmul(u, k, u, k)
        k *= 2
    return u, min(k, h.shape[0] - 1)


def expm_unitary(h, dt, method="auto"):
    """exp(-i*dt*h) for Hermitian h, and its half-bandwidth (None: dense).

    method: "spectral", "taylor", or "auto" (Taylor for large real-symmetric
    matrices, spectral otherwise). Only the Taylor route reports a band; it
    reads it from the zero pattern of h.
    """
    if method == "spectral":
        return expm_hermitian_spectral(h, dt), None
    if method == "taylor":
        return _taylor_banded(h, dt)
    if h.shape[0] >= _TAYLOR_MIN_DIM and np.isrealobj(h):
        return _taylor_banded(h, dt)
    return expm_hermitian_spectral(h, dt), None


def unitarity_defect(u):
    """||U^dagger U - 1||_max."""
    return max_abs(u.conj().T @ u - np.eye(u.shape[0]))
