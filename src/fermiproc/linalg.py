"""Shared dense linear-algebra helpers: norms, Hermiticity policy, unitary
exponentials. Block structure in Fock space is the charge sectors, held by
`lattice.FockBasis`."""

import numpy as np

#: entrywise drift below which a matrix is accepted as Hermitian outright
HERMITIAN_TOL = 1e-12
#: drift above HERMITIAN_TOL but below this is repaired by symmetrization
HERMITIAN_REPAIR_TOL = 1e-8
#: rows per strip where a square matrix is read or written by strips
STRIP = 256


class NonHermitianError(ValueError):
    """Operator fails the Hermiticity certificate beyond the repairable band."""


def max_abs(a):
    """Entrywise max-modulus norm ||A||_max."""
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def _strip_drift(a, start):
    """||A - A^dagger||_max on the rows start..start + STRIP of a square A,
    with one temporary of that strip's size."""
    strip = np.conjugate(a[:, start:start + STRIP]).T  # a copy, also of a real A
    return max_abs(np.subtract(a[start:start + STRIP], strip, out=strip))


def ensure_hermitian(a, name="operator"):
    """Certify `a` as Hermitian.

    Drift <= 1e-12 passes unchanged; drift below 1e-8 is repaired by
    A <- (A + A^dagger)/2; anything larger is a hard error. The drift is read
    by strips of STRIP rows, as `fill_upper` writes, so no temporary is the
    size of A.
    """
    a = np.asarray(a)
    drift = max_abs([_strip_drift(a, s) for s in range(0, a.shape[0], STRIP)])
    if drift <= HERMITIAN_TOL:
        return a
    if drift < HERMITIAN_REPAIR_TOL:
        return 0.5 * (a + a.conj().T)
    raise NonHermitianError(f"{name}: Hermiticity drift {drift:.3e} exceeds {HERMITIAN_REPAIR_TOL:.0e}")


def symmetrize(a):
    """(A + A^dagger)/2, without certification."""
    return 0.5 * (a + np.asarray(a).conj().T)


def fill_upper(a):
    """Complete in place a square array whose lower triangle holds a
    Hermitian matrix: the upper triangle becomes the conjugate of the lower
    and the diagonal is made real, so A equals A^dagger bit for bit. Goes by
    strips of STRIP rows, so no L x L temporary is made."""
    n = a.shape[0]
    for s in range(0, n, STRIP):
        e = min(s + STRIP, n)
        upper = np.triu_indices(e - s, 1)
        diag = a[s:e, s:e]
        diag[upper] = diag.T[upper].conj()
        a[s:e, e:] = a[e:, s:e].conj().T
    idx = np.arange(n)
    a[idx, idx] = a[idx, idx].real
    return a


def spectral_norm(a):
    """Operator 2-norm of a Hermitian matrix (max |eigenvalue|)."""
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


# -- unitary exponentials ----------------------------------------------------

def expm_unitary(h, dt):
    """exp(-i*dt*h) for Hermitian h via eigendecomposition (exactly unitary).

    One eigendecomposition of the whole matrix: the exact path hands in its
    charge sectors one at a time.
    """
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * dt * w)) @ v.conj().T


def unitarity_defect(u):
    """||U^dagger U - 1||_max."""
    return max_abs(u.conj().T @ u - np.eye(u.shape[0]))
