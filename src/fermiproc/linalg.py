"""Shared dense linear-algebra helpers: norms, Hermiticity policy, unitary
exponentials, and `sector_map`, which spreads independent per-block work
over the CPUs. Block structure in Fock space is the charge sectors, held by
`lattice.FockBasis`."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

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


# -- per-sector work on every CPU ------------------------------------------------

_pool = None  # `sector_map`'s helper threads, started at its first parallel call
_pool_lock = threading.Lock()


def _forget_pool():
    # a forked child has none of its parent's threads, and its copy of the
    # lock may have been taken by one of them
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def sector_workers():
    """The number of CPUs this process may run on: `sector_map`'s bins."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _dimension(x):
    """The dimension of an array's last axis, or of a sequence's first item."""
    return x.shape[-1] if hasattr(x, "shape") else _dimension(x[0])


def sector_map(fn, *seqs):
    """[fn(*a) for a in zip(*seqs)], in input order, the calls spread over
    the CPUs.

    The calls go into one bin per CPU (`sector_workers`), balanced greedily
    by the cube of each first argument's dimension, an `eigh`'s or a
    product's cost. The calling thread runs the first bin and a module-level
    thread pool the others; LAPACK and BLAS release the GIL, so the sectors
    of the exact path run on every core. With one CPU or one call it runs
    serially. Each call is computed as in a serial run, so the results are
    identical bit for bit; a caller that reduces them keeps input order.
    `fn` must not call `sector_map` itself (the pool would wait on itself).
    An exception from any call is raised here, after every bin has ended.
    """
    calls = list(zip(*seqs))
    cpus = sector_workers()
    workers = min(cpus, len(calls))
    if workers <= 1:
        return [fn(*a) for a in calls]
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=cpus - 1,
                                       thread_name_prefix="fermiproc-sector")
    bins, loads = [[] for _ in range(workers)], [0] * workers
    costs = [_dimension(a[0]) ** 3 for a in calls]
    for i in sorted(range(len(calls)), key=costs.__getitem__, reverse=True):
        lightest = loads.index(min(loads))
        bins[lightest].append(i)
        loads[lightest] += costs[i]
    out = [None] * len(calls)

    def run(indices):
        for i in indices:
            out[i] = fn(*calls[i])

    futures = [_pool.submit(run, b) for b in bins[1:]]
    try:
        run(bins[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()
    return out
