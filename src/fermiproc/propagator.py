"""Time evolution: direct propagators, Dyson series, Heisenberg picture.

The direct integrator takes fourth-order commutator-free Magnus steps, CFM4
(Blanes & Moan 2006, Appl. Numer. Math. 56, 1519; Alvermann & Fehske 2011,
J. Comput. Phys. 230, 5930), built from Magnus moments on three
Gauss-Legendre nodes (Blanes, Casas & Ros 2000, BIT 40, 434): with h_i the
Hamiltonian at t + c_i dt, c = 1/2 + (-1, 0, 1) sqrt(15)/10, weights
w = (5, 8, 5)/18, B0 = sum_i w_i h_i and B1 = sum_i w_i (c_i - 1/2) h_i,
U = exp(-i dt (B0/2 + 2 B1)) exp(-i dt (B0/2 - 2 B1)); the right factor acts
first (`cfm4`). On the two-point nodes 1/2 -+ sqrt(3)/6 the same moments give
the classic two-point CFM4. Three nodes matter in the interaction picture,
where h carries the phases e^{i eps t}: two-point quadrature errs there to
first order in the drive. Each step is a product of exponentials of Hermitian
matrices, so unitarity holds to roundoff regardless of step size.

Step control is step doubling: a step is accepted when the Richardson
difference between one step and two half steps falls below the tolerance per
unit time; the fine solution's error is estimated as that difference / 15,
split evenly over a grid pair. The pair test and the halving are written
once, over a step representation with `step`, `compose`, `pair` (the
products over a pair's first interval and over both, and the Richardson
difference) and `block` (what `step_grid` yields for a grid pair):

- `DenseSteps`: dense unitaries of H(t) given as a tuple of Hermitian
  diagonal blocks, one unitary per block, compared entrywise (max-modulus
  norm, the largest over blocks, which is that of the block-diagonal
  matrix). The exact path steps its charge sectors; `propagate` and
  `propagate_grid` are the one-block case of a whole matrix.
- `InteractionSteps`: the one-body fast path in the interaction picture of
  h0 = phi diag(eps) phi^T, in h0's eigenbasis. A drive on the sites R is
  Y(t) C(t) Y(t)^dagger there, with Y(t) = diag(e^{i eps t}) phi_R^T, so a
  CFM4 step is the `LowRankUnitary` I + Q K Q^dagger: Q from a QR of the
  L x 3|R| frames [Y(a + c_i dt)], K from two 3|R| x 3|R| exponentials, and
  no L x L exponential. Since Y(a + c dt) = diag(e^{i eps a}) Y(c dt), that
  QR is diag(e^{i eps a}) times the QR of [Y(c_i dt)], kept for the last
  `BASIS_CACHE_SIZE` step widths. I + K is unitary, so K is normal: its
  eigen-directions with |d| <= ROUNDOFF_FLOOR, inside the pair test's
  absolute floor, are dropped, leaving rank <= 3|R| (8 of 12 for the
  reference drives). Steps compose on their joint span, and the Richardson
  difference is the spectral norm there, an upper bound of the max-modulus;
  the pair test takes one QR of [Q_l, Q_r, Q_whole], whose first columns are
  the grid pair's joint basis P. The product of a refined interval's
  accepted pieces (`compose`) is compressed the same way, so its basis has
  the rank of its K, not the sum of its pieces' ranks.

Periodic reuse. Under a drive that is T-periodic from t0, the interaction
picture gives U_I(s + T, t + T) = Phi U_I(s, t) Phi^dagger with
Phi = diag(e^{i eps T}). `step_grid` given the drive's (t0, T) yields a grid
pair one period after an earlier one as that pair's Block moved by
`InteractionSteps.shift` (P becomes Phi P, the Ks stay), holding at most
one period of Blocks for it. `DenseSteps` has no `shift`: the exact path is
the oracle that `both` runs pin the reused fast path against, and one period
of its sector unitaries would be large (2 x 32 x sum_n d_n^2 complex entries
for a 64-interval period at L = 10, about 190 MB).
"""

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.linalg import schur

from .linalg import expm_unitary, max_abs, spectral_norm

DEFAULT_TOL = 1e-8  # local error budget per unit time
#: absolute acceptance floor: Richardson differences at roundoff scale stop
#: the subdivision even when tol * step is smaller than machine noise
ROUNDOFF_FLOOR = 32 * np.finfo(float).eps


class IntegrationError(RuntimeError):
    """Propagation failed (non-finite entries or step underflow)."""


@dataclass(frozen=True)
class Propagator:
    """Unitary U(t_end, t_start) with its construction metadata.

    `matrix` is dense, a tuple of diagonal blocks from `DenseSteps`, or a
    `LowRankUnitary` from `InteractionSteps`.
    `est_error` is the direct method's accumulated local-error estimate, or
    the Dyson series remainder bound. `refined` says the interval failed the
    direct method's CFM4 pair test and was propagated by halved steps.
    `min_step` is the width of the narrowest CFM4 step accepted (None for
    other methods). `reused` says it was not stepped but moved from the same
    interval one drive period earlier (`InteractionSteps.shift`).
    """

    matrix: object
    t_start: float
    t_end: float
    method: str
    est_error: float
    warning: Optional[str] = None
    refined: bool = False
    min_step: Optional[float] = None
    reused: bool = False


@dataclass(frozen=True)
class TimeDependentHamiltonian:
    """H(t) = H_0 + W(lambda(t)), with W = 0 before the start time t0.

    `drive` is any object exposing `operator(t, representation)` and
    `d_operator(t, representation)` (see drive.DriveProtocol); None means the
    autonomous problem H(t) = H_0.
    """

    h0: np.ndarray
    drive: Optional[object] = None
    t0: float = 0.0
    representation: str = "fock"

    def w(self, t):
        if self.drive is None or t < self.t0:
            return np.zeros_like(self.h0)
        return self.drive.operator(t, self.representation)

    def __call__(self, t):
        return self.h0 + self.w(t)


def _as_callable(h) -> Callable[[float], np.ndarray]:
    if callable(h):
        return h
    arr = np.asarray(h)
    return lambda t: arr


#: three-node Gauss-Legendre rule on [0, 1]: nodes 1/2 + (-1, 0, 1) sqrt(15)/10
GAUSS_NODES = 0.5 + np.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
GAUSS_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


def cfm4(samples, dt, nodes=GAUSS_NODES, weights=GAUSS_WEIGHTS):
    """One CFM4 step from the Hermitian matrices h(a + c_i dt) sampled at the
    quadrature `nodes` c_i: with the Magnus moments B0 = sum_i w_i h(c_i) and
    B1 = sum_i w_i (c_i - 1/2) h(c_i),
    U = exp(-i dt (B0/2 + 2 B1)) exp(-i dt (B0/2 - 2 B1)), the right factor
    acting first."""
    b0 = sum(w * h for w, h in zip(weights, samples))
    b1 = sum(w * (c - 0.5) * h for c, w, h in zip(nodes, weights, samples))
    return expm_unitary(0.5 * b0 + 2.0 * b1, dt) @ expm_unitary(0.5 * b0 - 2.0 * b1, dt)


def _check_finite(samples, a, b):
    """Raise IntegrationError, before any moment or exponential is formed, if
    a Hamiltonian sampled on [a, b] has a non-finite entry."""
    if not all(np.isfinite(h).all() for h in samples):
        raise IntegrationError(f"non-finite Hamiltonian entries on [{a}, {b}]")


class DenseSteps(NamedTuple):
    """Dense CFM4 unitaries of the Hamiltonian `h_at(t)`, a tuple of Hermitian
    diagonal blocks; a unitary is the tuple of its blocks."""

    h_at: Callable

    def step(self, a, b):
        samples = [self.h_at(a + c * (b - a)) for c in GAUSS_NODES]
        _check_finite([h for blocks in samples for h in blocks], a, b)
        return tuple(cfm4(blocks, b - a) for blocks in zip(*samples))

    def compose(self, right, left):
        return tuple(r @ l for r, l in zip(right, left))

    def pair(self, left, right, whole):
        """The products over [a, m] and [a, b] of `left` and `right` after
        it, and the max-modulus difference of the latter from `whole`."""
        fine = self.compose(right, left)
        return (left, fine), max(max_abs(a - b) for a, b in zip(fine, whole))

    def block(self, propagators, cumulative=None):
        return Block(tuple(p.t_end for p in propagators), tuple(propagators))


def _one_block(h):
    """`DenseSteps` of a whole matrix: `h` is a TimeDependentHamiltonian, a
    callable t -> matrix, or a constant matrix."""
    h_at = _as_callable(h)
    return DenseSteps(lambda t: (h_at(t),))


class LowRankUnitary(NamedTuple):
    """U = I + Q K Q^dagger, with Q an L x r orthonormal basis and K r x r."""

    q: np.ndarray
    k: np.ndarray


def _on_joint_span(*factors):
    """An orthonormal basis P of the factors' joint span, and each factor's K
    on it: with Q = P M from the QR, Q K Q^dagger = P (M K M^dagger) P^dagger."""
    p, r = np.linalg.qr(np.hstack([f.q for f in factors]))
    ks, start = [], 0
    for f in factors:
        m = r[:, start:start + f.q.shape[1]]
        ks.append(m @ f.k @ m.conj().T)
        start += f.q.shape[1]
    return p, ks


def _compressed(q, k):
    """I + Q K Q^dagger without K's eigen-directions at or below
    ROUNDOFF_FLOOR: I + K is unitary, so K is normal and its Schur form,
    sorted with those directions last, diagonal."""
    form, z, rank = schur(k, output="complex", sort=lambda d: abs(d) > ROUNDOFF_FLOOR)
    return LowRankUnitary(q @ z[:, :rank], form[:rank, :rank])


def _cumulative(p, ks):
    """The products of two consecutive factors whose Ks on the basis P are
    kl, kr = ks[:2]: I + P kl P^dagger over the first, and
    I + P (kl + kr + kr kl) P^dagger over both."""
    kl, kr = ks[:2]
    return LowRankUnitary(p, kl), LowRankUnitary(p, kl + kr + kr @ kl)


class Block(NamedTuple):
    """One grid pair of `step_grid`: the grid times its intervals end at
    (their rows; the grid's first time for the empty block that reads row 0),
    the one or two per-interval Propagators, and, from `InteractionSteps`, the
    pair's joint orthonormal basis P with each interval's cumulative K on it,
    U(times[i], start) = I + P ks[i] P^dagger."""

    times: tuple
    propagators: tuple = ()
    basis: Optional[np.ndarray] = None
    ks: tuple = ()


#: step widths whose frame basis `InteractionSteps` keeps; reference grids
#: take 1 to 17 distinct widths
BASIS_CACHE_SIZE = 32


class InteractionSteps:
    """CFM4 steps of a one-body drive in the interaction picture of h0 =
    phi diag(eps) phi^T: the drive acts on the sites `rows` (R) through its
    R x R block `coupling(t)`."""

    def __init__(self, eps, phi, rows, coupling):
        self.eps, self.phi, self.rows, self.coupling = eps, phi, rows, coupling
        self.bases = {}  # step width -> `basis`, in the order first seen

    def frame(self, t, sites):
        """Y(t) = diag(e^{i eps t}) phi_S^T for the sites S."""
        return np.exp(1j * t * self.eps)[:, None] * self.phi[sites].T

    def basis(self, dt):
        """The QR (Q0, R) of the frames [Y(c_i dt)] at the Gauss nodes c_i, a
        step of width dt from t = 0; kept for the BASIS_CACHE_SIZE widths seen
        last."""
        if dt not in self.bases:
            if len(self.bases) == BASIS_CACHE_SIZE:
                del self.bases[next(iter(self.bases))]
            self.bases[dt] = np.linalg.qr(np.hstack([self.frame(c * dt, self.rows)
                                                     for c in GAUSS_NODES]))
        return self.bases[dt]

    def step(self, a, b):
        # [Y(a + c_i dt)] = diag(e^{i eps a}) [Y(c_i dt)], whose QR is
        # diag(e^{i eps a}) Q0 times the same R
        dt = b - a
        q0, r = self.basis(dt)
        n = len(self.rows)
        cols = [r[:, i * n:(i + 1) * n] for i in range(len(GAUSS_NODES))]
        couplings = [self.coupling(a + c * dt) for c in GAUSS_NODES]
        _check_finite(couplings, a, b)
        samples = [m @ h @ m.conj().T for m, h in zip(cols, couplings)]
        u = _compressed(q0, cfm4(samples, dt) - np.eye(q0.shape[1]))
        return u._replace(q=np.exp(1j * a * self.eps)[:, None] * u.q)

    def compose(self, right, left):
        """The product on the factors' joint span, compressed as `step` is:
        a refined interval's basis keeps the rank of its product's K, not the
        sum of its pieces' ranks."""
        return _compressed(*_cumulative(*_on_joint_span(left, right))[1])

    def pair(self, left, right, whole):
        """The products over [a, m] and [a, b] of `left` and `right` after
        it, on their joint basis P, and the spectral norm of the latter's
        difference from `whole`: one QR of [Q_l, Q_r, Q_whole], whose first
        columns are P."""
        p, ks = _on_joint_span(left, right, whole)
        cumulative = _cumulative(p, ks)
        d = cumulative[1].k - ks[2]
        # R is upper trapezoidal, so kl and kr vanish beyond [Q_l, Q_r]'s columns
        n = min(left.q.shape[1] + right.q.shape[1], p.shape[1])
        return (tuple(LowRankUnitary(p[:, :n], u.k[:n, :n]) for u in cumulative),
                float(np.linalg.norm(d, 2)) if d.size else 0.0)

    def block(self, propagators, cumulative=None):
        """The Block of one grid pair's propagators: P and the cumulative Ks
        from the pair test's products on P (`cumulative`), from a lone
        interval's own factor, or from one `_on_joint_span` of a refined
        pair's two."""
        if cumulative is None:
            units = [p.matrix for p in propagators]
            cumulative = units if len(units) == 1 else _cumulative(*_on_joint_span(*units))
        return Block(tuple(p.t_end for p in propagators), tuple(propagators),
                     cumulative[0].q, tuple(u.k for u in cumulative))

    def shift(self, block, period, points):
        """`block` one drive period T = `period` later, on the grid points
        `points` (its start and its times, each the block's own plus T up to
        rounding): with the drive T-periodic, U_I(s + T, t + T) =
        Phi U_I(s, t) Phi^dagger for Phi = diag(e^{i eps T}), so P becomes
        Phi P and the Ks stay. Each Propagator keeps its `est_error`,
        `refined` and `min_step`, and is marked `reused`."""
        phase = np.exp(1j * period * self.eps)[:, None]
        propagators = tuple(
            replace(p, matrix=LowRankUnitary(phase * p.matrix.q, p.matrix.k),
                    t_start=lo, t_end=hi, reused=True)
            for p, lo, hi in zip(block.propagators, points, points[1:]))
        return Block(tuple(points[1:]), propagators, phase * block.basis, block.ks)


def _finite(u):
    """Whether a block tuple or a LowRankUnitary has finite entries only."""
    return all(np.all(np.isfinite(a)) for a in u)


def _pair_test(steps, a, m, b, whole=None):
    """Steps over [a, m] and [m, b], their products over [a, m] and [a, b]
    (`steps.pair`), and the latter's Richardson difference from one step over
    [a, b] (`whole`, when the caller has it; otherwise taken last)."""
    left = steps.step(a, m)
    right = steps.step(m, b)
    if whole is None:
        whole = steps.step(a, b)
    return (left, right) + steps.pair(left, right, whole)


def _adaptive(steps, pieces, tol):
    """One propagator over consecutive `pieces` (a, b, one CFM4 step over
    [a, b]) by recursive halving of CFM4 steps, down to 2^-42 of their span.

    An accepted piece is two CFM4 steps of half its width, with the
    fourth-order Richardson estimate (difference from one step) / 15.
    """
    min_step = max((pieces[-1][1] - pieces[0][0]) * 2.0 ** -42, 1e-300)
    if not all(_finite(u) for *_, u in pieces):
        raise IntegrationError(f"non-finite propagator entries on "
                               f"[{pieces[0][0]}, {pieces[-1][1]}]")
    stack = pieces[::-1]
    out = []  # accepted (a, b, U, err) pieces
    while stack:
        a0, b0, u0 = stack.pop()
        m = 0.5 * (a0 + b0)
        ul, ur, (_, fine), err = _pair_test(steps, a0, m, b0, u0)
        budget = tol * (b0 - a0) + ROUNDOFF_FLOOR
        if err <= budget:
            out.append((a0, b0, fine, err / 15.0))
        elif b0 - a0 <= min_step:
            raise IntegrationError(f"step underflow at t={a0}: local error {err:.3e} "
                                   f"still above tolerance at step {b0 - a0:.3e}")
        else:
            stack.append((m, b0, ur))
            stack.append((a0, m, ul))
    out.sort(key=lambda item: item[0])
    u_total = out[0][2]
    for _, _, piece, _ in out[1:]:
        u_total = steps.compose(piece, u_total)
    return Propagator(u_total, pieces[0][0], pieces[-1][1], "direct",
                      float(sum(e for *_, e in out)), refined=len(out) > 1,
                      min_step=0.5 * min(hi - lo for lo, hi, *_ in out))


def _grid_pair(steps, a, m, b, lone, tol):
    """The Block of one grid pair, [a, m] and [m, b], or of the `lone`
    interval [a, b] (m its midpoint); the pair test's other steps die here."""
    left, right, cumulative, err = _pair_test(steps, a, m, b)
    if err <= tol * (b - a) + ROUNDOFF_FLOOR:
        parts = [(a, b, cumulative[1])] if lone else [(a, m, left), (m, b, right)]
        pair = [Propagator(u, lo, hi, "direct", err / 15.0 / len(parts),
                           min_step=0.5 * (b - a) if lone else hi - lo)
                for lo, hi, u in parts]
        block = steps.block(pair, cumulative[1:] if lone else cumulative)
    else:
        halves = [[(a, m, left)], [(m, b, right)]]
        pair = [replace(_adaptive(steps, pieces, tol), refined=True)
                for pieces in ([halves[0] + halves[1]] if lone else halves)]
        block = steps.block(pair)
    if not all(_finite(p.matrix) for p in pair):
        raise IntegrationError(f"non-finite propagator entries on [{a}, {b}]")
    return block


#: grid times one drive period apart match when they differ from the period
#: by at most this many ulps of the later pair's end: `time_grid`'s
#: t0 + step * k rounds each time, so exact equality misses 27% to all of
#: the later pairs of process II grids at T = 5, 2 pi and 7.3
PERIOD_ULPS = 4


def step_grid(steps, times, tol=DEFAULT_TOL, period=None):
    """The Blocks of an output grid, one per pair of grid intervals, in grid
    order, from the CFM4 step representation `steps` (`DenseSteps` or
    `InteractionSteps`).

    A generator: it checks `tol` and the grid before the first step and
    yields each grid pair's Block as soon as it is done; from
    `InteractionSteps` a Block's joint basis P has rank at most 6|R|, so the
    fast path advances a pair with one `zhemm` and one `zher2k`.

    The step control runs on the grid pairs (the lone last interval of an odd
    grid as a pair of half steps, keeping their product), with the error
    budget `tol` per unit time. A pair whose two one-interval steps agree with one
    two-interval step keeps those steps (6 exponentials per pair); otherwise
    `_adaptive` halves each interval from them, and the intervals are
    `refined`. A non-finite Hamiltonian sample, or a non-finite propagator
    entry, raises IntegrationError.

    `period` = (t0, T) declares the drive T-periodic from t0 on
    (`InteractionSteps` only). A pair whose grid times (a, m, b) are those of
    an earlier pair plus T, up to PERIOD_ULPS ulps of b, where the earlier
    pair starts at or after t0 and is of the same kind (a pair, or the lone
    last interval), is the earlier pair's Block moved by `steps.shift`, with
    no step taken. Only the pairs of the last period are held for this;
    anything older than a - T is dropped.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    n = times.size - 1
    earlier = deque()  # (grid points, lone, Block) of the last period's pairs
    for i in range(0, n, 2):
        lone = i + 1 == n
        a, b = times[i], times[min(i + 2, n)]
        points = (a, 0.5 * (a + b) if lone else times[i + 1], b)
        block = None
        if period is not None:
            t0, length = period
            slack = PERIOD_ULPS * np.spacing(abs(b))
            while earlier and earlier[0][0][0] < a - length - slack:
                earlier.popleft()
            if earlier and earlier[0][1] == lone and all(
                    abs(x - y - length) <= slack for x, y in zip(points, earlier[0][0])):
                block = steps.shift(earlier.popleft()[2], length,
                                    points[::2] if lone else points)
        if block is None:
            block = _grid_pair(steps, *points, lone, tol)
        if period is not None and a >= t0:
            earlier.append((points, lone, block))
        yield block


def propagate(h, s, t, tol=DEFAULT_TOL):
    """Unitary propagator U(t, s) of i dU/dt = H(t) U, U(s, s) = 1: `step_grid`
    on the one interval between s and t.

    `h` is a TimeDependentHamiltonian, a callable t -> matrix, or a constant
    matrix. Backward propagation returns the adjoint of the forward solution.
    """
    if not (np.isfinite(s) and np.isfinite(t)):
        raise ValueError("endpoints must be finite")
    if t == s:
        return Propagator(np.eye(np.asarray(_as_callable(h)(s)).shape[0], dtype=complex),
                          s, t, "direct", 0.0)
    (block,) = step_grid(_one_block(h), sorted((s, t)), tol)
    (p,) = block.propagators
    (u,) = p.matrix
    if t < s:
        return replace(p, matrix=u.conj().T, t_start=s, t_end=t)
    return replace(p, matrix=u)


def propagate_grid(h, times, tol=DEFAULT_TOL):
    """Dense per-interval propagators along an output grid (`step_grid`)."""
    return [replace(p, matrix=p.matrix[0])
            for block in step_grid(_one_block(h), times, tol) for p in block.propagators]


# -- Dyson series in the interaction picture ---------------------------------

def _legendre_integration(m):
    """Gauss-Legendre nodes, weights, and the spectral integration matrix.

    Q[i, j] approximates int_{-1}^{x_i} of the degree-(m-1) interpolant
    through the node values; exact for polynomials of degree < m.
    """
    x, w = np.polynomial.legendre.leggauss(m)
    vand = np.polynomial.legendre.legvander(x, m - 1)
    anti = np.zeros((m, m))
    anti[:, 0] = x + 1.0
    if m > 1:
        big = np.polynomial.legendre.legvander(x, m)
        for k in range(1, m):
            anti[:, k] = (big[:, k + 1] - big[:, k - 1]) / (2 * k + 1)
    q = anti @ np.linalg.inv(vand)
    return x, w, q


def dyson_remainder(strength, order):
    """Tail bound sum_{k>order} x^k / k! of the exponential majorant."""
    if strength == 0:
        return 0.0
    # imported here: scipy.special is left out of the trajectory's import graph
    from scipy.special import gammainc
    return float(np.exp(strength) * gammainc(order + 1, strength))


def dyson_propagator(h0, w_of_t, s, t, order, tol=1e-10, node_limit=128):
    """Interaction-picture propagator as a truncated time-ordered series.

    U^I(t,s) = 1 + sum_{k<=order} (-i)^k int_s^t dt_1 ... int_s^{t_{k-1}} dt_k
    W^I(t_1) ... W^I(t_k), with W^I(u) = e^{iuH_0} W(u) e^{-iuH_0}. The nested
    integrals are evaluated on Gauss-Legendre nodes with a spectral
    integration matrix, doubling the node count until the result is stable to
    `tol`. The reported `est_error` is the exponential-majorant remainder
    sum_{k>order} (M|t-s|)^k / k! with M = sup_u ||W(u)||.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    h0 = np.asarray(h0)
    dim = h0.shape[0]
    eye = np.eye(dim, dtype=complex)
    w_fn = _as_callable(w_of_t)
    ew, ev = np.linalg.eigh(h0)

    def w_interaction(u):
        phase = np.exp(1j * u * ew)
        wt = ev.conj().T @ np.asarray(w_fn(u), dtype=complex) @ ev
        return ev @ (phase[:, None] * wt * phase.conj()[None, :]) @ ev.conj().T

    span = t - s
    strength = 0.0
    prev = None
    m = 8
    while m <= node_limit:
        x, gw, q = _legendre_integration(m)
        nodes = 0.5 * (s + t) + 0.5 * span * x
        wi = np.stack([w_interaction(u) for u in nodes])
        strength = max(spectral_norm(wi[j]) for j in range(m)) if m else 0.0
        u_total = eye.copy()
        f_nodes = np.broadcast_to(eye, (m, dim, dim)).copy()
        for _ in range(order):
            g = wi @ f_nodes  # batched per-node products
            f_nodes = -1j * 0.5 * span * np.tensordot(q, g, axes=(1, 0))
            u_total = u_total + (-1j) * 0.5 * span * np.tensordot(gw, g, axes=(0, 0))
        if prev is not None and max_abs(u_total - prev) <= tol:
            break
        prev = u_total
        m *= 2
    else:
        raise IntegrationError(
            f"Dyson quadrature did not stabilize to {tol:.1e} at {node_limit} nodes"
        )
    remainder = dyson_remainder(strength * abs(span), order)
    warning = None
    if remainder > 0.5:
        warning = f"series remainder bound {remainder:.3g} exceeds 0.5 at order {order}"
    return Propagator(u_total, s, t, f"dyson({order})", remainder, warning)


def interaction_to_schrodinger(u_int, h0, s, t):
    """Undo the interaction picture: U(t,s) = e^{-itH_0} U^I(t,s) e^{isH_0}."""
    if (u_int.t_start, u_int.t_end) != (s, t):
        raise ValueError(
            f"endpoint mismatch: propagator covers ({u_int.t_start}, {u_int.t_end}), "
            f"requested ({s}, {t})"
        )
    w, v = np.linalg.eigh(np.asarray(h0))
    left = (v * np.exp(-1j * t * w)) @ v.conj().T
    right = (v * np.exp(1j * s * w)) @ v.conj().T
    return Propagator(left @ u_int.matrix @ right, s, t, u_int.method, u_int.est_error,
                      u_int.warning)


# -- Heisenberg picture -------------------------------------------------------

def heisenberg_evolve(a, propagator):
    """A(t) = U(t0,t) A U(t,t0) for a propagator U(t, t0)."""
    u = propagator.matrix if isinstance(propagator, Propagator) else np.asarray(propagator)
    a = np.asarray(a)
    if a.shape != u.shape:
        raise ValueError("observable and propagator dimensions differ")
    return u.conj().T @ a @ u


__all__ = [
    "DEFAULT_TOL", "IntegrationError", "Propagator", "TimeDependentHamiltonian",
    "GAUSS_NODES", "GAUSS_WEIGHTS", "cfm4", "DenseSteps", "LowRankUnitary",
    "InteractionSteps", "Block", "step_grid",
    "propagate", "propagate_grid", "dyson_propagator", "dyson_remainder",
    "interaction_to_schrodinger", "heisenberg_evolve",
]
