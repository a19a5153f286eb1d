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
split evenly over a grid pair. The halving is written once, in `step_grid`,
over a step representation with `windows` (how `step_grid` groups the grid
pairs, and the representation that steps each window), `pair_tests` (for
each of a list of pair tests (a, m, b): the steps over [a, m] and [m, b],
their product over [a, b], and the Richardson difference from one step over
[a, b], taken unless the test is handed it) and `compose` (joining a refined
interval's accepted pieces):

- `DenseSteps`: dense unitaries of H(t) given as a tuple of Hermitian
  diagonal blocks, one unitary per block, compared entrywise (max-modulus
  norm, the largest over blocks, which is that of the block-diagonal
  matrix), one grid pair per window. A `pair_tests` call samples H once at
  the Gauss nodes of all its steps, as one stack per block, and each block is
  one task of one `linalg.sector_map`, so the exact path's charge sectors
  run on every CPU: one stacked `cfm4` (one `eigh` of all the block's
  exponents), then the steps, their product and its distance a step at a
  time. `propagate` and `propagate_grid` are the one-block case of a whole
  matrix.
- `InteractionSteps`: the one-body fast path in the interaction picture of
  h0 = phi diag(eps) phi^T, in h0's eigenbasis. A drive on the sites R is
  Y(t) C(t) Y(t)^dagger there, with Y(t) = diag(e^{i eps t}) phi_R^T, so a
  CFM4 step is the `LowRankUnitary` I + Q K Q^dagger, Q an orthonormal basis
  of the 3|R| frames [Y(a + c_i dt)] and K from two 3|R| x 3|R|
  exponentials: no L x L exponential. Everything runs in coordinates on one
  frame basis per run (`FrameBasis`): B (L x d) holds every frame Y_S(s),
  s in [0, W], for S = R and the probe sites and W a span set by the grid's
  widest interval and the longest window (so not by where the grid is
  cut), to about 1e-15, and since Y(a + s) = diag(e^{i eps a}) Y(s), a
  window starting at a has the basis diag(e^{i eps a}) B (`FrameWindow`).
  A frame's coordinates come from the Chebyshev series of e^{i eps s}
  (O(d |S|) per term, nothing of size L). A pair test is one QR per step
  (d x 3|R|), the six exponentials, and one QR of the three steps' joint
  span; the pair tests of a window's grid pairs do not depend on each other
  or on G, so `FrameWindow.pair_tests` runs them as one stacked
  computation, each of those a single stacked call over the window, and so
  do the tests of each halving depth of a window's refined intervals, each
  reading its step over [a, b] from the test before. I + K is unitary, so K
  is normal, and each factor, as each refined interval's product
  (`compose`), drops its eigen-directions with |d| <= ROUNDOFF_FLOOR,
  leaving rank <= 3|R| (8 of 12 for the reference drives). A window of up
  to WINDOW_PAIRS grid pairs (`InteractionSteps.windows`) is one Block of
  each interval's factor in the window's coordinates, from which
  `quadratic.advance_window` forms the window's product and reads G once
  and writes it once.

Periodic reuse. Under a drive that is T-periodic from t0, the interaction
picture gives U_I(s + T, t + T) = Phi U_I(s, t) Phi^dagger with
Phi = diag(e^{i eps T}). Windows restart at each period, and `step_grid`
given the drive's (t0, T) yields a window one period after an earlier one as
that window's Block moved by `InteractionSteps.shift` (the window's origin
moves by T, every coordinate stays), holding at most one period of Blocks
for it. `DenseSteps` has no `shift`: the exact path is the oracle that
`both` runs pin the reused fast path against, and one period of its sector
unitaries would be large (2 x 32 x sum_n d_n^2 complex entries for a
64-interval period at L = 10, about 190 MB).
"""

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .linalg import expm_unitary, max_abs, sector_map, spectral_norm

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
    """CFM4 steps of widths dt_j from the Hermitian matrices h(a_j + c_i dt_j)
    sampled at the quadrature `nodes` c_i, samples[i] the stack over j of
    node i's: with the Magnus moments B0 = sum_i w_i h(c_i) and
    B1 = sum_i w_i (c_i - 1/2) h(c_i), each step is
    U = exp(-i dt (B0/2 + 2 B1)) exp(-i dt (B0/2 - 2 B1)), the right factor
    acting first. The exponents of all steps are one stacked `eigh`; the
    steps are yielded in turn, each formed from its two exponentials as it is
    read, so no temporary holds more than one step's unitaries."""
    b0 = sum(w * h for w, h in zip(weights, samples))
    b1 = sum(w * (c - 0.5) * h for c, w, h in zip(nodes, weights, samples))
    w, v = np.linalg.eigh(np.stack((0.5 * b0 + 2.0 * b1, 0.5 * b0 - 2.0 * b1), axis=1))
    del b0, b1
    for dt_j, w_j, v_j in zip(dt, w, v):
        yield expm_unitary((w_j[0], v_j[0]), dt_j) @ expm_unitary((w_j[1], v_j[1]), dt_j)


def _check_finite(samples, intervals):
    """Raise IntegrationError, before any moment or exponential is formed, if
    a Hamiltonian sampled on one of the `intervals` (a, b) has a non-finite
    entry: each of the `samples` stacks, per block, an equal number of
    samples on every interval in turn, and the error names the first such
    interval [a, b]."""
    if all(np.isfinite(s).all() for s in samples):
        return
    bad = np.any([~np.isfinite(s).reshape(len(intervals), -1).all(1) for s in samples], axis=0)
    a, b = intervals[np.argmax(bad)]
    raise IntegrationError(f"non-finite Hamiltonian entries on [{a}, {b}]")


def _pair_steps(a, m, b, whole):
    """The steps (lo, hi) that the pair test (a, m, b) takes: over [a, m]
    and [m, b], and over [a, b] unless its `whole` step is given."""
    return ((a, m), (m, b), (a, b))[:3 if whole is None else 2]


def _block_pair_tests(samples, dt, wholes):
    """`DenseSteps.pair_tests` on one block, from one `cfm4` of its
    `samples`, the steps of each test in `_pair_steps` order."""
    units = cfm4(samples, dt)
    out = []
    for whole in wholes:
        left, right = next(units), next(units)
        fine = right @ left
        out.append((left, right, fine, max_abs(fine - (next(units) if whole is None else whole))))
    return out


class DenseSteps(NamedTuple):
    """Dense CFM4 unitaries of the Hamiltonian sampled by `h_at(times)`, a
    tuple of Hermitian diagonal blocks, each stacked over the times; a
    unitary is the tuple of its blocks."""

    h_at: Callable

    def compose(self, right, left):
        return tuple(r @ l for r, l in zip(right, left))

    def pair_tests(self, pairs, wholes=None):
        """For each pair test (a, m, b, ...) of `pairs`: the steps over
        [a, m] and [m, b], their product over [a, b], and its max-modulus
        difference from one step over [a, b], the largest over blocks. That
        step is the test's `wholes` entry where one is given (None for all by
        default); otherwise it is taken with the other two. One `h_at` call
        samples every step's Gauss nodes, checked before any exponential is
        formed; each block is then one `sector_map` task, so the charge
        sectors of the exact path run on every CPU."""
        wholes = [None] * len(pairs) if wholes is None else wholes
        intervals = [iv for (a, m, b, *_), whole in zip(pairs, wholes)
                     for iv in _pair_steps(a, m, b, whole)]
        lows, highs = np.array(intervals, dtype=float).T
        dt = highs - lows
        samples = self.h_at((lows[:, None] + GAUSS_NODES * dt[:, None]).ravel())
        _check_finite(samples, intervals)
        nodes = [s.reshape((len(intervals), len(GAUSS_NODES)) + s.shape[1:]).swapaxes(0, 1)
                 for s in samples]
        blocks = sector_map(_block_pair_tests, nodes, [dt] * len(nodes),
                            [[None if w is None else w[n] for w in wholes]
                             for n in range(len(nodes))])
        return [(left, right, fine, max(errs))
                for left, right, fine, errs in (zip(*tests) for tests in zip(*blocks))]

    def windows(self, pairs, period=None):
        """One grid pair per window, each stepped by these steps."""
        return [(self, [pair]) for pair in pairs]


def _one_block(h):
    """`DenseSteps` of a whole matrix: `h` is a TimeDependentHamiltonian, a
    callable t -> matrix, or a constant matrix."""
    h_at = _as_callable(h)
    return DenseSteps(lambda times: (np.stack([h_at(t) for t in times]),))


class LowRankUnitary(NamedTuple):
    """U = I + Q K Q^dagger, with Q an orthonormal basis (L x r, or d x r in
    the coordinates of a FrameWindow) and K r x r."""

    q: np.ndarray
    k: np.ndarray


def _on_joint_spans(groups):
    """For each group of factors (the same number in every group), an
    orthonormal basis P of their joint span, stacked over the groups, and
    each factor's K on it, stacked over the factors and then the groups:
    with Q = P M from the QR, Q K Q^dagger = P (M K M^dagger) P^dagger. The
    groups' spans are one stacked QR, each span's columns followed by zero
    columns up to the widest; those add zero rows to M (R is upper
    triangular). Each factor's M, its columns of R, and its K are stacked
    with zero columns and rows up to the highest rank, which add nothing to
    M K M^dagger."""
    ranks = np.array([[f.q.shape[1] for f in group] for group in groups]).T
    ends = np.cumsum(ranks, axis=0)
    width = ends[-1].max()
    spans = np.zeros((len(groups), len(groups[0][0].q), width), dtype=complex)
    ks = np.zeros(ranks.shape + (ranks.max(),) * 2, dtype=complex)
    columns = np.full(ks.shape[:3], width)  # R's zero column, appended below
    for g, group in enumerate(groups):
        for i, f in enumerate(group):
            rank, hi = f.q.shape[1], ends[i, g]
            spans[g, :, hi - rank:hi] = f.q
            ks[i, g, :rank, :rank] = f.k
            columns[i, g, :rank] = np.arange(hi - rank, hi)
    p, r = np.linalg.qr(spans)
    del spans
    r = np.concatenate([r, np.zeros(r.shape[:2] + (1,))], axis=2)
    m = np.take_along_axis(r[None], columns[:, :, None, :], axis=3)
    del r
    ks = m @ ks
    return p, ks @ np.conjugate(m, out=m).swapaxes(-1, -2)


def _eigen_order(k):
    """The eigenvectors of a normal K (I + K unitary), or of each of a stack
    of them, as the columns of a unitary V, V^dagger K V (diagonal up to
    roundoff), and which eigenvalues d have |d| > ROUNDOFF_FLOOR. V is the
    `eigh` of the Hermitian (K - K^dagger) / 2i, whose eigenvalues
    sin(theta) for d = e^{i theta} - 1 separate K's while |theta| < pi / 2."""
    _, v = np.linalg.eigh(-0.5j * (k - np.swapaxes(k, -1, -2).conj()))
    form = np.swapaxes(v, -1, -2).conj() @ k @ v
    return v, form, np.abs(np.diagonal(form, axis1=-2, axis2=-1)) > ROUNDOFF_FLOOR


def _compressed(qs, ks):
    """The factors I + Q K Q^dagger of the bases `qs` and the stack `ks`,
    each without its K's eigen-directions at or below ROUNDOFF_FLOOR."""
    v, form, keep = _eigen_order(np.asarray(ks))
    return [LowRankUnitary(x[:, s], f[s][:, s]) for x, f, s in zip(qs @ v, form, keep)]


def cumulative_factors(propagators, d):
    """The running products of the propagators' factors (q, k) on the d
    coordinates, in order: each D_i of I + D_i = U(t_i, t_0), from
    D_i = D_{i-1} + q k q^dagger (I + D_{i-1}) at O(d^2 r) per factor."""
    total = np.zeros((d, d), dtype=complex)
    for p in propagators:
        q, k = p.matrix
        qh = q.conj().T
        total = total + q @ (k @ (qh + qh @ total))
        yield total


class Block(NamedTuple):
    """One window of `step_grid`: consecutive grid pairs, one pair from
    `DenseSteps`. `times` are the grid times its intervals end at (their
    rows; the grid's first time for the empty block that reads row 0),
    `propagators` the per-interval Propagators and `frame` the step
    representation that stepped the window (`windows`): the `DenseSteps`,
    or from `InteractionSteps` the FrameWindow of the window's start a, in
    whose coordinates on the frame basis B_a = diag(e^{i eps a}) B (L x d)
    a Propagator's matrix (q, k) is I + B_a q k q^dagger B_a^dagger."""

    times: tuple
    propagators: tuple = ()
    frame: object = None


#: the most grid pairs one fast-path window holds, and the widest frame
#: basis, as a fraction of L, a window of more than one pair may take
#: (`InteractionSteps.windows`)
WINDOW_PAIRS = 16
WINDOW_WIDTH = 0.25
#: the Chebyshev series of e^{i eps s} over a window's span is cut where the
#: Jacobi-Anger tail bound 2 (theta/2)^n / n! falls below this
CHEBYSHEV_TAIL = 1e-17
#: singular values of the frames' Chebyshev coefficients at or below this
#: are left out of the frame basis: the frames have unit columns, and the
#: basis reproduces every frame to about 1e-15 (below it, roundoff in the
#: SVD adds columns: d 20 -> 54 at L = 2048 for windows of two pairs)
FRAME_FLOOR = 1e-14
#: frames are read this far (relative to the span) beyond either end of
#: [0, span]: rounding of the grid times, where the Chebyshev series still
#: holds to roundoff
FRAME_SLACK = 1e-9
#: a run's frame basis span is rounded up to a power of 2^(1/SPAN_STEPS), at
#: most 2.2% wider, so grids that differ by rounding of their times get the
#: same basis (`InteractionSteps.windows`)
SPAN_STEPS = 32

#: CFM4's two exponents as combinations of the samples at the Gauss nodes:
#: B0/2 + 2 B1 (the factor acting last) and B0/2 - 2 B1 (`cfm4`)
_EXPONENTS = np.array([0.5 * GAUSS_WEIGHTS + sign * 2.0 * GAUSS_WEIGHTS * (GAUSS_NODES - 0.5)
                       for sign in (1.0, -1.0)])


class FrameBasis(NamedTuple):
    """A run's orthonormal frame basis B (L x d) of the frames Y_S(s),
    s in [0, `span`] (`InteractionSteps.frame_basis`): `energy` is
    B^dagger diag(eps) B, and `chebyshev` (n x d x |S|) stacks the
    coordinates B^dagger F_n of the frames' Chebyshev coefficients F_n."""

    span: float
    vectors: np.ndarray
    energy: np.ndarray
    chebyshev: np.ndarray

    def coordinates(self, offsets):
        """B^dagger Y_S(s) = sum_n T_n(2 s / span - 1) B^dagger F_n of each
        offset s, a (len(offsets), d, |S|) stack. An offset beyond
        [0, span] by more than FRAME_SLACK of the span raises ValueError: no
        frame is projected onto a basis that does not hold it."""
        s = np.asarray(offsets, dtype=float)
        slack = FRAME_SLACK * self.span
        if np.any(s < -slack) or np.any(s > self.span + slack):
            raise ValueError(f"frames at offsets {s.min()} to {s.max()} leave the span "
                             f"[0, {self.span}] of the frame basis")
        x = 2.0 * s / self.span - 1.0
        terms = [np.ones_like(x), x]
        while len(terms) < len(self.chebyshev):
            terms.append(2.0 * x * terms[-1] - terms[-2])
        return np.tensordot(np.stack(terms[:len(self.chebyshev)], axis=-1), self.chebyshev, 1)


class InteractionSteps:
    """CFM4 steps of a one-body drive in the interaction picture of h0 =
    phi diag(eps) phi^T: the drive acts on the sites `rows` (R) through its
    R x R block, `coupling(times)` stacking those at the given times.
    `sites` (S, sorted, R among them) are the sites whose frames a run
    reads."""

    def __init__(self, eps, phi, rows, coupling, sites=None):
        self.eps, self.phi, self.rows, self.coupling = eps, phi, rows, coupling
        self.sites = np.asarray(rows if sites is None else sites)
        self.on_rows = np.searchsorted(self.sites, rows)

    def frame(self, t, sites):
        """Y(t) = diag(e^{i eps t}) phi_S^T for the sites S."""
        return np.exp(1j * t * self.eps)[:, None] * self.phi[sites].T

    def frame_basis(self, span):
        """The FrameBasis of every frame Y_S(s), s in [0, span]. With
        x = 2 s / span - 1, e^{i eps s} = sum_n c_n(eps) T_n(x) (Chebyshev
        polynomials T_n; the c_n by a DCT of n samples, n the first count at
        which the tail bound CHEBYSHEV_TAIL holds for theta = max|eps| span / 2),
        so Y_S(s) = sum_n T_n(x) F_n with F_n = diag(c_n) phi_S^T. B is the
        left singular basis of [F_0 ... F_{n-1}] above FRAME_FLOOR, so a
        frame's coordinates cost n d |S|, with nothing of size L."""
        theta = 0.5 * span * float(np.max(np.abs(self.eps)))
        n, tail = 0, 2.0  # tail = 2 (theta/2)^n / n!, which bounds the terms from n on
        while tail > CHEBYSHEV_TAIL or n < max(theta, 2):
            n += 1
            tail *= 0.5 * theta / n
        x = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        dct = 2.0 / n * np.cos(np.outer(np.arange(n) + 0.5, np.pi * np.arange(n)) / n)
        dct[:, 0] *= 0.5
        coefs = np.exp(0.5j * span * np.outer(self.eps, x + 1.0)) @ dct  # L x n
        frames = coefs[:, :, None] * self.phi[self.sites].T[:, None, :]
        u, sv, vh = np.linalg.svd(frames.reshape(self.eps.size, -1), full_matrices=False)
        d = int(np.count_nonzero(sv > FRAME_FLOOR))
        b = u[:, :d]
        chebyshev = (sv[:d, None] * vh[:d]).reshape(d, n, self.sites.size).transpose(1, 0, 2)
        return FrameBasis(span, b, (b.conj().T * self.eps) @ b, chebyshev)

    def windows(self, pairs, period=None):
        """The grid pairs (a, m, b, lone) in windows of consecutive pairs,
        each with its FrameWindow; one FrameBasis serves them all.

        The rule: a window holds n pairs, n the largest of WINDOW_PAIRS,
        WINDOW_PAIRS / 2, ..., 1 whose frame basis has d <= L / 4 columns
        (WINDOW_WIDTH). A window costs one zhemm of width d and one zher2k
        at its product's rank r <= d, L^2 (d + r) in all; in coordinates each
        interval costs O(d^2 (r_step + |S|)), which the bound keeps below a
        sixteenth of the L^2 r_step of updating G interval by interval. It
        depends on L, the grid and the sites only, not on the machine. The
        reference runs at L = 200, 512 and 2048 take 16 pairs (d = 34, 22 and
        32); the 10^4-step L = 2048 run took 27.7-28.6 s so, and 19.5 s with
        32 pairs (one BLAS thread), so 16 is not the fastest cap at large L.
        Fewer pairs where a drive period begins: with `period` =
        (t0, T) no window holds pairs from two of the periods
        [t0 + k T, t0 + (k + 1) T) (nor from before t0 and after), so the
        windows of a period are those of the period before, moved by T.

        The basis spans twice the grid's widest interval (a lone interval's
        width, or either half of a pair) per pair of the longest window,
        rounded up to a power of 2^(1/SPAN_STEPS): it holds every window, and
        it does not depend on where the grid is cut, so pieces of a grid
        whose windows are single pairs are stepped bit for bit as the grid is.
        """
        def epoch(t):
            if period is None:
                return 0
            t0, length = period
            return np.floor((t - t0 + PERIOD_ULPS * np.spacing(abs(t))) / length)

        widest = max(b - a if lone else max(m - a, b - m) for a, m, b, lone in pairs)
        n = WINDOW_PAIRS
        while True:
            groups = []
            for pair in pairs:
                if groups and len(groups[-1]) < n and epoch(pair[0]) == epoch(groups[-1][0][0]):
                    groups[-1].append(pair)
                else:
                    groups.append([pair])
            size = max(map(len, groups))
            span = 2.0 ** (np.ceil(SPAN_STEPS * np.log2(2 * size * widest)) / SPAN_STEPS)
            basis = self.frame_basis(span)
            if size == 1 or basis.vectors.shape[1] <= WINDOW_WIDTH * self.eps.size:
                return [(FrameWindow(self, basis, group[0][0]), group) for group in groups]
            n = 1 << ((size - 1).bit_length() - 1)  # the next of n / 2, ... to change them

    def shift(self, block, period, points):
        """`block` one drive period T = `period` later, on the grid points
        `points` (its start and its times, each the block's own plus T up to
        rounding; fewer points than the block's take its leading intervals):
        with the drive T-periodic, U_I(s + T, t + T) = Phi U_I(s, t) Phi^dagger
        for Phi = diag(e^{i eps T}), and Phi diag(e^{i eps a}) B is the frame
        basis of a window at a + T, so the origin moves by T and every
        coordinate stays. Each Propagator keeps its `est_error`, `refined`
        and `min_step`, and is marked `reused`."""
        propagators = tuple(replace(p, t_start=lo, t_end=hi, reused=True)
                            for p, lo, hi in zip(block.propagators, points, points[1:]))
        return Block(tuple(points[1:]), propagators,
                     block.frame._replace(origin=block.frame.origin + period))


class FrameWindow(NamedTuple):
    """`InteractionSteps` on the window that starts at `origin`, a: its steps
    are in the coordinates of B_a = diag(e^{i eps a}) B, B = `basis.vectors`,
    since Y(a + s) = diag(e^{i eps a}) Y(s) gives a frame at t the
    coordinates of Y(t - a) on B."""

    steps: InteractionSteps
    basis: FrameBasis
    origin: float

    @property
    def vectors(self):
        """B_a, L x d."""
        return np.exp(1j * self.origin * self.steps.eps)[:, None] * self.basis.vectors

    def coordinates(self, times):
        """B_a^dagger Y_S(t) of each time t, a (len(times), d, |S|) stack."""
        return self.basis.coordinates(np.asarray(times, dtype=float) - self.origin)

    def pair_tests(self, pairs, wholes=None):
        """For each pair test (a, m, b, ...) of `pairs`: the steps over
        [a, m] and [m, b], their product over [a, b], and the spectral norm
        of its difference from one step over [a, b], all in the window's
        coordinates. That step is the test's `wholes` entry where one is
        given (None for all by default); otherwise it is taken with the other
        two. The tests do not depend on each other, so every stage is one
        stacked call over all of them: one `coupling` call for the 3 node
        times of each step (checked finite before any QR or `eigh`; the error
        names the first test [a, b] with a non-finite sample), one
        `coordinates` call, one QR of each step's three node frames
        (d x 3|R|), so the step is I + q K q^dagger with K from the samples
        r_i C(t_i) r_i^dagger, one `eigh` of the two exponentials of each
        step, and one of each step's K: I + K is unitary, so K is normal, and
        each step drops its eigen-directions with |d| <= ROUNDOFF_FLOOR,
        inside the pair test's absolute floor, leaving rank <= 3|R| (8 of 12
        for the reference drives). Each test's three steps' joint span (one
        stacked QR of at most 9|R| columns per test, `_on_joint_spans`)
        gives the Richardson difference, its norm from one stacked
        `eigvalsh`, and the product, compressed the same way. Without a
        drive (R empty) every factor is the identity, with err 0."""
        steps, n, d = self.steps, self.steps.rows.size, self.basis.vectors.shape[1]
        wholes = [None] * len(pairs) if wholes is None else wholes
        spans, intervals = zip(*[((a, b), iv) for (a, m, b, *_), whole in zip(pairs, wholes)
                                 for iv in _pair_steps(a, m, b, whole)])
        count = len(intervals)  # steps
        lows, highs = np.array(intervals, dtype=float).T
        widths = highs - lows
        times = (lows[:, None] + GAUSS_NODES * widths[:, None]).ravel()
        couplings = steps.coupling(times)
        _check_finite([couplings], spans)
        del spans, intervals
        frames = (self.coordinates(times)[:, :, steps.on_rows]
                  .reshape(count, 3, d, n).transpose(0, 2, 1, 3).reshape(count, d, 3 * n))
        q, r = np.linalg.qr(frames)
        # each stack is dropped once read: a window's stacks at L = 200 are
        # about 1 MB, which adds to the run's peak memory
        del frames
        k = r.shape[1]
        nodes = r.reshape(count, k, 3, n).transpose(0, 2, 1, 3).reshape(3 * count, k, n)
        samples = nodes @ couplings @ nodes.conj().transpose(0, 2, 1)
        exponents = (_EXPONENTS @ samples.reshape(count, 3, k * k)).reshape(count, 2, k, k)
        del r, nodes, samples
        w, v = np.linalg.eigh(exponents)
        del exponents
        # each exponential as I + D, D = v (e^{-i dt w} - 1) v^dagger by
        # `expm1`, and K = D+ + D- + D+ D-: no I is added and taken away, so
        # I + K is unitary to the roundoff of K, not of 1 (a saturated drive
        # repeats the same K on every pair, and its defect drifts the charge)
        e = v * np.expm1(-1j * widths.reshape(count, 1, 1) * w)[:, :, None, :]
        e = e @ np.conjugate(v, out=v).swapaxes(2, 3)
        step_ks = e[:, 0] + e[:, 1]
        step_ks += e[:, 0] @ e[:, 1]
        del w, v, e
        factors = iter(_compressed(q, step_ks))
        del q, step_ks
        tests = [(next(factors), next(factors), next(factors) if whole is None else whole)
                 for whole in wholes]
        z, ks = _on_joint_spans(tests)
        kl, kr, kw = ks
        fine = kl + kr
        fine += kr @ kl
        diff = kw - fine
        del ks, kl, kr, kw
        # the spectral norm from the largest eigenvalue of diff^dagger diff
        err = (np.sqrt(np.maximum(np.linalg.eigvalsh(diff.conj().swapaxes(1, 2) @ diff)[:, -1],
                                  0.0)) if diff.shape[-1] else np.zeros(len(pairs)))
        del diff
        return [(left, right, u, float(x))
                for (left, right, _), u, x in zip(tests, _compressed(z, fine), err)]

    def compose(self, right, left):
        """The product on the factors' joint span, compressed: a refined
        interval's factor keeps the rank of its product's K, not the sum of
        its pieces' ranks."""
        p, ks = _on_joint_spans([(left, right)])
        kl, kr = ks[:, 0]
        return _compressed(p, (kl + kr + kr @ kl)[None])[0]


def _finite(u):
    """Whether a block tuple or a LowRankUnitary has finite entries only."""
    return all(np.all(np.isfinite(a)) for a in u)


def _step_window(frame, window, tol):
    """The Block of a window's grid pairs (a, m, b, lone), stepped by the
    window's step representation `frame` (see `step_grid`). The pending
    tests (a, m, b, lone, whole, interval) of each halving depth are one
    `frame.pair_tests` call. `lone` says that [a, b] lies in one interval,
    which a passing test gives the product of its two half steps; a grid
    pair's first test has no `whole` and never raises step underflow."""
    spans, tests = [], []  # (a, b) of each interval; the pending tests
    for a, m, b, lone in window:
        tests.append((a, m, b, lone, None, len(spans)))
        spans += [(a, b)] if lone else [(a, m), (m, b)]
    pieces = [[] for _ in spans]  # accepted (a, b, U, est_error, step width)
    refined = [False] * len(spans)
    while tests:
        halves = []
        for (a, m, b, lone, whole, i), (left, right, fine, err) in zip(
                tests, frame.pair_tests(tests, [test[4] for test in tests])):
            if err <= tol * (b - a) + ROUNDOFF_FLOOR:
                if lone:
                    pieces[i].append((a, b, fine, err / 15.0, 0.5 * (b - a)))
                else:
                    pieces[i].append((a, m, left, err / 15.0 / 2, m - a))
                    pieces[i + 1].append((m, b, right, err / 15.0 / 2, b - m))
                continue
            lo, hi = spans[i]
            if whole is not None and b - a <= max((hi - lo) * 2.0 ** -42, 1e-300):
                raise IntegrationError(f"step underflow at t={a}: local error {err:.3e} "
                                       f"still above tolerance at step {b - a:.3e}")
            if not (_finite(left) and _finite(right)):
                raise IntegrationError(f"non-finite propagator entries on [{a}, {b}]")
            j = i if lone else i + 1
            refined[i] = refined[j] = True
            halves += [(a, 0.5 * (a + m), m, True, left, i), (m, 0.5 * (m + b), b, True, right, j)]
        tests = halves
    propagators = []
    for (lo, hi), done, was_refined in zip(spans, pieces, refined):
        done.sort(key=lambda piece: piece[0])
        u = done[0][2]
        for piece in done[1:]:
            u = frame.compose(piece[2], u)
        if not _finite(u):
            raise IntegrationError(f"non-finite propagator entries on [{lo}, {hi}]")
        propagators.append(Propagator(u, lo, hi, "direct", float(sum(p[3] for p in done)),
                                      refined=was_refined, min_step=min(p[4] for p in done)))
    return Block(tuple(hi for _, hi in spans), tuple(propagators), frame)


#: grid times one drive period apart match when they differ from the period
#: by at most this many ulps of the later window's end: `time_grid`'s
#: t0 + step * k rounds each time, so exact equality misses 27% to all of
#: the later pairs of process II grids at T = 5, 2 pi and 7.3
PERIOD_ULPS = 4


def step_grid(steps, times, tol=DEFAULT_TOL, period=None):
    """The Blocks of an output grid, one per window of grid pairs, in grid
    order, from the CFM4 step representation `steps` (`DenseSteps`, one pair
    per window, or `InteractionSteps`, whose `windows` set the length).

    A generator: it checks `tol` and the grid before the first step and
    yields each window's Block as soon as it is done; from `InteractionSteps`
    a Block is in the coordinates of the window's frame basis, so the fast
    path advances a window with one `zhemm` and one `zher2k`.

    The step control runs on the grid pairs (the lone last interval of an odd
    grid as a pair of half steps, keeping their product), with the error
    budget `tol` per unit time. Each window is stepped by one loop over
    halving depths (`_step_window`), each depth's pair tests one
    `pair_tests` call, one stacked computation over them: a window makes at
    most 1 + (its deepest halving) calls. A pair whose two one-interval
    steps agree with one two-interval step keeps those steps (6
    exponentials per pair). Otherwise its intervals are `refined`: a failed
    test splits into the tests of its halves, each handed its own step from
    it as its step over [a, b] (4 exponentials a test), and a passing
    refinement test keeps the product of its two half steps, with the
    fourth-order Richardson estimate (difference from one step) / 15. Each
    interval's pieces are composed left to right. A refinement test still
    failing at 2^-42 of its interval's width raises IntegrationError, as do
    a non-finite Hamiltonian sample, non-finite halves before they split,
    and a non-finite Propagator.

    `period` = (t0, T) declares the drive T-periodic from t0 on
    (`InteractionSteps` only). A window whose grid times are those of an
    earlier window plus T, up to PERIOD_ULPS ulps of its end, where the
    earlier window starts at or after t0 and has the same pairs (a pair, or
    the lone last interval) or more of them after those, is the earlier
    window's Block, or its leading intervals, moved by `steps.shift`, with
    no step taken. Only the windows of the last period
    are held for this; anything older than a - T is dropped.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    n = times.size - 1
    pairs = [(times[i], 0.5 * (times[i] + times[n]) if i + 1 == n else times[i + 1],
              times[min(i + 2, n)], i + 1 == n) for i in range(0, n, 2)]
    earlier = deque()  # (grid points, kinds, Block) of the last period's windows
    for frame, window in steps.windows(pairs, period):
        a = window[0][0]
        points = (a,) + tuple(t for _, m, b, lone in window for t in ((b,) if lone else (m, b)))
        kinds = tuple(lone for *_, lone in window)
        block = None
        if period is not None:
            t0, length = period
            slack = PERIOD_ULPS * np.spacing(abs(points[-1]))
            while earlier and earlier[0][0][0] < a - length - slack:
                earlier.popleft()
            if earlier and earlier[0][1][:len(kinds)] == kinds and all(
                    abs(x - y - length) <= slack for x, y in zip(points, earlier[0][0])):
                block = steps.shift(earlier.popleft()[2], length, points)
        if block is None:
            block = _step_window(frame, window, tol)
        if period is not None and a >= t0:
            earlier.append((points, kinds, block))
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
    "InteractionSteps", "FrameBasis", "FrameWindow", "Block", "cumulative_factors",
    "step_grid",
    "propagate", "propagate_grid", "dyson_propagator", "dyson_remainder",
    "interaction_to_schrodinger", "heisenberg_evolve",
]
