"""Where the drive's one-body matrix is nonzero, and what that costs: the
drive's support R and the step's rank (at most 3|R|), the L = 512 one-body
exponential against the scaled Taylor polynomial, the periodic chain's single
dense block, and the rank-r Gamma update against its dense formula.
`rank_update` writes only the lower triangle, so its output is completed from
that triangle (`from_lower`) before it is compared with the dense
U G U^dagger."""

from itertools import pairwise

import numpy as np
import pytest

from fermiproc import harness, propagator, quadratic
from fermiproc.drive import KernelSpec, Perturbation, switch_on_protocol
from fermiproc.lattice import Boundary, LatticeSpec, one_body_laplacian
from fermiproc.linalg import expm_unitary
from fermiproc.propagator import LowRankUnitary, step_grid
from fermiproc.quadratic import advance_window, interaction_picture, rank_update
from fermiproc.states import GibbsParams

from conftest import (FILLED, TAYLOR_THETA, TRIDIAGONAL, from_lower, grid_steps,
                      interaction_step, lifted, low_rank_dense, pair_window, random_unitary,
                      taylor_expm)


def _spec_and_protocol(n_sites, kernel, boundary, amplitude):
    start = n_sites // 2 - 2
    sites = tuple(range(start, start + 4))
    spec = LatticeSpec(n_sites, boundary, sites)
    pert = Perturbation([KernelSpec(1, sites, kernel)], spec)
    return spec, switch_on_protocol(pert, 0.0, 0.5, amplitude), pert


def _drive(n_sites, kernel, boundary=Boundary.DIRICHLET, amplitude=0.05):
    """h0, the drive's protocol and its one-body matrix at full strength
    (`amplitude` times the kernel's), on four central sites."""
    spec, protocol, pert = _spec_and_protocol(n_sites, kernel, boundary, amplitude)
    return one_body_laplacian(spec), protocol, amplitude * pert.one_body()


#: L = 512 grid of the block tests at tol 1e-7 with FILLED at amplitude 0.3:
#: an accepted pair, a refined pair (its intervals 0.05 wide), an accepted
#: pair and the lone last interval
BLOCK_GRID = [0.0, 0.0125, 0.025, 0.075, 0.125, 0.1375, 0.15, 0.1625]
#: most pairs per window for the block tests: all of BLOCK_GRID in one
#: window, or three pairs and then a short last window of the lone interval
WINDOWS = (16, 3)


def _half_bandwidth(a):
    i, j = np.nonzero(a)
    return int(np.max(np.abs(i - j))) if i.size else 0


def test_half_bandwidth():
    # the width of an interval's product of two CFM4 half steps (the pair
    # test's, compressed) is at most 3|R|, R the drive's nonzero rows (three
    # Gauss nodes' frames), and at least 2|R| here: it follows which sites
    # the kernel couples, not how far off the diagonal its entries sit
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
        window = pair_window(steps, 0.1, 0.2)
        n, width = lifted(window, window.pair_tests([(0.1, 0.15, 0.2)])[0][2]).q.shape
        assert n == 40 and 2 * len(local) <= width <= 3 * len(local)
    steps, blocks = interaction_picture(one_body_laplacian(LatticeSpec(40)), None)
    assert steps.rows.size == 0 and blocks == []


def test_band_matmul_covering_band_is_plain_product(rng):
    # 3|R| >= L: the basis of an interval's product covers the whole space,
    # and the update with a full-rank factor (Q = I) is the plain product
    h0, protocol, _ = _drive(6, FILLED, Boundary.PERIODIC, amplitude=0.3)
    steps, _ = interaction_picture(h0, protocol)
    window = pair_window(steps, 0.0, 0.4)
    u = lifted(window, window.pair_tests([(0.0, 0.2, 0.4)])[0][2])
    assert u.q.shape == (6, 6)
    assert np.max(np.abs(u.q.conj().T @ u.q - np.eye(6))) <= 1e-14
    dense = low_rank_dense(u)
    assert np.max(np.abs(dense.conj().T @ dense - np.eye(6))) <= 1e-14
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    g = a + a.conj().T
    for q, k in ((u.q, u.k), (np.eye(6), dense - np.eye(6))):
        got = from_lower(rank_update(np.array(g, order="F"), LowRankUnitary(q, k)))
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
    window = pair_window(steps, 0.0, 0.05)
    u = lifted(window, window.pair_tests([(0.0, 0.025, 0.05)])[0][2])
    assert u.q.shape == (200, 8)
    g = np.diag(rng.uniform(size=200)).astype(complex)
    dense = low_rank_dense(u)
    got = from_lower(rank_update(np.array(g, order="F"), u))
    assert np.max(np.abs(got - dense @ g @ dense.conj().T)) <= 1e-13


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
    got = from_lower(rank_update(np.array(g, order="F"), u))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("rank", [8, 16, 0], ids=["r8", "r16", "q_identity"])
def test_rank_update_is_exactly_hermitian(rng, rank):
    # zher2k's triangle has an exactly real diagonal, so its completion is
    # Hermitian bit for bit and the trajectory loop never symmetrizes; rank 0
    # stands for a full-rank factor (Q = I)
    n = 200
    if rank:
        q, _ = np.linalg.qr(rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)))
        u = LowRankUnitary(q, random_unitary(rng, rank) - np.eye(rank))
    else:
        u = LowRankUnitary(np.eye(n), random_unitary(rng, n) - np.eye(n))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    got = rank_update(np.array(a + a.conj().T, order="F"), u)
    assert np.all(np.diagonal(got).imag == 0)
    full = from_lower(got)
    assert np.array_equal(full, full.conj().T)


@pytest.mark.parametrize("kernel", [TRIDIAGONAL, FILLED])
def test_banded_gamma_update_matches_dense(kernel):
    # L = 512: each grid interval's factor, applied in place by zhemm and
    # zher2k, against the dense U G U^dagger
    h0, protocol, _ = _drive(512, kernel, amplitude=0.3)
    steps, _ = interaction_picture(h0, protocol)
    g = np.diag(np.linspace(0.05, 0.95, 512)).astype(complex)
    for step in grid_steps(steps, [0.0, 0.02048, 0.04096, 0.06144], 1e-6):
        u = low_rank_dense(step.matrix)
        want = u @ g @ u.conj().T
        assert step.matrix.q.shape[1] <= 16
        got = from_lower(rank_update(np.array(g, order="F"), step.matrix))
        assert np.max(np.abs(got - want)) <= 1e-13
        g = want


def test_rank_update_overwrites_fortran_input_in_place(rng):
    # the state's own memory is updated and returned: no per-step copy
    n, r = 40, 6
    q, _ = np.linalg.qr(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))
    u = LowRankUnitary(q, random_unitary(rng, r) - np.eye(r))
    g = np.diag(rng.uniform(size=n)).astype(complex)
    state = np.array(g, order="F")
    got = rank_update(state, u)
    assert got is state
    dense = low_rank_dense(u)
    assert np.max(np.abs(from_lower(state) - dense @ g @ dense.conj().T)) <= 1e-14


def test_rank_update_refuses_inputs_it_would_copy(rng):
    u = LowRankUnitary(np.eye(4, dtype=complex)[:, :2], np.zeros((2, 2), dtype=complex))
    g = np.diag([0.1, 0.2, 0.3, 0.4])
    for bad in (g.astype(complex),  # C order
                np.array(g, order="F"),  # real
                np.zeros((4, 3), dtype=complex, order="F")):  # not square
        with pytest.raises(ValueError, match="Fortran-ordered"):
            rank_update(bad, u)
    frozen = np.array(g, dtype=complex, order="F")
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="writable"):
        rank_update(frozen, u)


def test_rank_update_chain_matches_dense_oracle(rng):
    # L = 512: ten updates of one state in place, nine interaction-picture
    # factors and one full-rank factor (Q = I),
    # against the dense U G U^dagger chain
    h0, protocol, _ = _drive(512, FILLED, amplitude=0.3)
    steps, _ = interaction_picture(h0, protocol)
    factors = [step.matrix for step in grid_steps(steps, 0.0125 * np.arange(10), 1e-6)]
    factors.insert(4, LowRankUnitary(np.eye(512), random_unitary(rng, 512) - np.eye(512)))
    assert len(factors) == 10
    want = np.diag(np.linspace(0.05, 0.95, 512)).astype(complex)
    state = np.array(want, order="F")
    for u in factors:
        dense = low_rank_dense(u)
        want = dense @ want @ dense.conj().T
        assert rank_update(state, u) is state
    assert np.max(np.abs(from_lower(state) - want)) <= 1e-13


def test_block_chain_matches_dense_oracle(monkeypatch):
    # L = 512: each window's frame basis B_a is orthonormal, each interval's
    # factor (q, k) is I + B_a q k q^dagger B_a^dagger in its coordinates, and
    # the window's update, its product compressed to its rank, matches the
    # dense product of its factors; the update (`advance_window`: one zhemm,
    # and one zher2k at the product's rank, in place) chained over accepted
    # pairs, a refined pair inside a window and a lone last interval, in one
    # window or in a window of three pairs and a short last one, against the
    # dense U G U^dagger
    h0, protocol, _ = _drive(512, FILLED, amplitude=0.3)
    steps, _ = interaction_picture(h0, protocol)
    refined = [False, False, True, True, False, False, False]
    for window_pairs, layout in zip(WINDOWS, ([refined], [refined[:6], refined[6:]])):
        monkeypatch.setattr(propagator, "WINDOW_PAIRS", window_pairs)
        blocks = list(step_grid(steps, BLOCK_GRID, 1e-7))
        assert [[p.refined for p in b.propagators] for b in blocks] == layout
        want = np.diag(np.linspace(0.05, 0.95, 512)).astype(complex)
        state = np.array(want, order="F")
        for block in blocks:
            b = block.frame.vectors
            assert np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1]))) <= 1e-14
            assert block.times == tuple(s.t_end for s in block.propagators)
            assert block.frame.origin == block.propagators[0].t_start
            cumulative = np.eye(512)
            for step in block.propagators:
                cumulative = low_rank_dense(lifted(block.frame, step.matrix)) @ cumulative
            got, _, update = advance_window(state, block)
            assert got is state
            update = lifted(block.frame, update)
            assert np.max(np.abs(low_rank_dense(update) - cumulative)) <= 1e-13
            want = cumulative @ want @ cumulative.conj().T
        assert np.max(np.abs(from_lower(state) - want)) <= 1e-13


def test_refined_pair_basis_is_compressed():
    # L = 512, FILLED at amplitude 0.3, tol 1e-7: the intervals of a
    # 0.05-wide grid pair are each accepted at their first halving, and those
    # of a 0.1-wide pair each as two such pieces; every piece is the product
    # of two 0.025-wide CFM4 steps, 24 columns uncompressed. The pair test
    # keeps its K's eigen-directions above the roundoff floor (8 of them at
    # 0.025), and `compose` those of the pieces' product (10), so each
    # refined interval's factor has 8 or 10 columns and the window's update
    # is no wider than an accepted pair's 6|R|; the factors and the update
    # match the products of the uncompressed steps to 1e-13, and so does G
    # after the update
    h0, protocol, _ = _drive(512, FILLED, amplitude=0.3)
    steps, _ = interaction_picture(h0, protocol)
    start = np.diag(np.linspace(0.05, 0.95, 512)).astype(complex)
    for grid, width in (([0.0, 0.05, 0.1], 8), ([0.0, 0.1, 0.2], 10)):
        (block,) = step_grid(steps, grid, 1e-7)
        assert [p.refined for p in block.propagators] == [True, True]
        assert [p.min_step for p in block.propagators] == pytest.approx([0.025] * 2, abs=1e-15)
        assert [p.matrix.q.shape[1] for p in block.propagators] == [width] * 2
        state = np.array(start, order="F")
        _, _, update = advance_window(state, block)
        assert len(update.k) <= 6 * 4
        cumulative = np.eye(512)
        for lo, hi, p in zip(grid, grid[1:], block.propagators):
            own = np.eye(512)
            for a, b in pairwise(np.linspace(lo, hi, round((hi - lo) / 0.025) + 1)):
                own = low_rank_dense(interaction_step(steps, a, b)) @ own
            assert np.max(np.abs(low_rank_dense(lifted(block.frame, p.matrix)) - own)) <= 1e-13
            cumulative = own @ cumulative
        update = lifted(block.frame, update)
        assert np.max(np.abs(low_rank_dense(update) - cumulative)) <= 1e-13
        assert np.max(np.abs(from_lower(state) - cumulative @ start @ cumulative.conj().T)) \
            <= 1e-13


def _block_trajectory(monkeypatch, window_pairs, probe_ops=None):
    """The L = 512 fast path on BLOCK_GRID in windows of at most
    `window_pairs` pairs, with each row's sum_k eps_k G_kk and tr G as
    `advance` hands them to the trajectory loop."""
    monkeypatch.setattr(propagator, "WINDOW_PAIRS", window_pairs)
    spec, protocol, _ = _spec_and_protocol(512, FILLED, Boundary.DIRICHLET, 0.3)
    scalars = []
    trajectory = harness._trajectory

    def recorded(rep, *args):
        def advance(state, block):
            state, reads, update = rep.advance(state, block)
            scalars.extend((energy, q) for energy, q, *_ in reads)
            return state, reads, update
        return trajectory(rep._replace(advance=advance), *args)

    monkeypatch.setattr(harness, "_trajectory", recorded)
    traj = harness.quadratic_trajectory(spec, GibbsParams(1.0, 0.2), protocol,
                                        np.array(BLOCK_GRID), 1e-7, probe_ops)
    return spec, protocol, traj, np.array(scalars)


def test_block_rows_match_direct_reads(monkeypatch):
    # every row of a window is read from G at the window's start, in the
    # coordinates of its frame basis, through the cumulative product; against
    # G updated interval by interval and read directly: Gamma_SS =
    # conj(Y_S^dagger G Y_S) in full (probes on each entry's real and
    # imaginary part), sum_k eps_k G_kk and tr G; in one window with a
    # refined pair inside and a lone last interval, and in a window of three
    # pairs and a short last one
    spec, protocol, _ = _spec_and_protocol(512, FILLED, Boundary.DIRICHLET, 0.3)
    sites = list(spec.local_region)
    probes = []
    for part in (1.0, -1j):
        for i in sites:
            for j in sites:
                w = np.zeros((512, 512), dtype=complex)
                w[i, j] = part
                probes.append(w)
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    occupations = quadratic.expit(-1.0 * (steps.eps - 0.2))
    state = quadratic.diagonal_state(occupations)
    directs = []
    for t, step in zip(BLOCK_GRID, [None] + grid_steps(steps, BLOCK_GRID, 1e-7)):
        if step is not None:
            rank_update(state, step.matrix)
        g = from_lower(state)
        y = steps.frame(t, sites)
        directs.append(((y.conj().T @ g @ y).conj(), steps.eps @ np.real(np.diagonal(g)),
                        np.real(np.trace(g))))
    n = len(sites) ** 2
    for window_pairs, windows in zip(WINDOWS, (1, 2)):
        _, _, traj, scalars = _block_trajectory(monkeypatch, window_pairs, probes)
        assert traj.integrator.windows == windows
        gammas = (traj.probe_series[:, :n] + 1j * traj.probe_series[:, n:]).reshape(-1, 4, 4)
        assert len(directs) == len(gammas) == len(scalars) == len(BLOCK_GRID)
        for (gamma, energy, charge), got, (got_energy, got_charge) in zip(directs, gammas,
                                                                           scalars):
            assert np.max(np.abs(got - gamma)) <= 1e-12
            assert abs(got_energy - energy) <= 1e-12
            assert abs(got_charge - charge) <= 1e-12


def test_fast_path_forms_each_window_product_once(monkeypatch):
    # a window's cumulative products D_i serve its rows and its update in one
    # pass: `cumulative_factors` runs once per window, over its intervals
    calls = []
    real = propagator.cumulative_factors

    def counted(propagators, d):
        calls.append(len(propagators))
        return real(propagators, d)

    for module in (propagator, quadratic, harness):
        monkeypatch.setattr(module, "cumulative_factors", counted, raising=False)
    # seven intervals: three pairs and a lone one, in one window or two
    for window_pairs, intervals in zip(WINDOWS, ([7], [6, 1])):
        calls.clear()
        _, _, traj, _ = _block_trajectory(monkeypatch, window_pairs)
        assert traj.integrator.windows == len(intervals)
        assert calls == intervals


def test_fast_path_takes_one_zhemm_per_block(monkeypatch):
    # one zhemm of G per window (its rows and its update) and one for row 0,
    # one zher2k per window; the final Gamma takes one more zhemm when it is
    # read, and none while it is not
    calls = {"zhemm": 0, "zher2k": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (harness, quadratic):
        monkeypatch.setattr(module, "zhemm", counted("zhemm", module.zhemm))
    monkeypatch.setattr(quadratic, "zher2k", counted("zher2k", quadratic.zher2k))
    # seven intervals: three pairs and a lone one, in one window or two
    for window_pairs, windows in zip(WINDOWS, (1, 2)):
        calls.update(zhemm=0, zher2k=0)
        _, _, traj, _ = _block_trajectory(monkeypatch, window_pairs)
        assert len(traj.records) == len(BLOCK_GRID)
        assert traj.integrator.windows == windows
        assert calls == {"zhemm": windows + 1, "zher2k": windows}
        gamma = traj.final_state
        assert traj.final_state is gamma
        assert calls == {"zhemm": windows + 2, "zher2k": windows}
