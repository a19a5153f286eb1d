"""The fast path's interaction-picture, low-rank steps against dense oracles.

The oracle is the dense spectral `propagate` at tol 1e-10 with the dense rule
Gamma -> conj(u) Gamma u^T; ledger columns, probes and the final Gamma of
`quadratic_trajectory` must agree with it to 1e-7.
"""

from pathlib import Path

import numpy as np
import pytest

from fermiproc import harness
from fermiproc.drive import KernelSpec, Perturbation, periodic_protocol, switch_on_protocol
from fermiproc.lattice import Boundary, LatticeSpec, one_body_laplacian
from fermiproc.observables import ledger_row, work_accumulate
from fermiproc.propagator import (ROUNDOFF_FLOOR, FrameWindow, IntegrationError,
                                  InteractionSteps, TimeDependentHamiltonian, propagate,
                                  step_grid)
from fermiproc.quadratic import (correlation_entropy, gibbs_correlation, interaction_picture,
                                 quadratic_observable, reference_scalars)
from fermiproc.states import GibbsParams

from conftest import (FILLED, TRIDIAGONAL, correlation_update, interaction_step, lifted,
                      low_rank_dense, pair_window, two_qr_pair, window_update)
from conftest import cfm4_step as _cfm4_step

# Hermitian with imaginary hoppings: Gamma and conj(Gamma) give different ledgers
COMPLEX = TRIDIAGONAL + 0.3j * np.array([[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1],
                                         [0, 0, -1, 0]])
PARAMS = GibbsParams(1.0, 0.1)


def _protocol(n_sites, kind, boundary=Boundary.DIRICHLET, kernel=TRIDIAGONAL):
    start = n_sites // 2 - 2
    sites = tuple(range(start, start + 4))
    spec = LatticeSpec(n_sites, boundary, sites)
    if kind == "none":
        return spec, None
    pert = Perturbation([KernelSpec(1, sites, kernel)], spec)
    if kind in ("switch_on", "complex"):
        return spec, switch_on_protocol(pert, 0.0, 0.5, 0.3)
    return spec, periodic_protocol(pert, 1.2, "sin", 0.0, 0.3)


def _dense_oracle(spec, protocol, times, ops):
    """Ledger rows, probe series and final Gamma by dense spectral steps."""
    h0 = one_body_laplacian(spec)
    tdh = TimeDependentHamiltonian(h0, protocol, times[0], "one_body")
    gamma = gibbs_correlation(h0, PARAMS)
    s_start = correlation_entropy(gamma)
    records, probes = [], []
    for k, t in enumerate(times):
        if k:
            gamma = correlation_update(gamma, propagate(tdh, times[k - 1], t, 1e-10).matrix)
        h_t = tdh(t)
        dks = [] if protocol is None else protocol.d_operator(t, "one_body")
        lam_dot = np.zeros(0) if protocol is None else protocol.lam_dot(t)
        ref = reference_scalars(h_t, PARAMS, dks)
        rec = ledger_row(t, quadratic_observable(gamma, h_t), np.trace(gamma).real,
                         [quadratic_observable(gamma, d) for d in dks],
                         ref.grand_potential, ref.gradient, lam_dot, PARAMS, s_start)
        records.append(rec)
        rec.work = work_accumulate(records, PARAMS)[-1]
        probes.append([quadratic_observable(gamma, w) for w in ops])
    return records, np.array(probes), gamma


CASES = {  # id -> (L, boundary, drive, start time, intervals, grid step)
    "L64-dirichlet-switch_on-odd": (64, Boundary.DIRICHLET, "switch_on", 0.0, 9, 0.1),
    "L64-periodic-complex_kernel": (64, Boundary.PERIODIC, "complex", 0.0, 4, 0.1),
    "L64-dirichlet-undriven": (64, Boundary.DIRICHLET, "none", 0.0, 4, 0.1),
    "L200-periodic-periodic_drive": (200, Boundary.PERIODIC, "periodic", 0.0, 6, 0.075),
    "L200-dirichlet-periodic_drive-odd": (200, Boundary.DIRICHLET, "periodic", 0.3, 5, 0.075),
    "L512-dirichlet-switch_on": (512, Boundary.DIRICHLET, "switch_on", 0.0, 4, 0.02048),
}


@pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
def test_fast_path_matches_dense_oracle(case):
    n_sites, boundary, kind, t_start, intervals, step = CASES[case]
    spec, protocol = _protocol(n_sites, kind, boundary,
                               COMPLEX if kind == "complex" else TRIDIAGONAL)
    region = spec.local_region
    # the region's pairs, a site outside it, and a pair that leaves it
    pairs = [(i, i) for i in region] + [(region[0], region[1]), (3, 3),
                                        (region[-1], n_sites - 2)]
    ops = harness.probe_matrices(pairs, spec, "one_body")
    times = t_start + step * np.arange(intervals + 1)
    traj = harness.quadratic_trajectory(spec, PARAMS, protocol, times, 1e-10, ops)
    records, probes, gamma = _dense_oracle(spec, protocol, times, ops)
    for got, want in zip(traj.records, records):
        for name in ("t", "U", "q", "S", "Sdot", "relS", "work", "G"):
            assert abs(getattr(got, name) - getattr(want, name)) <= 1e-7, name
    assert np.max(np.abs(traj.probe_series - probes)) <= 1e-7
    assert np.max(np.abs(traj.final_state - gamma)) <= 1e-7
    assert traj.entropy_drift <= 1e-10


@pytest.mark.parametrize("region", [(1, 2, 3), (0, 1, 2, 3)])
def test_both_path_oracle_where_rank_exceeds_lattice(region):
    # 3|R| >= L: the QR's basis is the whole one-particle space
    cfg = harness.RunConfig(
        lattice=harness.LatticeConfig(L=5, boundary="periodic", local_region=list(region)),
        gibbs=harness.GibbsConfig(beta=1.2, mu=0.1),
        drive=harness.DriveConfig(type="switch_on", amplitude=0.2, tau_r=0.3, kernels=[
            harness.KernelConfig(1, list(region), FILLED[:len(region), :len(region)]
                                 .tolist())]),
        path="both",
        integrator=harness.IntegratorConfig(tol=1e-9),
        output=harness.OutputConfig(grid_step=0.1, t_final=1.5),
    )
    result = harness.run_plain(cfg)
    assert result.manifest["invariants"]["oracle_equivalence"]["passed"]
    assert result.passed


def test_step_is_the_dense_interaction_picture_step():
    # the pair test's factors over [a, m] and [m, b], and its product over
    # [a, b], in the coordinates of a window's frame basis, equal the dense
    # CFM4 steps of the interaction-picture Hamiltonian in h0's eigenbasis
    # and their product; its spectral-norm distance bounds the entrywise one
    # from the dense step over [a, b] from above
    spec, protocol = _protocol(64, "switch_on", kernel=FILLED)
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    eps, phi = steps.eps, steps.phi

    def h_int(t):
        phase = np.exp(1j * t * eps)
        w = phi.T @ protocol.operator(t, "one_body") @ phi
        return phase[:, None] * w * phase.conj()[None, :]

    for a, m, b in ((0.1, 0.2, 0.3), (0.2, 0.225, 0.25)):
        window = pair_window(steps, a, b)
        left, right, fine = (lifted(window, u) for u in window.pair_tests([(a, m, b)])[0][:3])
        spectral = window.pair_tests([(a, m, b)])[0][3]
        dense = [_cfm4_step(h_int, lo, hi) for lo, hi in ((a, m), (m, b), (a, b))]
        assert np.max(np.abs(low_rank_dense(left) - dense[0])) <= 1e-13
        assert np.max(np.abs(low_rank_dense(right) - dense[1])) <= 1e-13
        assert np.max(np.abs(low_rank_dense(fine) - dense[1] @ dense[0])) <= 1e-13
        entrywise = np.max(np.abs(low_rank_dense(fine) - dense[2]))
        assert entrywise <= spectral <= 64 * entrywise


#: L = 512, FILLED at amplitude 0.3, tol 1e-7: an accepted pair, a pair that
#: refines, and the lone last interval of an odd grid (the pair test of its
#: halves)
PAIRS = {"accepted": (0.0, 0.00625, 0.0125, True), "refined": (0.025, 0.075, 0.125, False),
         "lone": (0.125, 0.13125, 0.1375, True)}


@pytest.mark.parametrize("case", list(PAIRS), ids=list(PAIRS))
def test_pair_distance_is_the_two_qr_distance(case):
    # the pair test in coordinates on a window's frame basis against the
    # same test on L-vectors with two QRs (the product's on [Q_l, Q_r], then
    # the distance's on [P_fine, Q_whole]), uncompressed: the same
    # Richardson difference to 1e-14, and the same products; a lone
    # interval's Block is the product over both halves, compressed to its
    # rank, and carries the same difference
    a, m, b, accepted = PAIRS[case]
    spec, protocol = _protocol(512, "switch_on", kernel=FILLED)
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    window = pair_window(steps, a, b)
    left, _, fine, err = window.pair_tests([(a, m, b)])[0]
    ref_first, ref_fine, _, ref_err = two_qr_pair(steps, a, m, b)
    assert abs(err - ref_err) <= 1e-14
    assert (err <= 1e-7 * (b - a) + ROUNDOFF_FLOOR) == accepted
    assert np.max(np.abs(low_rank_dense(lifted(window, left))
                         - low_rank_dense(ref_first))) <= 1e-14
    assert np.max(np.abs(low_rank_dense(lifted(window, fine))
                         - low_rank_dense(ref_fine))) <= 1e-14
    if case == "lone":
        (block,) = step_grid(steps, [a, b], 1e-7)
        (p,) = block.propagators
        update = window_update(block)
        assert p.matrix.q.shape[1] == len(update.k) == fine.q.shape[1] \
            < ref_fine.q.shape[1]
        assert abs(15 * p.est_error - ref_err) <= 1e-14
        for u in (lifted(block.frame, p.matrix), update):
            assert np.max(np.abs(low_rank_dense(u) - low_rank_dense(ref_fine))) <= 1e-14


#: windows of the PAIRS run's grid pairs: each PAIRS case alone, and windows
#: of 5 and 16 pairs from t = 0 with an accepted pair, a pair that refines
#: and the lone last interval, and more pairs 0.0125 wide between them
STACKED = {**{f"1-{case}": [(a, m, b, case == "lone")] for case, (a, m, b, _) in PAIRS.items()},
           "5": [(0.0, 0.00625, 0.0125, False), (0.0125, 0.01875, 0.025, False),
                 (0.025, 0.075, 0.125, False), (0.125, 0.13125, 0.1375, False),
                 (0.1375, 0.14375, 0.15, True)],
           "16": [(0.0, 0.00625, 0.0125, False), (0.0125, 0.01875, 0.025, False),
                  (0.025, 0.075, 0.125, False)]
           + [(t, t + 0.00625, t + 0.0125, False) for t in 0.125 + 0.0125 * np.arange(12)]
           + [(0.275, 0.28125, 0.2875, True)]}


@pytest.mark.parametrize("window_pairs", list(STACKED))
def test_stacked_pair_tests_match_one_by_one(window_pairs):
    # a window's pair tests as one stacked computation are each pair's own
    # pair test: the same factors and product, lifted to L-vectors, and the
    # same Richardson difference, to 1e-14
    spec, protocol = _protocol(512, "switch_on", kernel=FILLED)
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    pairs = STACKED[window_pairs]
    window = pair_window(steps, pairs[0][0], pairs[-1][2])
    stacked = window.pair_tests(pairs)
    assert len(stacked) == len(pairs)
    accepted = [err <= 1e-7 * (b - a) + ROUNDOFF_FLOOR
                for (a, _, b, _), (*_, err) in zip(pairs, stacked)]
    if len(pairs) > 1:
        assert accepted[0] and not accepted[2]
    for (a, m, b, _), got in zip(pairs, stacked):
        want = window.pair_tests([(a, m, b)])[0]
        assert abs(got[3] - want[3]) <= 1e-14
        for u, v in zip(got[:3], want[:3]):
            assert u.k.shape == v.k.shape
            assert np.max(np.abs(low_rank_dense(lifted(window, u))
                                 - low_rank_dense(lifted(window, v)))) <= 1e-14


def test_refinement_tests_are_stacked_and_read_their_whole_step(monkeypatch):
    # the window of STACKED's 5 pairs, one of which refines: each halving
    # depth's tests are one `pair_tests` call, at most 1 + (the deepest
    # halving) calls, and a refinement test samples `coupling` at the 6 node
    # times of its two steps, not 9: it reads its step over [a, b] from the
    # test before rather than taking it again
    spec, protocol = _protocol(512, "switch_on", kernel=FILLED)
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    pairs = STACKED["5"]
    times = [pairs[0][0]] + [t for _, m, b, _ in pairs for t in (m, b)]
    calls, nodes = [], []
    pair_tests, coupling = FrameWindow.pair_tests, steps.coupling

    def counted(self, tests, wholes=None):
        calls.append((len(tests), sum(w is not None for w in wholes or [])))
        return pair_tests(self, tests, wholes)

    def sampled(t):
        nodes.append(len(t))
        return coupling(t)

    monkeypatch.setattr(FrameWindow, "pair_tests", counted)
    monkeypatch.setattr(steps, "coupling", sampled)
    (block,) = step_grid(steps, times, 1e-7)
    depth = max(round(np.log2((p.t_end - p.t_start) / p.min_step)) for p in block.propagators)
    assert any(p.refined for p in block.propagators)
    assert 1 < len(calls) <= 1 + depth
    assert calls[0] == (len(pairs), 0) and nodes[0] == 9 * len(pairs)
    for (n, given), count in zip(calls[1:], nodes[1:], strict=True):
        assert given == n and count == 6 * n


def test_compressed_step_matches_uncompressed():
    # each factor drops the eigen-directions of its K with |d| <=
    # ROUNDOFF_FLOOR: the pair test's products are the uncompressed ones, Q
    # from the QR of the L x 3|R| frames [Y(a + c_i dt)] of each step, to
    # 1e-14; each factor's basis is orthonormal with at most 3|R| columns,
    # and the product over both intervals has rank below 3|R| and all of its
    # K's eigenvalues above the floor
    cfg = harness.load_config(Path(__file__).resolve().parents[1] / "configs"
                              / "process2_L200.yaml")
    spec = harness.lattice_spec(cfg)
    steps, _ = interaction_picture(one_body_laplacian(spec),
                                   harness.build_protocol(cfg, spec))
    n = steps.rows.size
    for a, dt in ((0.0, 0.09375), (1.7, 0.09375), (2.3, 0.046875)):
        window = pair_window(steps, a, a + 2 * dt)
        left, right, fine = (lifted(window, u)
                             for u in window.pair_tests([(a, a + dt, a + 2 * dt)])[0][:3])
        full = [low_rank_dense(interaction_step(steps, lo, lo + dt)) for lo in (a, a + dt)]
        assert fine.q.shape[1] < 3 * n
        for p in (left.q, right.q):
            assert p.shape[1] <= 3 * n
            assert np.max(np.abs(p.conj().T @ p - np.eye(p.shape[1]))) <= 1e-14
        assert np.max(np.abs(low_rank_dense(left) - full[0])) <= 1e-14
        assert np.max(np.abs(low_rank_dense(right) - full[1])) <= 1e-14
        assert np.max(np.abs(low_rank_dense(fine) - full[1] @ full[0])) <= 1e-14
        assert ROUNDOFF_FLOOR < np.min(np.abs(np.linalg.eigvals(fine.k)))


#: runs whose frame bases are checked: config, L, region start, grid step
#: and intervals, and probe sites beyond the drive's
FRAME_RUNS = {
    "process1_L512": ("process1_L512.yaml", 512, 254, 0.02048, 70, ()),
    "process2_L200-probes": ("process2_L200.yaml", 200, 98, 0.1, 40, (3, 150)),
    "L2048-short_last_window": ("process1_L512.yaml", 2048, 1022, 0.08192, 33, ()),
}


@pytest.mark.parametrize("run", list(FRAME_RUNS), ids=list(FRAME_RUNS))
def test_frame_basis_reproduces_every_frame(run):
    # one frame basis B per run: every frame Y_S(t) a window reads (its
    # grid times and its steps' Gauss nodes, here a dense sample of its
    # span), S the drive's sites and the probe sites, is B_a times its
    # coordinates to 1e-14; at L = 2048 the grid's last window is short and
    # ends in a lone interval
    name, n_sites, first, step, intervals, probes = FRAME_RUNS[run]
    cfg = harness.load_config(Path(__file__).resolve().parents[1] / "configs" / name)
    region = list(range(first, first + 4))
    cfg.lattice.L, cfg.lattice.local_region = n_sites, region
    for k in cfg.drive.kernels:
        k.sites = region
    spec = harness.lattice_spec(cfg)
    steps, _ = interaction_picture(one_body_laplacian(spec), harness.build_protocol(cfg, spec),
                                   probes)
    assert list(steps.sites) == sorted(region + list(probes))
    times = 30.0 + step * np.arange(intervals + 1)
    blocks = list(step_grid(steps, times, cfg.integrator.tol))
    assert {id(b.frame.basis) for b in blocks} == {id(blocks[0].frame.basis)}
    span = blocks[0].frame.basis.span
    assert all(b.times[-1] - b.frame.origin <= span for b in blocks)
    for block in blocks:
        sample = block.frame.origin + np.concatenate([np.linspace(0.0, span, 41),
                                                      np.array(block.times) - block.frame.origin])
        for t, c in zip(sample, block.frame.coordinates(sample)):
            assert np.max(np.abs(block.frame.vectors @ c - steps.frame(t, steps.sites))) <= 1e-14


def test_frame_outside_the_basis_raises():
    # a frame basis for [0, span] refuses frames beyond it, past rounding of
    # the grid times: a pair test over a wider pair, or one starting before
    # the window, raises rather than projecting its frames
    spec, protocol = _protocol(64, "switch_on", kernel=FILLED)
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    basis = steps.frame_basis(0.1)
    window = FrameWindow(steps, basis, 1.0)
    window.pair_tests([(1.0, 1.05, 1.1 * (1 + 1e-12))])  # rounding of the grid times
    for a, m, b in ((1.0, 1.1, 1.2), (0.95, 1.0, 1.05)):
        with pytest.raises(ValueError, match="leave the span"):
            window.pair_tests([(a, m, b)])
    with pytest.raises(ValueError, match="leave the span"):
        basis.coordinates([0.1 * (1 + 1e-8)])


def test_nonfinite_coupling_aborts(monkeypatch):
    # like the dense step rule, the interaction-picture one refuses a
    # non-finite drive sample before any moment is formed; in a window of
    # pair tests, before any QR or eigh, naming the first pair with one (the
    # third of four, not the window)
    spec, protocol = _protocol(16, "switch_on")
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    bad = InteractionSteps(steps.eps, steps.phi, steps.rows,
                           lambda times: np.full((len(times),) + (steps.rows.size,) * 2, np.nan))
    with pytest.raises(IntegrationError,
                       match=r"non-finite Hamiltonian entries on \[0\.0, 0\.1\]"):
        pair_window(bad, 0.0, 0.1).pair_tests([(0.0, 0.05, 0.1)])

    def third_bad(times):  # and the fourth
        couplings = steps.coupling(times)
        couplings[times > 0.05] = np.nan
        return couplings

    def refuse(*args, **kwargs):
        raise AssertionError("a QR or eigh ran before the finiteness check")

    for name in ("qr", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    pairs = [(0.0, 0.0125, 0.025, False), (0.025, 0.0375, 0.05, False),
             (0.05, 0.0625, 0.075, False), (0.075, 0.0875, 0.1, False)]
    window = pair_window(InteractionSteps(steps.eps, steps.phi, steps.rows, third_bad),
                         0.0, 0.1)
    with pytest.raises(IntegrationError,
                       match=r"non-finite Hamiltonian entries on \[0\.05, 0\.075\]"):
        window.pair_tests(pairs)


@pytest.mark.parametrize("tol", [1e-5, 1e-9], ids=["accepted", "refined"])
def test_shift_is_the_pair_one_period_later(tol):
    # U_I(s + T, t + T) = Phi U_I(s, t) Phi^dagger, Phi = diag(e^{i eps T}):
    # a window of grid pairs shifted by the drive's period T = 1.2 is the
    # window stepped one period later, to 1e-13 on every interval's factor and
    # on its product, with the later grid times and the same integrator
    # metadata; so are its leading pair alone (a shorter window one period
    # later) and that pair's product; at L = 200, where two pairs take one
    # window
    spec, protocol = _protocol(200, "periodic")
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    points = (0.3, 0.35, 0.4, 0.45, 0.5)
    (block,) = step_grid(steps, points, tol)
    for n in (5, 3):
        later = tuple(t + 1.2 for t in points[:n])
        (stepped,) = step_grid(steps, later, tol)
        shifted = steps.shift(block, 1.2, later)
        assert shifted.times == later[1:] == stepped.times
        assert np.max(np.abs(low_rank_dense(window_update(shifted))
                             - low_rank_dense(window_update(stepped)))) <= 1e-13
        for p, q, s in zip(block.propagators[:n - 1], stepped.propagators,
                           shifted.propagators, strict=True):
            assert (s.t_start, s.t_end) == (q.t_start, q.t_end)
            assert (s.est_error, s.refined, s.min_step) == (p.est_error, p.refined, p.min_step)
            assert s.reused and not (p.reused or q.reused)
            assert p.refined == (tol == 1e-9)
            assert np.max(np.abs(low_rank_dense(lifted(shifted.frame, s.matrix))
                                 - low_rank_dense(lifted(stepped.frame, q.matrix)))) <= 1e-13
