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
from fermiproc.propagator import (BASIS_CACHE_SIZE, ROUNDOFF_FLOOR, IntegrationError,
                                  InteractionSteps, LowRankUnitary, TimeDependentHamiltonian,
                                  propagate, step_grid)
from fermiproc.quadratic import (correlation_entropy, gibbs_correlation, interaction_picture,
                                 quadratic_observable, reference_scalars)
from fermiproc.states import GibbsParams

from conftest import (FILLED, TRIDIAGONAL, correlation_update, interaction_step,
                      low_rank_dense, two_qr_pair)
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
    # [a, b], equal the dense CFM4 steps of the interaction-picture
    # Hamiltonian in h0's eigenbasis and their product; its spectral-norm
    # distance bounds the entrywise one from the dense step over [a, b] from
    # above
    spec, protocol = _protocol(64, "switch_on", kernel=FILLED)
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    eps, phi = steps.eps, steps.phi

    def h_int(t):
        phase = np.exp(1j * t * eps)
        w = phi.T @ protocol.operator(t, "one_body") @ phi
        return phase[:, None] * w * phase.conj()[None, :]

    for a, m, b in ((0.1, 0.2, 0.3), (0.2, 0.225, 0.25)):
        left, right, (first, fine), spectral = steps.pair_test(a, m, b)
        dense = [_cfm4_step(h_int, lo, hi) for lo, hi in ((a, m), (m, b), (a, b))]
        assert np.max(np.abs(low_rank_dense(left) - dense[0])) <= 1e-13
        assert np.max(np.abs(low_rank_dense(right) - dense[1])) <= 1e-13
        assert np.max(np.abs(low_rank_dense(fine) - dense[1] @ dense[0])) <= 1e-13
        assert first is left
        entrywise = np.max(np.abs(low_rank_dense(fine) - dense[2]))
        assert entrywise <= spectral <= 64 * entrywise


#: L = 512, FILLED at amplitude 0.3, tol 1e-7: an accepted pair, a pair that
#: refines, and the lone last interval of an odd grid (the pair test of its
#: halves)
PAIRS = {"accepted": (0.0, 0.00625, 0.0125, True), "refined": (0.025, 0.075, 0.125, False),
         "lone": (0.125, 0.13125, 0.1375, True)}


@pytest.mark.parametrize("case", list(PAIRS), ids=list(PAIRS))
def test_pair_distance_is_the_two_qr_distance(case):
    # the pair test in coordinates on its geometry's joint frame basis
    # against the same test on L-vectors with two QRs (the product's on
    # [Q_l, Q_r], then the distance's on [P_fine, Q_whole]), uncompressed:
    # the same Richardson difference to 1e-14, and the same products; a
    # lone interval's Block is the product over both halves, compressed to
    # its rank, and carries the same difference
    a, m, b, accepted = PAIRS[case]
    spec, protocol = _protocol(512, "switch_on", kernel=FILLED)
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    left, _, (first, fine), err = steps.pair_test(a, m, b)
    ref_first, ref_fine, _, ref_err = two_qr_pair(steps, a, m, b)
    assert abs(err - ref_err) <= 1e-14
    assert (err <= 1e-7 * (b - a) + ROUNDOFF_FLOOR) == accepted
    assert first is left and np.array_equal(first.q[:, :fine.q.shape[1]], fine.q)
    assert np.max(np.abs(low_rank_dense(first) - low_rank_dense(ref_first))) <= 1e-14
    assert np.max(np.abs(low_rank_dense(fine) - low_rank_dense(ref_fine))) <= 1e-14
    if case == "lone":
        (block,) = step_grid(steps, [a, b], 1e-7)
        (p,) = block.propagators
        assert block.basis.shape[1] == len(block.ks[0]) == fine.q.shape[1] < ref_fine.q.shape[1]
        assert abs(15 * p.est_error - ref_err) <= 1e-14
        assert np.max(np.abs(low_rank_dense(LowRankUnitary(block.basis, block.ks[0]))
                             - low_rank_dense(ref_fine))) <= 1e-14


def test_compressed_step_matches_uncompressed():
    # each factor drops the eigen-directions of its K with |d| <=
    # ROUNDOFF_FLOOR: the pair test's products are the uncompressed ones, Q
    # from the QR of the L x 3|R| frames [Y(a + c_i dt)] of each step, to
    # 1e-14; the product over both intervals has rank below 3|R| and all of
    # its K's eigenvalues above the floor, on the first columns of the
    # orthonormal basis P that also carries the first interval's product
    cfg = harness.load_config(Path(__file__).resolve().parents[1] / "configs"
                              / "process2_L200.yaml")
    spec = harness.lattice_spec(cfg)
    steps, _ = interaction_picture(one_body_laplacian(spec),
                                   harness.build_protocol(cfg, spec))
    n = steps.rows.size
    for a, dt in ((0.0, 0.09375), (1.7, 0.09375), (2.3, 0.046875)):
        left, right, (_, fine), _ = steps.pair_test(a, a + dt, a + 2 * dt)
        full = [low_rank_dense(interaction_step(steps, lo, lo + dt)) for lo in (a, a + dt)]
        p = left.q
        assert right.q is p and fine.q.shape[1] < 3 * n < p.shape[1]
        assert np.max(np.abs(p.conj().T @ p - np.eye(p.shape[1]))) <= 1e-14
        assert np.max(np.abs(low_rank_dense(left) - full[0])) <= 1e-14
        assert np.max(np.abs(low_rank_dense(right) - full[1])) <= 1e-14
        assert np.max(np.abs(low_rank_dense(fine) - full[1] @ full[0])) <= 1e-14
        assert ROUNDOFF_FLOOR < np.min(np.abs(np.linalg.eigvals(fine.k)))


def test_frame_basis_cache_is_bounded_and_exact():
    # a grid of 200 distinct pair geometries (h1, h2, b - a): the joint frame
    # bases stay within BASIS_CACHE_SIZE, and pair tests from cached bases
    # (the repeat) or fresh ones are bit for bit those of a new
    # InteractionSteps
    spec, protocol = _protocol(64, "periodic")
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    times = np.concatenate([[0.0], np.cumsum(0.05 + 1e-4 * np.arange(400))])
    pairs = list(zip(times[:-2:2], times[1:-1:2], times[2::2]))
    assert len({(m - a, b - m, b - a) for a, m, b in pairs}) == 200
    for a, m, b in pairs:
        new = InteractionSteps(steps.eps, steps.phi, steps.rows, steps.coupling)
        fresh = new.pair_test(a, m, b)
        first = steps.pair_test(a, m, b)
        assert (m - a, b - m, b - a) in steps.geometries  # the repeat takes the kept basis
        for got in (first, steps.pair_test(a, m, b)):
            assert got[3] == fresh[3]
            for u, v in zip(got[:2] + got[2], fresh[:2] + fresh[2]):
                assert np.array_equal(u.q, v.q) and np.array_equal(u.k, v.k)
        assert len(steps.geometries) <= BASIS_CACHE_SIZE
    assert len(steps.geometries) == BASIS_CACHE_SIZE


def test_nonfinite_coupling_aborts():
    # like the dense step rule, the interaction-picture one refuses a
    # non-finite drive sample before any moment is formed
    spec, protocol = _protocol(16, "switch_on")
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    bad = InteractionSteps(steps.eps, steps.phi, steps.rows,
                           lambda times: np.full((len(times),) + (steps.rows.size,) * 2, np.nan))
    with pytest.raises(IntegrationError,
                       match=r"non-finite Hamiltonian entries on \[0\.0, 0\.1\]"):
        bad.pair_test(0.0, 0.05, 0.1)


@pytest.mark.parametrize("tol", [1e-5, 1e-9], ids=["accepted", "refined"])
def test_shift_is_the_pair_one_period_later(tol):
    # U_I(s + T, t + T) = Phi U_I(s, t) Phi^dagger, Phi = diag(e^{i eps T}):
    # a grid pair's Block shifted by the drive's period T = 1.2 is the Block
    # stepped one period later, to 1e-13 on every cumulative factor, with the
    # later grid times and the same integrator metadata
    spec, protocol = _protocol(64, "periodic")
    steps, _ = interaction_picture(one_body_laplacian(spec), protocol)
    points = (0.3, 0.35, 0.4)
    (block,) = step_grid(steps, points, tol)
    later = tuple(t + 1.2 for t in points)
    (stepped,) = step_grid(steps, later, tol)
    shifted = steps.shift(block, 1.2, later)
    assert shifted.times == later[1:] == stepped.times
    for a, b in zip(shifted.ks, stepped.ks):
        assert np.max(np.abs(low_rank_dense(LowRankUnitary(shifted.basis[:, :len(a)], a))
                             - low_rank_dense(LowRankUnitary(stepped.basis[:, :len(b)], b)))) \
            <= 1e-13
    for p, q, s in zip(block.propagators, stepped.propagators, shifted.propagators):
        assert (s.t_start, s.t_end) == (q.t_start, q.t_end)
        assert (s.est_error, s.refined, s.min_step) == (p.est_error, p.refined, p.min_step)
        assert s.reused and not (p.reused or q.reused)
        assert p.refined == (tol == 1e-9)
        assert np.max(np.abs(low_rank_dense(s.matrix) - low_rank_dense(q.matrix))) <= 1e-13
