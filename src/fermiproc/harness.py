"""Experiment orchestration: configs, process runs, verification, sweeps.

A run is declared in a YAML file whose sections mirror the RunConfig fields;
unknown keys are errors. Runs emit `series.csv` (the thermodynamic ledger)
and `manifest.json` (config echo, invariant verdicts, summary scalars, per
path the integrator's summed error estimate, the count of intervals that
failed the CFM4 pair test, the narrowest step and the count of intervals
reused from one drive period earlier, on a driven run the drive
certificate: its norms and its smallness norm against 1/(24 pi), and the
environment: library versions, BLAS thread variables and the CPUs the exact
path's charge sectors are spread over).

Layout. One trajectory loop, `_trajectory`, owns the step loop, the grid
times' controls, every ledger row (U = <H_0> + sum_j lambda_j <V_j>, then
`ledger_row`), the integrator report, the work recurrence and the entropy
drift; `exact_trajectory` (Fock space, with rho, H(t), the propagators and
the probes as tuples of charge-sector blocks) and `quadratic_trajectory`
(one-body correlations in the interaction picture of h0) supply only their
representation: initial state and its entropy, the blocks of grid pairs, the
state update with each block time's reads <H_0>, q, <V_j> and probes
(`advance`; the exact path steps and reads interval by interval), the
reference scalars G and <V_j>_ref stacked over grid times (`reference`), the
final state with its entropy (and, on the one-body path, its Pauli defect),
the probes' Gibbs values at any lambda and the drive components' norms. Both
take every block from CFM4 `step_grid` on their own step representation
(`DenseSteps`, `InteractionSteps`).
One process runner, `_run_process`, builds the lattice, drive, probes and
manifest, simulates each configured path, and applies the shared ledger and
health checks, the `both` oracle comparison, timing and output; `run_process_I`,
`run_process_II` and `run_plain` supply only their time grid, window checks
and a verdict function, which reads the trajectory and the protocol only.
`run_verify` and the acceptance suite call the same checks (verification suite).

Finite volumes recur: every convergence-flavored statement is evaluated only
inside the declared recurrence window 0.8 * L / v_max (v_max = 2, the maximal
group velocity of the unit-hopping band), and every manifest carries a note
saying so.
"""

import json
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np
import scipy
import yaml
from scipy.linalg.blas import zgemm, zhemm

from . import __version__
from .drive import (DriveProtocol, KernelSpec, Perturbation, certify_drive,
                    periodic_protocol, switch_on_protocol)
from .lattice import (EXACT_SITE_CAP, Boundary, FockBasis, LatticeSpec,
                      creation_op, gauge_transform, hopping_hamiltonian,
                      number_operator, one_body_laplacian, quadratic_blocks, site_index)
from .linalg import (fill_upper, max_abs, sector_map, sector_workers, spectral_norm,
                     symmetrize, unitarity_defect)
from .observables import (delta_entropy, entropy_rate, entropy_rate_decomposed,
                          expectation, internal_energy, ledger_row, work_accumulate)
from .propagator import (Block, DenseSteps, TimeDependentHamiltonian, dyson_propagator,
                         heisenberg_evolve, interaction_to_schrodinger, propagate,
                         propagate_grid, step_grid)
from .quadratic import (ReferenceScalars, ScalarDriveReferenceCache, advance_window,
                        binary_entropy, diagonal_reads, diagonal_state, eigenbasis, expit,
                        interaction_picture, pauli_excess)
# not called here; perfbench/tracing.py wraps these harness attributes by name
from .lattice import quadratic_fock_operator  # noqa: F401
from .quadratic import (correlation_entropy, gibbs_correlation,  # noqa: F401
                        quadratic_entropy_ledger, quadratic_observable, reference_scalars)
from .smallness import grid_axis, grid_norm
from .states import (GibbsParams, gibbs_state, relative_entropy, sector_gibbs_state,
                     von_neumann_entropy)
from .storage import write_series_csv

#: largest L of a `both` run; at L = 10 the exact oracle, on the float64 sector
#: blocks of its real operators, takes about 0.08 s per grid interval with its
#: sectors spread over two cores (6.2 s for the 80-interval
#: `configs/both_L10.yaml`, against 10.9 s on one core; one BLAS thread)
BOTH_SITE_CAP = 10
#: grid times whose reference scalars `_trajectory` takes in one call, stacked
#: on the fast path: all of the benchmark grids' (129 and 151), and a 10^4-step
#: run's stacked resolvents stay near 1 MB for |R| = 4
REFERENCE_CHUNK = 256
#: the environment variables that set BLAS threads, recorded in every manifest
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: maximal group velocity of the unit-hopping dispersion 2 - 2 cos k
V_MAX = 2.0
#: fraction of the ballistic traversal time taken as the safe window
WINDOW_FRACTION = 0.8

# Regression bounds for the process surrogates, confirmed by pilot runs on
# the reference configurations in configs/ and frozen here; see
# tests/test_acceptance.py.
PROCESS1_DECAY_BOUND = 0.15
PROCESS1_SDOT_BOUND = 0.20
PROCESS2_CYCLE_BOUND = 0.25
PROCESS2_SPEARMAN_BOUND = -0.8
# numerical-health bounds of every process run: the unitary flow keeps the
# entropy, and a quasi-free state keeps the spectrum of Gamma in [0, 1]
ENTROPY_DRIFT_BOUND = 1e-7
PAULI_BOUND = 1e-9

WINDOW_NOTE = (
    "finite-volume surrogate: asymptotic statements are evaluated only inside "
    "the recurrence window {:.6g} (0.8 * L / v_max); data beyond it carries no "
    "convergence claim"
)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


# -- configuration -------------------------------------------------------------

@dataclass
class LatticeConfig:
    L: int
    boundary: str = "dirichlet"
    local_region: Optional[list] = None


@dataclass
class GibbsConfig:
    beta: float
    mu: float = 0.0


@dataclass
class KernelConfig:
    degree: int
    sites: list
    coeffs: list


@dataclass
class DriveConfig:
    type: str = "none"  # none | switch_on | periodic
    amplitude: float = 0.0
    tau_r: Optional[float] = None
    period: Optional[float] = None
    waveform: str = "sin"
    kernels: list = field(default_factory=list)


@dataclass
class IntegratorConfig:
    tol: float = 1e-8


@dataclass
class OutputConfig:
    grid_step: float = 0.05
    t_final: Optional[float] = None
    directory: Optional[str] = None
    probes: Optional[list] = None  # [[i], [i, j], ...]; default: all local pairs


@dataclass
class RunConfig:
    lattice: LatticeConfig
    gibbs: GibbsConfig
    drive: DriveConfig = field(default_factory=DriveConfig)
    path: str = "exact"  # exact | quadratic | both
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    seed: int = 0


_SECTION_TYPES = {
    "lattice": LatticeConfig,
    "gibbs": GibbsConfig,
    "drive": DriveConfig,
    "integrator": IntegratorConfig,
    "output": OutputConfig,
}


def _build_section(cls, data, where):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    names = set(cls.__dataclass_fields__)
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    if cls is DriveConfig and "kernels" in data:
        data = dict(data)
        data["kernels"] = [_build_section(KernelConfig, k, f"{where}.kernels[{i}]")
                           for i, k in enumerate(data["kernels"])]
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)}")
    kwargs = {}
    for name in ("lattice", "gibbs", "drive", "integrator", "output"):
        if name in data:
            kwargs[name] = _build_section(_SECTION_TYPES[name], data[name], name)
    if "lattice" not in kwargs or "gibbs" not in kwargs:
        raise ConfigError("config requires 'lattice' and 'gibbs' sections")
    for name in ("path", "seed"):
        if name in data:
            kwargs[name] = data[name]
    cfg = RunConfig(**kwargs)
    validate_config(cfg)
    return cfg


def load_config(path) -> RunConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    return parse_config(data or {})


def _number(value, where, positive=True):
    """Refuse `value` unless it is a finite real number (and positive)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not np.isfinite(value) or (positive and value <= 0)):
        kind = "a positive finite" if positive else "a finite"
        raise ConfigError(f"{where} must be {kind} number, got {value!r}")


def _count(value, where):
    """Refuse `value` unless it is a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ConfigError(f"{where} must be a non-negative integer, got {value!r}")


def validate_config(cfg: RunConfig):
    # the lattice, the drive and the probes reject what they cannot represent,
    # non-integer sizes and sites among it
    try:
        spec = lattice_spec(cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"lattice: {exc}") from exc
    if cfg.path not in ("exact", "quadratic", "both"):
        raise ConfigError(f"path must be exact|quadratic|both, got {cfg.path!r}")
    if cfg.path == "exact" and cfg.lattice.L > EXACT_SITE_CAP:
        raise ConfigError(
            f"exact path limited to L <= {EXACT_SITE_CAP}, got L={cfg.lattice.L}; "
            "use path: quadratic"
        )
    if cfg.path == "both" and cfg.lattice.L > BOTH_SITE_CAP:
        raise ConfigError(
            f"path 'both' (oracle comparison) requires L <= {BOTH_SITE_CAP}")
    if cfg.drive.type not in ("none", "switch_on", "periodic"):
        raise ConfigError(f"drive.type must be none|switch_on|periodic, got {cfg.drive.type!r}")
    if cfg.drive.type == "switch_on":
        _number(cfg.drive.tau_r, "drive.tau_r")
    if cfg.drive.type == "periodic":
        _number(cfg.drive.period, "drive.period")
    _number(cfg.drive.amplitude, "drive.amplitude", positive=False)
    if cfg.drive.type != "none" and not cfg.drive.kernels:
        raise ConfigError("driven runs require at least one kernel")
    if cfg.path in ("quadratic", "both"):
        if any(k.degree != 1 for k in cfg.drive.kernels):
            raise ConfigError("quadratic path requires degree-1 kernels only")
    _number(cfg.integrator.tol, "integrator.tol")
    _number(cfg.output.grid_step, "output.grid_step")
    if cfg.output.t_final is not None:
        _number(cfg.output.t_final, "output.t_final", positive=False)
    _count(cfg.seed, "seed")
    _number(cfg.gibbs.beta, "gibbs.beta")
    _number(cfg.gibbs.mu, "gibbs.mu", positive=False)
    try:
        build_protocol(cfg, spec)
        probe_site_pairs(cfg, spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# -- assembly ------------------------------------------------------------------

def lattice_spec(cfg: RunConfig) -> LatticeSpec:
    n_sites = site_index(cfg.lattice.L, "lattice.L")
    region = cfg.lattice.local_region
    if region is not None and not region:
        # LatticeSpec reads an empty region as the whole chain
        raise ConfigError("local_region must list at least one site (or be null)")
    if region is None:
        # default: a centered block of up to four sites
        width = min(4, n_sites)
        start = (n_sites - width) // 2
        region = range(start, start + width)
    return LatticeSpec(n_sites, Boundary(cfg.lattice.boundary), tuple(region))


def build_protocol(cfg: RunConfig, spec: LatticeSpec, t0=0.0) -> Optional[DriveProtocol]:
    if cfg.drive.type == "none":
        return None
    kernels = [KernelSpec(k.degree, tuple(k.sites), np.asarray(k.coeffs, dtype=float))
               for k in cfg.drive.kernels]
    pert = Perturbation(kernels, spec)
    if cfg.drive.type == "switch_on":
        return switch_on_protocol(pert, t0, cfg.drive.tau_r, cfg.drive.amplitude)
    return periodic_protocol(pert, cfg.drive.period, cfg.drive.waveform, t0,
                             cfg.drive.amplitude)


def recurrence_window(n_sites):
    """Safe horizon before boundary reflections revive transients."""
    return WINDOW_FRACTION * n_sites / V_MAX


def probe_site_pairs(cfg: RunConfig, spec: LatticeSpec):
    if cfg.output.probes is not None:
        if not cfg.output.probes:
            raise ConfigError("output.probes must list at least one probe (or be null)")
        pairs = []
        for p in cfg.output.probes:
            if not isinstance(p, (list, tuple)) or len(p) not in (1, 2):
                raise ConfigError(f"probes entries must be [i] or [i, j], got {p}")
            i, j = (site_index(s, "probe sites") for s in (p[0], p[-1]))
            if not (0 <= i < spec.n_sites and 0 <= j < spec.n_sites):
                raise ConfigError(f"probe sites must lie in [0, {spec.n_sites}), got {p}")
            pairs.append((i, j))
        return pairs
    region = spec.local_region
    pairs = [(i, i) for i in region]
    pairs += [(i, j) for a, i in enumerate(region) for j in region[a + 1:]]
    return pairs


def probe_matrices(pairs, spec: LatticeSpec, representation):
    """n_i for (i,i) pairs, a_i^* a_j + a_j^* a_i otherwise: L x L kernels
    ("one_body") or their Fock operators' sector blocks ("fock")."""
    build = {"one_body": lambda w: w,
             "fock": lambda w: quadratic_blocks(spec, w)}[representation]
    mats = []
    for i, j in pairs:
        w = np.zeros((spec.n_sites,) * 2)
        w[i, j] = w[j, i] = 1.0
        mats.append(build(w))
    return mats


def time_grid(t0, t_final, step):
    n = int(round((t_final - t0) / step))
    if n < 1:
        raise ConfigError("output grid has no steps; lower grid_step or raise t_final")
    return t0 + step * np.arange(n + 1)


# -- trajectory loop -----------------------------------------------------------

@dataclass
class IntegratorReport:
    """What the integrator reported over a trajectory's intervals."""

    est_error: float = 0.0  # summed Propagator.est_error
    refined_intervals: int = 0  # intervals that failed the CFM4 pair test
    min_step: Optional[float] = None  # narrowest accepted step
    reused_intervals: int = 0  # intervals moved from one drive period earlier
    windows: int = 0  # Blocks of grid pairs: one pair each on the exact path
    # one-body path (None on the exact path): the widest update of G, the
    # rank of a window's product, and the width d of the run's frame basis
    max_block_rank: Optional[int] = None
    window_basis_width: Optional[int] = None

    def add(self, step):
        self.est_error += step.est_error
        self.refined_intervals += int(step.refined)
        self.reused_intervals += int(step.reused)
        self.min_step = step.min_step if self.min_step is None else min(self.min_step,
                                                                         step.min_step)


@dataclass
class Trajectory:
    records: list
    probe_series: np.ndarray  # (n_times, n_probes)
    times: np.ndarray
    final: Callable  # () -> the final state, formed on its first read (`final_state`)
    entropy_drift: float  # |S_vN(final) - S_vN(initial)|, spectrum-preservation check
    integrator: IntegratorReport = field(default_factory=IntegratorReport)
    # one-body path: how far the final Gamma's spectrum escapes [0, 1]
    pauli_defect: Optional[float] = None
    # lambda -> the probe values in the Gibbs state of H(lambda)
    gibbs_probes: Optional[Callable] = None
    drive_norms: tuple = ()  # ||dW/dlambda_j|| per drive component

    @property
    def final_state(self):
        """rho on the exact path, Gamma on the one-body path."""
        return self.final()


class _Representation(NamedTuple):
    """What a state representation supplies to the trajectory loop, which
    forms every ledger row from its reads: `advance` takes one window's Block
    at a time (the one-body path by `quadratic.advance_window`, the exact
    path one sector step at a time), `reference` up to REFERENCE_CHUNK grid
    times at once."""

    state: np.ndarray  # initial state: rho (Fock) or G (one-body, see quadratic_trajectory)
    s_start: float  # von Neumann entropy of the initial state
    blocks: Iterator  # `step_grid`'s Blocks, one per window of grid pairs, in grid order
    # (state, Block) -> (the state at its last time, exactly Hermitian; per
    # block time (<H_0>, q, [<V_j>], probe values); the window's update of G,
    # or None on the exact path); the empty Block of the grid's first time reads row 0
    advance: Callable
    # controls (n, k) -> their stacked ReferenceScalars: G (n,) and <V_j> (n, k)
    # in the Gibbs state of H(lambda)
    reference: Callable
    # (state, t) -> (a memoized () -> the reported final state, its von
    # Neumann entropy, its Pauli defect or None where the representation has none)
    final: Callable
    gibbs_probes: Callable  # lambda -> probe values in the Gibbs state of H(lambda)
    drive_norms: tuple  # spectral norm of each V_j = dW/dlambda_j


def _grid_controls(protocol, times):
    """lambda and d lambda/dt at each grid time, as (n, k) arrays (k = 0
    without a drive)."""
    if protocol is None:
        return np.zeros((len(times), 0)), np.zeros((len(times), 0))
    return tuple(np.array([f(t) for t in times]) for f in (protocol.controls, protocol.lam_dot))


def _trajectory(rep, params, times, lams, lam_dots):
    """Evolve the state over the grid one block at a time and form every
    ledger row and probe row.

    `lams` and `lam_dots` are `_grid_controls`' lambda and d lambda/dt. One
    `rep.reference` call serves REFERENCE_CHUNK grid times; each row is
    `ledger_row`'s of `advance`'s reads, with U = <H_0> + sum_j lambda_j <V_j>,
    and its work `work_accumulate`'s running sum. The integrator report takes
    the widest window update and the basis width from `advance`; the entropy
    drift checks that the unitary flow preserved the spectrum.
    """
    times = np.asarray(times)

    def references():
        for lo in range(0, len(lams), REFERENCE_CHUNK):
            scalars = rep.reference(lams[lo:lo + REFERENCE_CHUNK])
            yield from zip(scalars.grand_potential.tolist(), scalars.gradient)

    grid = zip(times, lams, lam_dots, references())
    state = rep.state
    report = IntegratorReport()
    records, probe_rows = [], []
    for block in chain([Block((times[0],))], rep.blocks):
        for step in block.propagators:
            report.add(step)
        report.windows += bool(block.propagators)
        state, reads, update = rep.advance(state, block)
        if update is not None:
            report.max_block_rank = max(report.max_block_rank or 0, len(update.k))
            report.window_basis_width = len(update.q)
        for (energy, q, drive, probes), (t, lam, lam_dot, (g, gradient)) in zip(reads, grid):
            records.append(ledger_row(t, float(energy + sum(lj * d for lj, d in zip(lam, drive))),
                                      q, drive, g, gradient, lam_dot, params, rep.s_start))
            probe_rows.append(probes)
        # dropped before the next block is stepped, and the last one's frame
        # basis would live on through `final`
        block = step = update = None
    for rec, work in zip(records, work_accumulate(records, params)):
        rec.work = work
    final, s_final, pauli = rep.final(state, times[-1])
    return Trajectory(records, np.array(probe_rows), times, final,
                      abs(s_final - rep.s_start), report, pauli, rep.gibbs_probes,
                      rep.drive_norms)


def _sector_reads(stacks, rho, rows=slice(None)):
    """Re tr(rho A) of the `rows` of operators A stacked per sector n as rows
    A_nn.ravel() of one (m, d_n^2) array, from the sector blocks of a
    block-diagonal rho: one product per sector, exact for any A, since
    tr(rho_n A_nn) = sum_ij (rho_n^T)_ij (A_nn)_ij. A real stack reads
    Re rho_n only, so no complex copy of the stack is made."""
    def read(stack, r):
        if stack.dtype.kind == "f":
            return stack[rows] @ r.real.T.ravel()
        return (stack[rows] @ r.T.ravel()).real
    return sum(read(s, r) for s, r in zip(stacks, rho))


def _conjugated(u, r):
    """U r U^dagger, made exactly Hermitian."""
    return symmetrize(u @ r @ u.conj().T)


def exact_trajectory(spec, params, protocol, times, tol, probe_ops=None):
    """Fock-space simulation with the complete ledger at each grid time, on
    charge-sector blocks.

    H_0, each V_j = dW/dlambda_j (`Perturbation.blocks`) and every probe
    (`probe_matrices(..., "fock")`) come as their n-particle blocks from the
    one Fock-operator scatter, `FockBasis.blocks`, which refuses a monomial
    between sectors before any step: float64 for the real operators of
    every reference drive, complex128 for a complex one. N is n on sector n,
    so it is never built. H(t) per sector is then real too, and so are each
    CFM4 exponent's `eigh` and each row's reference state; the propagators
    exp(-i dt h) and rho(t) are complex. rho, H(t) and every propagator are
    tuples of blocks, and U_n rho_n U_n^dagger is the update.
    The sectors never couple, so their work runs on every CPU through
    `sector_map`: each sector's pair test (`DenseSteps`: one stacked `eigh`
    of the CFM4 exponents of its steps, from H(t) sampled once per pair
    test at every node time as one stack per sector), the updates, the
    sector entropies and each reference state's `eigh`s and blocks
    (`sector_gibbs_state`). Each sector's
    arithmetic is the serial one and every sum over sectors keeps their
    order, so the outputs do not depend on the CPU count, to the last bit.
    Per sector, [H_0, V_1..V_k, probes] are stacked once, so each row reads
    tr(rho_n A) of all of them in one product per sector (`_sector_reads`,
    exact for any A since rho is block-diagonal), and each grid time's
    <V_j>_ref in one more from its reference state, one held at a time; G
    and that state come from the per-sector spectra of H(lambda)
    (`sector_gibbs_state`). dq/dt is zero by construction.
    `final_state` is the dense rho. The Gibbs probe values (by the same
    stacked read) and the norm of each V_j (the largest over its sectors)
    come from the same blocks.
    """
    h0 = quadratic_blocks(spec, one_body_laplacian(spec))
    vs = [c.blocks() for c in protocol.components] if protocol else []
    # per sector, [H_0, V_1..V_k, probes] as the rows A_nn.ravel() of one
    # array, float64 where all of them are real
    stacks = [np.stack(blocks).reshape(len(blocks), -1)
              for blocks in zip(h0, *vs, *(probe_ops or []))]
    drive_rows, probe_rows = slice(1, 1 + len(vs)), slice(1 + len(vs), None)

    def h_of(lams):
        # per sector, H_0 + sum_j lambda_j V_j stacked over the rows of lams
        return tuple(h + sum((lj[:, None, None] * v[n] for lj, v in zip(lams.T, vs)),
                             np.zeros((len(lams),) + h.shape, h.dtype))
                     for n, h in enumerate(h0))

    def h_at(ts):
        # W = 0 before the grid starts, as in TimeDependentHamiltonian
        return h_of(np.array([protocol.controls(t) if protocol and t >= times[0]
                              else np.zeros(len(vs)) for t in ts]))

    def reference_state(lam):
        return sector_gibbs_state(tuple(h[0] for h in h_of(np.asarray(lam)[None])), params)

    def scalars_at(lam):
        ref = reference_state(lam)
        return ref.grand_potential, _sector_reads(stacks, ref.rho, drive_rows)

    def reference(lams):
        gs, grads = zip(*map(scalars_at, lams))
        return ReferenceScalars(np.array(gs), np.array(grads))

    def gibbs_probes(lam):
        return _sector_reads(stacks, reference_state(lam).rho, probe_rows)

    def entropy(rho):
        return sum(sector_map(von_neumann_entropy, rho))

    def observe(rho):
        # relS takes S_vN(rho_t) = s_start: the unitary flow keeps the spectrum
        reads = _sector_reads(stacks, rho)
        return (float(reads[0]), sum(n * float(np.real(np.trace(r))) for n, r in enumerate(rho)),
                reads[drive_rows].tolist(), reads[probe_rows])

    def advance(rho, block):
        # the block's grid pair stepped interval by interval, each read after
        rows = [] if block.propagators else [observe(rho)]
        for step in block.propagators:
            rho = tuple(sector_map(_conjugated, step.matrix, rho))
            rows.append(observe(rho))
        return rho, rows, None

    rho0 = sector_gibbs_state(h0, params).rho
    s_start = entropy(rho0)
    rep = _Representation(rho0, s_start, step_grid(DenseSteps(h_at), times, tol), advance,
                          reference,
                          lambda rho, t: (cache(lambda: FockBasis(spec.n_sites).assemble(rho)),
                                          entropy(rho), None),
                          gibbs_probes, tuple(max(map(spectral_norm, v)) for v in vs))
    return _trajectory(rep, params, times, *_grid_controls(protocol, times))


def quadratic_trajectory(spec, params, protocol, times, tol, probe_ops=None):
    """One-particle fast path: correlation-matrix dynamics plus the ledger.

    The state is G = conj(Gamma) in h0's eigenbasis and in the interaction
    picture of h0, kept as the lower triangle of one Fortran-ordered
    complex128 array; the Gibbs start is diag(f(eps)), built in that array,
    and its entropy is sum_k -f_k ln f_k - (1 - f_k) ln(1 - f_k) in closed
    form. The state advances one window of CFM4 `step_grid`'s grid pairs at
    a time by `quadratic.advance_window` (16 pairs, frame basis width d = 22
    and update rank 14 on `process1_L512.yaml`). Under a periodic drive
    `step_grid` gets the drive's (t0, T), and each window one period after
    an earlier one reuses that window's Block, its origin moved by T, with
    no step taken. Each row reads Gamma on S = R + the probe sites only,
    Y_S(t) = diag(e^{i eps t}) phi_S^T: <V_j> from its R x R block and the
    probes from all of it. The reference is one `ScalarDriveReferenceCache`,
    sized for the run's largest |lambda_j|: every row's reference scalars
    from |R| x |R| resolvents, stacked over the grid times of a call. At
    the end one `eigvalsh` of G (whose spectrum is Gamma's) gives both the
    final entropy and the Pauli defect. `final_state` is Gamma, formed on
    its first read by one basis change written over G and completed to an
    exactly Hermitian matrix; a run that does not read it skips that L^3
    work. The Gibbs probe values read the probes on S x S, as the rows do,
    from Gamma_SS = conj(phi_S f phi_S^dagger) of one `eigh` of
    h0 + sum_j lambda_j V_j (the reference of `gibbs_correlation` with
    `quadratic_observable`), and ||V_j|| is the norm of its R x R block.
    """
    if protocol is not None and not protocol.is_quadratic:
        raise ConfigError("quadratic path requires a quadratic (degree-1) drive")
    h0 = one_body_laplacian(spec)

    # S = R + the probe sites, and each probe's entries on S x S, where all
    # its nonzero entries lie: a row reads every probe by one product
    def support(w):
        nonzero = np.asarray(w) != 0
        return np.flatnonzero(nonzero.any(0) | nonzero.any(1))

    steps, blocks = interaction_picture(
        h0, protocol, np.concatenate([support(w) for w in probe_ops or []] + [[]]))
    eps, sites = steps.eps, steps.sites
    lams, lam_dots = _grid_controls(protocol, times)
    reference = ScalarDriveReferenceCache(eps, steps.phi[steps.rows], blocks, params,
                                          np.max(np.abs(lams), axis=0))
    on_rows = np.ix_(steps.on_rows, steps.on_rows)
    on_drive = np.ix_(steps.rows, steps.rows)
    probe_rows = np.array([np.asarray(w)[np.ix_(sites, sites)].ravel() for w in probe_ops or []])
    probe_rows = probe_rows.reshape(len(probe_rows), sites.size ** 2)

    occupations = expit(-params.beta * (eps - params.mu))
    s_start = binary_entropy(occupations)

    def row(energy, charge, gamma):
        """A row's reads from sum_k eps_k G_kk, tr G and Gamma on S x S."""
        gamma_rr = gamma[on_rows]
        # a copy: np.real's view would keep each row's complex product alive
        return (energy, charge, [float(np.real(np.sum(c * gamma_rr))) for c in blocks],
                (probe_rows @ gamma.ravel()).real.copy())

    def advance(g, block):
        if not block.propagators:
            # row 0: Gamma_SS = conj(Y_S^dagger G Y_S) at the grid's first time
            y = steps.frame(block.times[0], sites)
            gamma = (y.conj().T @ zhemm(1.0, g, y, lower=1)).conj()
            return g, [row(*diagonal_reads(g, eps), gamma)], None
        g, reads, update = advance_window(g, block)
        return g, [row(*read) for read in reads], update

    def gibbs_probes(lam):
        # one eigh of h(lambda) = h0 + sum_j lambda_j V_j (V_j on R x R), and
        # the probes read as each row reads them, from
        # Gamma_SS = conj(phi_S f phi_S^dagger) in h(lambda)'s eigenbasis phi
        h = h0.astype(np.result_type(h0, *blocks))
        for lj, c in zip(lam, blocks):
            h[on_drive] += lj * c
        w, v = np.linalg.eigh(h)
        v_s = v[sites]
        gamma = ((v_s * expit(-params.beta * (w - params.mu))) @ v_s.conj().T).conj()
        return (probe_rows @ gamma.ravel()).real

    def final(g, t):
        nu = np.linalg.eigvalsh(g, UPLO="L")

        @cache
        def gamma():
            # Gamma = conj(V G V^dagger), V = phi diag(e^{-i eps t}), over G's
            # memory; phi is taken again from h0, which the Gibbs probes keep,
            # so an unread Gamma holds G and nothing more
            eps, phi = eigenbasis(h0)
            v = np.multiply(phi, np.exp(-1j * t * eps), order="F")
            out = zgemm(1.0, zhemm(1.0, g, v, side=1, lower=1), v, trans_b=2, c=g,
                        overwrite_c=1)
            return fill_upper(np.conjugate(out, out=out))
        return gamma, binary_entropy(nu), pauli_excess(nu)

    period = ((protocol.t0, protocol.period)
              if protocol is not None and protocol.kind == "periodic" else None)
    rep = _Representation(diagonal_state(occupations), s_start,
                          step_grid(steps, times, tol, period), advance, reference, final,
                          gibbs_probes, tuple(map(spectral_norm, blocks)))
    return _trajectory(rep, params, times, lams, lam_dots)


# -- manifests -----------------------------------------------------------------

def run_environment():
    """What a run ran on: the interpreter and library versions, the BLAS
    thread variables as set (None where unset) and `sector_workers`, the
    CPUs over which `sector_map` spreads the exact path's charge sectors."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fermiproc": __version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "sector_workers": sector_workers(),
    }


def _manifest_skeleton(cfg: RunConfig, spec: LatticeSpec, kind: str):
    window = recurrence_window(spec.n_sites)
    return {
        "kind": kind,
        "version": __version__,
        "path": cfg.path,
        "seed": cfg.seed,
        "environment": run_environment(),
        "config": asdict(cfg),
        "invariants": {},
        "summary": {},
        "notes": {"recurrence_window": WINDOW_NOTE.format(window)},
    }


def _verdict(manifest, name, passed, value, bound):
    manifest["invariants"][name] = {
        "passed": bool(passed), "value": float(value), "bound": float(bound),
    }


def manifest_passed(manifest):
    return all(v["passed"] for v in manifest["invariants"].values())


def write_outputs(cfg, manifest, records_by_path):
    out = cfg.output.directory
    if not out:
        return None
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for tag, records in records_by_path.items():
        name = "series.csv" if len(records_by_path) == 1 else f"series_{tag}.csv"
        write_series_csv(out / name, records)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return out


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


@dataclass
class ProcessResult:
    manifest: dict
    records: dict  # tag -> list[ProcessRecord]
    trajectories: dict

    @property
    def passed(self):
        return manifest_passed(self.manifest)


def _window_average(times, values, lo, hi):
    mask = (times >= lo) & (times <= hi)
    if not np.any(mask):
        raise ConfigError(f"no output samples inside window [{lo}, {hi}]")
    return float(np.mean(np.asarray(values)[mask]))


def sdot_bound_coefficient(traj, beta, lam_dot):
    """C with |dS/dt| <= C * eps when the probes pin the state to the
    reference: beta * sum_j ||V_j|| |lambda_dot_j|, the norms from the path
    that ran. `entropy_rate_bound`'s gauge term beta * |mu| * ||[W, N]|| is
    zero on both paths: the exact path refuses drives between charge sectors,
    and the one-body N is the identity.
    """
    return float(beta * sum(norm * abs(ld) for norm, ld in zip(traj.drive_norms, lam_dot)))


def _common_ledger_checks(manifest, traj, prefix=""):
    """Ledger and numerical-health verdicts shared by every process run."""
    records, drift = traj.records, traj.entropy_drift
    _verdict(manifest, prefix + "entropy_drift", drift <= ENTROPY_DRIFT_BOUND, drift,
             ENTROPY_DRIFT_BOUND)
    pauli = traj.pauli_defect
    if pauli is not None:
        _verdict(manifest, prefix + "pauli_defect", pauli <= PAULI_BOUND, pauli, PAULI_BOUND)
    min_gap = entropy_gap(records)
    _verdict(manifest, prefix + "entropy_monotone_start", min_gap >= -1e-8, min_gap, -1e-8)
    min_rel = min(r.relS for r in records)
    _verdict(manifest, prefix + "relative_entropy_positive", min_rel >= -1e-10,
             min_rel, -1e-10)
    manifest["summary"][prefix + "delta_S_final"] = records[-1].S - records[0].S
    manifest["summary"][prefix + "relS_final"] = records[-1].relS
    manifest["summary"][prefix + "work_final"] = records[-1].work


# -- process runs ----------------------------------------------------------------

def _run_process(cfg: RunConfig, kind, times, verdict=None) -> ProcessResult:
    """Simulate every configured path on `times`, judge it, and write outputs.

    `verdict(manifest, prefix, traj, protocol)` records the process's own
    invariants and summary scalars for one path from its trajectory, which
    carries the probes' Gibbs values and the drive norms of that path; the
    ledger checks, the `both` oracle comparison, timing and output are shared
    by every process.
    """
    t_start = time.time()
    spec = lattice_spec(cfg)
    params = GibbsParams(cfg.gibbs.beta, cfg.gibbs.mu)
    protocol = build_protocol(cfg, spec)
    pairs = probe_site_pairs(cfg, spec)
    manifest = _manifest_skeleton(cfg, spec, kind)
    if protocol is not None:
        # a note on the paper's hypotheses: never an invariant or summary entry
        manifest["drive"] = asdict(certify_drive(protocol))
    manifest["integrator"] = {}  # path tag -> IntegratorReport
    trajectories = {}
    both = cfg.path == "both"
    for tag in (("exact", "quadratic") if both else (cfg.path,)):
        simulate, rep = ((exact_trajectory, "fock") if tag == "exact"
                         else (quadratic_trajectory, "one_body"))
        traj = simulate(spec, params, protocol, times, cfg.integrator.tol,
                        probe_matrices(pairs, spec, rep))
        trajectories[tag] = traj
        manifest["integrator"][tag] = asdict(traj.integrator)
        prefix = f"{tag}_" if both else ""
        if verdict is not None:
            verdict(manifest, prefix, traj, protocol)
        _common_ledger_checks(manifest, traj, prefix)

    if both:
        dev = path_deviation(trajectories["exact"], trajectories["quadratic"])
        _verdict(manifest, "oracle_equivalence", dev <= 1e-7, dev, 1e-7)
    manifest["timing_seconds"] = time.time() - t_start
    records_by_path = {tag: traj.records for tag, traj in trajectories.items()}
    write_outputs(cfg, manifest, records_by_path)
    return ProcessResult(manifest, records_by_path, trajectories)


def run_process_I(cfg: RunConfig) -> ProcessResult:
    """Switch-on drive: probe relaxation toward the perturbed Gibbs state.

    Deviation D(t) = max over the local probe set of
    |<A>_rho(t) - <A>_gibbs(H_inf)| is summarized by the late/early window
    ratio; the entropy rate magnitude must collapse in the late window.
    """
    if cfg.drive.type != "switch_on":
        raise ConfigError("run_process_I requires drive.type switch_on")
    window = recurrence_window(cfg.lattice.L)
    tau_r = cfg.drive.tau_r
    if window <= 3.0 * tau_r:
        raise ConfigError(
            f"recurrence window {window:.3g} is shorter than 3*tau_r = {3 * tau_r:.3g}; "
            "enlarge L (window grows like 0.4*L) or shorten tau_r"
        )
    t_final = cfg.output.t_final if cfg.output.t_final is not None else window
    times = time_grid(0.0, t_final, cfg.output.grid_step)
    horizon = min(window, float(times[-1]))  # claims never extend past the window
    quarter = horizon / 4.0
    early = (3.0 * tau_r, 3.0 * tau_r + quarter)
    late = (horizon - quarter, horizon)
    if early[1] > late[0]:
        raise ConfigError(
            "early and late comparison quarters overlap; enlarge L or shorten tau_r"
        )

    def verdict(manifest, prefix, traj, protocol):
        # the probes in the Gibbs state of H_inf = H_0 + A V
        target = traj.gibbs_probes([cfg.drive.amplitude])
        dvals = np.max(np.abs(traj.probe_series - target), axis=1)
        for rec, dev in zip(traj.records, dvals):
            rec.D_probe = float(dev)

        t_arr = traj.times
        sdots = np.array([abs(r.Sdot) for r in traj.records])
        in_window = t_arr <= horizon
        d_early = _window_average(t_arr, dvals, *early)
        d_late = _window_average(t_arr, dvals, *late)
        decay_ratio = d_late / d_early if d_early > 0 else 0.0
        sdot_late = _window_average(t_arr, sdots, *late)
        sdot_max = float(np.max(sdots[in_window]))
        sdot_ratio = sdot_late / sdot_max if sdot_max > 0 else 0.0
        _verdict(manifest, prefix + "process1_decay_ratio",
                 decay_ratio <= PROCESS1_DECAY_BOUND, decay_ratio, PROCESS1_DECAY_BOUND)
        _verdict(manifest, prefix + "process1_sdot_ratio",
                 sdot_ratio <= PROCESS1_SDOT_BOUND, sdot_ratio, PROCESS1_SDOT_BOUND)
        manifest["summary"][prefix + "deviation_ratio"] = decay_ratio
        manifest["summary"][prefix + "sdot_ratio"] = sdot_ratio
        manifest["summary"][prefix + "entropy_drift"] = traj.entropy_drift
        manifest["summary"][prefix + "sdot_bound_coefficient"] = sdot_bound_coefficient(
            traj, cfg.gibbs.beta, protocol.lam_dot(float(t_arr[-1])))

    return _run_process(cfg, "process_I", times, verdict)


def _average_ranks(x):
    """Ranks 1..n of the values x, tied values sharing their average rank."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


def _spearman(x, y):
    """Spearman's rank correlation: Pearson's correlation of the average ranks."""
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[0, 1])


def run_process_II(cfg: RunConfig) -> ProcessResult:
    """Periodic drive: probe distance between consecutive cycles.

    d_n = max over probes and 8 sampled phases of
    |<A>(t0 + nT + tau) - <A>(t0 + (n+1)T + tau)|; the sequence must shrink
    (final <= 0.25 * first) with a strongly negative Spearman trend.
    """
    if cfg.drive.type != "periodic":
        raise ConfigError("run_process_II requires drive.type periodic")
    window = recurrence_window(cfg.lattice.L)
    period = cfg.drive.period
    if window / period < 4.0:
        raise ConfigError(
            f"only {window / period:.2f} periods fit the recurrence window; "
            "enlarge L or shorten the period"
        )
    # grid step subdividing T/8 so phase samples land exactly on grid indices
    phase_step = period / 8.0
    m_sub = max(1, int(np.ceil(phase_step / cfg.output.grid_step)))
    step = phase_step / m_sub
    n_max = int(np.floor(window / period - 2.0 + 1.0 / 8.0))  # (n+1)T + 7T/8 <= window
    if n_max < 2:
        raise ConfigError("window too short for a cycle-distance trend; enlarge L")
    t_final = (n_max + 1) * period + 7.0 * phase_step
    times = time_grid(0.0, t_final, step)

    def verdict(manifest, prefix, traj, protocol):
        probes = traj.probe_series
        d_seq = []
        for n in range(1, n_max + 1):
            worst = 0.0
            for k in range(8):
                idx_a = (8 * n + k) * m_sub
                idx_b = (8 * (n + 1) + k) * m_sub
                diff = np.max(np.abs(probes[idx_a] - probes[idx_b]))
                worst = max(worst, float(diff))
            d_seq.append(worst)
        d_seq = np.array(d_seq)
        if d_seq.max() <= 1e-9:
            # zero-amplitude noise floor: no cycle transient to rank
            ratio = 0.0
            rho_trend = -1.0
        else:
            ratio = d_seq[-1] / d_seq[0] if d_seq[0] > 0 else 0.0
            rho_trend = _spearman(np.arange(1, n_max + 1), d_seq)
        _verdict(manifest, prefix + "process2_cycle_ratio",
                 ratio <= PROCESS2_CYCLE_BOUND, ratio, PROCESS2_CYCLE_BOUND)
        _verdict(manifest, prefix + "process2_spearman",
                 rho_trend < PROCESS2_SPEARMAN_BOUND, rho_trend, PROCESS2_SPEARMAN_BOUND)
        manifest["summary"][prefix + "cycle_distances"] = d_seq.tolist()
        manifest["summary"][prefix + "cycle_ratio"] = ratio
        manifest["summary"][prefix + "spearman"] = rho_trend

    return _run_process(cfg, "process_II", times, verdict)


def run_plain(cfg: RunConfig) -> ProcessResult:
    """Undriven (or custom-window) ledger run without process verdicts."""
    window = recurrence_window(cfg.lattice.L)
    t_final = cfg.output.t_final if cfg.output.t_final is not None else window
    return _run_process(cfg, "run", time_grid(0.0, t_final, cfg.output.grid_step))


def execute_run(cfg: RunConfig) -> ProcessResult:
    if cfg.drive.type == "switch_on":
        return run_process_I(cfg)
    if cfg.drive.type == "periodic":
        return run_process_II(cfg)
    return run_plain(cfg)


# -- verification suite ----------------------------------------------------------

def car_defect(max_sites):
    """Worst defect of {a_i, a_j^*} = delta_ij and {a_i, a_j} = 0 for L = 1..max_sites."""
    worst = 0.0
    for n in range(1, max_sites + 1):
        ops = [creation_op(n, s) for s in range(n)]
        eye = np.eye(1 << n)
        for i in range(n):
            ai = ops[i].conj().T
            for j in range(n):
                anti = ai @ ops[j] + ops[j] @ ai
                worst = max(worst, max_abs(anti - (eye if i == j else 0.0)),
                            max_abs(ops[i] @ ops[j] + ops[j] @ ops[i]))
    return worst


def propagator_law_defects(spec, protocol, t_end, mids, tol, w_static):
    """(unitarity, cocycle, dyson, dyson_bound): defects of U(t_end, 0) under
    `protocol`, the worst cocycle split over `mids`, and the Dyson series
    against the direct integrator for the static `w_static` on [0, 1], with
    its bound max(1e-6, 10 * the series' remainder estimate)."""
    h0 = hopping_hamiltonian(spec)
    tdh = TimeDependentHamiltonian(h0, protocol, 0.0, "fock")
    u_full = propagate(tdh, 0.0, t_end, tol).matrix
    cocycle = 0.0
    for mid in mids:
        u1 = propagate(tdh, 0.0, mid, tol)
        u2 = propagate(tdh, mid, t_end, tol)
        cocycle = max(cocycle, max_abs(u_full - u2.matrix @ u1.matrix))
    u_dyson = dyson_propagator(h0, lambda t: w_static, 0.0, 1.0, 8, 1e-10)
    u_direct = propagate(lambda t: h0 + w_static, 0.0, 1.0, 1e-10)
    dyson = max_abs(interaction_to_schrodinger(u_dyson, h0, 0.0, 1.0).matrix
                    - u_direct.matrix)
    return (unitarity_defect(u_full), cocycle, dyson,
            max(1e-6, 10 * u_dyson.est_error))


def random_density(rng, dim):
    """Full-rank random density matrix (normalized complex Wishart)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def klein_minimum(rng, pairs, max_dim):
    """Smallest relative entropy over random density-matrix pairs of dimension
    2..max_dim (Klein's inequality: never below zero)."""
    worst = np.inf
    for _ in range(pairs):
        dim = int(rng.integers(2, max_dim + 1))
        worst = min(worst, relative_entropy(random_density(rng, dim),
                                            random_density(rng, dim)))
    return worst


def two_route_entropy_rate_defect(spec, params, protocol, times, tol):
    """Worst gap between `entropy_rate` and `entropy_rate_decomposed` along the
    exact trajectory sampled at `times`."""
    h0 = hopping_hamiltonian(spec)
    n_op = number_operator(spec)
    tdh = TimeDependentHamiltonian(h0, protocol, times[0], "fock")
    rho = gibbs_state(h0, n_op, params).rho
    steps = propagate_grid(tdh, times, tol)
    worst = 0.0
    for k, t in enumerate(times):
        if k:
            u = steps[k - 1].matrix
            rho = u @ rho @ u.conj().T
        w_t = protocol.operator(t, "fock")
        dw = protocol.d_operator(t, "fock")
        lam_dot = protocol.lam_dot(t)
        h_t = h0 + w_t
        ref = gibbs_state(h_t, n_op, params).rho
        r1 = entropy_rate(rho, ref, dw, lam_dot, w_t, n_op, params)
        r2 = entropy_rate_decomposed(rho, h_t, n_op, params, dw, lam_dot, w_t, ref)
        worst = max(worst, abs(r1 - r2))
    return worst


def first_law_residual(records, params):
    """|Delta U - T Delta S + int dA| over the recorded ledger."""
    return abs((records[-1].U - records[0].U) - delta_entropy(records) / params.beta
               + work_accumulate(records, params)[-1])


def charge_drift(records):
    """max_t |q(t) - q(t0)|."""
    return max(abs(r.q - records[0].q) for r in records)


def entropy_gap(records):
    """min_t S(t) - S(t0): the second law at the start of a process."""
    return min(r.S - records[0].S for r in records)


def path_deviation(exact, quad):
    """Max deviation of any ledger field or probe between two trajectories."""
    fields = ("t", "U", "q", "S", "Sdot", "relS", "work", "G")
    dev = 0.0
    for re_, rq in zip(exact.records, quad.records):
        for name in fields:
            dev = max(dev, abs(getattr(re_, name) - getattr(rq, name)))
    pe, pq = exact.probe_series, quad.probe_series
    if pe.size and pq.size:
        dev = max(dev, float(np.max(np.abs(pe - pq))))
    return dev


def smallness_homogeneity_defect(points, factors):
    """Worst |N(c f) - c N(f)| of the grid norm over `factors`, for the
    oscillator ground state on a `points`-point grid of half-width 8."""
    x, _ = grid_axis(8.0, points)
    f = np.pi**-0.25 * np.exp(-0.5 * x**2)
    return max(abs(grid_norm(c * f) - c * grid_norm(f)) for c in factors)


def run_verify(cfg: RunConfig) -> dict:
    """Execute every module invariant suite and record verdicts.

    Sizes are capped at desk scale regardless of the configured L so the
    suite stays fast; the checks cover CAR conformance, propagator laws,
    entropy identities, the first law, charge conservation, the fast-path
    oracle, Pauli bounds, and smallness-norm homogeneity.
    """
    t_start = time.time()
    spec_cfg = lattice_spec(cfg)
    manifest = _manifest_skeleton(cfg, spec_cfg, "verify")
    rng = np.random.default_rng(cfg.seed)
    params = GibbsParams(cfg.gibbs.beta, cfg.gibbs.mu)
    bc = Boundary(cfg.lattice.boundary)

    worst = car_defect(min(cfg.lattice.L, 6))
    _verdict(manifest, "car_relations", worst <= 1e-12, worst, 1e-12)

    # hopping Hamiltonian structure
    sp = LatticeSpec(min(cfg.lattice.L, 6), bc)
    basis = FockBasis(sp.n_sites)
    h0 = hopping_hamiltonian(sp)
    n_op = number_operator(sp)
    comm = max_abs(h0 @ n_op - n_op @ h0)
    _verdict(manifest, "hopping_charge_commute", comm <= 1e-12, comm, 1e-12)
    # H_0's entries between basis states of different particle numbers
    off = max_abs(h0[basis.popcounts[:, None] != basis.popcounts[None, :]])
    _verdict(manifest, "sector_block_structure", off <= 1e-12, off, 1e-12)

    # gauge automorphism multiplicativity
    dim = basis.dim
    worst = 0.0
    for _ in range(5):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        tau = float(rng.uniform(0, 2 * np.pi))
        lhs = gauge_transform(a @ b, tau, sp.n_sites)
        rhs = gauge_transform(a, tau, sp.n_sites) @ gauge_transform(b, tau, sp.n_sites)
        worst = max(worst, max_abs(lhs - rhs) / max(1.0, max_abs(lhs)))
    _verdict(manifest, "gauge_multiplicative", worst <= 1e-10, worst, 1e-10)

    # propagator laws on a small driven problem
    sp4 = LatticeSpec(4, bc, (1, 2))
    kern = KernelSpec(1, (1, 2), np.array([[0.3, 0.1], [0.1, -0.2]]))
    prot = switch_on_protocol(Perturbation([kern], sp4), 0.0, 0.8, 0.5)
    h04 = hopping_hamiltonian(sp4)
    tol = cfg.integrator.tol
    unit, coc, dy, dy_bound = propagator_law_defects(
        sp4, prot, 1.5, [float(rng.uniform(0.3, 1.2))], tol,
        0.2 * Perturbation([kern], sp4).fock())
    _verdict(manifest, "propagator_unitarity", unit <= 1e-9, unit, 1e-9)
    _verdict(manifest, "cocycle_law", coc <= 10 * tol, coc, 10 * tol)
    _verdict(manifest, "dyson_direct_agreement", dy <= dy_bound, dy, dy_bound)

    # free evolution conserves energy; duality of the two pictures
    rho0 = gibbs_state(h04, number_operator(sp4), params).rho
    u_free = propagate(h04, 0.0, 2.0, tol)
    rho_t = u_free.matrix @ rho0 @ u_free.matrix.conj().T
    e_drift = abs(internal_energy(rho_t, h04) - internal_energy(rho0, h04))
    _verdict(manifest, "free_energy_conservation", e_drift <= 1e-9, e_drift, 1e-9)
    a_obs = Perturbation([kern], sp4).fock()
    dual = abs(expectation(rho_t, a_obs) -
               expectation(rho0, heisenberg_evolve(a_obs, u_free)))
    _verdict(manifest, "heisenberg_schrodinger_duality", dual <= 1e-9, dual, 1e-9)

    worst = klein_minimum(rng, 200, 16)
    _verdict(manifest, "klein_positivity", worst >= -1e-10, worst, -1e-10)

    # driven ledger identities on a short trajectory
    times = time_grid(0.0, 1.0, 0.01)
    traj = exact_trajectory(sp4, params, prot, times, tol)
    _verdict(manifest, "entropy_unitary_invariance",
             traj.entropy_drift <= ENTROPY_DRIFT_BOUND, traj.entropy_drift,
             ENTROPY_DRIFT_BOUND)
    worst = two_route_entropy_rate_defect(sp4, params, prot, times[::20], tol)
    _verdict(manifest, "entropy_rate_two_route", worst <= 1e-8, worst, 1e-8)
    recs = traj.records
    residual = first_law_residual(recs, params)
    _verdict(manifest, "first_law_residual", residual <= 1e-4, residual, 1e-4)
    q_drift = charge_drift(recs)
    _verdict(manifest, "charge_conservation", q_drift <= 1e-8, q_drift, 1e-8)
    gap = entropy_gap(recs)
    _verdict(manifest, "entropy_monotone_start", gap >= -1e-8, gap, -1e-8)

    # fast-path oracle (small L) and Pauli bounds
    if cfg.path in ("quadratic", "both"):
        sp5 = LatticeSpec(5, bc, (1, 2, 3))
        kern5 = KernelSpec(1, (1, 2, 3), _random_symmetric(rng, 3))
        prot5 = switch_on_protocol(Perturbation([kern5], sp5), 0.0, 0.7, 0.3)
        times5 = time_grid(0.0, 1.5, 0.05)
        pairs5 = probe_site_pairs(RunConfig(LatticeConfig(5), cfg.gibbs), sp5)
        te = exact_trajectory(sp5, params, prot5, times5, 1e-10,
                              probe_matrices(pairs5, sp5, "fock"))
        tq = quadratic_trajectory(sp5, params, prot5, times5, 1e-10,
                                  probe_matrices(pairs5, sp5, "one_body"))
        dev = path_deviation(te, tq)
        _verdict(manifest, "oracle_equivalence", dev <= 1e-7, dev, 1e-7)
        pauli = tq.pauli_defect
        _verdict(manifest, "pauli_bounds", pauli <= PAULI_BOUND, pauli, PAULI_BOUND)

    hom = smallness_homogeneity_defect(256, (2.5,))
    _verdict(manifest, "smallness_homogeneity", hom <= 1e-10, hom, 1e-10)

    manifest["timing_seconds"] = time.time() - t_start
    write_outputs(cfg, manifest, {})
    return manifest


def _random_symmetric(rng, m):
    a = rng.normal(size=(m, m))
    return 0.5 * (a + a.T)


# -- sweeps ----------------------------------------------------------------------

SWEEP_AXES = ("beta", "mu", "amplitude")


def _with_axis(cfg: RunConfig, axis, value) -> RunConfig:
    if axis == "beta":
        return replace(cfg, gibbs=replace(cfg.gibbs, beta=float(value)))
    if axis == "mu":
        return replace(cfg, gibbs=replace(cfg.gibbs, mu=float(value)))
    if axis == "amplitude":
        return replace(cfg, drive=replace(cfg.drive, amplitude=float(value)))
    raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")


def run_sweep(cfg: RunConfig, axis, values) -> dict:
    """One child run per axis value; failures are recorded, not fatal.

    Children run concurrently (they share no mutable state); each writes to
    its own subdirectory `<axis>_<value:g>` when an output directory is
    configured. Invalid child configs and values that print alike there are
    refused before any child starts. Returns the sweep index manifest.
    """
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    base_dir = Path(cfg.output.directory) if cfg.output.directory else None
    child_cfgs = [_with_axis(cfg, axis, v) for v in values]
    for child in child_cfgs:
        validate_config(child)
    if base_dir is not None:
        names = [f"{axis}_{v:g}" for v in values]
        clashes = sorted({n for n in names if names.count(n) > 1})
        if clashes:
            raise ConfigError(f"sweep values share output directories {clashes}; "
                              "values must differ within 6 significant digits")
        child_cfgs = [replace(c, output=replace(c.output, directory=str(base_dir / n)))
                      for c, n in zip(child_cfgs, names)]

    def _one(child):
        try:
            result = execute_run(child)
            return {"status": "ok", "passed": result.passed,
                    "summary": result.manifest["summary"],
                    "directory": child.output.directory}
        except Exception as exc:  # recorded, sweep continues
            return {"status": "error", "error": f"{type(exc).__name__}: {exc}",
                    "directory": child.output.directory}

    with ThreadPoolExecutor(max_workers=min(4, len(values))) as pool:
        outcomes = list(pool.map(_one, child_cfgs))

    index = {
        "kind": "sweep",
        "axis": axis,
        "values": [float(v) for v in values],
        "version": __version__,
        "environment": run_environment(),
        "runs": outcomes,
    }
    if base_dir is not None:
        base_dir.mkdir(parents=True, exist_ok=True)
        with open(base_dir / "sweep_index.json", "w") as fh:
            json.dump(index, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
    return index


__all__ = [
    "ConfigError", "RunConfig", "LatticeConfig", "GibbsConfig", "DriveConfig",
    "KernelConfig", "IntegratorConfig", "OutputConfig", "parse_config", "load_config",
    "validate_config", "lattice_spec", "build_protocol", "recurrence_window",
    "probe_site_pairs", "probe_matrices", "time_grid", "IntegratorReport", "Trajectory",
    "exact_trajectory", "quadratic_trajectory", "sdot_bound_coefficient",
    "ProcessResult", "run_process_I",
    "run_process_II", "run_plain", "execute_run", "run_verify", "run_sweep",
    "car_defect", "propagator_law_defects", "random_density",
    "klein_minimum", "two_route_entropy_rate_defect", "first_law_residual",
    "charge_drift", "entropy_gap", "path_deviation", "smallness_homogeneity_defect",
    "manifest_passed", "write_outputs", "run_environment", "V_MAX", "WINDOW_FRACTION",
    "PROCESS1_DECAY_BOUND", "PROCESS1_SDOT_BOUND", "PROCESS2_CYCLE_BOUND",
    "PROCESS2_SPEARMAN_BOUND",
]
