"""Perturbation families and control protocols.

A perturbation is assembled from kernels supported on the lattice's local
region: degree-1 kernels w_ij give sum w_ij a_i^* a_j (also available as an
L x L one-body matrix for the fast path), degree-2 kernels give
sum w_{i1 i2 j1 j2} a_{i1}^* a_{i2}^* a_{j1} a_{j2}. Every built perturbation
is Hermitian, local, and gauge-invariant by construction.

Protocols wrap a control path lambda(t) with its analytic derivative and a
linear map lambda -> W(lambda) = sum_j lambda_j V_j. `certify_drive` reads a
protocol's norms and smallness norm from its kernels alone, so one drive gets
the same certificate at every L.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import smallness
from .lattice import FockBasis, LatticeSpec, ensure_hermitian, one_body_terms, site_index
from .linalg import spectral_norm


@dataclass(frozen=True)
class KernelSpec:
    """Coefficients of one monomial family over local-region sites.

    degree 1: coeffs[a, b] multiplies a_{s_a}^* a_{s_b};
    degree 2: coeffs[a1, a2, b1, b2] multiplies a^*_{s_a1} a^*_{s_a2}
    a_{s_b1} a_{s_b2}. Sites index into the lattice; coefficients are indexed
    by position in `sites`.
    """

    degree: int
    sites: tuple
    coeffs: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sites",
                           tuple(site_index(s, "kernel sites") for s in self.sites))
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if self.degree not in (1, 2):
            raise ValueError(f"kernel degree must be 1 or 2, got {self.degree}")
        m = len(self.sites)
        if len(set(self.sites)) != m:
            raise ValueError("kernel sites must be distinct")
        if c.shape != (m,) * (2 * self.degree):
            raise ValueError(
                f"degree-{self.degree} kernel over {m} sites needs shape "
                f"{(m,) * (2 * self.degree)}, got {c.shape}"
            )

    def validate_support(self, lattice: LatticeSpec):
        outside = [s for s in self.sites if s not in lattice.local_region]
        if outside:
            raise ValueError(f"kernel sites {outside} lie outside the local region")


def _add_one_body(w, kernel):
    """Add a degree-1 kernel's coefficients to the L x L matrix `w` in place."""
    w[np.ix_(kernel.sites, kernel.sites)] += kernel.coeffs
    return w


def build_one_body(kernels: Sequence[KernelSpec], lattice: LatticeSpec):
    """L x L one-body matrix of a purely degree-1 kernel family.

    Exactly real kernels come back as float arrays so the one-particle
    integrator can stay in real arithmetic.
    """
    w = np.zeros((lattice.n_sites, lattice.n_sites), dtype=complex)
    for k in kernels:
        if k.degree != 1:
            raise ValueError("one-body matrix exists only for degree-1 kernels")
        k.validate_support(lattice)
        _add_one_body(w, k)
    w = ensure_hermitian(w, "one-body kernel")
    if not np.any(w.imag):
        return np.ascontiguousarray(w.real)
    return w


def perturbation_terms(kernels: Sequence[KernelSpec], lattice: LatticeSpec):
    """The terms (c, creators, annihilators) of W = sum_N sum w^N a^*..a^* a..a:
    a degree-1 kernel's from its L x L one-body matrix, a degree-2 kernel's
    from its nonzero coefficients in order. Kernels outside the local region raise."""
    for k in kernels:
        k.validate_support(lattice)
        if k.degree == 1:
            yield from one_body_terms(_add_one_body(
                np.zeros((lattice.n_sites,) * 2, dtype=complex), k))
        else:
            for idx in zip(*np.nonzero(k.coeffs)):
                a1, a2, b1, b2 = (k.sites[i] for i in idx)
                yield k.coeffs[idx], (a1, a2), (b1, b2)


def build_perturbation(kernels: Sequence[KernelSpec], lattice: LatticeSpec):
    """W as a dense complex Fock matrix, assembled from its sector blocks."""
    return FockBasis(lattice.n_sites).assemble(Perturbation(kernels, lattice).blocks(), complex)


class Perturbation:
    """A kernel family with lazily built representations.

    `one_body()` is available when every kernel has degree 1; `blocks()`
    gives W's charge-sector blocks, which the exact path reads, and `fock()`
    the dense 2^L matrix (both subject to the exact-path site cap).
    """

    def __init__(self, kernels: Sequence[KernelSpec], lattice: LatticeSpec):
        self.kernels = tuple(kernels)
        self.lattice = lattice
        for k in self.kernels:
            k.validate_support(lattice)
        self._cache = {}

    @property
    def is_quadratic(self):
        return all(k.degree == 1 for k in self.kernels)

    def one_body(self):
        if not self.is_quadratic:
            raise ValueError("perturbation contains degree-2 kernels; no one-body form")
        if "one_body" not in self._cache:
            self._cache["one_body"] = build_one_body(self.kernels, self.lattice)
        return self._cache["one_body"]

    def blocks(self):
        """`FockBasis.blocks` of W's monomials: Hermitian, and gauge-invariant
        since every monomial has as many creators as annihilators."""
        if "blocks" not in self._cache:
            self._cache["blocks"] = FockBasis(self.lattice.n_sites).blocks(
                perturbation_terms(self.kernels, self.lattice), "perturbation")
        return self._cache["blocks"]

    def fock(self):
        if "fock" not in self._cache:
            self._cache["fock"] = build_perturbation(self.kernels, self.lattice)
        return self._cache["fock"]

    def matrix(self, representation):
        if representation == "one_body":
            return self.one_body()
        if representation == "fock":
            return self.fock()
        raise ValueError(f"unknown representation {representation!r}")

    def norm(self):
        """Fock-space operator norm of V.

        A one-body V = sum w_ij a_i^* a_j has the spectrum {sum of the e_k
        over occupied modes k}, e_k the eigenvalues of w, so its norm is
        max(sum e_k^+, -sum e_k^-), read on the rows where w is nonzero. A
        degree-2 V takes the largest norm over its charge-sector blocks.
        """
        if not self.is_quadratic:
            return max(map(spectral_norm, self.blocks()))
        w = self.one_body()
        rows = np.flatnonzero(np.any(w, axis=0))
        e = np.linalg.eigvalsh(w[np.ix_(rows, rows)])
        return float(max(e[e > 0].sum(), -e[e < 0].sum()))


# -- control paths -------------------------------------------------------------

def _smoothstep(u):
    return 3.0 * u**2 - 2.0 * u**3


def _smoothstep_dot(u):
    return 6.0 * u - 6.0 * u**2


def _square_smoothed(tau, period):
    """C^1 square wave: +-1 plateaus with smoothstep ramps of width T/20.

    Transitions are centered at 0 and T/2, so the waveform starts at zero.
    """
    delta = period / 20.0
    tau = tau % period
    if tau < delta / 2:  # rising ramp around 0
        return -1.0 + 2.0 * _smoothstep((tau + delta / 2) / delta)
    if tau < period / 2 - delta / 2:
        return 1.0
    if tau < period / 2 + delta / 2:  # falling ramp around T/2
        return 1.0 - 2.0 * _smoothstep((tau - period / 2 + delta / 2) / delta)
    if tau < period - delta / 2:
        return -1.0
    return -1.0 + 2.0 * _smoothstep((tau - period + delta / 2) / delta)


def _square_smoothed_dot(tau, period):
    delta = period / 20.0
    tau = tau % period
    if tau < delta / 2:
        return 2.0 * _smoothstep_dot((tau + delta / 2) / delta) / delta
    if tau < period / 2 - delta / 2:
        return 0.0
    if tau < period / 2 + delta / 2:
        return -2.0 * _smoothstep_dot((tau - period / 2 + delta / 2) / delta) / delta
    if tau < period - delta / 2:
        return 0.0
    return 2.0 * _smoothstep_dot((tau - period + delta / 2) / delta) / delta


WAVEFORMS = {
    "sin": (lambda tau, T: np.sin(2.0 * np.pi * tau / T),
            lambda tau, T: (2.0 * np.pi / T) * np.cos(2.0 * np.pi * tau / T)),
    "square": (_square_smoothed, _square_smoothed_dot),
}


@dataclass(frozen=True)
class DriveProtocol:
    """Control path lambda(t) plus the linear map lambda -> W(lambda).

    `components` are the V_j of W(lambda) = sum lambda_j V_j. Before t0 the
    perturbation vanishes and lambda is frozen at lambda(t0).
    """

    kind: str  # switch_on | periodic
    t0: float
    control_dim: int
    lam_fn: Callable[[float], np.ndarray]
    lam_dot_fn: Callable[[float], np.ndarray]
    components: tuple
    tau_r: Optional[float] = None
    period: Optional[float] = None
    waveform: Optional[str] = None
    amplitude: float = 1.0

    def lam(self, t):
        if t < self.t0:
            t = self.t0
        return np.atleast_1d(np.asarray(self.lam_fn(t), dtype=float))

    def lam_dot(self, t):
        if t < self.t0:
            return np.zeros(self.control_dim)
        return np.atleast_1d(np.asarray(self.lam_dot_fn(t), dtype=float))

    @property
    def is_quadratic(self):
        return all(c.is_quadratic for c in self.components)

    @property
    def lattice(self):
        return self.components[0].lattice

    def controls(self, t):
        """lambda(t) where the drive acts: zero before t0."""
        return self.lam(t) if t >= self.t0 else np.zeros(self.control_dim)

    def operator(self, t, representation="fock"):
        """W(lambda(t)) in the requested representation (zero before t0)."""
        mats = [c.matrix(representation) for c in self.components]
        return sum((lj * vj for lj, vj in zip(self.controls(t), mats)),
                   np.zeros_like(mats[0]))

    def d_operator(self, t, representation="fock"):
        """[dW/dlambda_j at lambda(t)] in the requested representation."""
        return [c.matrix(representation) for c in self.components]


def switch_on_protocol(w_inf: Perturbation, t0, tau_r, amplitude=1.0):
    """Exponential switch-on toward W_inf: lambda(t) = A(1 - e^{-(t-t0)/tau_r}).

    ||W_t - W_inf|| decays like e^{-(t-t0)/tau_r}, so the switching integral
    int ||W_t - W_inf|| dt equals tau_r * ||W_inf|| in closed form (the
    integrability constant of `certify_drive`).
    """
    if tau_r <= 0:
        raise ValueError("tau_r must be positive")

    def lam(t):
        return np.array([amplitude * -np.expm1(-(t - t0) / tau_r)])

    def lam_dot(t):
        return np.array([amplitude / tau_r * np.exp(-(t - t0) / tau_r)])

    return DriveProtocol(
        kind="switch_on", t0=t0, control_dim=1, lam_fn=lam, lam_dot_fn=lam_dot,
        components=(w_inf,), tau_r=tau_r, amplitude=amplitude,
    )


def periodic_protocol(w_base: Perturbation, period, waveform="sin", t0=0.0,
                      amplitude=1.0):
    """T-periodic drive lambda(t) = A * waveform((t - t0) mod T).

    Periodicity is exact at the level of the reduced phase: lambda is a
    function of (t - t0) mod T only.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    if waveform not in WAVEFORMS:
        raise ValueError(f"waveform must be one of {sorted(WAVEFORMS)}")
    wave, wave_dot = WAVEFORMS[waveform]

    def lam(t):
        return np.array([amplitude * wave((t - t0) % period, period)])

    def lam_dot(t):
        return np.array([amplitude * wave_dot((t - t0) % period, period)])

    return DriveProtocol(
        kind="periodic", t0=t0, control_dim=1, lam_fn=lam, lam_dot_fn=lam_dot,
        components=(w_base,), period=period, waveform=waveform, amplitude=amplitude,
    )


@dataclass(frozen=True)
class DriveCertificate:
    """Where a drive stands against the paper's hypotheses, read from its kernels.

    `smallness` is the aggregate smallness norm, or the reason it could not be
    computed (a kernel whose site bumps leave the grid's box, or a grid too
    coarse to resolve it); `inside_hypothesis` is None then.
    """

    sup_norm: float  # sup_t ||W(lambda(t))|| = |amplitude| * sum_j ||V_j||
    integrability_constant: Optional[float]  # tau_r * sup_norm (switch-on)
    period: Optional[float]
    smallness: Union[float, str]
    smallness_threshold: float
    inside_hypothesis: Optional[bool]


def certify_drive(protocol: DriveProtocol):
    """Norms and smallness of a drive, from its kernels at any L.

    Both protocols have sup_t |lambda(t)| = |amplitude|. Locality and gauge
    invariance hold by construction (`KernelSpec.validate_support`, and equal
    creator and annihilator counts in every monomial), so they are not read.
    """
    scale = abs(protocol.amplitude)
    sup_norm = scale * sum(c.norm() for c in protocol.components)
    terms = [(k.degree, k.coeffs, k.sites) for c in protocol.components for k in c.kernels]
    try:
        report = smallness.smallness_norm(terms, sup_scale=scale)
        value, inside = float(report.value), bool(report.passed)
    except (smallness.KernelOutsideBoxError, smallness.GridTooCoarseError) as exc:
        value, inside = str(exc), None
    return DriveCertificate(
        sup_norm=sup_norm,
        integrability_constant=(protocol.tau_r * sup_norm if protocol.kind == "switch_on"
                                else None),
        period=protocol.period,
        smallness=value,
        smallness_threshold=smallness.SMALLNESS_THRESHOLD,
        inside_hypothesis=inside,
    )


__all__ = [
    "KernelSpec", "Perturbation", "build_one_body", "build_perturbation",
    "perturbation_terms",
    "DriveProtocol", "switch_on_protocol", "periodic_protocol",
    "DriveCertificate", "certify_drive", "WAVEFORMS",
]
