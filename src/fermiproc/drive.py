"""Perturbation families and control protocols.

A perturbation is assembled from kernels supported on the lattice's local
region: degree-1 kernels w_ij give sum w_ij a_i^* a_j (also available as an
L x L one-body matrix for the fast path), degree-2 kernels give
sum w_{i1 i2 j1 j2} a_{i1}^* a_{i2}^* a_{j1} a_{j2}. Every built perturbation
is Hermitian, local, and gauge-invariant by construction.

Protocols wrap a control path lambda(t) with its analytic derivative and a
linear map lambda -> W(lambda) = sum_j lambda_j V_j.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import smallness
from .smallness import SmallnessReport
from .lattice import (LatticeSpec, _monomial, ensure_hermitian, is_gauge_invariant,
                      locality_defect, quadratic_fock_operator, site_index)
from .linalg import max_abs, spectral_norm


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


def build_perturbation(kernels: Sequence[KernelSpec], lattice: LatticeSpec):
    """Full Fock-space matrix W = sum_N sum w^N a^*..a^* a..a.

    Each degree-2 monomial's entries are scattered into W from their
    `_monomial` triplets, with no 2^L x 2^L temporary per coefficient.
    Hermitian, supported on the local region, and gauge-invariant (equal
    creator/annihilator counts per monomial); violations raise.
    """
    dim = lattice.fock_dim
    w = np.zeros((dim, dim), dtype=complex)
    for k in kernels:
        k.validate_support(lattice)
        if k.degree == 1:
            one = _add_one_body(np.zeros((lattice.n_sites,) * 2, dtype=complex), k)
            w += quadratic_fock_operator(lattice, one)
        else:
            for idx in zip(*np.nonzero(k.coeffs)):
                a1, a2, b1, b2 = (k.sites[i] for i in idx)
                rows, cols, signs = _monomial(lattice.n_sites, (a1, a2), (b1, b2))
                w[rows, cols] += k.coeffs[idx] * signs
    w = ensure_hermitian(w, "perturbation")
    if not is_gauge_invariant(w, 1e-10, lattice.n_sites):
        raise ValueError("built perturbation is not gauge-invariant")
    return w


class Perturbation:
    """A kernel family with lazily built representations.

    `one_body()` is available when every kernel has degree 1; `fock()` builds
    the full 2^L matrix (subject to the exact-path site cap).
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

    def norm(self, representation="one_body"):
        if representation == "one_body" and self.is_quadratic:
            return spectral_norm(self.one_body())
        return spectral_norm(self.fock())


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
    amplitude: Optional[float] = None

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

    def sup_lambda(self, horizon=None):
        """sup_t |lambda_j(t)| per component, over [t0, t0 + horizon]."""
        if self.kind == "switch_on":
            t_eval = self.t0 + (1e9 if horizon is None else horizon)
            return np.abs(self.lam(t_eval))
        taus = np.linspace(0.0, self.period, 513)
        return np.max([np.abs(self.lam(self.t0 + x)) for x in taus], axis=0)


def switch_on_protocol(w_inf: Perturbation, t0, tau_r, amplitude=1.0):
    """Exponential switch-on toward W_inf: lambda(t) = A(1 - e^{-(t-t0)/tau_r}).

    ||W_t - W_inf|| decays like e^{-(t-t0)/tau_r}, so the switching integral
    int ||W_t - W_inf|| dt equals tau_r * ||W_inf|| in closed form (reported
    by `certify_drive`).
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
    """Numerical certification of a protocol against its declared properties."""

    locality_defect: float
    locality_ok: bool
    gauge_invariant: bool
    charge_conserving: bool
    sup_norm: float
    integrability_constant: Optional[float] = None
    period: Optional[float] = None
    smallness: Optional[SmallnessReport] = None
    notes: tuple = ()


def certify_drive(protocol: DriveProtocol, lattice: LatticeSpec,
                  sample_times=None, locality_tol=1e-10,
                  smallness_points=smallness.DEFAULT_POINTS):
    """Check locality, gauge invariance, norms, and smallness of a drive.

    The locality and gauge checks run on the Fock representation when the
    lattice is within the exact-path cap, otherwise on the one-body support
    pattern. Failures are reported in the certificate, not raised.
    """
    notes = []
    exact_scale = lattice.n_sites <= 10
    horizon = 8.0 * (protocol.tau_r or 0.0) + 2.0 * (protocol.period or 0.0) or 10.0
    if sample_times is None:
        sample_times = protocol.t0 + np.linspace(0.0, horizon, 17)

    if not exact_scale and not protocol.is_quadratic:
        raise ValueError(
            "certification of non-quadratic drives needs the Fock representation; "
            f"L={lattice.n_sites} is beyond exact-path certification scale"
        )
    sup_w = 0.0
    gauge_ok = True
    loc_defect = 0.0
    region = set(lattice.local_region)
    for t in sample_times:
        if exact_scale:
            w = protocol.operator(t, "fock")
            sup_w = max(sup_w, spectral_norm(w))
            gauge_ok &= bool(is_gauge_invariant(w, 1e-10, lattice.n_sites))
            # kernels build parity-even operators, for which the embed round
            # trip of `locality_defect` is unambiguous (it raises otherwise)
            loc_defect = max(loc_defect, locality_defect(w, lattice))
        else:
            w = protocol.operator(t, "one_body")
            sup_w = max(sup_w, spectral_norm(w))
            mask = np.ones_like(w, dtype=bool)
            for i in region:
                for j in region:
                    mask[i, j] = False
            loc_defect = max(loc_defect, max_abs(np.where(mask, w, 0.0)))
    if not exact_scale:
        notes.append("locality and gauge checks ran on the one-body representation; "
                     "one-body kernels are gauge-invariant by construction")

    integrability = None
    if protocol.kind == "switch_on":
        w_inf_norm = sum(
            abs(protocol.amplitude or 1.0) * c.norm("one_body" if not exact_scale else "fock")
            for c in protocol.components
        )
        integrability = protocol.tau_r * w_inf_norm
        sup_w = max(sup_w, w_inf_norm)

    small = None
    if protocol.is_quadratic:
        sup_scale = float(np.max(protocol.sup_lambda()))
        terms = [(k.degree, k.coeffs, k.sites)
                 for c in protocol.components for k in c.kernels]
        small = smallness.smallness_norm(terms, sup_scale=sup_scale,
                                         points=smallness_points)

    return DriveCertificate(
        locality_defect=loc_defect,
        locality_ok=loc_defect <= locality_tol,
        gauge_invariant=gauge_ok,
        charge_conserving=gauge_ok,
        sup_norm=sup_w,
        integrability_constant=integrability,
        period=protocol.period,
        smallness=small,
        notes=tuple(notes),
    )


__all__ = [
    "KernelSpec", "Perturbation", "build_one_body", "build_perturbation",
    "DriveProtocol", "switch_on_protocol", "periodic_protocol",
    "DriveCertificate", "certify_drive", "WAVEFORMS",
]
