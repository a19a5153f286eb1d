"""Weighted Sobolev-type smallness norm for perturbation kernels.

For f in L^2(R^M) the norm is

    ||f||'_M = 2^{-3M/2} * < f, prod_k (-d^2/dx_k^2 + x_k^2 + 1)^3 f >^{1/2},

discretized on a uniform cell-centered grid over [-box, box]^M with central
second differences and midpoint quadrature; grid doubling supplies a
Richardson error estimate. The aggregate over a kernel family,

    sum_N 2^{5N} * N * sup_t ||w^N(t)||',

is compared against the threshold 1/(24*pi). Lattice kernels are embedded in
the continuum as sums of L^2-normalized Gaussian site bumps, for which the
quadratic form factorizes over axes and only 1-D grids are ever needed.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

SMALLNESS_THRESHOLD = 1.0 / (24.0 * np.pi)

MAX_KERNEL_DEGREE = 2
DEFAULT_BOX = 8.0
DEFAULT_POINTS = 512
#: Richardson estimate above this fraction of the value means the grid is too coarse
RICHARDSON_LIMIT = 0.10


class GridTooCoarseError(ValueError):
    """Grid-doubling error estimate exceeds 10% of the norm value."""


class UnsupportedKernelDegree(ValueError):
    """Kernels of degree >= 3 are outside the supported family."""


class KernelOutsideBoxError(ValueError):
    """A kernel's site bumps do not fit inside the grid's box."""


def grid_axis(box, points):
    """Cell-centered uniform coordinates on [-box, box]: x_i = -b + (i+1/2)*dx."""
    dx = 2.0 * box / points
    return -box + (np.arange(points) + 0.5) * dx, dx


def _apply_axis_operator(f, axis, coords, dx):
    """(-d^2/dx^2 + x^2 + 1) f along one axis; zero beyond the box edges."""
    f = np.moveaxis(f, axis, 0)
    lap = np.zeros_like(f)
    lap[1:-1] = (2.0 * f[1:-1] - f[2:] - f[:-2]) / dx**2
    lap[0] = (2.0 * f[0] - f[1]) / dx**2
    lap[-1] = (2.0 * f[-1] - f[-2]) / dx**2
    shape = (-1,) + (1,) * (f.ndim - 1)
    out = lap + (coords**2 + 1.0).reshape(shape) * f
    return np.moveaxis(out, 0, axis)


def grid_norm(values, box=DEFAULT_BOX):
    """||f||'_M of an M-dimensional sampled kernel (M = values.ndim).

    `values` must be sampled on the cell-centered grid of `grid_axis(box, m)`
    along every axis. No refinement: see `kernel_norm` for the
    Richardson-controlled version.
    """
    f = np.asarray(values, dtype=complex)
    m_dim = f.ndim
    g = f.copy()
    for axis in range(m_dim):
        coords, dx = grid_axis(box, f.shape[axis])
        for _ in range(3):
            g = _apply_axis_operator(g, axis, coords, dx)
    cell = 1.0
    for axis in range(m_dim):
        cell *= 2.0 * box / f.shape[axis]
    quad = float(np.real(np.sum(f.conj() * g))) * cell
    return 2.0 ** (-1.5 * m_dim) * np.sqrt(max(quad, 0.0))


@dataclass(frozen=True)
class NormEstimate:
    value: float
    richardson: float  # |value(fine) - value(coarse)| from grid doubling

    def require_resolved(self):
        if self.value > 0 and self.richardson > RICHARDSON_LIMIT * self.value:
            raise GridTooCoarseError(
                f"grid-doubling estimate {self.richardson:.3e} exceeds 10% of "
                f"the value {self.value:.3e}; refine the grid"
            )
        return self


def kernel_norm(sampler: Callable, ndim, box=DEFAULT_BOX, points=DEFAULT_POINTS):
    """||f||' with a grid-doubling error estimate.

    `sampler(*coordinate_arrays)` must evaluate the kernel on the open
    meshgrid of per-axis coordinates (broadcastable arrays).
    """
    vals = []
    for m in (points, 2 * points):
        axes = [grid_axis(box, m)[0] for _ in range(ndim)]
        mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
        vals.append(grid_norm(sampler(*mesh), box))
    return NormEstimate(vals[1], abs(vals[1] - vals[0])).require_resolved()


# -- lattice-kernel embedding -------------------------------------------------

def site_positions(sites, spacing=1.0):
    """Map lattice sites into the continuum box, centered on their midpoint."""
    s = np.asarray(sites, dtype=float)
    return (s - s.mean()) * spacing


def _bump(coords, center, sigma):
    # L^2-normalized Gaussian centered on a site
    return (np.pi * sigma**2) ** -0.25 * np.exp(-((coords - center) ** 2) / (2.0 * sigma**2))


def _bump_form_matrix(positions, sigma, box, points):
    """S[a,b] = <g_a, (-d^2/dx^2 + x^2 + 1)^3 g_b> on the 1-D grid."""
    coords, dx = grid_axis(box, points)
    bumps = np.stack([_bump(coords, x, sigma) for x in positions])
    ops = bumps.copy()
    for _ in range(3):
        ops = np.stack([_apply_axis_operator(g, 0, coords, dx) for g in ops])
    return (bumps @ ops.T) * dx


def lattice_kernel_norm(coeffs, sites, sigma=0.5, spacing=1.0,
                        box=DEFAULT_BOX, points=DEFAULT_POINTS):
    """||f||' of a lattice kernel embedded as Gaussian site bumps.

    A degree-N kernel w over `sites` becomes
    f(x_1..x_N, y_1..y_N) = sum w[i..,j..] prod g_{x_i} prod g_{y_j}
    (M = 2N coordinates). The separable embedding reduces the quadratic form
    to products of 1-D bump-pair forms, so only 1-D grids are evaluated.
    """
    w = np.asarray(coeffs, dtype=complex)
    if w.ndim % 2 != 0:
        raise ValueError("kernel coefficient tensor must have even rank (creators+annihilators)")
    degree = w.ndim // 2
    if degree > MAX_KERNEL_DEGREE:
        raise UnsupportedKernelDegree(f"degree {degree} kernels unsupported (max {MAX_KERNEL_DEGREE})")
    m_dim = w.ndim
    positions = site_positions(sites, spacing)
    if np.max(np.abs(positions)) > box - 5 * sigma:
        raise KernelOutsideBoxError("site positions too close to the box edge; enlarge box")
    n_sites = len(positions)
    if w.shape != (n_sites,) * m_dim:
        raise ValueError(f"coefficient tensor shape {w.shape} does not match {n_sites} sites")

    def quad_form(pts):
        # <w, S^{(x)M} w>: S contracted along each axis of w in turn
        s_mat = _bump_form_matrix(positions, sigma, box, pts)
        sw = w
        for axis in range(m_dim):
            sw = np.moveaxis(np.tensordot(s_mat, sw, axes=([1], [axis])), 0, axis)
        total = np.vdot(w, sw)
        return 2.0 ** (-1.5 * m_dim) * np.sqrt(max(float(np.real(total)), 0.0))

    coarse, fine = quad_form(points), quad_form(2 * points)
    return NormEstimate(fine, abs(fine - coarse)).require_resolved()


@dataclass(frozen=True)
class SmallnessReport:
    """Aggregate smallness verdict for a kernel family."""

    value: float
    per_term: tuple
    richardson: float
    threshold: float = SMALLNESS_THRESHOLD

    @property
    def passed(self):
        return self.value < self.threshold


def term_weight(degree, sup_scale):
    """2^{5N} N |sup_scale|: the weight of a degree-N term's ||w^N||' in the
    aggregate (the norm is absolutely homogeneous, so only |sup_scale| counts)."""
    return 2.0 ** (5 * degree) * degree * abs(sup_scale)


def smallness_norm(terms: Sequence, sup_scale=1.0, box=DEFAULT_BOX,
                   points=DEFAULT_POINTS, sigma=0.5, spacing=1.0):
    """Aggregate norm sum_N 2^{5N} N sup_t ||w^N(t)||' of a kernel family.

    `terms` is a sequence of (degree, coefficient tensor over sites, sites);
    `sup_scale` is sup_t |lambda(t)| for linearly driven kernels (the sup over
    time factors out of `term_weight`).
    """
    per_term = []
    total = 0.0
    rich = 0.0
    for degree, coeffs, sites in terms:
        if degree > MAX_KERNEL_DEGREE:
            raise UnsupportedKernelDegree(
                f"degree {degree} kernels unsupported (max {MAX_KERNEL_DEGREE})"
            )
        est = lattice_kernel_norm(coeffs, sites, sigma=sigma, spacing=spacing,
                                  box=box, points=points)
        weight = term_weight(degree, sup_scale)
        per_term.append(weight * est.value)
        total += weight * est.value
        rich += weight * est.richardson
    return SmallnessReport(total, tuple(per_term), rich)


__all__ = [
    "SMALLNESS_THRESHOLD", "DEFAULT_BOX", "DEFAULT_POINTS", "GridTooCoarseError",
    "UnsupportedKernelDegree", "KernelOutsideBoxError", "NormEstimate", "grid_axis",
    "grid_norm", "kernel_norm", "lattice_kernel_norm", "site_positions",
    "SmallnessReport", "term_weight", "smallness_norm",
]
