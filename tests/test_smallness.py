"""Weighted Sobolev norm of perturbation kernels."""

import functools
import itertools

import numpy as np
import pytest

from fermiproc.smallness import (DEFAULT_BOX, GridTooCoarseError, SMALLNESS_THRESHOLD,
                                 UnsupportedKernelDegree, _bump_form_matrix, grid_axis, grid_norm,
                                 kernel_norm, lattice_kernel_norm, site_positions,
                                 smallness_norm)


def hermite0(*axes):
    return functools.reduce(np.multiply,
                            [np.pi**-0.25 * np.exp(-0.5 * np.asarray(x) ** 2)
                             for x in axes])


def test_zero_kernel():
    x, _ = grid_axis(DEFAULT_BOX, 128)
    assert grid_norm(np.zeros_like(x)) == 0.0


def test_harmonic_ground_state_unit_norm():
    # (-d^2/dx^2 + x^2 + 1) f = 2 f for the oscillator ground state, so the
    # cubed quadratic form is 8 ||f||^2 and the norm is exactly 1
    est = kernel_norm(hermite0, 1)
    assert est.value == pytest.approx(1.0, rel=1e-2)
    assert est.richardson < 0.01 * est.value


def test_harmonic_ground_state_2d():
    est = kernel_norm(hermite0, 2, points=256)
    assert est.value == pytest.approx(1.0, rel=1e-2)


def test_grid_doubling_stability():
    vals = []
    for pts in (512, 1024):
        x, _ = grid_axis(DEFAULT_BOX, pts)
        vals.append(grid_norm(hermite0(x)))
    assert abs(vals[1] - vals[0]) < 0.01 * vals[1]


def test_absolute_homogeneity():
    x, _ = grid_axis(DEFAULT_BOX, 512)
    f = hermite0(x)
    for c in (2.0, 0.3, 7.5):
        assert abs(grid_norm(c * f) - c * grid_norm(f)) <= 1e-10


def test_too_coarse_grid_rejected():
    # a sharply peaked kernel on a handful of points cannot be resolved
    with pytest.raises(GridTooCoarseError):
        kernel_norm(lambda x: np.exp(-50.0 * np.asarray(x) ** 2), 1, points=8)


def test_lattice_kernel_norm_matches_direct_grid():
    # separable Gaussian-bump route against the direct 2-D grid evaluation
    sites = (0, 1, 2)
    coeffs = np.array([[0.5, 0.2, 0.0], [0.2, -0.3, 0.1], [0.0, 0.1, 0.4]])
    sigma = 0.5
    positions = site_positions(sites)
    est_fast = lattice_kernel_norm(coeffs, sites, sigma=sigma, points=512)

    def sampler(x, y):
        out = np.zeros(np.broadcast(x, y).shape)
        for a, xa in enumerate(positions):
            for b, xb in enumerate(positions):
                if coeffs[a, b] == 0:
                    continue
                bump_a = (np.pi * sigma**2) ** -0.25 * np.exp(-((x - xa) ** 2) / (2 * sigma**2))
                bump_b = (np.pi * sigma**2) ** -0.25 * np.exp(-((y - xb) ** 2) / (2 * sigma**2))
                out = out + coeffs[a, b] * bump_a * bump_b
        return out

    est_direct = kernel_norm(sampler, 2, points=512)
    assert est_fast.value == pytest.approx(est_direct.value, rel=1e-6)


def test_lattice_kernel_homogeneity():
    coeffs = np.array([[0.4, 0.1], [0.1, -0.2]])
    base = lattice_kernel_norm(coeffs, (0, 1)).value
    scaled = lattice_kernel_norm(3.0 * coeffs, (0, 1)).value
    assert abs(scaled - 3.0 * base) <= 1e-10


def test_degree_two_kernel_supported():
    w = np.zeros((2, 2, 2, 2))
    w[0, 1, 1, 0] = 0.05
    w[1, 0, 0, 1] = 0.05
    est = lattice_kernel_norm(w, (0, 1), points=256)
    assert est.value > 0

    # a non-symmetric 3-site kernel against the explicit pair sum
    # sum_{a,b} conj(w_a) w_b prod_k S[a_k, b_k] on the fine grid
    rng = np.random.default_rng(11)
    w = rng.normal(size=(3,) * 4) + 1j * rng.normal(size=(3,) * 4)
    sites = (0, 1, 2)
    est = lattice_kernel_norm(w, sites, points=256)
    s_mat = _bump_form_matrix(site_positions(sites), 0.5, DEFAULT_BOX, 512)
    total = 0.0
    for idx_a in itertools.product(range(3), repeat=4):
        for idx_b in itertools.product(range(3), repeat=4):
            total += (np.conj(w[idx_a]) * w[idx_b]
                      * np.prod([s_mat[i, j] for i, j in zip(idx_a, idx_b)]))
    expected = 2.0 ** -6 * np.sqrt(total.real)
    assert abs(est.value - expected) <= 1e-12 * expected


def test_degree_three_rejected():
    with pytest.raises(UnsupportedKernelDegree):
        lattice_kernel_norm(np.zeros((1,) * 6), (0,))
    with pytest.raises(UnsupportedKernelDegree):
        smallness_norm([(3, np.zeros((1,) * 6), (0,))])


def test_smallness_aggregate_and_threshold():
    tiny = np.array([[1e-5, 0.0], [0.0, -1e-5]])
    report = smallness_norm([(1, tiny, (0, 1))], sup_scale=1.0, points=256)
    assert report.passed
    assert report.value == pytest.approx(2.0**5 * 1.0 * lattice_kernel_norm(
        tiny, (0, 1), points=256).value, rel=1e-12)
    big = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert not smallness_norm([(1, big, (0, 1))], points=256).passed
    assert SMALLNESS_THRESHOLD == pytest.approx(0.013263, abs=5e-7)


def test_sup_scale_factors_out():
    coeffs = np.array([[0.3, 0.0], [0.0, -0.3]])
    r1 = smallness_norm([(1, coeffs, (0, 1))], sup_scale=0.25, points=256)
    r2 = smallness_norm([(1, coeffs, (0, 1))], sup_scale=1.0, points=256)
    assert r1.value == pytest.approx(0.25 * r2.value, rel=1e-12)
