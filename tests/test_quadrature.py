"""Ray integrals, Gauss panels, sign-split cell sums."""

import math

import numpy as np
import pytest

from xapprox import QuadratureNonConvergence, integrate_ray
from xapprox.quadrature import panel_nodes, reduce_cells_abs


def _panel(f, a, b, order=32):
    # one Gauss-Legendre panel over [a, b]
    pts, wts, half = panel_nodes([(a, b)], order)
    return float(f(pts) @ wts) * half[0]


def test_integrate_ray_exponential():
    assert integrate_ray(lambda x: np.exp(-x)) == pytest.approx(1.0, abs=1e-12)


def test_integrate_ray_endpoint_singularity():
    # integrable x^{-1/2} singularity at the left endpoint
    val = integrate_ray(lambda x: np.exp(-x) / np.sqrt(x))
    assert val == pytest.approx(math.sqrt(math.pi), abs=1e-10)


def test_integrate_ray_slow_tail_needs_bigger_cut():
    # decay rate 0.01: default tail_cut=50 truncates at e^{-0.5}
    f = lambda x: 0.01 * np.exp(-0.01 * x)
    val = integrate_ray(f, tail_cut=4000.0)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_integrate_ray_divergent_raises():
    with pytest.raises(QuadratureNonConvergence):
        integrate_ray(lambda x: 1.0 / (1.0 + x))


def test_gauss_panel_polynomial_exactness():
    # order 32 integrates degree-63 polynomials exactly
    f = lambda x: x**63 + 3.0 * x**10
    exact = (2.0**64 - 1.0) / 64.0 + 3.0 * (2.0**11 - 1.0) / 11.0
    assert _panel(f, 1.0, 2.0) == pytest.approx(exact, rel=1e-14)


def test_gauss_panel_orientation_and_scaling():
    val = _panel(np.sin, 0.0, math.pi)
    assert val == pytest.approx(2.0, rel=1e-13)


def test_reduce_cells_abs_sign_split():
    # |sin| over [0, 2 pi] = 4, cells at the sign changes
    pts, wts, half = panel_nodes([(0.0, math.pi), (math.pi, 2.0 * math.pi)])
    assert reduce_cells_abs(np.sin(pts), wts, half, 32) == pytest.approx(4.0, rel=1e-13)
    # without the interior node the signed halves cancel
    pts, wts, half = panel_nodes([(0.0, 2.0 * math.pi)])
    assert abs(reduce_cells_abs(np.sin(pts), wts, half, 32)) < 1e-12

