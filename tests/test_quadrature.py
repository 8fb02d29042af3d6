"""Gauss panels, the density rule, sign-split cell sums."""

import math

import mpmath
import numpy as np
import pytest

from xapprox import QuadratureNonConvergence
from xapprox.expkernel import _watson_c1_c3
from xapprox.quadrature import _density_integral, panel_nodes, reduce_cells_abs


def _panel(f, a, b, order=32):
    # one Gauss-Legendre panel over [a, b]
    pts, wts, half = panel_nodes([(a, b)], order)
    return float(f(pts) @ wts) * half[0]


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



def _mp_density_integral(f, sigma, breaks):
    # int_0^inf f(u) u^{-sigma} du at 30 digits; u = v^m, m = 1/(2 - sigma),
    # on [0, 1] takes f(u) u^{-sigma} ~ u^{1-sigma} to v^0 for tanh-sinh
    s = mpmath.mpf(sigma)
    m = 1 / (2 - s)
    head = mpmath.quad(lambda v: f(v**m) * v ** (m * (1 - s) - 1) * m, [0, 1])
    return head + mpmath.quad(lambda u: f(u) * u ** (-s), [1] + breaks + [mpmath.inf])


def _mp_c1(u):
    return mpmath.sech(u / 2) * mpmath.tanh(u / 2) / 4


def _mp_c3(u):
    s, th = mpmath.sech(u / 2), mpmath.tanh(u / 2)
    return -s * th * (5 * s * s - th * th) / 16


@pytest.mark.parametrize("sigma", [0.05, 0.5, 1.0, 1.5, 1.95])
def test_watson_constants_against_mpmath(sigma):
    # the line L1 tail's constants int C^{(k)}(u) u^{-sigma} du, k = 1, 3,
    # C(u) = -(1/2) sech(u/2), as l1_error_mu_quadrature forms them
    vals = _density_integral(lambda u: np.column_stack(_watson_c1_c3(u)),
                             sigma, 0.5, "Watson constants")
    with mpmath.workdps(30):
        for v, f in zip(vals, (_mp_c1, _mp_c3)):
            ref = _mp_density_integral(f, sigma, [4, 16, 64])
            assert abs(float((v - ref) / ref)) <= 1e-14


def test_density_rule_twin_guard_raises_with_its_parameters():
    # poles at 6 +- 0.1i, off the imaginary axis and well inside the panel
    # [4, 8]: orders 16 and 24 disagree
    g = lambda lam: lam / ((lam - 6.0) ** 2 + 0.01)
    with pytest.raises(QuadratureNonConvergence,
                       match=r"^spiked test integrand, sigma=0\.5: twin rules give \S+ and \S+$"):
        _density_integral(g, 0.5, 0.5, "spiked test integrand")
    # a vector of integrands names the worst one; a nan raises too
    with pytest.raises(QuadratureNonConvergence, match="sigma=1.5"):
        _density_integral(lambda lam: np.column_stack([lam * np.exp(-lam), g(lam)]),
                          1.5, 0.5, "pair")
    with pytest.raises(QuadratureNonConvergence, match="sigma=1"):
        _density_integral(lambda lam: np.where(lam > 30.0, np.nan, lam * np.exp(-lam)),
                          1.0, 0.5, "nan tail")
    # the same rule on a pole-free integrand: int lam e^{-lam} lam^{-1/2} = Gamma(3/2)
    val = _density_integral(lambda lam: lam * np.exp(-lam), 0.5, 1.0, "gamma")
    assert val == pytest.approx(math.gamma(1.5), rel=1e-15)
