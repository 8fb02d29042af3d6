"""Gauss panels, the sign-constant cells, the density rule."""

import math

import mpmath
import numpy as np
import pytest

from xapprox import QuadratureNonConvergence
from xapprox.expkernel import _watson_c1_c3
from xapprox.quadrature import _cell_rule, _density_integral, _leggauss, _panel_rule
from xapprox.series import _cell_operator


def _panel(f, a, b, order=32):
    # one Gauss-Legendre panel over [a, b]
    pts, wts = _panel_rule([a, b], order)
    return float(f(pts) @ wts)


def test_leggauss_has_numpys_bits():
    # the rule is numpy 2.4's leggauss written out, its grouping kept; an
    # older numpy's legval groups its recurrence apart, so there the rule
    # agrees to rounding only.  Every order the library uses (16, 24, 32)
    # lies in 2..79
    from numpy.polynomial.legendre import leggauss

    bitwise = np.lib.NumpyVersion(np.__version__) >= "2.4.0"
    for n in range(2, 80):
        got, want = _leggauss(n), leggauss(n)
        for g, w in zip(got, want):
            assert not g.flags.writeable
            if bitwise:
                assert g.tobytes() == w.tobytes(), n
            else:
                assert np.max(np.abs(g - w)) <= 1e-15, n


# in a fresh process, after each call, numpy.polynomial must not be loaded
# (importing it costs 2-4 ms); numpy 1.x imports it with numpy itself
_NO_POLYNOMIAL = r"""
import sys
import numpy
if "numpy.polynomial" in sys.modules:
    print("loaded with numpy")
    sys.exit()
import xapprox as X
for call in ("X.error_exp_integral_oracle(1.0, 1.3)",
             "X.l1_error_mu_quadrature(X.HaarLog())",
             "X.build_k_mu(X.HaarLog(), 4)"):
    eval(call)
    assert "numpy.polynomial" not in sys.modules, call
"""


def test_gauss_rules_do_not_import_numpy_polynomial(fresh_python):
    if fresh_python("-c", _NO_POLYNOMIAL).stdout.strip() == "loaded with numpy":
        pytest.skip("this numpy imports numpy.polynomial with itself")


def test_gauss_panel_polynomial_exactness():
    # order 32 integrates degree-63 polynomials exactly
    f = lambda x: x**63 + 3.0 * x**10
    exact = (2.0**64 - 1.0) / 64.0 + 3.0 * (2.0**11 - 1.0) / 11.0
    assert _panel(f, 1.0, 2.0) == pytest.approx(exact, rel=1e-14)


def test_gauss_panel_orientation_and_scaling():
    val = _panel(np.sin, 0.0, math.pi)
    assert val == pytest.approx(2.0, rel=1e-13)


def test_panel_rule_sign_split():
    # |sin| over [0, 2 pi] = 4, panels split at the sign change
    pts, wts = _panel_rule([0.0, math.pi, 2.0 * math.pi], 32)
    per_cell = (np.sin(pts) * wts).reshape(2, 32).sum(axis=1)
    assert np.sum(np.abs(per_cell)) == pytest.approx(4.0, rel=1e-13, abs=0.0)
    # without the interior edge the signed halves cancel
    pts, wts = _panel_rule([0.0, 2.0 * math.pi], 32)
    assert abs(np.sin(pts) @ wts) < 1e-12


@pytest.mark.parametrize("K", [0, 1, 7, 50, 200])
def test_cell_rule_is_the_cell_operators_rule(K):
    # one row per cell [0, 1/2], [1/2, 3/2], .., [K - 1/2, K + 1/2]: the
    # nodes inside it, the weights summing to its width; the arrays are
    # those of the line's cached operator, bit for bit
    pts, W = _cell_rule(K)
    assert pts.shape == W.shape == (K + 1, 32)
    lo = np.r_[0.0, np.arange(K) + 0.5]
    assert np.all((pts > lo[:, None]) & (pts < lo[:, None] + W.sum(axis=1)[:, None]))
    np.testing.assert_allclose(W.sum(axis=1), np.r_[0.5, np.ones(K)], rtol=1e-15, atol=0.0)
    op_pts, op_W, _ = _cell_operator(K)
    assert pts.tobytes() == op_pts.tobytes() and W.tobytes() == op_W.tobytes()
    # not cached: a caller may scale its own copy
    assert pts.flags.writeable and _cell_rule(K)[0] is not pts



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
