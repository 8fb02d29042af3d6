"""The cached cell operator of the line L1 quadratures against the
pointwise route it replaced: a Gauss sum over the series at every panel
node, cell by cell."""

import math

import numpy as np
import pytest

from xapprox import (
    EntireApproximant,
    ExpKernel,
    HaarLog,
    PowerSigma,
    QuadratureNonConvergence,
    eval_K,
    eval_K_mu,
    f_mu,
    l1_error_exp_quadrature,
    l1_error_mu_quadrature,
)
from xapprox.expkernel import _watson_c1_c3, l1_tail_exp
from xapprox.quadrature import _cell_rule, _density_integral
from xapprox.series import _cardinal_sum, _cell_operator


def _exp_pointwise(lam_p, delta):
    # eval_K at every node of 201 panels in w units, then a sum of |cells|
    pts, W = _cell_rule(200)
    vals = np.exp(-lam_p * pts) - eval_K(ExpKernel(lam_p), pts.ravel()).reshape(pts.shape)
    body = np.sum(np.abs(np.einsum("cj,cj->c", W, vals)))
    return (2.0 * body + 2.0 * l1_tail_exp(lam_p, 200.5)) / delta


def _mu_pointwise(spec, delta):
    # the raw approximant at every node of 51 panels in x units, the first
    # cell's target integrated exactly, and the Watson tail at 50 + 1/2
    pts, W = _cell_rule(50)
    pts, W = pts / delta, W / delta
    raw = eval_K_mu(EntireApproximant(spec, delta), pts.ravel()).reshape(pts.shape)
    body = np.sum(np.abs(np.einsum("cj,cj->c", W[1:], f_mu(spec, pts[1:]) - raw[1:])))
    body += abs(spec.cell0_integral(0.5 / delta) - W[0] @ raw[0])
    sigma = spec.density_power
    c2, c4 = delta ** (1.0 - sigma) * _density_integral(
        lambda u: np.column_stack(_watson_c1_c3(u)), sigma, 0.5, "Watson constants")
    tail = (4.0 / math.pi**2) * (c2 / 50.5 + c4 / (3.0 * 50.5**3)) / delta
    return 2.0 * body + 2.0 * tail


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("lam_p", [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0])
def test_exp_operator_matches_pointwise_route(lam_p, delta):
    new = l1_error_exp_quadrature(lam_p * delta, delta)
    assert new == pytest.approx(_exp_pointwise(lam_p, delta), rel=1e-13, abs=0.0)


# the raw forms in e = sigma - 1 keep both routes within 2.4e-14 at
# sigma = 0.999 and 1.001 and 9.4e-14 at 1.95, inside these 1e-11 bounds
@pytest.mark.parametrize("delta", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("spec, rel", [
    (HaarLog(), 1e-13),
    (PowerSigma(0.05), 1e-13),
    (PowerSigma(0.5), 1e-13),
    (PowerSigma(1.5), 1e-13),
    (PowerSigma(0.999), 1e-11),
    (PowerSigma(1.001), 1e-11),
    (PowerSigma(1.95), 1e-11),
])
def test_mu_operator_matches_pointwise_route(spec, rel, delta):
    new = l1_error_mu_quadrature(spec, delta)
    assert new == pytest.approx(_mu_pointwise(spec, delta), rel=rel, abs=0.0)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_exp_quadrature_rejects_bad_lambda(lam):
    with pytest.raises(ValueError):
        l1_error_exp_quadrature(lam)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
def test_exp_quadrature_rejects_bad_delta(delta):
    with pytest.raises(ValueError, match="delta"):
        l1_error_exp_quadrature(1.0, delta)


@pytest.mark.parametrize("lam, delta", [(5e-324, 1.0), (1e-300, 1e300), (1e300, 1e-300)])
def test_exp_quadrature_raises_on_a_non_finite_result(lam, delta):
    # lam/delta underflows, overflows, or the tail's e^{-lam' T}/lam' does
    with pytest.raises(QuadratureNonConvergence, match="lam="):
        l1_error_exp_quadrature(lam, delta)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
def test_mu_quadrature_rejects_bad_delta(delta):
    with pytest.raises(ValueError):
        l1_error_mu_quadrature(HaarLog(), delta)


def test_operator_rows_are_gauss_sums_of_the_series():
    pts, W, M = _cell_operator(50)
    assert pts.shape == W.shape == (51, 32) and M.shape == (51, 83)
    xi = np.arange(83) + 0.5
    for phi in (lambda x: np.exp(-0.3 * x), lambda x: -np.log(x), lambda x: x ** -0.5):
        direct = (W * _cardinal_sum(phi, pts.ravel()).reshape(W.shape)).sum(axis=1)
        np.testing.assert_allclose(M @ phi(xi), direct, rtol=0.0, atol=1e-14)


def test_operator_is_cached_and_read_only():
    first = _cell_operator(50)
    hits = _cell_operator.cache_info().hits
    again = _cell_operator(50)
    assert _cell_operator.cache_info().hits == hits + 1
    assert all(a is b for a, b in zip(first, again))
    for a in first:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def test_cold_exp_quadrature_memory_peak(fresh_python):
    # a fresh process, so the operator is built inside the traced call; the
    # name is resolved first, so its modules are imported outside the window
    script = ("import tracemalloc, xapprox as X\n"
              "quad = X.l1_error_exp_quadrature\n"
              "tracemalloc.start()\n"
              "quad(1.0)\n"
              "print(tracemalloc.get_traced_memory()[1])\n")
    assert int(fresh_python("-c", script).stdout) < 3 * 2**20
