"""Measure-integrated entire approximants: values and errors."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from xapprox import (
    DivergentAtZero,
    EntireApproximant,
    HaarLog,
    PointMasses,
    PowerSigma,
    QuadratureNonConvergence,
    TargetForm,
    error_mu_pointwise,
    eval_K_mu,
    f_mu,
    l1_error_mu,
    l1_error_mu_quadrature,
    l1_error_mu_raw,
)
from xapprox import quadrature
from xapprox.series import _cardinal_sum, _dilate, catalan
from test_series import _node_series

HAAR_LOG = EntireApproximant(HaarLog(), 1.0, TargetForm.LOG)


def test_approximant_validation():
    with pytest.raises(ValueError):
        EntireApproximant(HaarLog(), -1.0)
    with pytest.raises(ValueError):
        EntireApproximant(PowerSigma(0.5), 1.0, TargetForm.LOG)
    with pytest.raises(ValueError):
        EntireApproximant(HaarLog(), 1.0, TargetForm.POWER)
    with pytest.raises(Exception):
        EntireApproximant(PowerSigma(1.0), 1.0)


def test_log_approximant_frozen_values(ref):
    for row in ref["log_approx_samples"]:
        assert eval_K_mu(HAAR_LOG, row["x"]) == pytest.approx(row["value"],
                                                              abs=1e-9)


def test_log_approximant_interpolates():
    for m in (0.5, 1.5, 4.5, 9.5):
        assert eval_K_mu(HAAR_LOG, m) == pytest.approx(math.log(m), abs=1e-12)


def test_log_approximant_even_and_complex_consistent():
    v = eval_K_mu(HAAR_LOG, 0.7)
    assert eval_K_mu(HAAR_LOG, -0.7) == pytest.approx(v, abs=1e-12)
    vc = eval_K_mu(HAAR_LOG, 0.7 + 0.0j)
    assert isinstance(vc, complex)
    assert vc.real == pytest.approx(v, abs=1e-8)
    assert abs(vc.imag) < 1e-8


def test_power_approximant_frozen_values(ref):
    for row in ref["power_approx_samples"]:
        a = EntireApproximant(PowerSigma(row["sigma"]), 1.0, TargetForm.POWER)
        assert eval_K_mu(a, row["x"]) == pytest.approx(row["value"], abs=1e-9)


def test_power_approximant_interpolates():
    for sigma in (0.5, 1.5):
        a = EntireApproximant(PowerSigma(sigma), 1.0, TargetForm.POWER)
        for m in (0.5, 2.5):
            assert eval_K_mu(a, m) == pytest.approx(m ** (sigma - 1.0), abs=1e-11)


def test_point_mass_frozen_value(ref):
    row = ref["point_mass_sample"]
    spec = PointMasses(tuple(tuple(m) for m in row["masses"]))
    a = EntireApproximant(spec, 1.0, TargetForm.RAW)
    assert eval_K_mu(a, row["x"]) == pytest.approx(row["value"], abs=1e-11)


def test_dilated_interpolation_nodes():
    # delta = 2: nodes are (n - 1/2)/2
    a = EntireApproximant(HaarLog(), 2.0, TargetForm.RAW)
    for node in (0.25, 0.75, 1.75):
        assert eval_K_mu(a, node) == pytest.approx(f_mu(HaarLog(), node), abs=1e-10)


def test_raw_vs_presented_forms_are_affine():
    spec = PowerSigma(0.5)
    raw = eval_K_mu(EntireApproximant(spec, 1.0, TargetForm.RAW), 0.8)
    pres = eval_K_mu(EntireApproximant(spec, 1.0, TargetForm.POWER), 0.8)
    assert pres == pytest.approx(raw / math.gamma(0.5) + 1.0, rel=1e-13)


def _direct_error(a, x):
    # target minus approximant, for an approximant in its natural form
    return float(a.spec.natural_target(np.array([abs(x)]))[0]) - eval_K_mu(a, x)


def test_pointwise_error_matches_direct_difference():
    x = 0.3
    direct = math.log(x) - eval_K_mu(HAAR_LOG, x)
    oracle = error_mu_pointwise(HAAR_LOG, x)
    assert oracle == pytest.approx(direct, abs=1e-12)

    a = EntireApproximant(PowerSigma(1.5), 1.0, TargetForm.POWER)
    direct = 0.7 ** 0.5 - eval_K_mu(a, 0.7)
    assert error_mu_pointwise(a, 0.7) == pytest.approx(direct, abs=1e-12)


def test_pointwise_error_point_masses():
    spec = PointMasses(((1.0, 1.0), (2.0, 0.5)))
    a = EntireApproximant(spec, 1.0, TargetForm.RAW)
    direct = f_mu(spec, 1.1) - eval_K_mu(a, 1.1)
    assert error_mu_pointwise(a, 1.1) == pytest.approx(direct, abs=1e-10)


def test_pointwise_error_near_sigma_two_without_warning():
    # the lam^{-1.95} endpoint is the Gauss-Jacobi weight's: no warning, and
    # the value of the direct difference
    a = EntireApproximant(PowerSigma(1.95), 1.0, TargetForm.POWER)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.3, 2.2):
            assert error_mu_pointwise(a, x) == pytest.approx(_direct_error(a, x), abs=1e-12)


@pytest.mark.parametrize("spec", [HaarLog()] + [PowerSigma(s) for s in
                                                (0.05, 0.5, 0.999, 1.001, 1.5, 1.95)],
                         ids=repr)
def test_pointwise_error_grid(spec):
    for delta in (0.5, 1.0, 2.0):
        a = EntireApproximant(spec, delta, spec.form)
        for x in (0.05, 0.3, 0.7, 2.2, 7.1, 50.0):
            assert error_mu_pointwise(a, x) == pytest.approx(_direct_error(a, x), abs=1e-12)


def test_pointwise_error_rejects_non_finite_x():
    for spec in (HaarLog(), PowerSigma(1.5), PointMasses(((1.0, 1.0),))):
        a = EntireApproximant(spec, 1.0)
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                error_mu_pointwise(a, x)


def test_pointwise_error_raises_when_twin_rules_disagree(monkeypatch):
    # a two-node twin of the density rule cannot reach the 1e-10 agreement
    monkeypatch.setattr(quadrature, "_DENSITY_ORDERS", (16, 2))
    for x in (0.7, 0.0):
        a = EntireApproximant(PowerSigma(1.5), 1.0, TargetForm.POWER)
        with pytest.raises(QuadratureNonConvergence):
            error_mu_pointwise(a, x)


@pytest.mark.parametrize("spec, x", [(HaarLog(), 0.3), (PowerSigma(1.5), 2.2),
                                     (PowerSigma(0.05), 0.01), (HaarLog(), 50.0),
                                     (HaarLog(), 5000.0), (PowerSigma(0.5), 5000.0)],
                         ids=repr)
def test_pointwise_error_memory_peak(spec, x):
    # the cached node tables are built by the first call, outside the window;
    # at large x the panels' node data stop where e^{-l xi} underflows
    a = EntireApproximant(spec, 1.0, spec.form)
    error_mu_pointwise(a, x)
    tracemalloc.start()
    try:
        error_mu_pointwise(a, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_error_at_zero_branches(ref):
    with pytest.raises(DivergentAtZero):
        error_mu_pointwise(HAAR_LOG, 0.0)
    with pytest.raises(DivergentAtZero):
        error_mu_pointwise(
            EntireApproximant(PowerSigma(0.5), 1.0, TargetForm.POWER), 0.0)
    row = ref["power_error_at_zero"]
    a = EntireApproximant(PowerSigma(row["sigma"]), 1.0, TargetForm.POWER)
    assert error_mu_pointwise(a, 0.0) == pytest.approx(row["value"], abs=1e-13)


@pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0, -1.0])
def test_l1_closed_form_validates_delta_like_the_quadrature(delta):
    # a non-finite delta has no L1 error, not 0
    for f in (l1_error_mu_raw, l1_error_mu, l1_error_mu_quadrature):
        with pytest.raises(ValueError, match="delta must be positive"):
            f(HaarLog(), delta)


def test_l1_constants_against_frozen(ref):
    assert l1_error_mu_raw(HaarLog(), 1.0) == pytest.approx(
        ref["haar_l1_constant"], abs=1e-13)
    for s_txt, val in ref["power_l1_constants"].items():
        s = float(s_txt)
        assert l1_error_mu_raw(PowerSigma(s), 1.0) == pytest.approx(val, abs=1e-12)
        # presented normalization divides by |Gamma(1-sigma)|
        assert l1_error_mu(PowerSigma(s), 1.0) == pytest.approx(
            val / abs(math.gamma(1.0 - s)), rel=1e-12)


def test_l1_error_delta_scaling_against_quadrature():
    # closed form scales like delta^{-sigma}; quadrature recomputes it
    # from pointwise values on the dilated node grid
    spec = PowerSigma(0.5)
    delta = 2.0
    closed = l1_error_mu_raw(spec, delta)
    assert closed == pytest.approx(l1_error_mu_raw(PowerSigma(0.5)) / math.sqrt(2.0),
                                   rel=1e-13)
    assert l1_error_mu_quadrature(spec, delta) == pytest.approx(closed, abs=1e-4)


def test_l1_error_haar_delta_scaling():
    assert l1_error_mu_raw(HaarLog(), 4.0) == pytest.approx(
        l1_error_mu_raw(HaarLog(), 1.0) / 4.0, rel=1e-14)


NEAR_ONE = (1 - 1e-8, 1 + 1e-8, 1 - 1e-6, 1 + 1e-6, 0.999, 1.001)


@pytest.mark.parametrize("sigma", NEAR_ONE)
def test_raw_forms_near_sigma_one_against_mpmath(sigma):
    # Gamma(1-sigma) ~ 1/(sigma - 1): the raw approximant, the raw target
    # and its cell integral must not be formed from terms that large.  The
    # reference at 40 digits: with e = sigma - 1 and phi = (xi^e - 1)/e,
    # Gamma(1-sigma)(delta^{-e} KK(xi^e, w) - 1) = Gamma(1-sigma)(delta^{-e}
    # (1 + e KK(phi, w)) - 1), as KK(1, w) = 1
    spec = PowerSigma(sigma)
    s = mpmath.mpf(sigma)
    e = s - 1
    worst = 0.0
    with mpmath.workdps(40):
        g = mpmath.gamma(1 - s)
        for delta in (1.0, 1.3):
            a = EntireApproximant(spec, delta)
            d = mpmath.mpf(delta)
            for x in (0.3, 2.2, 7.1):
                kk = _node_series(lambda xi: (xi ** e - 1) / e, delta * x).real
                ref = g * (d ** -e * (1 + e * kk) - 1)
                worst = max(worst, abs(eval_K_mu(a, x) - ref) / max(abs(ref), 1))
        for x in (0.05, 0.3, 1.0, 2.2, 50.0):
            ref = g * (mpmath.mpf(x) ** e - 1)
            worst = max(worst, abs(f_mu(spec, x) - ref) / max(abs(ref), 1))
        for b in (0.05, 0.25, 0.5 / 1.3, 0.5, 2.0):
            bm = mpmath.mpf(b)
            ref = g * (bm ** s / s - bm)
            worst = max(worst, abs(spec.cell0_integral(b) - ref) / max(abs(ref), 1))
    assert worst <= 1e-13, worst


@pytest.mark.parametrize("delta", [0.5, 1.0, 1.3, 2.0])
def test_haar_is_the_sigma_one_density_bit_for_bit(delta):
    # the shared density forms at sigma = 1 are Haar's log forms exactly:
    # KK(-log xi, w) + log delta, -log|x|, b - b log b and 4G/(pi delta)
    spec = HaarLog()
    x = np.concatenate([np.linspace(-20.0, 20.0, 161), [1e-3, 0.3, 7.1]])
    for z in (x, x + 0.7j):
        log_frame = _cardinal_sum(lambda xi: -np.log(xi), _dilate(z, delta)) + math.log(delta)
        assert np.array_equal(eval_K_mu(EntireApproximant(spec, delta), z), log_frame)
    with np.errstate(divide="ignore"):  # +inf at x = 0
        assert np.array_equal(f_mu(spec, x), -np.log(np.abs(x)))
    b = 0.5 / delta
    assert spec.cell0_integral(b) == b - b * math.log(b)
    assert l1_error_mu_raw(spec, delta) == 4.0 * catalan() / (math.pi * delta)


def test_l1_quadrature_is_continuous_through_sigma_one():
    # next to sigma = 1 the quadrature sits on Haar's tail-model floor,
    # 5.6e-8 relative, with no loss from Gamma(1-sigma) ~ 1e8
    spec = PowerSigma(1.0 + 1e-8)
    closed = l1_error_mu_raw(spec, 1.0)
    assert abs(l1_error_mu_quadrature(spec, 1.0) - closed) <= 6e-8 * closed


def test_point_mass_l1_is_weighted_sum():
    from xapprox import l1_error_exp
    spec = PointMasses(((1.0, 2.0), (3.0, 0.5)))
    expect = 2.0 * l1_error_exp(1.0) + 0.5 * l1_error_exp(3.0)
    assert l1_error_mu_raw(spec, 1.0) == pytest.approx(expect, rel=1e-14)

