"""The single-exponential kernel: values, transform, closed-form errors."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from xapprox import (
    EntireApproximant,
    ExpKernel,
    HaarLog,
    PointMasses,
    QuadratureNonConvergence,
    SeriesNonConvergence,
    TargetForm,
    K_hat,
    error_exp,
    error_exp_integral_oracle,
    eval_K,
    eval_K_mu,
    k_value_at_zero,
    l1_error_exp,
    l1_error_exp_quadrature,
)
from xapprox import expkernel
from xapprox._stable import cospi


def test_kernel_params_validated():
    with pytest.raises(ValueError):
        ExpKernel(0.0)
    with pytest.raises(ValueError):
        ExpKernel(1.0, -2.0)
    with pytest.raises(ValueError):
        ExpKernel(math.nan)


@pytest.mark.parametrize("lam, delta", [(math.inf, 1.0), (1.0, math.inf), (-1.0, 1.0),
                                        (1.0, 0.0), (math.nan, 1.0)])
def test_closed_forms_validate_like_the_kernel(lam, delta):
    # no number where ExpKernel(lam, delta) is refused: an infinite
    # parameter has no L1 error, and K(lam, 0) never exceeds 1
    for f in (l1_error_exp, k_value_at_zero):
        with pytest.raises(ValueError):
            f(lam, delta)


def test_frozen_samples(ref):
    for row in ref["kernel_samples"]:
        k = ExpKernel(row["lam"], row["delta"])
        assert eval_K(k, row["x"]) == pytest.approx(row["value"], abs=2e-15)


def test_frozen_complex_samples(ref):
    for row in ref["kernel_complex_samples"]:
        val = eval_K(ExpKernel(row["lam"]), complex(row["re"], row["im"]))
        assert val.real == pytest.approx(row["value_re"], rel=1e-13)
        assert val.imag == pytest.approx(row["value_im"], rel=1e-13)


def test_value_at_zero_closed_form(ref):
    for row in ref["kernel_at_zero"]:
        lam = row["lam"]
        assert k_value_at_zero(lam) == pytest.approx(row["value"], rel=5e-16)
        assert eval_K(ExpKernel(lam), 0.0) == pytest.approx(row["value"], abs=2e-15)


def test_interpolation_at_nodes_is_exact():
    # at half-integers every sinc term vanishes except the matching node,
    # so the sum reproduces e^{-lam m} with zero rounding error
    m = np.arange(25) + 0.5
    for lam in (0.5, 1.0, 2.0, 5.0):
        vals = eval_K(ExpKernel(lam), m)
        assert np.all(vals == np.exp(-lam * m))


def test_evenness_is_bitwise():
    x = np.linspace(-7.3, 7.3, 41)
    k = ExpKernel(1.3)
    assert np.all(eval_K(k, x) == eval_K(k, -x))


def test_complex_overflow_raises_instead_of_nan():
    # sin(pi z) overflows near Im z = 226; the sum must raise, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SeriesNonConvergence, match="not finite"):
            eval_K(ExpKernel(1.0), [1.0 + 260.0j, 0.3 + 260.5j])


def test_points_beyond_the_range_raise_before_allocating():
    # each point costs |Re w| + 32 terms: beyond 2^20, or nan, it raises
    for z in ([0.5, 3e6], [math.nan], [-math.inf]):
        with pytest.raises(SeriesNonConvergence):
            eval_K(ExpKernel(1.0), z)


def _peak_mb(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_small_lambda_memory_is_bounded():
    # the number of terms does not depend on lam': memory must not scale like 1/lam'
    x = np.linspace(-20.0, 20.0, 2001)
    assert _peak_mb(lambda: eval_K(ExpKernel(0.01), x)) < 8.0


@pytest.mark.parametrize("im", [0.0, 1.0], ids=["real", "complex"])
def test_memory_per_call_stays_under_the_block_buffers(im):
    # two term buffers under 128 KB each, reused by every block, plus the
    # per-point arrays: no block allocates a temporary of its own size
    x = np.linspace(-20.0, 20.0, 2001)
    if im:
        x = x + 1j * im
    assert _peak_mb(lambda: eval_K(ExpKernel(0.3), x)) <= 0.75
    assert _peak_mb(lambda: eval_K_mu(EntireApproximant(HaarLog()), x)) <= 0.75


def test_far_points_memory_is_bounded():
    # |Re w| up to 1e3 takes ~1e3 terms per point, formed in blocks of points
    x = np.linspace(-1e3, 1e3, 2001)
    assert _peak_mb(lambda: eval_K(ExpKernel(1e-6), x)) < 24.0
    assert _peak_mb(lambda: eval_K(ExpKernel(1e-6), x + 1j)) < 24.0


def test_complex_arrays_are_exactly_even_and_exact_at_nodes():
    # real-axis nodes among mirrored off-axis points, in one complex array
    lam = 0.7
    nodes = np.array([0.5, 4.5, 5.5, 7.5, 11.5]) + 0j
    off = np.array([0.3 + 0.2j, 4.6 + 1j, 2.5 + 1e-9j, 0.25j, 7.1 - 3j, 9.5 + 0.1j, 3.0 + 0j])
    z = np.concatenate([nodes, off, -off, -nodes])
    vals = eval_K(ExpKernel(lam), z)
    n, m = nodes.size, off.size
    assert np.array_equal(vals[n:n + m], vals[n + m:n + 2 * m])
    assert np.all(vals[:n] == np.exp(-lam * nodes.real))
    assert np.all(vals[-n:] == np.exp(-lam * nodes.real))
    haar = eval_K_mu(EntireApproximant(HaarLog(), 1.0, TargetForm.LOG), z)
    assert np.array_equal(haar[n:n + m], haar[n + m:n + 2 * m])
    assert np.all(haar[:n] == np.log(nodes.real))


@pytest.mark.parametrize("delta", [0.5, 2.0])
@pytest.mark.parametrize("lam", [0.05, 1.0, 5.0])
def test_kernel_is_the_single_point_mass_approximant(lam, delta):
    # one engine: the raw point-mass approximant is K minus e^{-lam}
    x = np.concatenate([np.linspace(-12.0, 12.0, 97), (np.arange(6) + 0.5) / delta])
    raw = eval_K_mu(EntireApproximant(PointMasses(((lam, 1.0),)), delta), x)
    k = eval_K(ExpKernel(lam, delta), x)
    assert np.max(np.abs(raw + math.exp(-lam) - k)) < 1e-15


def test_dilation_is_argument_rescaling():
    x = np.array([0.21, 0.7, 1.9])
    a = eval_K(ExpKernel(1.0, 2.0), x)
    b = eval_K(ExpKernel(0.5, 1.0), 2.0 * x)
    assert np.allclose(a, b, rtol=0, atol=1e-15)


def test_error_sign_follows_cospi():
    xs = np.array([0.1, 0.3, 0.7, 1.2, 1.9, 2.4, 3.3, 6.1])
    for lam in (0.5, 2.0):
        prod = error_exp(ExpKernel(lam), xs) * cospi(xs)
        assert np.all(prod > 0.0)


def test_error_grid_against_integral_oracle(ref):
    grid = ref["exp_error_grid"]
    for lam, row in zip(grid["lams"], grid["values"]):
        k = ExpKernel(lam)
        for x, expect in zip(grid["xs"], row):
            assert error_exp(k, x) == pytest.approx(expect, abs=2e-13)
            assert error_exp_integral_oracle(lam, x) == pytest.approx(expect, abs=1e-14)


@pytest.mark.parametrize("lam", [0.05, 1.0, 5.0, 20.0, 50.0, 200.0])
def test_integral_oracle_relative_error_against_mpmath(lam):
    # the oracle's cuts are relative to its integrand's peak, so it holds
    # relative accuracy where the error is e^{-60} small.  The reference is
    # 40-digit mp.quad of the same positive integrand, scaled to O(1) (its
    # tolerance is absolute) and split on the 1/x scale and around w = lam
    with mpmath.workdps(40):
        lm = mpmath.mpf(lam)
        for x in (0.3, 1.3, 2.2, 7.1, 15.7):
            xm = mpmath.mpf(x)
            scale = mpmath.exp(min(xm, 0.5) * lm) * (1 + xm) ** 2

            def f(w):
                num = 2 * mpmath.sinh(w / 2) * mpmath.sinh(lm / 2) * mpmath.exp(-xm * w)
                return scale * num / (mpmath.cosh(w) + mpmath.cosh(lm))

            cuts = {mpmath.mpf(2) ** j / xm for j in range(-2, 7)}
            cuts |= {lm + d for d in (-20, -5, 0, 5, 20) if lm + d > 0}
            expect = float(mpmath.cos(mpmath.pi * xm) / mpmath.pi * mpmath.quad(
                f, [0] + sorted(cuts) + [mpmath.inf]) / scale)
            assert abs(error_exp_integral_oracle(lam, x) - expect) <= 1e-15 * abs(expect)


def test_oracle_requires_positive_x():
    with pytest.raises(ValueError):
        error_exp_integral_oracle(1.0, 0.0)


def test_oracle_rejects_non_finite_or_non_positive_arguments():
    bad = [(1.0, math.inf), (1.0, math.nan), (1.0, -1.0), (-1.0, 1.0), (0.0, 1.0),
           (math.inf, 1.0), (math.nan, 1.0)]
    for lam, x in bad:
        with pytest.raises(ValueError):
            error_exp_integral_oracle(lam, x)


def test_oracle_raises_when_twin_rules_disagree(monkeypatch):
    # two nodes per width-2 panel cannot meet 1e-13 + 1e-11 relative
    monkeypatch.setattr(expkernel, "_W_ORDERS", (16, 2))
    with pytest.raises(QuadratureNonConvergence):
        error_exp_integral_oracle(1.0, 0.7)


def test_khat_frozen_samples(ref):
    for row in ref["khat_samples"]:
        k = ExpKernel(row["lam"], row["delta"])
        assert K_hat(k, row["t"]) == pytest.approx(row["value"], abs=1e-16)


def test_khat_support_and_edge():
    k = ExpKernel(1.0)
    assert K_hat(k, 0.5) == 0.0
    assert K_hat(k, -0.5) == 0.0
    assert K_hat(k, 0.8) == 0.0
    t = np.linspace(-0.5, 0.5, 201)
    assert np.all(K_hat(k, t) >= 0.0)
    # delta widens the support
    assert K_hat(ExpKernel(1.0, 2.0), 0.8) > 0.0


def test_khat_extreme_lam_is_clean():
    # large lam: csch underflows, transform ~ 0 without warnings
    assert K_hat(ExpKernel(1e4), 0.0) == 0.0
    assert K_hat(ExpKernel(100.0), 0.0) == pytest.approx(2.0 * math.exp(-50.0),
                                                         rel=1e-12, abs=0)
    # small lam: K_hat(lam, 0) = csch(lam/2) ~ 2/lam, no overflow en route
    assert K_hat(ExpKernel(1e-8), 0.0) == pytest.approx(2e8, rel=1e-8)
    # ... while off-center values collapse like lam/(2 sin^2 pi t)
    expect = 1e-8 * math.cos(0.2 * math.pi) / (2.0 * math.sin(0.2 * math.pi) ** 2)
    assert K_hat(ExpKernel(1e-8), 0.2) == pytest.approx(expect, rel=1e-6)


def test_l1_error_closed_form_and_scaling():
    assert l1_error_exp(1.0, 1.0) == pytest.approx(2.0 - 2.0 / math.cosh(0.5),
                                                   rel=1e-15)
    # delta enters only through lam/delta and the outer 1/lam is fixed
    assert l1_error_exp(3.0, 2.0) == pytest.approx(
        (2.0 / 3.0) * (1.0 - 1.0 / math.cosh(0.75)), rel=1e-14)
    with pytest.raises(ValueError):
        l1_error_exp(-1.0)


def test_l1_quadrature_matches_closed_form():
    for lam, delta in ((1.0, 1.0), (0.5, 2.0)):
        assert l1_error_exp_quadrature(lam, delta) == pytest.approx(
            l1_error_exp(lam, delta), abs=1e-8)
