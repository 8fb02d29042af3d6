"""Periodized targets and optimal trigonometric polynomials."""

import json
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, zeta

from xapprox import (
    DivergentAtZero,
    ExpPeriodized,
    HaarLog,
    MeasurePeriodized,
    PointMasses,
    PowerSigma,
    TrigPoly,
    build_k,
    build_k_mu,
    circle_l1_abs,
    dual_lower_bound_exp,
    dual_lower_bound_periodic,
    eval_p,
    eval_q_mu,
    interpolation_oracle,
    l1_error_exp,
    l1_error_mu_raw,
    l1_vs_log_circle,
    p_hat,
    periodic_l1_error,
    periodic_l1_error_mu,
    periodic_l1_quadrature,
    q_hat_mu,
    refined_sign_nodes,
)


# --- TrigPoly mechanics -------------------------------------------------------

def test_trigpoly_construction_and_coeff_access():
    p = TrigPoly(1, {0: 2.0, 1: 0.5 - 0.25j, -1: 0.5 + 0.25j})
    assert p.coeff(0) == 2.0 + 0.0j
    assert p.coeff(1) == 0.5 - 0.25j
    assert p.coeff(-1) == 0.5 + 0.25j
    assert p.coeff(5) == 0.0 + 0.0j


def test_trigpoly_validation():
    with pytest.raises(ValueError):
        TrigPoly(-1, [])
    with pytest.raises(ValueError):
        TrigPoly(1, [1.0, 2.0])  # wrong length
    with pytest.raises(ValueError):
        TrigPoly(1, {2: 1.0})  # index beyond degree
    with pytest.raises(ValueError):
        TrigPoly(1, [1.0, 0.0, 2.0])  # not Hermitian


def test_trigpoly_eval_matches_exponential_sum():
    rng = np.random.default_rng(3)
    N = 4
    pos = rng.normal(size=N) + 1j * rng.normal(size=N)
    c = np.concatenate([pos[::-1].conj(), [rng.normal() + 0j], pos])
    p = TrigPoly(N, c)
    x = rng.uniform(-2, 2, 20)
    n = np.arange(-N, N + 1)
    direct = (np.exp(2j * np.pi * np.outer(x, n)) @ c).real
    assert np.allclose(p.eval(x), direct, rtol=0, atol=1e-12)


def test_trigpoly_json_roundtrip():
    p = TrigPoly(2, {0: 1.5, 1: 0.25 - 0.125j, -1: 0.25 + 0.125j,
                     2: -0.5, -2: -0.5})
    q = TrigPoly.from_json(p.to_json())
    assert q.degree == p.degree
    assert np.array_equal(q.coeffs, p.coeffs)
    assert json.loads(p.to_json())["degree"] == 2


def test_trigpoly_bump_and_negation():
    p = build_k(1.0, 2)
    b = p.with_bumped_coeff(1, 1e-3)
    assert b.coeff(1) == pytest.approx(p.coeff(1) + 1e-3)
    assert b.coeff(-1) == pytest.approx(p.coeff(-1) + 1e-3)  # conjugate partner
    n = -p
    assert n.coeff(0) == -p.coeff(0)
    with pytest.raises(ValueError):
        p.with_bumped_coeff(5, 1e-3)


# --- TrigPoly.eval: Reinsch's modified Clenshaw recurrence --------------------

def _mp_value(poly, x):
    """The polynomial at x in 40-digit arithmetic, term by term."""
    N, c = poly.degree, poly.coeffs
    xm = mpmath.mpf(float(x))
    acc = mpmath.mpf(float(c[N].real))
    for k in range(1, N + 1):
        acc += 2 * (mpmath.mpf(float(c[N + k].real)) * mpmath.cospi(2 * k * xm)
                    - mpmath.mpf(float(c[N + k].imag)) * mpmath.sinpi(2 * k * xm))
    return acc


def _exact_sum(c, N, x):
    """Direct exponential sum with n x reduced mod 1 exactly."""
    fx = Fraction(float(x))
    fr = np.array([float((n * fx) % 1) for n in range(-N, N + 1)])
    return float(np.sum(c.real * np.cos(2 * np.pi * fr) - c.imag * np.sin(2 * np.pi * fr)))


def _half_shifted(poly):
    """x -> poly(x + 1/2): c_n -> (-1)^n c_n."""
    n = np.arange(-poly.degree, poly.degree + 1)
    return TrigPoly(poly.degree, poly.coeffs * (-1.0) ** n)


@pytest.mark.parametrize("make, xs, tol", [
    (lambda: build_k(1.0, 1000),
     [0.0, 1e-6, 1e-3, 0.0123, 0.1, 0.2501, 0.37, 0.4999, 0.5], 1e-16),
    (lambda: build_k_mu(HaarLog(), 1000), [0.0, 1e-6, 1e-4], 5e-15),
    # the log peak moved to x = 1/2, where the s = -1 branch carries it
    (lambda: _half_shifted(build_k_mu(HaarLog(), 1000)), [0.5, 0.5 - 1e-6, 0.5 - 1e-4], 5e-15),
    (lambda: build_k_mu(PowerSigma(0.05), 64), [0.0, 1e-6, 1e-3, 0.1, 0.25, 0.4, 0.5], 1e-13),
], ids=["exp1_N1000", "haar_N1000", "haar_shifted_N1000", "power0.05_N64"])
def test_trigpoly_eval_against_mpmath(make, xs, tol):
    # plain Clenshaw loses ~3 digits for Haar near x = 0, and Reinsch's
    # s = +1 branch alone as many near x = 1/2; the dense cosine matrix
    # product misses the exp and Haar bounds
    poly = make()
    with mpmath.workdps(40):
        errs = [abs(mpmath.mpf(float(v)) - _mp_value(poly, x))
                for x, v in zip(xs, poly.eval(np.array(xs)))]
    assert float(max(errs)) <= tol


def test_trigpoly_eval_is_exactly_even():
    p = build_k(1.0, 1000)
    x = np.random.default_rng(7).uniform(-2.0, 2.0, 501)
    assert np.array_equal(p.eval(x), p.eval(-x))
    assert np.array_equal(p.eval(np.concatenate([x, -x])), np.tile(p.eval(x), 2))


def test_trigpoly_eval_sine_twin():
    p = build_k(1.0, 8).with_bumped_coeff(3, 1e-3 + 2e-3j)
    x = np.linspace(-0.5, 0.5, 101)
    n = np.arange(-8, 9)
    direct = (np.exp(2j * np.pi * np.outer(x, n)) @ p.coeffs).real
    assert np.max(np.abs(p.eval(x) - direct)) <= 1e-15
    assert p.eval(0.3) != p.eval(-0.3)


@pytest.mark.parametrize("p", [build_k(1.0, 0), build_k(1.0, 5).with_bumped_coeff(5, 1e-3j)],
                         ids=["N0", "N5"])
def test_trigpoly_eval_scalar_is_python_float(p):
    xs = np.array([-0.7, 0.0, 0.3125, 1.9])
    for x, v in zip(xs, p.eval(xs)):
        for arg in (float(x), x, np.array(x)):
            y = p.eval(arg)
            assert type(y) is float
            assert y == v  # the scalar loop rounds as the array loop does


def test_trigpoly_eval_memory_is_linear_in_points():
    p = build_k(1.0, 1000)
    x = np.linspace(-1.0, 1.0, 2001)
    tracemalloc.start()
    try:
        p.eval(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@settings(max_examples=60, deadline=None)
@given(N=st.integers(0, 200), seed=st.integers(0, 2**32 - 1), even=st.booleans(),
       xs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
def test_trigpoly_eval_matches_direct_sum(N, seed, even, xs):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=N) + (0.0 if even else 1j * rng.normal(size=N))
    c = np.concatenate([pos[::-1].conj(), [rng.normal() + 0j], pos])
    p = TrigPoly(N, c)
    tol = 1e-13 * float(np.sum(np.abs(c)))
    for x, v in zip(xs, p.eval(np.array(xs))):
        assert abs(v - _exact_sum(c, N, x)) <= tol


# --- periodized targets ---------------------------------------------------------

def test_eval_p_frozen_samples(ref):
    for row in ref["periodized_exp_samples"]:
        assert eval_p(row["lam"], row["x"]) == pytest.approx(row["value"],
                                                             abs=1e-13)


def test_eval_p_is_periodic_and_mean_zero():
    assert eval_p(1.0, 0.25) == eval_p(1.0, 3.25)
    assert eval_p(1.0, -0.75) == eval_p(1.0, 0.25)
    # mean zero: Gauss panels over one period
    from xapprox import gauss_panel
    total = sum(gauss_panel(lambda x: eval_p(0.7, x), a / 4.0, (a + 1) / 4.0)
                for a in range(4))
    assert abs(total) < 1e-12
    with pytest.raises(ValueError):
        eval_p(0.0, 0.3)


def test_eval_p_branch_continuity():
    # series / closed switch at lam = 0.02; the step across the seam must
    # stay tiny (dp/dlam ~ 0.08, so the function itself moves ~2e-14 here)
    for x in (0.1, 0.35, 0.5):
        lo = eval_p(0.02 - 1e-13, x)
        hi = eval_p(0.02 + 1e-13, x)
        assert lo == pytest.approx(hi, abs=1e-12)


def test_p_hat_values():
    assert p_hat(1.0, 0) == 0.0
    assert p_hat(1.0, 1) == pytest.approx(2.0 / (1.0 + 4.0 * math.pi**2), rel=1e-15)
    arr = p_hat(2.0, np.array([0, 1, -1]))
    assert arr[0] == 0.0 and arr[1] == arr[2]


def test_q_hat_mu_closed_forms():
    assert q_hat_mu(HaarLog(), 4) == pytest.approx(0.125, rel=1e-15)
    assert q_hat_mu(HaarLog(), 0) == 0.0
    s = 0.5
    expect = math.pi * (2.0 * math.pi * 3.0) ** (-s) / math.sin(0.5 * math.pi * s)
    assert q_hat_mu(PowerSigma(s), 3) == pytest.approx(expect, rel=1e-14)
    spec = PointMasses(((1.0, 1.0), (2.0, 0.5)))
    expect = p_hat(1.0, 2) + 0.5 * p_hat(2.0, 2)
    assert q_hat_mu(spec, 2) == pytest.approx(expect, rel=1e-14)


def test_eval_q_mu_haar_closed_form():
    assert eval_q_mu(HaarLog(), 1.0 / 6.0) == pytest.approx(0.0, abs=1e-15)
    assert eval_q_mu(HaarLog(), 0.5) == pytest.approx(-math.log(2.0), rel=1e-15)
    with pytest.raises(DivergentAtZero):
        eval_q_mu(HaarLog(), 0.0)
    with pytest.raises(DivergentAtZero):
        eval_q_mu(PowerSigma(0.5), 1.0)


def test_eval_q_mu_power_frozen_samples(ref):
    for row in ref["periodized_power_samples"]:
        val = eval_q_mu(PowerSigma(row["sigma"]), row["x"])
        assert val == pytest.approx(row["value"], abs=5e-9)


def _q_power_near_integer(s, x):
    # q_mu = (2 pi)^{1-s}/sin(pi s/2) sum_n n^{-s} cos(2 pi n x); for 0 < x < 1
    # the sum is Gamma(1-s) sin(pi s/2) (2 pi x)^{s-1}
    #            + sum_j zeta(s-2j) (-1)^j (2 pi x)^{2j}/(2j)!
    y = 2.0 * math.pi * x
    c = gamma(1.0 - s) * math.sin(0.5 * math.pi * s) * y ** (s - 1.0) if x else 0.0
    c += sum(zeta(s - 2 * j) * (-1) ** j * y ** (2 * j) / math.factorial(2 * j)
             for j in range(6))
    return (2.0 * math.pi) ** (1.0 - s) / math.sin(0.5 * math.pi * s) * c


@pytest.mark.parametrize("sigma", [0.05, 0.5, 1.5, 1.95])
def test_eval_q_mu_power_near_integers(sigma):
    # the decay scale of the defining integral grows like 1/dist(x, Z);
    # binary fractions keep 1 - x and 3 + x exact
    for x in (2.0**-20, 2.0**-13, 2.0**-7):
        expect = _q_power_near_integer(sigma, x)
        for at in (x, 1.0 - x, 3.0 + x):
            assert eval_q_mu(PowerSigma(sigma), at) == pytest.approx(expect, rel=1e-12)
    if sigma > 1.0:
        expect = _q_power_near_integer(sigma, 0.0)
        assert eval_q_mu(PowerSigma(sigma), 2.0) == pytest.approx(expect, rel=1e-12)


def test_eval_q_mu_power_accepts_arrays():
    spec = PowerSigma(0.5)
    xs = np.array([[0.1, 0.2], [0.35, 0.8]])
    vals = eval_q_mu(spec, xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs.ravel(), vals.ravel()):
        assert v == eval_q_mu(spec, float(x))
    with pytest.raises(DivergentAtZero):
        eval_q_mu(spec, np.array([0.1, 1.0]))


def _q_power_mp(sigma, x):
    # Hurwitz: Gamma(s) [zeta(s, a) + zeta(s, 1-a)], s = 1 - sigma, a = {x}
    # (at a = 0, sigma > 1: 2 Gamma(s) zeta(s)), in 40 digits at the double x
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        a = xm - mpmath.floor(xm)
        s = 1 - mpmath.mpf(sigma)
        if a == 0:
            return float(2 * mpmath.gamma(s) * mpmath.zeta(s))
        return float(mpmath.gamma(s) * (mpmath.zeta(s, a) + mpmath.zeta(s, 1 - a)))


_Q_SIGMAS = (0.05, 0.3, 0.5, 0.9, 0.99, 0.999, 0.999999, 1.000001, 1.001, 1.01,
             1.3, 1.5, 1.9, 1.95, 1.99)
_Q_XS = (1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.2345, 0.5, 0.77, 0.999, 1.0 - 1e-7)


@pytest.mark.parametrize("sigma", _Q_SIGMAS)
def test_eval_q_mu_power_against_mpmath(sigma):
    # the quadrature that the closed form replaced reaches 6.9e-13 on
    # this grid; sigma near 1 and 2 are where a naive closed form cancels
    xs = _Q_XS + ((0.0, 2.0, -3.0) if sigma > 1.0 else ())
    vals = eval_q_mu(PowerSigma(sigma), np.array(xs))
    for x, v in zip(xs, vals):
        ref = _q_power_mp(sigma, x)
        assert abs(v - ref) / max(abs(ref), 1e-3) <= 2e-13, (x, v, ref)


def test_eval_q_mu_power_continuous_through_sigma_one():
    # sigma = 1 is Haar's -log|2 sin pi x|; (a^{-s} - 1)/s or (2 zeta(s) + 1)/s
    # formed by subtraction would be ~1e-7 off at s = 1e-9
    xs = np.array([0.01, 0.1, 0.25, 0.4, 0.5, 0.77, 0.99])
    haar = eval_q_mu(HaarLog(), xs)
    for sigma in (1.0 - 1e-9, 1.0 + 1e-9):
        assert np.max(np.abs(eval_q_mu(PowerSigma(sigma), xs) - haar)) <= 1e-8


def test_eval_q_mu_power_calls_no_quadpack(monkeypatch):
    import sys

    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("QUADPACK called")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    for name, mod in list(sys.modules.items()):  # modules that bound quad by name
        if name.startswith("xapprox.") and hasattr(mod, "quad"):
            monkeypatch.setattr(mod, "quad", refuse)
    for sigma in (0.05, 0.5, 1.5, 1.95):
        eval_q_mu(PowerSigma(sigma), 0.3)
        eval_q_mu(PowerSigma(sigma), np.linspace(0.01, 0.99, 7))
    build_k_mu(PowerSigma(0.5), 8)


@settings(max_examples=50, deadline=None)
@given(sigma=st.floats(0.05, 1.95), x=st.floats(1e-9, 1.0 - 1e-9))
def test_eval_q_mu_power_matches_mpmath_property(sigma, x):
    if sigma == 1.0:
        sigma = 1.0 + 2.0**-40
    ref = _q_power_mp(sigma, x)
    # relative error, absolute near the zero of q_mu
    assert abs(eval_q_mu(PowerSigma(sigma), x) - ref) <= 2e-13 * max(abs(ref), 1.0)


def test_eval_q_mu_point_masses():
    spec = PointMasses(((1.0, 1.0), (3.0, 0.25)))
    expect = eval_p(1.0, 0.3) + 0.25 * eval_p(3.0, 0.3)
    assert eval_q_mu(spec, 0.3) == pytest.approx(expect, rel=1e-14)


def test_measure_periodized_validates():
    with pytest.raises(Exception):
        MeasurePeriodized(PowerSigma(1.0))
    with pytest.raises(ValueError):
        ExpPeriodized(-1.0)


# --- optimal polynomials --------------------------------------------------------

def test_build_k_degree_validation():
    with pytest.raises(ValueError):
        build_k(1.0, -1)
    with pytest.raises(ValueError):
        build_k(-1.0, 2)
    with pytest.raises(ValueError):
        build_k_mu(HaarLog(), -2)


def test_build_k_mu_haar_frozen_coeffs(ref):
    for n_txt, coeffs in ref["periodic_coeffs_haar"].items():
        N = int(n_txt)
        poly = build_k_mu(HaarLog(), N)
        for n, expect in enumerate(coeffs):
            assert poly.coeff(n) == pytest.approx(expect, abs=1e-10)
            assert poly.coeff(-n) == pytest.approx(expect, abs=1e-10)


def test_build_k_mu_power_frozen_coeffs(ref):
    blob = ref["periodic_coeffs_power"]
    poly = build_k_mu(PowerSigma(blob["sigma"]), blob["N"])
    for n, expect in enumerate(blob["coeffs"]):
        assert poly.coeff(n) == pytest.approx(expect, abs=1e-10)


def test_build_k_mu_point_masses_is_weighted_sum():
    spec = PointMasses(((0.5, 1.0), (2.0, 2.0)))
    poly = build_k_mu(spec, 1)
    expect = build_k(0.5, 1).coeffs + 2.0 * build_k(2.0, 1).coeffs
    assert np.allclose(poly.coeffs, expect, rtol=0, atol=1e-15)


@pytest.mark.parametrize("N", [0, 3, 16])
@pytest.mark.parametrize("spec", [PointMasses(((0.5, 1.0), (2.0, 0.25))),
                                  HaarLog(), PowerSigma(0.3)],
                         ids=["points", "haar", "power0.3"])
def test_build_k_mu_interpolates_q_mu_at_all_nodes(spec, N):
    L = 2 * N + 2
    xs = (np.arange(L) + 0.5) / L
    poly = build_k_mu(spec, N)
    assert np.allclose(poly.eval(xs), eval_q_mu(spec, xs), rtol=0, atol=1e-12)


def test_interpolation_at_shifted_nodes():
    lam, N = 1.0, 2
    L = 2 * N + 2
    xs = (np.arange(L) + 0.5) / L
    poly = build_k(lam, N)
    assert np.allclose(poly.eval(xs), eval_p(lam, xs), rtol=0, atol=1e-13)


def test_oracle_agrees_with_closed_construction():
    for lam, N in ((0.7, 2), (3.0, 0)):
        a = build_k(lam, N).coeffs
        b = interpolation_oracle(ExpPeriodized(lam), N).coeffs
        assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_oracle_callable_target():
    # plain callables are accepted: recover a degree-1 polynomial exactly
    target = lambda x: 1.0 + 2.0 * math.cos(2.0 * math.pi * x)
    poly = interpolation_oracle(target, 1)
    assert poly.coeff(0) == pytest.approx(1.0, abs=1e-14)
    assert poly.coeff(1) == pytest.approx(1.0, abs=1e-14)


# --- optimal errors ---------------------------------------------------------------

def test_periodic_l1_error_closed_form():
    assert periodic_l1_error(1.0, 0) == pytest.approx(
        2.0 - 2.0 / math.cosh(0.25), rel=1e-14)
    with pytest.raises(ValueError):
        periodic_l1_error(0.0, 1)


def test_periodic_l1_error_mu_families():
    from xapprox import catalan, power_l1_constant
    assert periodic_l1_error_mu(HaarLog(), 1) == pytest.approx(
        catalan() / math.pi, rel=1e-14)
    assert periodic_l1_error_mu(PowerSigma(0.5), 1) == pytest.approx(
        power_l1_constant(0.5) / 2.0, rel=1e-14)
    spec = PointMasses(((1.0, 2.0),))
    assert periodic_l1_error_mu(spec, 3) == pytest.approx(
        2.0 * periodic_l1_error(1.0, 3), rel=1e-14)


@pytest.mark.parametrize("N", [0, 1, 3, 64])
def test_periodic_errors_are_line_errors_at_type_2n_plus_2(N):
    for lam in (0.01, 0.7, 1.0, 5.0, 300.0):
        assert periodic_l1_error(lam, N) == l1_error_exp(lam, 2 * N + 2)
    for spec in (HaarLog(), PowerSigma(0.3), PowerSigma(1.5),
                 PointMasses(((0.5, 1.0), (2.0, 0.25), (7.0, 3.0)))):
        assert periodic_l1_error_mu(spec, N) == l1_error_mu_raw(spec, 2 * N + 2)


def test_quadrature_reproduces_periodic_error():
    for lam, N in ((1.0, 0), (2.0, 3)):
        assert periodic_l1_quadrature(lam, N) == pytest.approx(
            periodic_l1_error(lam, N), abs=1e-10)
    # refined node search lands on the same value
    assert periodic_l1_quadrature(1.0, 1, refine=True) == pytest.approx(
        periodic_l1_error(1.0, 1), abs=1e-10)


def test_log_circle_error_haar():
    N = 2
    v = -build_k_mu(HaarLog(), N)
    assert l1_vs_log_circle(v) == pytest.approx(
        periodic_l1_error_mu(HaarLog(), N), abs=1e-13)


def test_dual_lower_bound_periodic():
    closed = periodic_l1_error(1.0, 0)
    b2 = dual_lower_bound_periodic(ExpPeriodized(1.0), 0, terms=10**2)
    b4 = dual_lower_bound_periodic(ExpPeriodized(1.0), 0, terms=10**4)
    assert b2 < b4 <= closed + 1e-12
    assert closed - b4 < 1e-4
    bh = dual_lower_bound_periodic(MeasurePeriodized(HaarLog()), 1, terms=10**4)
    assert bh <= periodic_l1_error_mu(HaarLog(), 1) + 1e-12
    with pytest.raises(ValueError):
        dual_lower_bound_periodic(ExpPeriodized(1.0), 0, terms=0)


@pytest.mark.parametrize("N", [0, 1, 3, 10, 64])
@pytest.mark.parametrize("lam", [0.01, 0.3, 1.0, 4.0, 50.0])
def test_dual_bounds_agree_on_the_line_and_circle(lam, N):
    assert dual_lower_bound_exp(lam, 2 * N + 2, 10**4) == dual_lower_bound_periodic(
        ExpPeriodized(lam), N, 10**4)


def test_circle_l1_abs_reproduces_periodic_error():
    # optimal degree-0 polynomial for the periodized exponential, lam = 1:
    # sign changes at 1/4 and 3/4, L1 error 2 - 2 sech(1/4).  An extra cell
    # edge at 0 keeps the integrand's corner (eval_p kinks at integers) out
    # of any panel interior; per-cell |integrals| are unaffected by it.
    poly = build_k(1.0, 0)
    f = lambda x: eval_p(1.0, x) - poly.eval(x)
    val = circle_l1_abs(f, [0.0, 0.25, 0.75])
    assert val == pytest.approx(2.0 - 2.0 / math.cosh(0.25), abs=1e-12)


def test_circle_l1_abs_validates_nodes():
    with pytest.raises(ValueError):
        circle_l1_abs(np.sin, [])


def test_refined_sign_nodes_near_canonical():
    lam, N = 1.0, 1
    poly = build_k(lam, N)
    f = lambda x: eval_p(lam, x) - poly.eval(x)
    nodes = refined_sign_nodes(f, N)
    assert len(nodes) == 4
    canonical = (np.arange(4) + 0.5) / 4.0
    assert np.allclose(sorted(nodes), canonical, atol=1e-8)
