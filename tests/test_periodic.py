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
from xapprox.errors import QuadratureNonConvergence


# --- TrigPoly mechanics -------------------------------------------------------

def test_trigpoly_construction_and_coeff_access():
    c = [2.0, 0.5, -0.25]
    p = TrigPoly(c)
    assert p.degree == 2
    assert p.coeff(0) == 2.0 and type(p.coeff(0)) is float
    assert p.coeff(1) == p.coeff(-1) == 0.5
    assert p.coeff(-2) == -0.25
    assert p.coeff(5) == 0.0
    assert p.coeffs.dtype == np.float64 and p.coeffs.tolist() == c
    # coeffs is a copy, and the polynomial does not share its input
    arr = np.array(c)
    q = TrigPoly(arr)
    arr[0] = 7.0
    q.coeffs[1] = 7.0
    assert q.coeffs.tolist() == c


def test_trigpoly_validation():
    with pytest.raises(ValueError):
        TrigPoly([])
    with pytest.raises(ValueError):
        TrigPoly(np.ones((2, 3)))
    with pytest.raises(ValueError):
        TrigPoly(1.0)
    with pytest.raises(ValueError):
        TrigPoly(np.array([1.0, 0.5j]))  # real, even polynomials only
    with pytest.raises(ValueError):
        TrigPoly.from_json({"degree": -1, "coeffs": []})


def test_trigpoly_eval_matches_exponential_sum():
    rng = np.random.default_rng(3)
    N = 4
    c = rng.normal(size=N + 1)
    p = TrigPoly(c)
    x = rng.uniform(-2, 2, 20)
    n = np.arange(-N, N + 1)
    direct = (np.exp(2j * np.pi * np.outer(x, n)) @ c[np.abs(n)]).real
    assert np.allclose(p.eval(x), direct, rtol=0, atol=1e-12)
    with mpmath.workdps(40):
        errs = [abs(mpmath.mpf(float(v)) - _mp_value(p, xv)) for xv, v in zip(x, p.eval(x))]
    # a few ulp of sum |c_n|, n = -N..N
    assert float(max(errs)) <= 4e-16 * float(abs(c[0]) + 2.0 * np.sum(np.abs(c[1:])))


def test_trigpoly_json_roundtrip():
    for p in (TrigPoly([1.5, 0.25, -0.5]), build_k(1.0, 300), -build_k_mu(HaarLog(), 64)):
        q = TrigPoly.from_json(p.to_json())
        assert q.degree == p.degree
        assert q.coeffs.tobytes() == p.coeffs.tobytes()
        assert q.to_json() == p.to_json()
    obj = json.loads(TrigPoly([1.5, 0.25, -0.5]).to_json())
    assert obj == {"degree": 2, "coeffs": [[-2, -0.5, 0.0], [-1, 0.25, 0.0], [0, 1.5, 0.0],
                                           [1, 0.25, 0.0], [2, -0.5, 0.0]]}
    # a decoded dict is accepted too, and rows left out are 0
    assert TrigPoly.from_json({"degree": 2, "coeffs": [[0, 1.0, 0.0]]}).coeffs.tolist() == [
        1.0, 0.0, 0.0]


def test_trigpoly_from_json_accepts_cli_output(capsys):
    from xapprox.cli import main

    for argv in (["coeffs", "--kernel", "exp", "--lambda", "1", "--degree", "3"],
                 ["coeffs", "--measure", "haar", "--degree", "8", "--negate-for-vn"]):
        assert main(argv) == 0
        text = capsys.readouterr().out
        p = TrigPoly.from_json(text)
        assert p.to_json() + "\n" == text
    assert p.coeffs.tobytes() == (-build_k_mu(HaarLog(), 8)).coeffs.tobytes()


@pytest.mark.parametrize("rows", [
    [[-1, 0.5, 0.25], [0, 1.0, 0.0], [1, 0.5, -0.25]],  # Hermitian, not real
    [[-1, -0.5, 0.0], [0, 1.0, 0.0], [1, 0.5, 0.0]],  # odd part
    [[-1, 0.5, 0.0], [0, 1.0, 1e-3], [1, 0.5, 0.0]],  # complex c_0
    [[-2, 0.5, 0.0], [0, 1.0, 0.0]],  # index beyond the degree
], ids=["hermitian", "odd", "complex_c0", "index"])
def test_trigpoly_from_json_rejects_odd_or_complex(rows):
    with pytest.raises(ValueError):
        TrigPoly.from_json({"degree": 1, "coeffs": rows})


def test_trigpoly_from_json_tolerance():
    # tolerance 1e-8 max(1, max |c_n|), 3e-6 here; the c_n, n >= 0, are kept
    rows = [[-1, 300.0 + 2e-6, 0.0], [0, 1.0, 1e-6], [1, 300.0, 0.0]]
    assert TrigPoly.from_json({"degree": 1, "coeffs": rows}).coeffs.tolist() == [1.0, 300.0]
    rows[1][2] = 4e-6
    with pytest.raises(ValueError):
        TrigPoly.from_json({"degree": 1, "coeffs": rows})


def test_trigpoly_bump_and_negation():
    p = build_k(1.0, 2)
    b = p.with_bumped_coeff(1, 1e-3)
    assert b.coeff(1) == p.coeff(1) + 1e-3
    assert b.coeff(-1) == b.coeff(1)  # c_{-1} moves with it
    assert b.with_bumped_coeff(-1, -1e-3).coeff(1) == p.coeff(1) + 1e-3 - 1e-3
    assert p.with_bumped_coeff(0, 1e-3).coeff(0) == p.coeff(0) + 1e-3
    assert np.array_equal(np.delete(b.coeffs, 1), np.delete(p.coeffs, 1))
    n = -p
    assert n.coeff(0) == -p.coeff(0)
    assert np.array_equal(n.coeffs, -p.coeffs)
    with pytest.raises(ValueError):
        p.with_bumped_coeff(5, 1e-3)
    with pytest.raises(ValueError):
        p.with_bumped_coeff(-3, 1e-3)


# --- TrigPoly.eval: Reinsch's modified Clenshaw recurrence --------------------

def _mp_value(poly, x):
    """The polynomial at x in 40-digit arithmetic, term by term:
    c_0 + 2 sum_k c_k cos 2 pi k x."""
    c = poly.coeffs
    xm = mpmath.mpf(float(x))
    acc = mpmath.mpf(float(c[0]))
    for k in range(1, poly.degree + 1):
        acc += 2 * mpmath.mpf(float(c[k])) * mpmath.cospi(2 * k * xm)
    return acc


def _exact_sum(c, x):
    """Direct cosine sum c_0 + 2 sum_n c_n cos(2 pi n x), n x reduced mod 1
    exactly."""
    fx = Fraction(float(x))
    fr = np.array([float((n * fx) % 1) for n in range(1, c.size)])
    return float(c[0] + 2.0 * np.sum(c[1:] * np.cos(2 * np.pi * fr)))


def _half_shifted(poly):
    """x -> poly(x + 1/2): c_n -> (-1)^n c_n."""
    return TrigPoly(poly.coeffs * (-1.0) ** np.arange(poly.degree + 1))


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


@pytest.mark.parametrize("p", [build_k(1.0, 0), build_k(1.0, 5).with_bumped_coeff(5, 1e-3),
                               build_k(1.0, 300)],
                         ids=["N0", "N5", "N300"])
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


def test_trigpoly_eval_memory_at_many_points():
    # distinct |x - rint x|, so no point is shared; the recurrence over
    # all 1000 frequencies peaks at 12.4 MB here
    p = build_k(1.0, 1000)
    x = np.random.default_rng(5).uniform(-2.0, 2.0, 200_000)
    p.eval(x[:10])
    tracemalloc.start()
    try:
        p.eval(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.4 * 2**20


@pytest.mark.parametrize("N", [191, 192, 255, 256, 1000])
def test_trigpoly_eval_matches_exact_sum_around_the_crossover(N):
    # below degree 192 the recurrence alone, from 192 on the recurrence
    # plus the block product; values of one point do not depend on the
    # points evaluated with it
    rng = np.random.default_rng(N)
    pos = rng.normal(size=N)
    c = np.concatenate([[rng.normal()], pos])
    p = TrigPoly(c)
    xs = np.concatenate([rng.uniform(-2.0, 2.0, 12), [0.0, 0.25, 0.5, -0.5, 1e-9, 0.5 - 1e-12]])
    vals = p.eval(xs)
    tol = 4e-15 * float(abs(c[0]) + 2.0 * np.sum(np.abs(pos)))  # sum |c_n|, n = -N..N
    for x, v in zip(xs, vals):
        assert abs(v - _exact_sum(c, x)) <= tol
    assert np.array_equal(p.eval(-xs), vals)
    assert np.array_equal(p.eval(xs[3:6]), vals[3:6])
    many = np.concatenate([rng.uniform(-2.0, 2.0, 3000), xs])
    assert np.array_equal(p.eval(many)[-xs.size:], vals)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(0, 1000), seed=st.integers(0, 2**32 - 1),
       xs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
def test_trigpoly_eval_matches_direct_sum(N, seed, xs):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=N + 1)
    p = TrigPoly(c)
    tol = 1e-13 * float(abs(c[0]) + 2.0 * np.sum(np.abs(c[1:])))  # sum |c_n|, n = -N..N
    for x, v in zip(xs, p.eval(np.array(xs))):
        assert abs(v - _exact_sum(c, x)) <= tol


# --- periodized targets ---------------------------------------------------------

def test_eval_p_frozen_samples(ref):
    for row in ref["periodized_exp_samples"]:
        assert eval_p(row["lam"], row["x"]) == pytest.approx(row["value"],
                                                             abs=1e-13)


def test_eval_p_is_periodic_and_mean_zero():
    assert eval_p(1.0, 0.25) == eval_p(1.0, 3.25)
    assert eval_p(1.0, -0.75) == eval_p(1.0, 0.25)
    # mean zero: 32-node Gauss-Legendre on each quarter period
    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = sum(0.125 * float(weights @ eval_p(0.7, (a + 0.5 + 0.5 * nodes) / 4.0))
                for a in range(4))
    assert abs(total) < 1e-12
    with pytest.raises(ValueError):
        eval_p(0.0, 0.3)


def test_eval_p_against_mpmath():
    # relative to max(|p|, 1e-3); a form that subtracts the two ~2/lam
    # halves of p is 1.7e-11 off at lam = 0.0201 and 2.5e-12 at 0.115
    lams = np.concatenate([np.geomspace(1e-4, 2000.0, 24), [0.0201, 0.115, 1.0]])
    xs = np.concatenate([np.linspace(0.0, 1.0, 21),
                         [1e-9, 0.2113, 0.5 - 1e-12, 1.0 - 1e-10, -0.3, 3.25]])
    with mpmath.workdps(30):
        for lam in lams:
            lm = mpmath.mpf(float(lam))
            for x, v in zip(xs, eval_p(float(lam), xs)):
                a = mpmath.mpf(float(x)) - mpmath.floor(float(x))
                ref = mpmath.cosh(lm * (a - 0.5)) / mpmath.sinh(lm / 2) - 2 / lm
                assert abs(mpmath.mpf(float(v)) - ref) <= 1e-13 * max(abs(ref), 1e-3)


def test_eval_p_branch_continuity():
    # p is smooth in lam: no step across lam = 0.02 (dp/dlam ~ 0.08, so
    # p itself moves ~2e-14 here)
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
    poly = build_k(1.0, 1)
    f = lambda x: eval_p(1.0, x) - poly.eval(x)
    assert circle_l1_abs(f, refined_sign_nodes(f, 1)) == pytest.approx(
        periodic_l1_error(1.0, 1), abs=1e-10)


@pytest.mark.parametrize("lam", [0.01, 0.05, 0.3, 0.5, 1.0, 2.0, 5.0, 30.0, 300.0])
def test_periodic_l1_quadrature_is_the_unit_point_mass_route(lam):
    # the q_mu of one unit mass is 0.0 + 1.0 * eval_p, eval_p bit for bit,
    # so the measure route gives the bits of the direct sign-split sum
    for N in (0, 1, 3, 8, 64, 191, 192, 300, 1000):
        poly = build_k(lam, N)
        L = 2 * N + 2
        direct = circle_l1_abs(lambda x: eval_p(lam, x) - poly.eval(x), (np.arange(L) + 0.5) / L)
        assert periodic_l1_quadrature(lam, N) == direct, N


def test_log_circle_error_haar():
    N = 2
    v = -build_k_mu(HaarLog(), N)
    assert l1_vs_log_circle(v) == pytest.approx(
        periodic_l1_error_mu(HaarLog(), N), abs=1e-13)


@pytest.mark.parametrize("N", [0, 1, 3, 10, 64])
@pytest.mark.parametrize("lam", [0.01, 0.3, 1.0, 4.0, 50.0])
def test_dual_bounds_agree_on_the_line_and_circle(lam, N):
    # the circle's duality bound, summed from p's Fourier coefficients at
    # the frequencies (k+1/2)(2N+2), is the line bound at type 2N+2
    k = np.arange(10**4)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    circle = float(np.sum((4.0 / math.pi) * sign / (2.0 * k + 1.0)
                          * p_hat(lam, (2 * N + 2) * (k + 0.5))))
    assert dual_lower_bound_exp(lam, 2 * N + 2, 10**4) == circle


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


def _brentq_nodes(f, N):
    # the scalar route refined_sign_nodes replaced: scipy's brentq on each
    # bracket in turn, with the same tolerances and the same bracket rules
    from scipy.optimize import brentq

    L = 2 * N + 2
    out = []
    for k in range(L):
        a, b = (k + 0.05) / L, (k + 0.95) / L
        fa, fb = f(a), f(b)
        if fa == 0.0:
            out.append(a)
        elif fb == 0.0:
            out.append(b)
        elif fa * fb < 0.0:
            out.append(brentq(f, a, b, xtol=1e-15, rtol=8.9e-16))
    return out


def _sign_changes(f, lo, hi, n):
    t = np.linspace(lo, hi, n)
    v = f(t)
    return t[1:][np.signbit(v[1:]) != np.signbit(v[:-1])]


@pytest.mark.parametrize("N", [0, 1, 3, 10, 64])
@pytest.mark.parametrize("lam", [0.3, 1.0, 4.0])
def test_refined_sign_nodes_match_brentq(lam, N):
    # every coefficient of the optimal polynomial bumped by +-1e-3, as in
    # the perturbation checks: the same nodes as brentq, each within 1e-14,
    # in a few calls of f on arrays where brentq makes ~12 scalar calls a
    # bracket.  Two kinds of node may differ by more: one where rounding
    # makes f change sign many times within 1e-13 (its place is defined
    # only to that zone, which must then hold both nodes), and one in a
    # bracket with several sign changes (both are sign changes of f).
    L = 2 * N + 2
    poly = build_k(lam, N)
    calls, loose = [], 0
    for n in range(N + 1):
        for eps in (1e-3, -1e-3):
            pert = poly.with_bumped_coeff(n, eps)
            f = lambda x: eval_p(lam, x) - pert.eval(x)

            def counted(x):
                calls[-1] += 1
                return f(x)

            calls.append(0)
            nodes = refined_sign_nodes(counted, N)
            ref = _brentq_nodes(f, N)
            assert len(nodes) == len(ref)
            for x, r in zip(nodes, ref):
                assert isinstance(x, float)
                if abs(x - r) <= 1e-14:
                    continue
                loose += 1
                k = math.floor(r * L)
                assert (k + 0.05) / L <= x <= (k + 0.95) / L
                assert _sign_changes(f, x - 2e-15, x + 2e-15, 21).size
                if _sign_changes(f, (k + 0.05) / L, (k + 0.95) / L, 4001).size == 1:
                    zone = _sign_changes(f, r - 1e-13, r + 1e-13, 1001)
                    assert zone.size > 1
                    assert zone.min() - 1e-14 <= x <= zone.max() + 1e-14
    assert loose <= 2
    assert np.mean(calls) <= 10.0 and max(calls) <= 22


def test_refined_sign_nodes_bracket_rules():
    # N = 1: a zero at the left end of bracket 1 and at the right end of
    # bracket 3 is that bracket's node, bracket 2 holds the root 0.6, and
    # bracket 0 shows no sign change and is dropped
    a1, b3 = 1.05 / 4, 3.95 / 4
    assert (1 + 0.05) / 4 == a1 and (3 + 0.95) / 4 == b3
    nodes = refined_sign_nodes(lambda x: (x - a1) * (x - 0.6) * (x - b3), 1)
    assert nodes[0] == a1 and nodes[2] == b3
    assert nodes[1] == pytest.approx(0.6, abs=1.6e-15)
    assert refined_sign_nodes(lambda x: np.ones_like(x), 3) == []
    # an exact zero at the canonical node ends that bracket's search
    assert refined_sign_nodes(lambda x: x - 0.25, 0) == [0.25]


def test_refined_sign_nodes_multiple_root_and_jump():
    # secant steps converge only linearly on a triple root; after 30 of
    # them bisection closes the bracket.  A jump in sign is bisected too.
    for f, root in ((lambda x: (x - 0.2511) ** 3, 0.2511),
                    (lambda x: np.where(x > 0.2512, 1.0, -1.0), 0.2512)):
        (node,) = refined_sign_nodes(f, 0)
        assert node == pytest.approx(root, abs=2e-15)


def test_refined_sign_nodes_raise_when_open(monkeypatch):
    import xapprox.periodic as periodic

    f = lambda x: np.cos(2.0 * np.pi * (x - 0.01))
    monkeypatch.setattr(periodic, "_NODE_MAX_ITER", 2)
    with pytest.raises(QuadratureNonConvergence, match=r"N=0: brackets \[0, 1\] still open"):
        refined_sign_nodes(f, 0)
    monkeypatch.undo()
    # a nan inside the bracket is never taken for a sign change
    g = lambda x: np.where(np.abs(x - 0.25) < 0.2, np.nan, x - 0.3)
    with pytest.raises(QuadratureNonConvergence, match="N=0: f is nan"):
        refined_sign_nodes(g, 0)
