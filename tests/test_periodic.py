"""Periodized targets and optimal trigonometric polynomials."""

import json
import math
import sys
import threading
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
    eval_p,
    eval_q_mu,
    interpolation_oracle,
    l1_error_exp,
    l1_error_mu_raw,
    l1_vs_log_circle,
    periodic_l1_error,
    periodic_l1_error_mu,
    periodic_l1_quadrature,
    q_hat_mu,
)
from xapprox import periodic
from xapprox.certify import _circle_l1_abs, _dual_bound, _sign_nodes
from xapprox._stable import cospi
from xapprox.errors import NonFinitePoint, XapproxError
from xapprox.measures import _Q_TERMS, _power_series
from xapprox.periodic import _circle_l1_mu
from xapprox.quadrature import _cell_rule


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


@pytest.mark.parametrize("N", [1.5, 2.5, -1, -3, math.inf, math.nan])
def test_closed_form_errors_validate_the_degree_like_the_builders(N):
    # the closed forms and the interpolation oracle refuse the degrees
    # build_k and build_k_mu refuse, with the builders' message
    for f, arg in ((periodic_l1_error, 1.0), (periodic_l1_error_mu, HaarLog()),
                   (build_k, 1.0), (build_k_mu, HaarLog()),
                   (interpolation_oracle, ExpPeriodized(1.0))):
        with pytest.raises(ValueError, match="N must be a nonnegative integer"):
            f(arg, N)


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
    exactly and each cosine taken at that phase by cospi, so that no
    multiple of pi is rounded: 2.6e-16 off 40-digit mpmath for one
    frequency (np.cos(2 pi {nx}) is 1.3e-15 off)."""
    fx = Fraction(float(x))
    fr = np.array([float((n * fx) % 1) for n in range(1, c.size)])
    return float(c[0] + 2.0 * np.sum(c[1:] * cospi(2.0 * fr)))


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
                               build_k(1.0, 192), build_k(1.0, 300), build_k(1.0, 1000)],
                         ids=["N0", "N5", "N192", "N300", "N1000"])
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
    # over frequencies 1..7 plus the block product over 8..N; values of
    # one point do not depend on the points evaluated with it
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


@pytest.mark.parametrize("N", [192, 1000])
@pytest.mark.parametrize("k", [0, 1, 7, 8, 31, 32, 33, -1])
def test_trigpoly_eval_single_frequency_at_the_band_edges(N, k):
    # frequency k alone is 2 cos 2 pi k x: the edges of the recurrence's
    # band (7 | 8) and of the block table's rows (31 | 32 | 33) and the top
    # frequency, each counted exactly once; the bound is the crossover
    # test's 4e-15 sum |c_n|, as the recurrence itself is up to 4.7e-15 off
    # at k = 7 (1500 points in [-2, 2], against 40-digit mpmath)
    k = N if k < 0 else k
    c = np.zeros(N + 1)
    c[k] = 1.0
    xs = np.concatenate([[0.0, 1e-9, 0.25, 0.5 - 1e-12, 0.5],
                         np.random.default_rng(k).uniform(-2.0, 2.0, 12)])
    tol = 4e-15 * (1.0 if k == 0 else 2.0)  # sum |c_n|, n = -N..N
    for x, v in zip(xs, TrigPoly(c).eval(xs)):
        assert abs(v - _exact_sum(c, x)) <= tol


@settings(max_examples=60, deadline=None)
@given(N=st.integers(0, 1000), seed=st.integers(0, 2**32 - 1),
       xs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
def test_trigpoly_eval_matches_direct_sum(N, seed, xs):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=N + 1)
    p = TrigPoly(c)
    # sum |c_n|, n = -N..N; 6000 drawn points read at most 2.9e-15 of it
    tol = 3e-14 * float(abs(c[0]) + 2.0 * np.sum(np.abs(c[1:])))
    for x, v in zip(xs, p.eval(np.array(xs))):
        assert abs(v - _exact_sum(c, x)) <= tol


def _in_new_thread(f):
    """f() run in a thread of its own, which starts with no workspace."""
    out = []
    t = threading.Thread(target=lambda: out.append(f()))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive() and out, "the thread hung or raised"
    return out[0]


_POLYS = {N: build_k(0.7, N) for N in (192, 1000, 4000, 12000)}


@pytest.mark.parametrize("cap", [1, 2**18], ids=["own-block-buffer", "256KB"])
@pytest.mark.parametrize("N", sorted(_POLYS))
def test_high_sum_bits_do_not_depend_on_the_chunk(monkeypatch, N, cap):
    # a smaller workspace cuts the points into chunks of one or two blocks
    # (a cap of 1 byte gives every block a buffer of its own, the route
    # above degree ~130 000); the tables are the same rows either way
    p = _POLYS[N]
    rng = np.random.default_rng(N)
    xs = {P: rng.uniform(-2.0, 2.0, P) for P in (1, 7, 8, 9, 1001, 3001)}
    default = {P: p.eval(x) for P, x in xs.items()}
    monkeypatch.setattr(periodic, "_WORKSPACE", cap)
    for P, x in xs.items():
        assert np.array_equal(p.eval(x), default[P])
    for v, x in zip(default[3001][:20], xs[3001][:20]):
        assert p.eval(float(x)) == v


def test_high_sum_threads_keep_the_bits():
    # each thread sums in its own workspace: four threads on two CPUs,
    # switching every 10 us, all read the single-thread bits
    x = np.random.default_rng(3).uniform(-2.0, 2.0, 3001)
    want = {N: p.eval(x) for N, p in _POLYS.items()}
    start = threading.Barrier(4)
    results = []

    def work():
        start.wait()
        results.append([all(np.array_equal(p.eval(x), want[N]) for N, p in _POLYS.items())
                        for _ in range(3)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[True] * 3] * 4


def test_high_sum_memory_at_degree_ten_thousand():
    # in a new thread, so the peak includes the 1 MB workspace it allocates
    x = np.linspace(-1.0, 1.0, 2001)

    def peak():
        tracemalloc.start()
        try:
            build_k(0.3, 10**4).eval(x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert _in_new_thread(peak) <= 2 * 2**20


def test_high_sum_allocates_its_workspace_once():
    p = build_k(0.3, 1000)
    x = np.linspace(-1.0, 1.0, 2001)

    def calls():
        p.eval(x)
        buf = periodic._PER_THREAD.buf
        tracemalloc.start()
        try:
            p.eval(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return buf, periodic._PER_THREAD.buf, peak

    first, second, peak = _in_new_thread(calls)
    assert second is first and first.nbytes == periodic._WORKSPACE
    assert peak < periodic._WORKSPACE // 2  # the O(P) arrays alone


_NON_FINITE = [math.inf, -math.inf, math.nan, np.array([0.25, math.inf]),
               np.array([[0.1], [math.nan]])]


@pytest.mark.parametrize("x", _NON_FINITE, ids=["inf", "-inf", "nan", "array-inf", "array-nan"])
@pytest.mark.parametrize("f", [
    build_k(1.0, 0).eval, build_k(1.0, 4).eval, build_k(1.0, 300).eval,
    lambda x: eval_q_mu(HaarLog(), x), lambda x: eval_q_mu(PowerSigma(0.5), x),
    lambda x: eval_q_mu(PowerSigma(1.5), x), lambda x: eval_q_mu(PointMasses(((1.0, 1.0),)), x),
    lambda x: eval_p(2.0, x), ExpPeriodized(2.0).value, MeasurePeriodized(HaarLog()).value,
], ids=["trig-N0", "trig-N4", "trig-N300", "haar", "power0.5", "power1.5", "masses", "eval_p",
        "exp-periodized", "measure-periodized"])
def test_non_finite_circle_points_raise(f, x):
    # a nan or infinite x has no place on R/Z: refused with the point named,
    # before any arithmetic could warn (RuntimeWarnings are errors here)
    with pytest.raises(NonFinitePoint) as exc:
        f(x)
    assert isinstance(exc.value, ValueError) and isinstance(exc.value, XapproxError)
    bad = np.asarray(x, dtype=float)
    assert str(bad[~np.isfinite(bad)].flat[0]) in str(exc.value)


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


def _unit_mass(lam):
    return PointMasses(((lam, 1.0),))


def test_p_hat_values():
    # p's Fourier coefficients are q_hat_mu of the unit mass
    assert q_hat_mu(_unit_mass(1.0), 0) == 0.0
    assert q_hat_mu(_unit_mass(1.0), 1) == pytest.approx(2.0 / (1.0 + 4.0 * math.pi**2),
                                                        rel=1e-15)
    arr = q_hat_mu(_unit_mass(2.0), np.array([0, 1, -1]))
    assert arr[0] == 0.0 and arr[1] == arr[2]


def test_q_hat_mu_closed_forms():
    assert q_hat_mu(HaarLog(), 4) == pytest.approx(0.125, rel=1e-15)
    assert q_hat_mu(HaarLog(), 0) == 0.0
    s = 0.5
    expect = math.pi * (2.0 * math.pi * 3.0) ** (-s) / math.sin(0.5 * math.pi * s)
    assert q_hat_mu(PowerSigma(s), 3) == pytest.approx(expect, rel=1e-14)
    spec = PointMasses(((1.0, 1.0), (2.0, 0.5)))
    expect = q_hat_mu(_unit_mass(1.0), 2) + 0.5 * q_hat_mu(_unit_mass(2.0), 2)
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


def _rel(v, ref):
    return abs(float((mpmath.mpf(float(v)) - ref) / ref))


@pytest.mark.parametrize("sigma", [0.05, 0.5, 1.0 - 1e-6, 1.0 + 1e-6, 1.5, 1.95])
def test_power_series_table_and_scalar_q_mu_against_mpmath(sigma):
    # the table (Gamma(1+s), C0(s), c_2..c_64) at its own float argument
    # s = 1.0 - sigma, but C0, whose zeta pole takes the exact s - 1 =
    # -sigma, at the exact 1 - sigma; and the scalar q_mu at the exact
    # sigma; the errors reached are 3.4e-16, 1.5e-15, 1.3e-15 and 8.0e-15
    g, c0, ck = _power_series(sigma)
    with mpmath.workdps(40):
        s = 1 - mpmath.mpf(sigma)
        assert _rel(c0, (1 + 2 * mpmath.zeta(s)) / s) <= 1e-14
        s = mpmath.mpf(1.0 - sigma)
        assert _rel(g, mpmath.gamma(1 + s)) <= 2e-15
        for k, c in zip(range(2, 2 * _Q_TERMS + 1, 2), ck):
            ref = 2 * mpmath.rf(s + 1, k - 1) / mpmath.factorial(k) * mpmath.zeta(s + k)
            assert _rel(c, ref) <= 1e-14, k
        s = 1 - mpmath.mpf(sigma)
        for x in (0.01, 0.1, 0.25, 0.37, 0.5):
            a = mpmath.mpf(x)
            ref = mpmath.gamma(s) * (mpmath.zeta(s, a) + mpmath.zeta(s, 1 - a))
            assert _rel(eval_q_mu(PowerSigma(sigma), x), ref) <= 5e-14, x


def test_zeta_c0_takes_its_pole_at_the_exact_sigma():
    # s = 1.0 - 0.05 rounds, and the zeta pole of C0(s) = (2 zeta(s) + 1)/s
    # magnifies that ~840x: 9.5e-16 relative with the pole term at the
    # float s, 2.4e-16 with the exact s - 1 = -sigma
    c0 = _power_series(0.05)[1]
    with mpmath.workdps(40):
        s = 1 - mpmath.mpf(0.05)
        assert _rel(c0, (1 + 2 * mpmath.zeta(s)) / s) <= 5e-16


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
    for lam in (-1.0, math.inf):  # an infinite lam would give c_0 = nan
        with pytest.raises(ValueError):
            build_k(lam, 2)
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


@pytest.mark.parametrize("N", [0, 1, 3, 8, 64, 191, 192, 1000])
def test_build_k_is_build_k_mu_of_the_unit_mass(N):
    # one coefficient formula: the exponential is the unit point mass
    for lam in (1e-4, 0.01, 0.3, 1.0, 4.0, 30.0, 300.0, 5000.0):
        a = build_k(lam, N).coeffs
        b = build_k_mu(PointMasses(((lam, 1.0),)), N).coeffs
        assert a.tobytes() == b.tobytes()


def _mp_point_mass_coeffs(masses, N):
    """c_n = sum_j w_j Khat(l_j/L, n/L)/L, L = 2N + 2, in mpmath, with
    Khat(l, u) = sinh(l/2) cos(pi u)/(sinh(l/2)^2 + sin(pi u)^2) and
    2/l_j taken from c_0 (the mean of p)."""
    L = 2 * N + 2
    out = []
    for n in range(N + 1):
        c = mpmath.mpf(0)
        for lam, w in masses:
            sh = mpmath.sinh(mpmath.mpf(lam) / (2 * L))
            sn = mpmath.sinpi(mpmath.mpf(n) / L)
            c += w * sh * mpmath.cospi(mpmath.mpf(n) / L) / (sh * sh + sn * sn) / L
            if n == 0:
                c -= w * 2 / mpmath.mpf(lam)
        out.append(c)
    return out


@pytest.mark.parametrize("N", [64, 1000])
def test_build_k_mu_point_masses_keep_relative_digits(N):
    # each coefficient, c_0 and the smallest included, within 2e-15
    # relative (6.1e-16 read at N = 64 and 6.0e-16 at 1000, the cosine
    # taken as the sine of the complement phase): the DCT of q_mu holds
    # only max |c_n| (9e-10 relative at c_1000)
    masses = ((0.5, 1.0), (2.0, 0.25))
    got = build_k_mu(PointMasses(masses), N).coeffs
    with mpmath.workdps(30):
        ref = _mp_point_mass_coeffs(masses, N)
        worst = max(abs(float((g - r) / r)) for g, r in zip(got, ref))
    assert worst <= 2e-15


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


@pytest.mark.parametrize("N", [32, 200, 1000])
def test_oracle_matches_both_builders(N):
    # exact integer phases n(2k+1) mod 2L: the oracle agrees with the
    # K-hat rows and with the DCT of the Haar q_mu to rounding
    for lam in (0.3, 10.0):
        a = interpolation_oracle(ExpPeriodized(lam), N).coeffs
        assert float(np.max(np.abs(a - build_k(lam, N).coeffs))) <= 2e-16
    h = interpolation_oracle(MeasurePeriodized(HaarLog()), N).coeffs
    assert float(np.max(np.abs(h - build_k_mu(HaarLog(), N).coeffs))) <= 5e-16


def test_oracle_memory_is_blocked():
    # the (N+1) x (2N+2) phase table goes in row blocks of at most 256 KB
    target = ExpPeriodized(0.3)
    interpolation_oracle(target, 1000)
    tracemalloc.start()
    try:
        interpolation_oracle(target, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20



# --- optimal errors ---------------------------------------------------------------

def test_periodic_l1_error_closed_form():
    assert periodic_l1_error(1.0, 0) == pytest.approx(
        2.0 - 2.0 / math.cosh(0.25), rel=1e-14)
    with pytest.raises(ValueError):
        periodic_l1_error(0.0, 1)


def test_periodic_l1_error_mu_families():
    from xapprox import catalan
    assert periodic_l1_error_mu(HaarLog(), 1) == pytest.approx(
        catalan() / math.pi, rel=1e-14)
    assert periodic_l1_error_mu(PowerSigma(0.5), 1) == pytest.approx(
        l1_error_mu_raw(PowerSigma(0.5)) / 2.0, rel=1e-14)
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


# the degrees of the circle L1 tests: 191 and 192 straddle the degree from
# which _cell_poly keeps the frequencies below 8 out of its FFT and sums them
# on eval's recurrence at the nodes
_CIRCLE_NS = (0, 1, 3, 8, 64, 191, 192, 300, 1000)


@pytest.mark.parametrize("lam", [0.01, 0.05, 0.3, 0.5, 1.0, 2.0, 5.0, 30.0, 300.0])
def test_periodic_l1_quadrature_is_the_unit_point_mass_route(lam):
    # the q_mu of one unit mass is 0.0 + 1.0 * eval_p, eval_p bit for bit at
    # the rule's nodes, so periodic_l1_quadrature integrates p - build_k
    # itself, and it reproduces the closed form
    spec = PointMasses(((lam, 1.0),))
    for N in _CIRCLE_NS:
        L = 2 * N + 2
        pts = _cell_rule(N + 1)[0] / L
        assert eval_q_mu(spec, pts).tobytes() == eval_p(lam, pts).tobytes(), N
        ref = periodic_l1_error(lam, N)
        rel = abs(periodic_l1_quadrature(lam, N) - ref) / ref
        assert rel <= (1e-13 if N <= 64 else 1e-11), N


@pytest.mark.parametrize("spec", [HaarLog(), *map(PowerSigma, (0.05, 0.5, 1.5, 1.95))], ids=repr)
def test_circle_l1_quadrature_matches_density_closed_forms(spec):
    # cell 0 takes f_mu's exact integral; the rest is the Gauss sum of
    # q_mu - p.  At sigma = 1.95 q_mu's rounding (rms 1.4e-15 against
    # 30-digit mpmath at the rule's nodes, where its series cancels ~20x)
    # leaves 1.4e-12 of the 1.9e-6 error at N = 1000
    for N in _CIRCLE_NS:
        ref = periodic_l1_error_mu(spec, N)
        rel = abs(_circle_l1_mu(spec, build_k_mu(spec, N)) - ref) / ref
        assert rel <= (1e-12 if N <= 300 else 2e-12), N


@pytest.mark.parametrize("N", [2000, 4000, 10**4])
def test_circle_l1_quadrature_matches_closed_forms_at_large_degree(N):
    # what is left is the noise of the q_mu - p subtraction: point masses
    # read up to 1.1e-10, Haar 3.3e-15 and sigma = 1.5 1.4e-12 at N = 10^4
    for spec, tol in [*((_unit_mass(lam), 2e-10) for lam in (0.3, 1.0, 5.0)),
                      (PointMasses(((0.5, 1.0), (2.0, 0.25))), 2e-10),
                      (HaarLog(), 2e-14), (PowerSigma(1.5), 5e-12)]:
        ref = periodic_l1_error_mu(spec, N)
        assert abs(_circle_l1_mu(spec, build_k_mu(spec, N)) - ref) <= tol * ref, spec


def _cosine_sum_ld(c, x):
    """c_0 + 2 sum_k c_k cos 2 pi k x in long double at the float64 points
    x, as Re sum_a e(64 a x) sum_b c'_{64 a + b} e(b x), every phase kx
    reduced mod 1 exactly: x splits into a head of 30 bits, whose products
    with integers below 2^23 are exact, and a tail."""
    head = np.round(x.ravel() * 2.0**30) / 2.0**30
    tail = (x.ravel() - head).astype(np.longdouble)
    two_pi = 4 * np.arccos(np.longdouble(0))

    def e(k):  # rows e(k x)
        a = np.multiply.outer(k.astype(float), head)
        ph = (a - np.floor(a)).astype(np.longdouble) + np.multiply.outer(k, tail)
        return np.exp(1j * two_pi * ph)

    A = np.zeros(-(-c.size // 64) * 64, dtype=np.longdouble)
    A[:c.size] = 2 * c.astype(np.longdouble)
    A[0] = c[0]
    A = A.reshape(-1, 64)
    G = A @ e(np.arange(64))
    return np.sum((e(64 * np.arange(len(A))) * G).real, axis=0).reshape(x.shape)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is double here")
@pytest.mark.parametrize("N", [16, 64, 191, 1000, 4000])
@pytest.mark.parametrize("lam", [0.3, 5.0])
def test_cell_poly_is_as_accurate_as_eval_at_the_nodes(lam, N):
    # the nodes are _cell_rule's to the bit; p there is as close to a long
    # double direct sum as TrigPoly.eval's (rms over max |p|, every cell up
    # to 191, cell 0 and 8 others beyond): 1.06-1.30x below degree 192, and
    # 0.89-1.04x from there on, where the low frequencies leave the FFT
    poly = build_k(lam, N)
    L = 2 * N + 2
    pts = _cell_rule(N + 1)[0] / L
    x, p = np.empty((32, N + 2)), np.empty((32, N + 2))
    for j, xj, pj in periodic._cell_poly(poly):
        x[j], p[j] = xj, pj
    assert x.T.tobytes() == pts.tobytes()
    cells = np.arange(N + 2) if N < 192 else np.r_[
        0, np.random.default_rng(N).choice(np.arange(1, N + 2), 8, replace=False)]
    x, p = x[:, cells], p[:, cells]
    ref = _cosine_sum_ld(poly.coeffs, x)
    rms = [np.sqrt(np.mean(np.square((v - ref).astype(float)))) for v in (p, poly.eval(x))]
    assert rms[0] <= (1.6 if N < 192 else 1.1) * rms[1]
    assert rms[0] <= 2e-16 * float(np.max(np.abs(ref)))


def test_log_circle_error_haar():
    N = 2
    v = -build_k_mu(HaarLog(), N)
    assert l1_vs_log_circle(v) == pytest.approx(
        periodic_l1_error_mu(HaarLog(), N), abs=1e-13)


@pytest.mark.parametrize("N", [0, 1, 3, 10, 64])
@pytest.mark.parametrize("lam", [0.01, 0.3, 1.0, 4.0, 50.0])
def test_dual_bounds_agree_on_the_line_and_circle(lam, N):
    # the circle's duality bound, summed from p's Fourier coefficients at
    # the frequencies (k+1/2)(2N+2), is the line bound at type 2N+2, and
    # it attains the circle's closed-form error
    bound = _dual_bound(_unit_mass(lam), 2 * N + 2)
    assert bound == pytest.approx(periodic_l1_error(lam, N), rel=2e-15, abs=0.0)


def test_circle_l1_abs_reproduces_periodic_error():
    # optimal degree-0 polynomial for the periodized exponential, lam = 1:
    # sign changes at 1/4 and 3/4, L1 error 2 - 2 sech(1/4).  An extra cell
    # edge at 0 keeps the integrand's corner (eval_p kinks at integers) out
    # of any panel interior; per-cell |integrals| are unaffected by it.
    poly = build_k(1.0, 0)
    f = lambda x: eval_p(1.0, x) - poly.eval(x)
    val = _circle_l1_abs(f, [0.0, 0.25, 0.75])
    assert val == pytest.approx(2.0 - 2.0 / math.cosh(0.25), abs=1e-12)


def test_circle_l1_abs_validates_nodes():
    with pytest.raises(ValueError):
        _circle_l1_abs(np.sin, [])


# --- the perturbation checks' cell edges (certify._sign_nodes) ---------------

def _bumped_errors(lam, N):
    # p - P for each +-1e-3 bump of one coefficient of the optimal P, as in
    # the perturbation checks
    poly = build_k(lam, N)
    for n in range(N + 1):
        for eps in (1e-3, -1e-3):
            pert = poly.with_bumped_coeff(n, eps)
            yield lambda x, pert=pert: eval_p(lam, x) - pert.eval(x)


@pytest.mark.parametrize("N", [0, 1, 3])
def test_sign_nodes_near_canonical(N):
    # at the optimum p - P changes sign at the canonical nodes, and the
    # cells between the edges give the closed-form error
    L = 2 * N + 2
    poly = build_k(1.0, N)
    f = lambda x: eval_p(1.0, x) - poly.eval(x)
    nodes = _sign_nodes(f, N)
    assert np.allclose(nodes, (np.arange(L) + 0.5) / L, rtol=0.0, atol=1e-8)
    assert _circle_l1_abs(f, nodes) == pytest.approx(periodic_l1_error(1.0, N), abs=1e-10)


@pytest.mark.parametrize("N", [0, 1, 3, 10, 64])
@pytest.mark.parametrize("lam", [0.3, 1.0, 4.0])
def test_sign_nodes_bound_every_bump(lam, N):
    # every bumped polynomial is worse than the optimum, and the cells
    # between the edges, strictly increasing in (0, 1), show it
    base = periodic_l1_error(lam, N)
    for f in _bumped_errors(lam, N):
        nodes = _sign_nodes(f, N)
        assert 0.0 < nodes[0] and nodes[-1] < 1.0 and np.all(np.diff(nodes) > 0.0)
        assert _circle_l1_abs(f, nodes) > base


@pytest.mark.parametrize("N, margin", [(0, 5e-5), (1, 1e-3), (3, 2.5e-2)])
def test_sign_nodes_keep_the_perturbation_margins(N, margin):
    # the smallest relative excess over the closed form among the bumps of
    # perturbation_N0/1/3 (6.75e-5, 1.27e-3 and 3.18e-2)
    base = periodic_l1_error(1.0, N)
    lower = min(_circle_l1_abs(f, _sign_nodes(f, N)) for f in _bumped_errors(1.0, N))
    assert (lower - base) / base >= margin


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f", [np.ones_like, lambda x: np.full_like(x, np.nan)],
                         ids=["constant", "nan"])
def test_sign_nodes_stay_canonical_without_a_step(f):
    # a zero difference or a nan gives no finite step: x_k stays, silently
    for N in (0, 3):
        L = 2 * N + 2
        assert _sign_nodes(f, N).tolist() == ((np.arange(L) + 0.5) / L).tolist()


# --- degree-only tables ---------------------------------------------------------

def _table_calls(N):
    """Each cacheable table of degree N as (build, args), as the routes ask
    for it."""
    L = 2 * N + 2
    calls = [(periodic._khat_phases, (N,))]
    if N <= 203:
        calls.append((periodic._cell_twiddles, (N, 0, periodic._WORKSPACE // (16 * L))))
    if N <= 127:
        calls.append((periodic._cospi_rows, (range(N + 1), L, L)))
    return calls


def _circle_outputs(N):
    """The bits of every route that reads the degree-only tables."""
    return (build_k(0.7, N).coeffs.tobytes(),
            build_k_mu(PointMasses(((0.5, 1.0), (2.0, 0.25))), N).coeffs.tobytes(),
            np.float64(periodic_l1_quadrature(0.7, N)).tobytes(),
            np.float64(l1_vs_log_circle(-build_k_mu(HaarLog(), N))).tobytes(),
            interpolation_oracle(ExpPeriodized(0.7), N).coeffs.tobytes())


def _cached_tables():
    """The arrays the table cache holds, read from the cache's references."""
    import gc
    held = [r for r in gc.get_referents(periodic._cached) if isinstance(r, tuple)
            and r and all(isinstance(a, np.ndarray) for a in r)]
    assert len(held) == periodic._cached.cache_info().currsize
    return [a for r in held for a in r]


@pytest.mark.parametrize("N", [0, 1, 8, 64, 127, 128, 203, 1000])
def test_cached_tables_equal_fresh_builds_and_are_read_only(N):
    for build, args in _table_calls(N):
        cached = periodic._cached(build, *args)
        assert periodic._cached(build, *args) is cached
        for a, b in zip(cached, build(*args)):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape
            with pytest.raises(ValueError):
                a[...] = 0.0


def test_tables_above_the_cap_are_built_not_cached():
    periodic._cached.cache_clear()
    for N in (128, 204, 16384):
        build_k(0.7, N)
    periodic_l1_quadrature(0.7, 204)
    interpolation_oracle(ExpPeriodized(0.7), 128)
    info = periodic._cached.cache_info()
    # only the Khat phases of 128 and 204 fit 2^15 floats
    assert (info.currsize, info.hits) == (2, 1)


@pytest.mark.parametrize("N", [0, 5, 100, 300])
def test_outputs_keep_their_bits_cold_and_warm(N):
    periodic._cached.cache_clear()
    cold = _circle_outputs(N)
    assert _circle_outputs(N) == cold
    periodic._cached.cache_clear()
    assert _circle_outputs(N) == cold


def test_threads_building_a_fresh_degree_get_the_same_bits():
    N = 97
    periodic._cached.cache_clear()
    want = (build_k(0.7, N).coeffs, periodic_l1_quadrature(0.7, N))
    periodic._cached.cache_clear()
    start = threading.Barrier(4)
    results = []

    def work():
        start.wait()
        results.append((build_k(0.7, N).coeffs, periodic_l1_quadrature(0.7, N)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 4
    for c, l1 in results:
        assert c.tobytes() == want[0].tobytes() and l1 == want[1]


def test_table_cache_stays_small_and_holds_the_circle_degrees():
    # 200 distinct degrees from 0 to 10^5, each route where it can read a
    # table (the circle L1 quadrature and interpolation cache nothing above
    # degrees 203 and 127)
    periodic._cached.cache_clear()
    sweep = np.concatenate([np.arange(100), np.rint(np.geomspace(100, 10**5, 100))])
    assert np.unique(sweep).size == 200 and sweep[-1] == 10**5
    for N in sweep.astype(int).tolist():
        build_k(0.7, N)
        if N <= 300:
            periodic_l1_quadrature(0.7, N)
            interpolation_oracle(ExpPeriodized(0.7), N)
    assert sum(a.nbytes for a in _cached_tables()) <= 16 * 2**20
    # the degrees the circle routes use run a second round from the cache
    degrees = list(range(17)) + [32, 64, 124, 204, 443, 1000]
    for _ in range(2):
        for N in degrees:
            build_k(0.7, N)
            periodic_l1_quadrature(0.7, N)
            interpolation_oracle(ExpPeriodized(0.7), N)
        misses = periodic._cached.cache_info().misses
    assert periodic._cached.cache_info().misses == misses
