"""Certification suite.

Every closed-form error value exposed by the library is bound here to a
number computed along an independent path (sign-split quadrature, duality
series, integral oracles, interpolation cross-checks).  Each check yields
one CertReport; the suite passes iff every report passes.

Checks are registered in a fixed order at import time and rerunning any
check yields a bitwise-identical ``computed`` value: all sampling uses
fixed seeds and fixed summation orders.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np
from scipy.integrate import quad

from ._stable import cospi, one_minus_sech, one_minus_x_csch
from .errors import UnknownCheckName
from .expkernel import (
    ExpKernel,
    K_hat,
    _khat,
    dual_lower_bound_exp,
    error_exp,
    error_exp_integral_oracle,
    eval_K,
    k_value_at_zero,
    l1_error_exp,
    l1_error_exp_quadrature,
)
from .entire import (
    EntireApproximant,
    TargetForm,
    eval_K_mu,
    l1_error_mu,
    l1_error_mu_quadrature,
)
from .measures import HaarLog, PowerSigma, gamma_one_minus, integrate_measure
from .periodic import (
    ExpPeriodized,
    build_k,
    build_k_mu,
    circle_l1_abs,
    eval_p,
    eval_q_mu,
    interpolation_oracle,
    l1_vs_log_circle,
    periodic_l1_error,
    periodic_l1_error_mu,
    periodic_l1_quadrature,
    refined_sign_nodes,
)
from .quadrature import QuadratureConfig, integrate_ray
from .series import catalan

__all__ = [
    "CertReport",
    "check_names",
    "run_cert_suite",
    "reports_passed",
    "reports_to_json",
    "reports_to_table",
]


@dataclass(frozen=True)
class CertReport:
    """Outcome of one certification check.

    ``passed`` is defined as ``abs_diff <= tolerance``; checks of the
    yes/no kind (sign certificates, perturbation tests) report the
    fraction of successful samples against a reference of 1 with
    tolerance 0, so a single bad sample fails them.
    """

    name: str
    computed: float
    reference: float
    abs_diff: float
    tolerance: float
    passed: bool
    runtime_ms: float


_EXP_LAMBDAS = (0.5, 1.0, 2.0, 5.0)
_SEED = 20140616


# --- single-exponential kernel checks --------------------------------------

def _chk_l1_exp(lam, delta):
    # sign-split Gauss panels + tail model vs the sech closed form
    return l1_error_exp_quadrature(lam, delta), l1_error_exp(lam, delta), 1e-8


def _chk_interp_exp_nodes():
    m = np.arange(20) + 0.5  # positive half-integers; evenness covers the rest
    worst = 0.0
    for lam in _EXP_LAMBDAS:
        vals = eval_K(ExpKernel(lam), m)
        worst = max(worst, float(np.max(np.abs(vals - np.exp(-lam * m)))))
    return worst, 0.0, 1e-12


def _offnode_samples(count, lo, hi, min_dist, seed):
    """Uniform samples with dist(x, Z+1/2) > min_dist, fixed seed."""
    rng = np.random.default_rng(seed)
    out = np.empty(0)
    while out.size < count:
        cand = rng.uniform(lo, hi, 2 * count)
        d = np.abs(cand - (np.floor(cand) + 0.5))
        out = np.concatenate([out, cand[d > min_dist]])
    return out[:count]


def _chk_sign_exp():
    xs = _offnode_samples(4000, -20.0, 20.0, 1e-3, _SEED)
    good = 0
    for lam in _EXP_LAMBDAS:
        prod = error_exp(ExpKernel(lam), xs) * cospi(xs)
        good += int(np.count_nonzero(prod > 0.0))
    return good / (4000.0 * len(_EXP_LAMBDAS)), 1.0, 0.0


def _chk_khat_int():
    worst = 0.0
    for lam in _EXP_LAMBDAS:
        k = ExpKernel(lam)
        val, _ = quad(lambda t: K_hat(k, t), -0.5, 0.5,
                      epsabs=1e-13, epsrel=1e-13, limit=200)
        worst = max(worst, abs(val - k_value_at_zero(lam)))
    return worst, 0.0, 1e-13


def _chk_khat_nonneg():
    t = np.linspace(-0.5, 0.5, 1001)
    good = sum(int(np.count_nonzero(K_hat(ExpKernel(lam), t) >= 0.0))
               for lam in _EXP_LAMBDAS)
    return good / (1001.0 * len(_EXP_LAMBDAS)), 1.0, 0.0


def _chk_khat_edge():
    worst = max(abs(K_hat(ExpKernel(lam), s))
                for lam in _EXP_LAMBDAS for s in (-0.5, 0.5))
    return worst, 0.0, 0.0


def _chk_oracle_agreement():
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        k = ExpKernel(lam)
        for x in (0.1, 0.25, 0.75, 1.3, 4.6):
            worst = max(worst, abs(error_exp(k, x)
                                   - error_exp_integral_oracle(lam, x)))
    return worst, 0.0, 1e-13


def _chk_duality_exp(lam):
    return dual_lower_bound_exp(lam, 1.0, 10**5), l1_error_exp(lam, 1.0), 1e-13


# --- series and measure-family checks --------------------------------------

def _chk_catalan_series():
    # brute partial sums to n = 1e6, tail Euler-averaged, vs catalan()
    n = np.arange(1_000_001)
    t = np.where(n % 2 == 0, 1.0, -1.0) * (2.0 * n + 1.0) ** -2.0
    s = np.cumsum(t)[-33:]
    while s.size > 1:
        s = 0.5 * (s[:-1] + s[1:])
    return (4.0 / math.pi) * float(s[0]), 4.0 * catalan() / math.pi, 1e-12


def _chk_catalan_digits():
    return catalan(), 0.91596559417721901505, 1e-15


def _chk_haar_1d():
    # per-lambda optimal error integrated against d(lam)/lam = 4G/pi
    f = lambda lam: (2.0 / lam) * float(one_minus_sech(0.5 * lam)) / lam
    return integrate_ray(f, 0.0, QuadratureConfig()), 4.0 * catalan() / math.pi, 1e-13


def _chk_haar_2d():
    computed = l1_error_mu_quadrature(HaarLog(), 1.0)
    return computed, 4.0 * catalan() / math.pi, 1e-6


def _chk_log_interp():
    a = EntireApproximant(HaarLog(), 1.0, TargetForm.LOG)
    worst = 0.0
    for k in range(10):
        m = k + 0.5
        worst = max(worst, abs(eval_K_mu(a, m) - math.log(m)))
    return worst, 0.0, 1e-13


def _chk_power_half():
    # quadrature of the per-lambda error against lam^{-1/2} d(lam),
    # presented in the |x|^{sigma-1} normalization (validates the
    # gamma, sine and alternating-series factors together)
    f = lambda lam: (2.0 / lam) * float(one_minus_sech(0.5 * lam)) / math.sqrt(lam)
    cfg = QuadratureConfig(tail_cut=200.0)
    computed = integrate_ray(f, 0.0, cfg) / gamma_one_minus(0.5)
    return computed, l1_error_mu(PowerSigma(0.5), 1.0), 1e-13


# --- periodic checks --------------------------------------------------------

_PERIODIC_GRID = tuple((lam, N) for lam in (0.5, 1.0, 2.0) for N in (0, 1, 3))


def _chk_l1_periodic(lam, N):
    return (periodic_l1_quadrature(lam, N), periodic_l1_error(lam, N), 1e-14)


def _chk_periodic_nodes():
    worst = 0.0
    for lam, N in _PERIODIC_GRID:
        L = 2 * N + 2
        xs = (np.arange(L) + 0.5) / L
        poly = build_k(lam, N)
        worst = max(worst, float(np.max(np.abs(eval_p(lam, xs) - poly.eval(xs)))))
    return worst, 0.0, 1e-13


def _chk_periodic_sign():
    rng = np.random.default_rng(_SEED + 1)
    worst_frac = 1.0
    for lam, N in _PERIODIC_GRID:
        L = 2 * N + 2
        xs = np.empty(0)
        while xs.size < 2000:
            cand = rng.uniform(0.0, 1.0, 4000)
            d = np.abs(L * cand - (np.floor(L * cand) + 0.5))
            xs = np.concatenate([xs, cand[d > 1e-3]])
        xs = xs[:2000]
        poly = build_k(lam, N)
        prod = (eval_p(lam, xs) - poly.eval(xs)) * cospi(L * xs)
        worst_frac = min(worst_frac, np.count_nonzero(prod > 0.0) / 2000.0)
    return worst_frac, 1.0, 0.0


def _chk_log_circle(N):
    v = -build_k_mu(HaarLog(), N)
    return l1_vs_log_circle(v), periodic_l1_error_mu(HaarLog(), N), 1e-13


def _chk_cross_exp():
    worst = 0.0
    for lam, N in _PERIODIC_GRID:
        a = build_k(lam, N).coeffs
        b = interpolation_oracle(ExpPeriodized(lam), N).coeffs
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst, 0.0, 1e-13


def _coeffs_by_quadrature(spec, N):
    """Optimal degree-N coefficients for q_mu by the theorem's route, one
    adaptive quadrature per coefficient: c_n = int Khat(lam/L, n/L)/L dmu."""
    L = 2 * N + 2
    tail = max(50.0, 60.0 * L)
    c = np.zeros(2 * N + 1, dtype=complex)
    c[N] = -integrate_measure(
        spec, lambda l: (2.0 / l) * one_minus_x_csch(0.5 * l / L), tail_cut=tail)
    for n in range(1, N + 1):
        u = n / L
        def g(l, u=u):
            return _khat(l / L, u) / L
        cn = integrate_measure(spec, g, tail_cut=tail)
        c[N + n] = cn
        c[N - n] = cn
    return c


def _chk_cross_measure(specs, degrees, tol):
    # interpolation (build_k_mu) vs the per-coefficient K-hat integrals
    worst = 0.0
    for spec in specs:
        for N in degrees:
            a = build_k_mu(spec, N).coeffs
            b = _coeffs_by_quadrature(spec, N)
            worst = max(worst, float(np.max(np.abs(a - b))))
    return worst, 0.0, tol


def _q_mu_by_quadrature(sigma, x):
    """Periodized power target at scalar x by quadrature of its defining
    integral, int p(lam, x) lam^{-sigma} dlam (sigma > 1 at integers)."""
    cfg = QuadratureConfig()
    s = sigma
    xf = float(x)
    a = float(xf - np.floor(xf))
    dist = min(a, 1.0 - a)

    def p_part(l):  # cosh(l(a-1/2))/sinh(l/2), stable exponentials
        return (math.exp(l * (a - 1.0)) + math.exp(-l * a)) / (-math.expm1(-l))

    def p_over_l(l):  # smooth on [0, 1]: p(l, a)/l -> (a-1/2)^2 - 1/12
        return float(eval_p(l, a)) / l if l > 0.0 else (a - 0.5) ** 2 - 1.0 / 12.0

    # the l^{1-s} endpoint singularity goes into QUADPACK's algebraic
    # weight; [1, T] gets one breakpoint per decade since the decay scale
    # 1/dist can reach 1e6; at integers p_part -> 1, an analytic tail
    T = 40.0 / dist + 50.0 if dist else 60.0
    v1, _ = quad(p_over_l, 0.0, 1.0, weight="alg", wvar=(1.0 - s, 0.0),
                 epsabs=cfg.abs_tol / 2, epsrel=cfg.rel_tol, limit=cfg.max_depth)
    v2, _ = quad(lambda l: p_part(l) * l ** (-s), 1.0, T,
                 points=np.geomspace(1.0, T, int(math.log10(T)) + 2)[1:-1],
                 epsabs=cfg.abs_tol / 2, epsrel=cfg.rel_tol, limit=cfg.max_depth)
    tail = 0.0 if dist else T ** (1.0 - s) / (s - 1.0)
    # int_1^inf (-2/l) l^{-s} dl = -2/s exactly
    return v1 + v2 + tail - 2.0 / s


def _chk_power_q_mu():
    # Hurwitz closed form (eval_q_mu) vs the defining integral, relative
    # to max(|q_mu|, 1); sigma on both sides of 1 and near 0 and 2
    worst = 0.0
    for sigma in (0.05, 0.5, 0.999, 1.001, 1.5, 1.95):
        xs = (1e-6, 1e-3, 0.1, 0.3, 0.5) + ((2.0,) if sigma > 1.0 else ())
        vals = eval_q_mu(PowerSigma(sigma), np.array(xs))
        for x, v in zip(xs, vals):
            ref = _q_mu_by_quadrature(sigma, x)
            worst = max(worst, abs(v - ref) / max(abs(ref), 1.0))
    return worst, 0.0, 1e-11


def _chk_perturbation(N):
    # bumping any coefficient must strictly increase the circle L1 error
    lam = 1.0
    base = periodic_l1_error(lam, N)
    poly = build_k(lam, N)
    increased = 0
    trials = 0
    for n in range(N + 1):
        for eps in (1e-3, -1e-3):
            pert = poly.with_bumped_coeff(n, eps)
            f = lambda x: eval_p(lam, x) - pert.eval(x)
            nodes = refined_sign_nodes(f, N)
            if not nodes:
                nodes = [0.5 / (2 * N + 2)]
            lower = circle_l1_abs(f, nodes)  # valid lower bound for ||f||_1
            trials += 1
            increased += int(lower > base)
    return increased / float(trials), 1.0, 0.0


# --- registry ----------------------------------------------------------------

def _build_registry():
    reg = []
    lam_tags = (("0p5", 0.5), ("1", 1.0), ("2", 2.0), ("5", 5.0))
    for tag, lam in lam_tags:
        reg.append((f"thm1_1_lambda{tag}", partial(_chk_l1_exp, lam, 1.0)))
    for tag, lam in lam_tags:
        reg.append((f"thm1_1_lambda{tag}_delta2", partial(_chk_l1_exp, lam, 2.0)))
    reg.append(("interp_exp_nodes", _chk_interp_exp_nodes))
    reg.append(("sign_exp", _chk_sign_exp))
    reg.append(("khat_int", _chk_khat_int))
    reg.append(("khat_nonneg", _chk_khat_nonneg))
    reg.append(("khat_edge_zero", _chk_khat_edge))
    reg.append(("s27_oracle_agreement", _chk_oracle_agreement))
    for tag, lam in (("0p1", 0.1), ("1", 1.0), ("10", 10.0)):
        reg.append((f"duality_exp_lambda{tag}", partial(_chk_duality_exp, lam)))
    reg.append(("catalan_series", _chk_catalan_series))
    reg.append(("catalan_digits", _chk_catalan_digits))
    reg.append(("haar_identity_1d", _chk_haar_1d))
    reg.append(("haar_l1_2d", _chk_haar_2d))
    reg.append(("log_interpolation", _chk_log_interp))
    reg.append(("power_sigma_half", _chk_power_half))
    for lam, N in _PERIODIC_GRID:
        tag = {0.5: "0p5", 1.0: "1", 2.0: "2"}[lam]
        reg.append((f"thm6_1_lambda{tag}_N{N}", partial(_chk_l1_periodic, lam, N)))
    reg.append(("thm6_1_nodes", _chk_periodic_nodes))
    reg.append(("thm6_1_sign", _chk_periodic_sign))
    for N in (0, 1, 2, 4, 8):
        reg.append((f"thm1_4_N{N}", partial(_chk_log_circle, N)))
    reg.append(("cross_oracle_exp", _chk_cross_exp))
    reg.append(("cross_oracle_haar",
                partial(_chk_cross_measure, (HaarLog(),), (0, 1, 2, 4, 8), 1e-13)))
    reg.append(("cross_oracle_power",
                partial(_chk_cross_measure, (PowerSigma(0.05), PowerSigma(1.95)), (0, 1, 4),
                        1e-10)))
    reg.append(("power_q_mu_closed_form", _chk_power_q_mu))
    for N in (0, 1, 3):
        reg.append((f"perturbation_N{N}", partial(_chk_perturbation, N)))
    return tuple(reg)


_REGISTRY = _build_registry()
_BY_NAME = dict(_REGISTRY)


def check_names():
    """All registered check names, in registration (= report) order."""
    return [name for name, _ in _REGISTRY]


def run_cert_suite(selection=None):
    """Run the selected checks (all when selection is None).

    Returns a list of CertReport in registration order.  Unknown names
    raise UnknownCheckName before any check runs.
    """
    if selection is None:
        chosen = _REGISTRY
    else:
        wanted = list(selection)
        for name in wanted:
            if name not in _BY_NAME:
                raise UnknownCheckName(f"unknown check name: {name!r}")
        keep = set(wanted)
        chosen = [(n, f) for n, f in _REGISTRY if n in keep]
    reports = []
    for name, fn in chosen:
        t0 = time.perf_counter()
        computed, reference, tol = fn()
        ms = (time.perf_counter() - t0) * 1e3
        diff = abs(computed - reference)
        reports.append(CertReport(
            name=name, computed=float(computed), reference=float(reference),
            abs_diff=float(diff), tolerance=float(tol),
            passed=bool(diff <= tol), runtime_ms=float(ms),
        ))
    return reports


def reports_passed(reports) -> bool:
    return all(r.passed for r in reports)


def reports_to_json(reports) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2)


def reports_to_table(reports) -> str:
    """Plain-text table, one row per report."""
    width = max([len(r.name) for r in reports] + [5])
    lines = [f"{'check':<{width}}  {'computed':>24}  {'reference':>24}  "
             f"{'abs_diff':>12}  {'tol':>9}  status  ms"]
    for r in reports:
        lines.append(
            f"{r.name:<{width}}  {r.computed:>24.17g}  {r.reference:>24.17g}  "
            f"{r.abs_diff:>12.3e}  {r.tolerance:>9.1e}  "
            f"{'PASS' if r.passed else 'FAIL':<6}  {r.runtime_ms:.1f}"
        )
    return "\n".join(lines)
