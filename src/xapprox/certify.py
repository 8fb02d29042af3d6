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

from ._stable import cospi, csch, one_minus_sech, one_minus_x_csch, sech
from .errors import QuadratureNonConvergence, UnknownCheckName
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
    error_mu_pointwise,
    eval_K_mu,
    l1_error_mu,
    l1_error_mu_quadrature,
)
from .measures import HaarLog, PowerSigma, _zeta, gamma_one_minus
from .periodic import (
    ExpPeriodized,
    _dct2,
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
from .quadrature import _DENSITY_HEAD, _density_integral, _panel_rule
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


# Gauss-Legendre panels on [-1/2, 1/2], halving toward t = 0, where the
# poles of K-hat at t = +-i lam/(2 pi) come nearest the axis
_KHAT_EDGES = np.concatenate([-(0.5 ** np.arange(1.0, 6.0)), [0.0],
                              0.5 ** np.arange(5.0, 0.0, -1.0)])


def _chk_khat_int():
    # the transform's mass is K(lam, 0); orders 16 and 24 must agree to 1e-14
    worst = 0.0
    for lam in _EXP_LAMBDAS:
        k = ExpKernel(lam)
        lo, hi = (float(K_hat(k, t) @ w) for t, w in
                  (_panel_rule(_KHAT_EDGES, n) for n in (16, 24)))
        if not abs(hi - lo) <= 1e-14:
            raise QuadratureNonConvergence(
                f"K-hat mass at lam={lam}: twin rules give {lo!r} and {hi!r}")
        worst = max(worst, abs(hi - k_value_at_zero(lam)))
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
    # brute partial sums to n = 1e6, tail Euler-averaged, vs catalan(); the
    # cumsum runs in chunks of 2^15 terms, each chunk's first term taking
    # the carry: the same sequential sums as one cumsum, in 1/16 the memory.
    # A term is sign/x^2, x = 2n + 1 exact in a float arange and x^2 exact
    # below 2^53; every chunk starts at an even n, so one +-1 vector signs it
    size = 2**15
    sign = np.ones(size)
    sign[1::2] = -1.0
    carry, s = 0.0, np.empty(0)
    for start in range(0, 1_000_001, size):
        x = np.arange(2.0 * start + 1.0, 2.0 * min(start + size, 1_000_001), 2.0)
        t = sign[:x.size] / (x * x)
        t[0] += carry
        c = np.cumsum(t)
        carry = c[-1]
        s = np.concatenate([s, c])[-33:]
    while s.size > 1:
        s = 0.5 * (s[:-1] + s[1:])
    return (4.0 / math.pi) * float(s[0]), 4.0 * catalan() / math.pi, 1e-12


def _chk_catalan_digits():
    return catalan(), 0.91596559417721901505, 1e-15


def _l1_exp_moment(sigma, what):
    # int (2/lam)(1 - sech(lam/2)) lam^{-sigma} dlam, the per-lambda optimal
    # error against the density; beyond the rule's head its 2/lam part is
    # integrated exactly
    return float(_density_integral(
        lambda lam: (2.0 / lam) * one_minus_sech(0.5 * lam), sigma, 0.5, what,
        far=lambda lam: -(2.0 / lam) * sech(0.5 * lam), slow=2.0))


def _chk_haar_1d():
    # per-lambda optimal error integrated against d(lam)/lam = 4G/pi
    return _l1_exp_moment(1.0, "Haar identity"), 4.0 * catalan() / math.pi, 1e-13


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
    computed = _l1_exp_moment(0.5, "power identity") / gamma_one_minus(0.5)
    return computed, l1_error_mu(PowerSigma(0.5), 1.0), 1e-13


def _chk_pointwise_mu():
    # the lam-integral of single-exponential errors (error_mu_pointwise) vs
    # target minus approximant between the nodes, in the natural forms
    worst = 0.0
    for spec in (HaarLog(),) + tuple(PowerSigma(s) for s in (0.05, 0.5, 1.5, 1.95)):
        a = EntireApproximant(spec, 1.0, spec.form)
        for x in (0.3, 0.7, 2.2, 7.1):
            direct = float(spec.natural_target(np.array([x]))[0]) - eval_K_mu(a, x)
            worst = max(worst, abs(error_mu_pointwise(a, x) - direct))
    return worst, 0.0, 1e-12


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
    """Optimal degree-N coefficients for q_mu by the theorem's route,
    c_n = int Khat(lam/L, n/L)/L dmu, L = 2N + 2, all n = 0..N from one
    matrix of Khat values against the weights of quadrature's fixed
    density rule (point masses: an exact weighted sum).  c_0 is
    -int (2/lam)(1 - x csch x) dmu, x = lam/(2L); beyond the rule's head
    that is Khat(lam/L, 0)/L - 2/lam, with the 2/lam part integrated
    exactly.  The poles of Khat lie on the imaginary axis, as the rule
    needs, and Khat decays like e^{-lam/(2L)}.  Independent of
    build_k_mu: no q_mu, no DCT."""
    L = 2 * N + 2
    u = np.arange(N + 1) / L

    def khat(lam):
        return _khat(lam[:, None] / L, u) / L

    def head(lam):
        m = khat(lam)
        m[:, 0] = -(2.0 / lam) * one_minus_x_csch(0.5 * lam / L)
        return m

    sigma = spec.density_power
    if sigma is None:
        lam, w = np.array(spec.masses).T
        c = w @ head(lam)
    else:
        slow = np.zeros(N + 1)
        slow[0] = -2.0
        c = _density_integral(head, sigma, 0.5 / L,
                              f"{spec!r} coefficients at N={N}", far=khat, slow=slow)
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
    """Periodized power target at scalar x by quadrature's fixed density
    rule on its defining integral, int p(lam, x) lam^{-sigma} dlam
    (sigma > 1 at integers).  p(lam, x) = e^{-lam v} t^2/(-expm1(-lam))
    - (2/lam)(1 - (lam/2) csch(lam/2)), t = expm1(-lam(1/2 - v)) and v the
    distance from x to the nearest integer, vectorised over lam in stable
    exponentials: both terms are O(lam) at small lam, where the rule's
    head takes p/lam.  Beyond the head, p + 2/lam decays like e^{-lam v}
    and its -2/lam part is integrated exactly; at integers the first term
    tends to 1 instead, so there the constant 1 is integrated exactly too,
    int_4^inf lam^{-sigma} dlam = 4^{1-sigma}/(sigma - 1), and the rest
    decays like e^{-lam/2}.  Independent of eval_q_mu: no Hurwitz zeta,
    no series."""
    xf = float(x)
    v = abs(xf - round(xf))

    def first(lam):  # cosh(lam(1/2 - v))/sinh(lam/2) - csch(lam/2)
        t = np.expm1(-lam * (0.5 - v))
        return np.exp(-lam * v) * t * t / -np.expm1(-lam)

    def p(lam):
        return first(lam) - (2.0 / lam) * one_minus_x_csch(0.5 * lam)

    def far(lam):  # p + 2/lam, less the constant 1 at integers
        return (first(lam) if v else first(lam) - 1.0) + csch(0.5 * lam)

    q = _density_integral(p, sigma, v or 0.5, f"q_mu at x={xf!r}", far=far, slow=-2.0)
    return float(q) + (0.0 if v else _DENSITY_HEAD ** (1.0 - sigma) / (sigma - 1.0))


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


# zeta_numpy's arguments t, from the pole (sigma -> 2) through the 4-5 band,
# where the asymptotic Bernoulli tail is weakest, up to q_mu's largest
# argument, each with mpmath's zeta at that double to 30 digits (printed by
# tools/gen_reference_values.py --zeta-numpy)
_ZETA_REFERENCE = (
    (1.000000001, 999999917.836851511852401825175),
    (1.000001, 1000000.57729800435532656531022),
    (1.05, 20.5808443020369848299843450341),
    (1.5, 2.61237534868548834334856756792),
    (2.05, 1.60042420415363891714246518940),
    (3.0, 1.20205690315959428539973816151),
    (4.3, 1.06428096432584001934127308875),
    (4.8, 1.04314801333517896902998882820),
    (5.1, 1.03418547468748963267227773673),
    (10.0, 1.00099457512781808533714595890),
    (33.0, 1.00000000011641550172700519776),
    (65.0, 1.00000000000000000002710505431),
)


def _chk_zeta_numpy():
    # the Euler-Maclaurin zeta behind q_mu's series vs frozen 30-digit
    # mpmath values, relative
    t, ref = np.array(_ZETA_REFERENCE).T
    return float(np.max(np.abs(_zeta(t) - ref) / ref)), 0.0, 1e-15


def _dct2_direct(x):
    """DCT-II by its defining sum, y_k = 2 sum_n x_n cos(pi k (2n+1)/(2m)),
    m = len(x), in O(m^2): the phases are the integers k(2n+1) mod 4m,
    the cosines read from one table cospi(j/(2m)) of the 4m phases, and
    rows go in blocks of max(1, 2^16 // m), so below m = 2^16 no block
    temporary exceeds 512 KB."""
    m = x.size
    table = cospi(np.arange(4 * m) / (2.0 * m))
    odd = 2 * np.arange(m) + 1
    rows = max(1, 2**16 // m)
    out = np.empty(m)
    for k0 in range(0, m, rows):
        j = np.outer(np.arange(k0, min(k0 + rows, m)), odd)
        j %= 4 * m
        out[k0:k0 + j.shape[0]] = table.take(j) @ x
    return 2.0 * out


def _chk_dct_numpy():
    # build_k_mu's FFT-based DCT-II vs the direct cosine sum, on the Haar
    # q_mu values it transforms at degree N, relative to max |reference|
    worst = 0.0
    for N in (0, 1, 4, 64, 1000):
        vals = eval_q_mu(HaarLog(), (np.arange(N + 1) + 0.5) / (2 * N + 2))
        ref = _dct2_direct(vals)
        worst = max(worst, float(np.max(np.abs(_dct2(vals) - ref)) / np.max(np.abs(ref))))
    return worst, 0.0, 1e-15


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
    reg.append(("pointwise_mu_oracle", _chk_pointwise_mu))
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
                partial(_chk_cross_measure,
                        tuple(PowerSigma(s) for s in (0.05, 0.5, 1.5, 1.95)), (0, 1, 4, 16, 64),
                        1e-13)))
    reg.append(("power_q_mu_closed_form", _chk_power_q_mu))
    reg.append(("zeta_numpy", _chk_zeta_numpy))
    reg.append(("dct_numpy", _chk_dct_numpy))
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
