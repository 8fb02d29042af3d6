"""Certification suite.

Every closed-form error value exposed by the library is bound here to a
number computed along an independent path (sign-split quadrature, the
duality bound by 24 CRVZ weights, integral oracles, interpolation
cross-checks).  Each check yields one CertReport; the suite passes iff
every report passes.

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
    l1_error_mu_raw,
)
from .measures import HaarLog, PointMasses, PowerSigma, _zeta
from .periodic import (
    ExpPeriodized,
    _circle_l1_abs,
    _coeff_rows,
    _cospi_sum,
    _dct2,
    build_k,
    build_k_mu,
    eval_p,
    eval_q_mu,
    interpolation_oracle,
    l1_vs_log_circle,
    periodic_l1_error,
    periodic_l1_error_mu,
    periodic_l1_quadrature,
)
from .quadrature import _DENSITY_HEAD, _density_integral, _panel_rule
from .series import _CRVZ, catalan

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


def _dual_bound(spec, delta):
    """The duality lower bound for the raw target of spec at type pi delta.
    Every P of that type has int |f - P| >= |int f sgn cos(pi delta x)|,
    which is (4/pi) |sum_{k>=0} (-1)^k qhat(delta (k+1/2))/(2k+1)|, qhat
    the transform of f (spec.q_hat); the optimal P attains it.  On the
    circle the same sum at delta = 2N+2 bounds degree N.  Summed by the 24
    CRVZ weights, as dirichlet_beta sums beta: for a density the terms are
    l1_raw's beta terms, so only point masses make it an independent
    check."""
    k = np.arange(_CRVZ.size)
    return (4.0 / math.pi) * math.fsum(_CRVZ * spec.q_hat(delta * (k + 0.5)) / (2.0 * k + 1.0))


def _chk_duality_exp(lam):
    return _dual_bound(PointMasses(((lam, 1.0),)), 1.0), l1_error_exp(lam, 1.0), 1e-13


def _chk_duality_points():
    # two masses on the line and on the circle (degree N: type 2N+2),
    # relative to the closed forms
    spec = PointMasses(((0.5, 1.0), (2.0, 0.25)))
    cases = [(d, l1_error_mu_raw(spec, d)) for d in (0.25, 1.0, 4.0)]
    cases += [(2 * N + 2, periodic_l1_error_mu(spec, N)) for N in (64, 1000)]
    worst = max(abs(_dual_bound(spec, d) - ref) / ref for d, ref in cases)
    return worst, 0.0, 1e-14


# --- series and measure-family checks --------------------------------------

def _chk_catalan_series():
    # brute partial sums to n = 1e6, the last 33 Euler-averaged, vs
    # catalan().  The terms to n = 1e6 - 33 are summed pairwise, np.sum per
    # chunk and fsum over the chunks; the cumsum runs over the last 33 terms
    # alone.  A chunk of 2^13 terms (64 KB) stays under glibc's mmap
    # threshold, so its arrays are not faulted in afresh (2^15: 3x the
    # time).  A term is sign/x^2, x = 2n + 1 exact in a float arange and
    # x^2 exact below 2^53; every chunk, and the last 33 terms, start at an
    # even n, so one +-1 vector signs them
    size, head = 2**13, 1_000_001 - 33

    def terms(a, b):  # n = a .. b - 1
        x = np.arange(2.0 * a + 1.0, 2.0 * b, 2.0)
        return sign[:x.size] / (x * x)

    sign = np.ones(size)
    sign[1::2] = -1.0
    t = terms(head, 1_000_001)
    t[0] += math.fsum(float(np.sum(terms(a, min(a + size, head))))
                      for a in range(0, head, size))
    s = np.cumsum(t)
    while s.size > 1:
        s = 0.5 * (s[:-1] + s[1:])
    return (4.0 / math.pi) * float(s[0]), 4.0 * catalan() / math.pi, 2e-14


def _chk_catalan_digits():
    return catalan(), 0.91596559417721901505, 1e-15


def _l1_exp_moment(sigma, what):
    # int (2/lam)(1 - sech(lam/2)) lam^{-sigma} dlam, the per-lambda optimal
    # error against the density; beyond the rule's head its 2/lam part is
    # integrated exactly
    return float(_density_integral(
        lambda lam: (2.0 / lam) * one_minus_sech(0.5 * lam), sigma, 0.5, what,
        far=lambda lam, wt: wt @ (-(2.0 / lam) * sech(0.5 * lam)), slow=2.0))


def _chk_density_identity(spec):
    # the per-lambda optimal error integrated against the density, in the
    # natural form, against the closed form: 4G/pi for Haar (d(lam)/lam);
    # at sigma = 1/2 it validates the gamma, sine and beta factors together
    computed = _l1_exp_moment(spec.density_power, f"{spec!r} identity")
    return computed / abs(spec.form_scale), l1_error_mu(spec), 1e-13


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


def _chk_pointwise_mu():
    # the lam-integral of single-exponential errors (error_mu_pointwise) vs
    # target minus approximant between the nodes, in the natural forms but
    # raw at sigma = 1 -+ 1e-6, whose natural form divides errors by ~1e6
    worst = 0.0
    for spec in (HaarLog(), *map(PowerSigma, (0.05, 0.5, 1.5, 1.95, 1 - 1e-6, 1 + 1e-6))):
        raw = 0.0 < abs(spec.density_power - 1.0) < 1e-3
        a = EntireApproximant(spec, 1.0, TargetForm.RAW if raw else spec.form)
        target = spec.f_mu if raw else spec.natural_target
        for x in (0.3, 0.7, 2.2, 7.1):
            direct = float(target(np.array([x]))[0]) - eval_K_mu(a, x)
            worst = max(worst, abs(error_mu_pointwise(a, x) - direct))
    return worst, 0.0, 1e-13


# --- periodic checks --------------------------------------------------------

_PERIODIC_GRID = tuple((lam, N) for lam in (0.5, 1.0, 2.0) for N in (0, 1, 3))


def _chk_l1_periodic(lam, N):
    return (periodic_l1_quadrature(lam, N), periodic_l1_error(lam, N), 1e-14)


def _chk_periodic_nodes(grid, tol):
    # from degree 192 on, TrigPoly.eval sums frequencies >= 8 by block product
    worst = 0.0
    for lam, N in grid:
        L = 2 * N + 2
        xs = (np.arange(L) + 0.5) / L
        poly = build_k(lam, N)
        worst = max(worst, float(np.max(np.abs(eval_p(lam, xs) - poly.eval(xs)))))
    return worst, 0.0, tol


def _chk_periodic_sign(grid):
    # the error's sign pattern at 2000 draws off the nodes per (lam, N)
    rng = np.random.default_rng(_SEED + 1)
    worst_frac = 1.0
    for lam, N in grid:
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
    """Optimal degree-N coefficients for the q_mu of a density by the
    theorem's route, c_n = int Khat(lam/L, n/L)/L dmu, L = 2N + 2, all
    n = 0..N from one matrix of periodic._coeff_rows against the weights
    of quadrature's fixed density rule.  Beyond the rule's head c_0 is
    Khat(lam/L, 0)/L - 2/lam, with the 2/lam part integrated exactly.
    The poles of Khat lie on the imaginary axis, as the rule needs, and
    Khat decays like e^{-lam/(2L)}.  Independent of build_k_mu's density
    route: no q_mu, no DCT."""
    slow = np.zeros(N + 1)
    slow[0] = -2.0
    return _density_integral(lambda lam: _coeff_rows(lam, N), spec.density_power,
                             0.5 / (2 * N + 2), f"{spec!r} coefficients at N={N}",
                             far=lambda lam, w: w @ _coeff_rows(lam, N, centred=False),
                             slow=slow)


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

    def far(lam, wt):  # p + 2/lam, less the constant 1 at integers
        return wt @ ((first(lam) if v else first(lam) - 1.0) + csch(0.5 * lam))

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


def _chk_dct_numpy():
    # build_k_mu's FFT-based DCT-II vs the direct cosine sum, on the Haar
    # q_mu values it transforms at degree N, relative to max |reference|
    worst = 0.0
    for N in (0, 1, 4, 64, 1000):
        vals = eval_q_mu(HaarLog(), (np.arange(N + 1) + 0.5) / (2 * N + 2))
        ref = 2.0 * _cospi_sum(vals, N + 1, 2 * N + 2)
        worst = max(worst, float(np.max(np.abs(_dct2(vals) - ref)) / np.max(np.abs(ref))))
    return worst, 0.0, 1e-15


# _sign_nodes: the half-width of the difference stencil around each
# canonical node, in cells 1/L
_NODE_STENCIL = 1e-3


def _sign_nodes(f, N: int):
    """Cell edges near the zeros of f, for a lower bound on its circle L1
    norm: one central-difference Newton step from each canonical node
    x_k = (k+1/2)/L, L = 2N+2, all from one call of f on the 3L points
    x_k and x_k +- _NODE_STENCIL/L.  A step that is not finite, or not
    shorter than 1/(2L), leaves x_k in place, so the nodes increase
    strictly in (0, 1).  Over any such edges _circle_l1_abs is a lower
    bound for ||f||_1 (sum |int_cell f| <= int |f|), and an edge d from a
    simple zero costs only O(d^2) of it."""
    L = 2 * N + 2
    x, h = (np.arange(L) + 0.5) / L, _NODE_STENCIL / L
    fl, fx, fr = np.asarray(f(np.concatenate([x - h, x, x + h])), dtype=float).reshape(3, L)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = 2.0 * h * fx / (fr - fl)
        return np.where(abs(step) < 0.5 / L, x - step, x)


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
            lower = _circle_l1_abs(f, _sign_nodes(f, N))  # a lower bound for ||f||_1
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
    reg.append(("duality_points", _chk_duality_points))
    reg.append(("catalan_series", _chk_catalan_series))
    reg.append(("catalan_digits", _chk_catalan_digits))
    reg.append(("haar_identity_1d", partial(_chk_density_identity, HaarLog())))
    reg.append(("haar_l1_2d", _chk_haar_2d))
    reg.append(("log_interpolation", _chk_log_interp))
    reg.append(("power_sigma_half", partial(_chk_density_identity, PowerSigma(0.5))))
    reg.append(("pointwise_mu_oracle", _chk_pointwise_mu))
    for lam, N in _PERIODIC_GRID:
        tag = {0.5: "0p5", 1.0: "1", 2.0: "2"}[lam]
        reg.append((f"thm6_1_lambda{tag}_N{N}", partial(_chk_l1_periodic, lam, N)))
    reg.append(("thm6_1_nodes", partial(_chk_periodic_nodes, _PERIODIC_GRID, 1e-13)))
    reg.append(("thm6_1_nodes_N1000",
                partial(_chk_periodic_nodes, ((0.5, 1000), (2.0, 1000)), 2e-14)))
    reg.append(("thm6_1_sign", partial(_chk_periodic_sign, _PERIODIC_GRID)))
    reg.append(("thm6_1_sign_N1000",
                partial(_chk_periodic_sign, ((0.5, 192), (2.0, 192), (0.5, 1000), (2.0, 1000)))))
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
