"""Best L1 bandlimited approximation of e^{-lam|x|}.

The central object is the entire interpolant

    K(lam, z) = (cos pi z / pi) * sum_n (-1)^n e^{-lam|n-1/2|} / (z - n + 1/2),

of exponential type pi, which matches e^{-lam|x|} at every half-integer
and is the unique minimizer of the L1 approximation error among type-pi
functions.  Rescaling K(lam/delta, delta*x) gives the optimal function
of type pi*delta.

eval_K sums the series in the cardinal form e^{-lam|m|} * sinc(z - m)
(m ranging over half-integers), which is finite at the nodes, through
series._cardinal_sum, the engine the measure approximants in entire.py
share.  The periodization p(lam, x) of the same target (eval_p) lives
here too: the measure families and the circle builders integrate it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._stable import cospi, csch, one_minus_sech, one_minus_x_csch, sech, sinpi
from .errors import NonFinitePoint, QuadratureNonConvergence
from .quadrature import _panel_rule
from .series import _cardinal_sum, _cell_integrals, _cell_operator, _dilate

__all__ = [
    "ExpKernel",
    "eval_K",
    "k_value_at_zero",
    "K_hat",
    "l1_error_exp",
    "error_exp",
    "error_exp_integral_oracle",
    "dual_lower_bound_exp",
    "l1_error_exp_quadrature",
    "eval_p",
]


@dataclass(frozen=True)
class ExpKernel:
    """Decay rate lam > 0 and type parameter delta > 0 (type pi*delta)."""

    lam: float
    delta: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")


def eval_K(kernel: ExpKernel, z):
    """The dilated kernel K(lam/delta, delta*z); vectorized, real or complex.

    Evaluation sums e^{-lam'|m|}(sinc(w-m) + sinc(w+m)) over the
    positive half-integers m, with w = delta*z, lam' = lam/delta, in the
    shared cardinal-series engine: ceil(max |Re w|) + 32 terms per point,
    whatever lam'.  The result is exactly even in z and exact at the
    interpolation nodes.  Documented range: lam' >= 1e-6 and |Re w| <= 1e3,
    where real values are within a few 1e-15 and complex ones within
    ~1e-12 of max(|K|, 1e-3 cosh(pi Im w)); off the axis up to overflow of
    cosh pi Im w (|Im w| beyond ~226), which raises SeriesNonConvergence, as
    does a z with an infinite or nan part.
    """
    lam_p = kernel.lam / kernel.delta
    vals = _cardinal_sum(lambda xi: np.exp(-lam_p * xi), _dilate(z, kernel.delta))
    return vals[0] if np.ndim(z) == 0 else vals


def k_value_at_zero(lam: float, delta: float = 1.0) -> float:
    """K(lam/delta, 0) = (4/pi) arctan(e^{-lam/(2 delta)}) in closed form."""
    ExpKernel(lam, delta)  # the checks of lam > 0 and delta > 0
    return (4.0 / math.pi) * math.atan(math.exp(-0.5 * lam / delta))


def K_hat(kernel: ExpKernel, t):
    """Fourier transform of the dilated kernel; supported on |t| <= delta/2.

    Inside the support this is delta^{-1} * sinh(l/2) cos(pi u) /
    (sinh(l/2)^2 + sin(pi u)^2) with l = lam/delta, u = t/delta, written
    via csch so large l underflows to 0 instead of overflowing.  The
    cos(pi u) factor vanishes exactly at the support edge.
    """
    u = np.asarray(t, dtype=float) / kernel.delta
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    base = _khat(kernel.lam / kernel.delta, u)
    out = np.where(np.abs(u) <= 0.5, base / kernel.delta, 0.0)
    return float(out[0]) if scalar else out


def _khat(lam_p, u):
    # delta * K_hat inside the support at lam_p = lam/delta, u = t/delta;
    # quadrature integrands call it directly to stay cheap
    cs = csch(0.5 * lam_p)
    return cospi(u) * cs / (1.0 + (sinpi(u) * cs) ** 2)


def l1_error_exp(lam: float, delta: float = 1.0) -> float:
    """Exact minimal L1(R) error (2/lam)(1 - sech(lam/(2 delta)))."""
    ExpKernel(lam, delta)  # the checks of lam > 0 and delta > 0
    return (2.0 / lam) * float(one_minus_sech(0.5 * lam / delta))


def error_exp(kernel: ExpKernel, x):
    """Pointwise error e^{-lam|x|} - K(lam/delta, delta*x).

    Its sign is that of cos(pi*delta*x), vanishing exactly at the
    half-integer nodes of delta*x.  The two terms are each ~1 and their
    difference is small when lam' = lam/delta is, so the subtraction loses
    digits as lam' falls: against 40-digit mpmath at w in {0.3, 2.2, 7.1,
    15.7}, the worst relative error is 5.2e-16 at lam' = 50, 2.1e-15 at 1,
    2.3e-13 at 0.1, 4.8e-11 at 0.01, 5.3e-10 at 1e-3, 1.3e-9 at 1e-4 and
    1.4e-7 at 1e-6.  error_exp_integral_oracle has no such loss (within
    4.7e-16 at every lam') but costs ~80 us a point.
    """
    x = np.asarray(x, dtype=float)
    return np.exp(-kernel.lam * np.abs(x)) - eval_K(kernel, x)


# Gauss-Legendre nodes per panel of the w-rule of error_exp_integral_oracle
# and of its higher-order twin
_W_ORDERS = (16, 24)


def error_exp_integral_oracle(lam: float, x: float) -> float:
    """Independent error representation at delta = 1, for x > 0:

        (cos pi x / pi) * int_0^inf {C(lam+w) - C(lam-w)} e^{-xw} dw,

    with C(w) = -(1/2) sech(w/2).  The integrand is positive, so this
    also certifies the sign pattern.  It is integrated by fixed
    Gauss-Legendre panels of width at most 2, graded at scale 1/x near
    w = 0 so that the e^{-xw} spike is resolved for large x, and held to
    1e-13 absolute plus 1e-11 relative error against a higher-order twin
    rule, or QuadratureNonConvergence is raised.  Raises ValueError unless
    lam is finite and positive and x is finite and positive.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"oracle requires finite x > 0, got {x}")
    return float(_oracle(np.array([float(lam)]), float(x))[0])


def _oracle(lams, x):
    """error_exp_integral_oracle for an array of lam > 0 at one x > 0.

    The integrand is written as
        sinh(w/2) sinh(lam/2) / (cosh((w-lam)/2) cosh((w+lam)/2)) e^{-xw}
    in decaying exponentials, free of cancellation and overflow.  It is
    below e^{-|w-lam|/2} and below e^{-xw}, so integration over
    [max(0, min lam - 84), min((84 + max lam)/(1 + 2x), 42/x)] leaves at
    most e^{-42} max(2, max lam/42) at either end.
    """
    lo = max(0.0, float(np.min(lams)) - 84.0)
    top = min((84.0 + float(np.max(lams))) / (1.0 + 2.0 * x), 42.0 / x)
    edges = [lo]
    step = min(2.0, 1.0 / x)
    while edges[-1] < top and step < 2.0:  # widths 1/x, 2/x, 4/x, .. up to 2
        edges.append(edges[-1] + step)
        step *= 2.0
    n = max(0, math.ceil((top - edges[-1]) / 2.0))
    edges = np.concatenate([edges, edges[-1] + 2.0 * np.arange(1.0, n + 1.0)])
    lam = np.asarray(lams, dtype=float)[:, None]
    em_lam, e_lam = -np.expm1(-lam), np.exp(-lam)
    sums = []
    for order in _W_ORDERS:
        w, wts = _panel_rule(edges, order)
        half = np.exp(-0.5 * np.abs(w - lam))  # e^{-|w-lam|/2}
        f = (-np.expm1(-w) * np.exp(-x * w)) * em_lam * half
        sums.append((f / ((1.0 + np.exp(-w) * e_lam) * (1.0 + half * half))) @ wts)
    lo_sum, hi_sum = sums
    if not (np.isfinite(hi_sum).all()
            and (np.abs(hi_sum - lo_sum) <= 1e-13 + 1e-11 * np.abs(hi_sum)).all()):
        raise QuadratureNonConvergence(
            f"error integral at x={x:g}: twin rules differ by "
            f"{float(np.max(np.abs(hi_sum - lo_sum))):.3e}")
    return float(cospi(x)) / math.pi * hi_sum


def dual_lower_bound_exp(lam: float, delta: float = 1.0, terms: int = 10**5) -> float:
    """Partial sums of the duality lower bound

        (4/pi) sum_{k>=0} (-1)^k/(2k+1) * 2 lam / (lam^2 + 4 pi^2 m^2),   m = delta (k+1/2),

    which increases to l1_error_exp(lam, delta) as terms grows (the
    symmetric frequencies +-(k+1/2) are already paired)."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    # the terms in blocks of 2^13, whose temporaries stay below malloc's
    # mmap threshold, then one pairwise sum.  k + 1/2 and 2k + 1 come exact
    # from float aranges, and every block starts at an even k, so its
    # factors (4/pi)(-1)^k alternate from +4/pi
    size = 2**13
    vals = np.empty(terms)
    for start in range(0, terms, size):
        stop = min(start + size, terms)
        m = delta * np.arange(start + 0.5, stop)
        qh = 2.0 * lam / (lam * lam + 4.0 * math.pi**2 * m * m)
        c = np.empty(stop - start)
        c[0::2] = 4.0 / math.pi
        c[1::2] = -4.0 / math.pi
        vals[start:stop] = c / np.arange(2.0 * start + 1.0, 2.0 * stop, 2.0) * qh
    return float(np.sum(vals))


def _watson_c1_c3(u):
    # odd-order derivatives at u of C(w) = -(1/2) sech(w/2), vectorized
    s = sech(0.5 * u)
    th = np.tanh(0.5 * u)
    return 0.25 * s * th, -s * th * (5.0 * s * s - th * th) / 16.0


def l1_tail_exp(lam_p: float, T: float) -> float:
    """int_{T}^inf |e^{-lam' w} - K(lam', w)| dw for half-integer T.

    Uses the large-w expansion of the error, (cos pi w/pi)(2C'/w^2 +
    2C'''/w^4), integrated with the mean value 2/pi of |cos|; relative
    accuracy ~0.04/T^2, plus the exponentially negligible target tail.
    """
    c1, c3 = _watson_c1_c3(lam_p)
    alg = (4.0 / math.pi**2) * (c1 / T + c3 / (3.0 * T**3))
    return alg + math.exp(-lam_p * T) / lam_p


def l1_error_exp_quadrature(lam: float, delta: float = 1.0) -> float:
    """L1 error recomputed from the pointwise error, independent of the
    closed form: 32-node Gauss panels on the 201 cells [0, 1/2],
    [1/2, 3/2], .., [199 + 1/2, 200 + 1/2] in w = delta*x units (the sign
    of the error is constant on each), doubled by evenness, plus the tail
    estimate beyond the last node.  The panels' integrals of the kernel
    come from series._cell_operator, a cached matrix applied to the node
    data e^{-lam' xi}, with the same values as a Gauss sum over eval_K at
    every panel node.  Agrees with l1_error_exp to ~1e-10 for lam/delta
    of order one.  Raises ValueError unless lam and delta are finite and
    positive, and QuadratureNonConvergence when the result is not finite
    (lam/delta under- or overflows, or the tail's e^{-lam' T}/lam' does).
    """
    ExpKernel(lam, delta)  # the checks of lam > 0 and delta > 0
    lam_p = lam / delta
    out = math.inf
    if 0.0 < lam_p < math.inf:  # else lam/delta under- or overflowed
        K = 200
        pts, wts, _ = _cell_operator(K)
        target = np.einsum("cj,cj->c", wts, np.exp(-lam_p * pts))
        body = float(np.sum(np.abs(target - _cell_integrals(lambda xi: np.exp(-lam_p * xi), K))))
        tail = l1_tail_exp(lam_p, K + 0.5)
        out = (2.0 * body + 2.0 * tail) / delta
    if not math.isfinite(out):
        raise QuadratureNonConvergence(
            f"exp L1 quadrature at lam={lam!r}, delta={delta!r}: result {out}")
    return out


@functools.lru_cache(maxsize=64)
def _p_constants(lam):
    # eval_p's lam-dependent factors, -expm1(-lam) and (2/lam)(1 - (lam/2)
    # csch(lam/2)): callers evaluate one lam at many points
    return -math.expm1(-lam), one_minus_x_csch(0.5 * lam) * (2.0 / lam)


def _circle_points(x):
    """x as a float array; NonFinitePoint, naming the first such point,
    where x holds a nan or an infinity, which has no place on R/Z."""
    xa = np.asarray(x, dtype=float)
    # the cheapest tests: ~0.1 us for a point, ~1 us for a short array
    if not (math.isfinite(xa) if xa.ndim == 0
            else np.count_nonzero(np.isfinite(xa)) == xa.size):
        bad = xa[~np.isfinite(xa)].flat[0]
        raise NonFinitePoint(f"circle point x = {bad} is not finite")
    return xa


def eval_p(lam: float, x):
    """p(lam, x) = cosh(lam({x}-1/2))/sinh(lam/2) - 2/lam, period 1: the
    periodization of e^{-lam|x|} minus its mean.

    Written as e^{-lam v} t^2/(-expm1(-lam)) - (2/lam)(1 - (lam/2)
    csch(lam/2)) with t = expm1(-lam(1/2 - v)) and v = |x - rint x|, the
    exact distance to the nearest integer: both terms are O(lam) where p
    is, so nothing large cancels at small lam, and no exponential
    overflows at large lam.  Within ~4e-14 of max(|p|, 1e-3) for lam in
    [1e-4, 2000], ~5e-17 absolute where p crosses zero.  Raises
    ValueError unless lam is finite and positive, and NonFinitePoint (a
    ValueError) at a nan or infinite x.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    xa = _circle_points(x)
    den, c2 = _p_constants(float(lam))
    q = np.abs(xa - np.rint(xa))
    q *= -lam
    t = np.expm1(-0.5 * lam - q)
    out = np.exp(q)
    out *= t
    t /= den
    out *= t
    out -= c2
    return float(out) if out.ndim == 0 else out
