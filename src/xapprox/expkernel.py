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
from .series import _cardinal_sum, _cell_integrals, _cell_operator, _dilate, _point_sum

__all__ = [
    "ExpKernel",
    "eval_K",
    "k_value_at_zero",
    "K_hat",
    "l1_error_exp",
    "error_exp",
    "error_exp_integral_oracle",
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

    A scalar z (a float, np.float64, int, complex or np.complex128) gives
    an np.float64 or np.complex128 with the bits of the same point in an
    array of the same max |Re w|, by the one-point route of
    series._point_sum; an array gives an array.
    """
    lam_p = kernel.lam / kernel.delta
    phi = lambda xi: np.exp(-lam_p * xi)
    v = _point_sum(phi, z, kernel.delta)
    if v is not None:
        return np.complex128(v) if isinstance(v, complex) else np.float64(v)
    vals = _cardinal_sum(phi, _dilate(z, kernel.delta))
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
    6.6e-16 relative at every lam' from 1e-6 to 200, x in {0.3, 1.3, 2.2,
    7.1, 15.7}) but costs ~30 us a point.
    """
    x = np.asarray(x, dtype=float)
    return np.exp(-kernel.lam * np.abs(x)) - eval_K(kernel, x[()] if x.ndim == 0 else x)


# Gauss-Legendre nodes per panel of the w-rule of error_exp_integral_oracle
# and of its higher-order twin
_W_ORDERS = (16, 24)


def error_exp_integral_oracle(lam: float, x: float) -> float:
    """Independent error representation at delta = 1, for x > 0:

        (cos pi x / pi) * int_0^inf {C(lam+w) - C(lam-w)} e^{-xw} dw,

    with C(w) = -(1/2) sech(w/2).  The integrand is positive, so this
    also certifies the sign pattern.  _oracle sums it on a cached
    Gauss-Legendre rule cut where it is e^{-40} below its own peak (so the
    error is relative), held to 1e-13 absolute plus 1e-11 relative against
    a twin rule, or QuadratureNonConvergence is raised; 0.0 where
    lam min(x, 1/2) > 800, as the value is below e^{-790}.  Raises
    ValueError unless lam is finite and positive and x is finite and positive.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"oracle requires finite x > 0, got {x}")
    if min(x, 0.5) * lam > 800.0:
        return 0.0
    return float(_oracle(np.array([float(lam)]), float(x))[0])


@functools.lru_cache(maxsize=64)
def _w_rule(k, m, lo, hi, ref, orders):
    """Panels lo..hi-1 of _oracle's rule, edge 0 at P = 2 + 2m, of widths
    2^-k <= min(1, 1/x), 2^-k, .., 1 up to 2 (the e^{-xw} spike), 2 up to
    P >= max lam + 2 (the peaks), then 4, 8, ..: the nodes w - ref,
    -expm1(-w)/2, cosh(w) e^{-P} and the weights of both orders,
    concatenated, and the first order's count; cached and read-only."""
    P = 2.0 + 2.0 * m
    e = [4.0 * 2.0 ** t - 4.0 + P - ref if t > 0  # P + 4, P + 12, P + 28, ..
         else 2.0 * t + P - ref if t >= -m  # 2, 4, .., P
         else (2.0 ** (t + m + 1) if t > -m - k - 2 else 0.0) - ref  # 0, 2^-k, .., 1
         for t in range(lo, hi + 1)]
    rules = [_panel_rule(e, n) for n in orders]
    v, wts = (np.concatenate(r) for r in zip(*rules))
    out = v, -0.5 * np.expm1(-v - ref), 0.5 * (np.exp(v + (ref - P)) + np.exp(-v - ref - P)), wts
    for a in out:
        a.flags.writeable = False
    return (*out, rules[0][0].size)


def _oracle(lams, x):
    """error_exp_integral_oracle for an array of lam > 0 (spanning < ~700)
    at one x > 0.  As cosh((w-lam)/2) cosh((w+lam)/2) = (cosh w + cosh lam)/2,
    the integrand is 2 sinh(lam/2) sinh(w/2) e^{-xw}/(cosh lam + cosh w):
    over e^{-P}, positive lam and w factors over the outer sum of cosh(lam)
    e^{-P} and cosh(w) e^{-P}.  It is below 2 e^{-|w-lam|/2-xw}, which peaks
    at w = lam for x < 1/2 and at 0 beyond, and the rule ends where that
    bound is e^{-40} below its peak.
    """
    lam = np.asarray(lams, dtype=float)
    top = float(lam.max())
    k, m = max(0, math.ceil(math.log2(x))), math.ceil(0.5 * top)
    P = 2.0 + 2.0 * m
    if x < 0.5:  # the cuts U, L; u, l = U - P, L - P formed exactly
        u, l = top - P + 40.0 / (0.5 + x), float(lam.min()) - P - 40.0 / (0.5 - x)
        U = u + P
    else:  # the peak is below the bound's by ~1/2x
        t = 41.0 + math.log(x)
        U = min((top + t) / (0.5 + x), t / (x - 0.5) if x > 0.5 else math.inf)
        u, l = U - P, -P
    # the panels from the last edge at or below L to the first at or above U
    hi = (math.ceil(math.log2(0.25 * u + 1.0)) if u > 0.0 else math.ceil(0.5 * u)
          if u > -2.0 * m else max(-k, math.ceil(math.log2(U))) - m - 1)
    lo = math.floor(0.5 * l) if l >= -2.0 * m else -m - k - 2
    v, em, ch, wts, n0 = _w_rule(k, m, lo, hi, P if x < 0.5 else 0.0, _W_ORDERS)
    # e^{-P} 2 sinh(lam/2) sinh(w/2) e^{-xw} = fac g, neither overflowing:
    # g from w = P for x < 1/2, from 0 beyond; e^{-min(x, 1/2) P} as two
    # exponentials of exact arguments, x cut to 24 bits times P and the rest
    g = em * np.exp((0.5 - x) * v) * wts
    xh = float(np.float32(min(x, 0.5)))
    fac = -np.expm1(-lam) * np.exp(0.5 * (lam - P)) * (
        math.exp(-xh * P) * math.exp((xh - min(x, 0.5)) * P))
    inv = 1.0 / np.add.outer(0.5 * (np.exp(lam - P) + np.exp(-lam - P)), ch)
    lo_sum, hi_sum = (inv[:, :n0] @ g[:n0]) * fac, (inv[:, n0:] @ g[n0:]) * fac
    if not (np.isfinite(hi_sum).all()
            and (np.abs(hi_sum - lo_sum) <= 1e-13 + 1e-11 * np.abs(hi_sum)).all()):
        raise QuadratureNonConvergence(
            f"error integral at x={x:g}: twin rules differ by "
            f"{float(np.max(np.abs(hi_sum - lo_sum))):.3e}")
    return float(cospi(x)) / math.pi * hi_sum


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
