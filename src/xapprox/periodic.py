"""Best L1 approximation on the circle by trigonometric polynomials.

Periodizing e^{-lam|x|} gives p(lam, x) = cosh(lam({x}-1/2))/sinh(lam/2)
- 2/lam (mean zero); integrating p against a measure gives q_mu, whose
Haar case is -log|2 sin pi x|.  The optimal degree-N approximations
have explicit Fourier coefficients: the sampled line-kernel transform
(build_k), equally the interpolant at the 2N+2 shifted nodes (build_k_mu,
one DCT of q_mu).  Every target is even and real, and so is every
polynomial: TrigPoly stores its cosine coefficients c_0..c_N.  A direct
cosine-sum interpolation is the reference for both builders; circle L1
quadrature respects the corner of p at x = 0 and the log singularity of
the Haar target, and treats p as the q_mu of a unit point mass.  Every
circle value goes through TrigPoly.eval: Reinsch's modified Clenshaw
recurrence, which from degree 192 on keeps only the frequencies below 32
and sums the rest as one BLAS matrix product per block of points.  O(P)
memory for P points, as accurate as the direct sum, and exactly even.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._stable import cospi, one_minus_x_csch, sinpi
from .entire import l1_error_mu_raw
from .errors import QuadratureNonConvergence
from .expkernel import _khat, eval_p, l1_error_exp
from .measures import HaarLog, PointMasses, f_mu, validate
from .quadrature import panel_nodes, reduce_cells_abs

__all__ = [
    "TrigPoly",
    "ExpPeriodized",
    "MeasurePeriodized",
    "p_hat",
    "q_hat_mu",
    "eval_q_mu",
    "build_k",
    "build_k_mu",
    "periodic_l1_error",
    "periodic_l1_error_mu",
    "interpolation_oracle",
    "circle_l1_abs",
    "refined_sign_nodes",
    "periodic_l1_quadrature",
    "l1_vs_log_circle",
]


class TrigPoly:
    """Even real trig polynomial c_0 + 2 sum_{n=1}^{N} c_n cos 2 pi n x on
    R/Z, stored as its N+1 coefficients c_0..c_N (a 1-D float array)."""

    __slots__ = ("degree", "_c", "_cos")

    def __init__(self, coeffs):
        if np.iscomplexobj(coeffs):
            raise ValueError("coefficients must be real")
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError(f"need a non-empty 1-D array of c_0..c_N, got shape {c.shape}")
        self.degree = c.size - 1
        self._c = c
        # eval's recurrence coefficients 2 c_k, frequency N first
        self._cos = (2.0 * c[:0:-1]).tolist()

    def coeff(self, n: int) -> float:
        """c_n = c_{-n}; 0.0 beyond the degree."""
        return float(self._c[abs(n)]) if abs(n) <= self.degree else 0.0

    @property
    def coeffs(self):
        """c_0..c_N, a copy."""
        return self._c.copy()

    def eval(self, x):
        """Value at x (scalar or array); scalar x gives a Python float.

        Reinsch's modified Clenshaw recurrence (Reinsch 1967; Oliver,
        J. IMA 1977): with a_k = 2 c_k and b = d = 0 above the top
        frequency, run k down to 1:

            d_k = a_k + m b_{k+1} + s d_{k+1},   b_k = d_k + s b_{k+1};

        the value is c_0 + (m/2) b_1 + s d_1.  Where cos 2 pi x >= 0
        (|cospi x| >= |sinpi x|) s = +1 and m = -4 sin^2(pi x), elsewhere
        s = -1 and m = 4 cos^2(pi x): m is small exactly where plain
        Clenshaw's 2 cos 2 pi x sits near +-2 and loses digits.  sinpi is
        odd and cospi even bit for bit, so the value is exactly even.

        The recurrence costs six array operations per frequency.  So a
        polynomial of degree >= _BLAS_DEGREE runs it only over the
        frequencies below _BLOCK, which hold the large coefficients, and
        adds the rest from _high_sum, one real matrix product per block of
        points.  It folds x to u = |x - rint x| and evaluates each distinct
        u once, so evenness stays exact there too, and a scalar rounds as
        the same point of an array does.  Memory is O(len(x)) either way.
        """
        c0 = float(self._c[0])
        scalar = np.ndim(x) == 0
        if self.degree == 0:
            return c0 if scalar else np.full(np.shape(x), c0)
        if self.degree >= _BLAS_DEGREE:
            xa = np.asarray(x, dtype=float)
            u, inv = np.unique(np.abs(xa - np.rint(xa)).ravel(), return_inverse=True)
            # m and s first: cospi's temporaries peak before high exists
            m, s = _recurrence_ms(cospi(u), sinpi(u))
            high = _high_sum(2.0 * self._c[_BLOCK:], u)
            del u
            b, d = _reinsch(self._cos[-(_BLOCK - 1):], m, s)
            # ((c0 + (m/2) b) + s d) + high, in place, with no temporaries
            m *= b
            m *= 0.5
            m += c0
            s *= d
            m += s
            m += high
            del b, d, s, high
            out = m[inv].reshape(xa.shape)
            return float(out) if scalar else out
        cx, sx = cospi(x), sinpi(x)
        if scalar:
            s, m = (1.0, -4.0 * sx * sx) if abs(cx) >= abs(sx) else (-1.0, 4.0 * cx * cx)
        else:
            m, s = _recurrence_ms(cx, sx)
        b, d = _reinsch(self._cos, m, s)
        return c0 + 0.5 * m * b + s * d

    def __neg__(self):
        return TrigPoly(-self._c)

    def with_bumped_coeff(self, n: int, eps: float):
        """New polynomial with c_n and c_{-n} each raised by eps."""
        if abs(n) > self.degree:
            raise ValueError("index exceeds degree")
        c = self._c.copy()
        c[abs(n)] += eps
        return TrigPoly(c)

    def to_json(self) -> str:
        """{"degree": N, "coeffs": [[n, Re c_n, Im c_n], n = -N..N]}."""
        rows = [[n, self._c[abs(n)], 0.0] for n in range(-self.degree, self.degree + 1)]
        return json.dumps({"degree": self.degree, "coeffs": rows},
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        """Parse to_json's format (a JSON string or a decoded dict); rows
        left out are 0.  Raises ValueError unless the coefficients are real
        and even to within 1e-8 max(1, max |c_n|)."""
        obj = json.loads(text) if isinstance(text, (str, bytes)) else text
        N = int(obj["degree"])
        arr = np.zeros(2 * N + 1, dtype=complex)
        for n, re, im in obj["coeffs"]:
            if abs(int(n)) > N:
                raise ValueError(f"coefficient index {n} exceeds degree {N}")
            arr[int(n) + N] = complex(re, im)
        scale = max(1.0, float(np.max(np.abs(arr))))
        if not np.allclose(arr, arr[::-1].real, rtol=0.0, atol=1e-8 * scale):
            raise ValueError("coefficients are not real and even")
        return cls(arr[N:].real)


# TrigPoly.eval hands the frequencies k >= _BLOCK of an even polynomial of
# degree >= _BLAS_DEGREE to _high_sum.  The crossover was measured on 2001
# points: below it the recurrence alone is faster.
_BLOCK = 32
_BLAS_DEGREE = 192


def _high_sum(a, u):
    """sum_k a_k cos(2 pi (k + _BLOCK) u) for a 1-d array u, as one BLAS
    product per block of points.

    Frequency k + _BLOCK = q _BLOCK + r goes to row q - 1, column r of the
    (Q, _BLOCK) matrix A.  The sum is then Re sum_q F_q (A E)_q, with
    E_r = e(r u) and F_q = e(q _BLOCK u), and A E is one real product
    with E viewed as (re, im) columns.  Both tables come by doubling from
    e(2^j u), each taken at the exactly reduced argument 2^j u -
    rint(2^j u): phase errors grow like log2 of the degree, not like the
    degree.  Every block has the same padded shape, so a point's value
    does not depend on how many points come with it.
    """
    Q = -(-a.size // _BLOCK)
    A = np.zeros(Q * _BLOCK)
    A[:a.size] = a
    A = A.reshape(Q, _BLOCK)
    # points per block: a multiple of 8, since BLAS kernels round the
    # columns of a ragged edge differently; up to Q = 512 (degree ~16000)
    # at most 4096/Q, so a product is at most 2^18 multiply-adds, which
    # OpenBLAS runs on one thread (a threaded product of this size stalled
    # for up to 16 ms on a busy 2-CPU machine); and at most 256, so a
    # block's temporaries stay under 512 KB
    width = 8 * max(1, min(32, 512 // Q))
    n = u.size
    padded = np.zeros(-(-n // width) * width)
    padded[:n] = u
    bits = (_BLOCK - 1).bit_length()
    scales = np.ldexp(1.0, np.arange(bits + Q.bit_length()))[:, None]
    out = np.empty(padded.size)
    for i in range(0, padded.size, width):
        y = scales * padded[i:i + width]
        y -= np.rint(y)
        y *= 2.0 * np.pi
        w = np.exp(1j * y)
        G = (A @ _powers(w[:bits], _BLOCK).view(float)).view(complex)
        out[i:i + width] = (_powers(w[bits:], Q + 1)[1:] * G).real.sum(axis=0)
    return out[:n]


def _powers(w, n):
    """Rows z^k, k < n, from w[j] = z^(2^j) by doubling: rows [m, 2m)
    are rows [0, m) times w[log2 m]."""
    T = np.empty((n, w.shape[1]), dtype=complex)
    T[0] = 1.0
    m = 1
    for z in w:
        np.multiply(T[:min(m, n - m)], z, out=T[m:2 * m])
        m *= 2
    return T


def _recurrence_ms(cx, sx):
    """(m, s) of TrigPoly.eval's recurrence from the arrays cos(pi x) and
    sin(pi x)."""
    pos = np.abs(cx) >= np.abs(sx)
    return np.where(pos, -4.0 * sx * sx, 4.0 * cx * cx), np.where(pos, 1.0, -1.0)


def _reinsch(coeffs, m, s):
    """(b_1, d_1) of TrigPoly.eval's recurrence over coeffs (frequency N
    first), on Python floats or, in place, on arrays; both sum
    (a_k + m b) + s d and then d + s b, so they round alike."""
    if isinstance(m, float):
        b = d = 0.0
        for a in coeffs:
            d = a + m * b + s * d
            b = d + s * b
        return b, d
    b, d, t = np.zeros_like(m), np.zeros_like(m), np.empty_like(m)
    for a in coeffs:
        np.multiply(m, b, out=t)
        t += a
        d *= s
        d += t
        b *= s
        b += d
    return b, d


@dataclass(frozen=True)
class ExpPeriodized:
    """Periodization of e^{-lam|x|} minus its mean."""

    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive, got {self.lam}")

    def value(self, x):
        return eval_p(self.lam, x)


@dataclass(frozen=True)
class MeasurePeriodized:
    """q_mu: the measure integral of p(lam, .)."""

    spec: object

    def __post_init__(self):
        validate(self.spec)

    def value(self, x):
        return eval_q_mu(self.spec, x)


def p_hat(lam: float, n):
    """Fourier coefficients of p: 2 lam/(lam^2 + 4 pi^2 n^2), 0 at n=0."""
    nn = np.asarray(n, dtype=float)
    scalar = nn.ndim == 0
    nn = np.atleast_1d(nn)
    vals = 2.0 * lam / (lam * lam + 4.0 * math.pi**2 * nn * nn)
    out = np.where(nn == 0, 0.0, vals)
    return float(out[0]) if scalar else out


def q_hat_mu(spec, n):
    """Fourier coefficients of q_mu (all closed forms); q_hat(0) = 0."""
    validate(spec)
    nn = np.abs(np.asarray(n, dtype=float))
    scalar = nn.ndim == 0
    nn = np.atleast_1d(nn)
    with np.errstate(divide="ignore"):
        vals = spec.q_hat(nn)
    out = np.where(nn == 0, 0.0, vals)
    return float(out[0]) if scalar else out


def eval_q_mu(spec, x):
    """The periodized measure target q_mu(x) = integral p(lam, x) dmu.

    HaarLog uses the closed form -log|2 sin pi x|; point masses the
    exact weighted sum; the power family Hurwitz's formula
    Gamma(1-sigma) [zeta(1-sigma, a) + zeta(1-sigma, 1-a)], a = {x},
    as a series in a^2 with coefficients computed once per sigma (numpy
    only: math.gamma and an Euler-Maclaurin zeta).  Scalar
    or array x, one vectorized path for both; raises DivergentAtZero
    when q_mu is infinite at any of the points.
    """
    validate(spec)
    return spec.q_mu(x)


def build_k(lam: float, N: int) -> TrigPoly:
    """Optimal degree-N polynomial for p(lam, .): coefficients are the
    sampled line-kernel transform,

        c_0 = -(2/lam)(1 - (lam/2L) csch(lam/2L)),   L = 2N+2,
        c_n = (1/L) Khat(lam/L, n/L),

    the c_0 form avoiding the 2/lam-vs-csch cancellation at small lam."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    if N < 0 or int(N) != N:
        raise ValueError("N must be a nonnegative integer")
    L = 2 * N + 2
    c = np.empty(N + 1)
    c[0] = -(2.0 / lam) * float(one_minus_x_csch(0.5 * lam / L))
    c[1:] = _khat(lam / L, np.arange(1, N + 1) / L) / L
    return TrigPoly(c)


def build_k_mu(spec, N: int) -> TrigPoly:
    """Measure version of build_k: the optimal polynomial interpolates
    q_mu at the 2N+2 shifted nodes, so its coefficients are one DCT-II
    of q_mu at the N+1 distinct nodes (q_mu is even)."""
    if N < 0 or int(N) != N:
        raise ValueError("N must be a nonnegative integer")
    L = 2 * N + 2
    vals = eval_q_mu(spec, (np.arange(N + 1) + 0.5) / L)
    return TrigPoly(_dct2(vals) / L)


def _dct2(x):
    """Unnormalized DCT-II of a non-empty float array x of length m,
    y_k = 2 sum_n x_n cos(pi k (2n+1)/(2m)), as scipy.fft.dct(x, type=2):
    one real FFT of the mirrored sequence (x, reversed x), whose k-th term
    is e^{i pi k/(2m)} y_k (Makhoul, IEEE TASSP 28, 1980)."""
    n = x.size
    v = np.fft.rfft(np.concatenate([x, x[::-1]]))[:n]
    return (v * np.exp((-0.5j * np.pi / n) * np.arange(n))).real


def periodic_l1_error(lam: float, N: int) -> float:
    """Exact optimal L1(R/Z) error (2/lam)(1 - sech(lam/(4N+4))): the
    line error at type 2N+2."""
    return l1_error_exp(lam, 2 * N + 2)


def periodic_l1_error_mu(spec, N: int) -> float:
    """Closed-form optimal L1(R/Z) error for q_mu at degree N: the line
    error of the raw approximant at type 2N+2."""
    return l1_error_mu_raw(spec, 2 * N + 2)


def interpolation_oracle(target, N: int) -> TrigPoly:
    """Degree-N polynomial interpolating the target at the 2N+2 shifted
    nodes x_k = (k+1/2)/(2N+2), by the real cosine transform (for even
    targets the alias frequency N+1 vanishes on this grid, so the
    interpolant is exactly recovered).  The direct cosine sum over all
    2N+2 nodes, no evenness assumed: the reference that build_k's closed
    form and build_k_mu's DCT are compared against.  The target is an
    ExpPeriodized, a MeasurePeriodized or a plain callable of x.
    """
    L = 2 * N + 2
    xs = (np.arange(L) + 0.5) / L
    if hasattr(target, "value"):
        vals = np.asarray(target.value(xs), dtype=float)
    else:
        vals = np.array([float(target(x)) for x in xs])
    return TrigPoly(cospi(2.0 * np.outer(np.arange(N + 1), xs)) @ vals / L)


# --- circle L1 quadrature helpers -----------------------------------------

# Gauss-Legendre nodes per cell of the circle L1 quadratures
_ORDER = 24


def circle_l1_abs(f, nodes) -> float:
    """Integral of |f| over one period given its sign-change nodes in
    (0,1): the sum of |Gauss panel integrals| over the cells between
    consecutive nodes, f taking ndarray input.  Splits the wrap-around
    cell at the integer point, where the periodized targets have a corner
    or singularity."""
    ns = sorted(float(v) for v in nodes)
    if not ns:
        raise ValueError("need at least one node")
    bounds = list(ns)
    if ns[-1] < 1.0 < ns[0] + 1.0:
        bounds.append(1.0)
    bounds.append(ns[0] + 1.0)
    bounds = np.asarray(bounds)
    pts, wts, half = panel_nodes(np.column_stack([bounds[:-1], bounds[1:]]), _ORDER)
    return reduce_cells_abs(np.asarray(f(pts), dtype=float), wts, half, _ORDER)


# refined_sign_nodes: brentq's stopping rule (a bracket narrower than
# xtol + rtol |x| is a root), the half-width of the stencil around each
# canonical node in cells 1/L, and the budget of f calls: secant steps for
# at most _SECANT_STEPS iterations, then bisection, which closes any
# bracket of width 0.9/L long before _NODE_MAX_ITER
_NODE_XTOL, _NODE_RTOL = 1e-15, 8.9e-16
_NODE_STENCIL = 1e-3
_SECANT_STEPS, _NODE_MAX_ITER = 30, 100


def refined_sign_nodes(f, N: int):
    """Zeros of f near the canonical nodes (k+1/2)/L, L = 2N+2, one per
    bracket [(k+0.05)/L, (k+0.95)/L], found for all brackets at once: f
    takes an ndarray of points and returns their values.

    A bracket whose ends show no sign change is dropped (the sum of
    |cell integrals| over the remaining nodes is then still a valid lower
    bound for the true L1 norm); a zero at a bracket end is that
    bracket's node.  The first call of f takes every bracket's ends and
    the canonical node with a point on either side at _NODE_STENCIL/L;
    their inverse quadratic interpolant gives the first step.  Each later
    call takes one point per open bracket, the secant step from its last
    two points.  A step that would leave the bracket (x, xb), xb the
    nearest point where f has the other sign, bisects it instead, and no
    step is shorter than half of brentq's tolerance xtol + rtol |x| (1e-15
    and 8.9e-16), so a converged point is followed by one across the
    root.  As in brentq, a bracket narrower than that tolerance, or an
    exact zero, gives the node.  After _SECANT_STEPS iterations only
    bisection runs, so a multiple root still closes.  A bracket still
    open after _NODE_MAX_ITER iterations, or a nan from f at a point the
    search takes, raises QuadratureNonConvergence.
    Returns the nodes in bracket order, as Python floats.
    """
    L = 2 * N + 2
    e = _NODE_STENCIL
    pts = (np.arange(L) + np.array([[0.05], [0.95], [0.5 - e], [0.5], [0.5 + e]])) / L
    fa, fb, fl, fx, fr = np.asarray(f(pts.ravel()), dtype=float).reshape(5, L)
    a, b, _, x, _ = pts
    out = np.full(L, np.nan)
    i = np.flatnonzero(fa * fb < 0.0)
    if i.size < L:
        out[fb == 0.0] = b[fb == 0.0]
        out[fa == 0.0] = a[fa == 0.0]
        a, b, fa, fl, fx, fr, x = (v[i] for v in (a, b, fa, fl, fx, fr, x))
    xb = np.where(np.signbit(fx) == np.signbit(fa), b, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the stencil's inverse quadratic interpolant at f = 0, from x
        s = (e / L) * fx / (fr - fl) * (fl / (fr - fx) + fr / (fl - fx))
        for it in range(_NODE_MAX_ITER):
            h = xb - x
            ah = abs(h)
            tol = x * _NODE_RTOL  # brentq's tolerance; x > 0
            tol += _NODE_XTOL
            done = ah < tol
            done |= ~(abs(fx) > 0.0)  # an exact zero, or a nan
            if np.count_nonzero(done):
                if np.isnan(fx[done]).any():
                    raise QuadratureNonConvergence(
                        f"refined_sign_nodes at N={N}: f is nan in brackets "
                        f"{i[np.isnan(fx)].tolist()}")
                out[i[done]] = x[done]
                keep = ~done
                i, x, fx, xb, h, ah, tol, s = (
                    v[keep] for v in (i, x, fx, xb, h, ah, tol, s))
            if not i.size:
                break
            # the step as a fraction r of the way to xb: (0, 1) keeps it
            # inside the bracket, anything else (or nan) bisects
            if it < _SECANT_STEPS:
                r = s / h
                r = np.where(abs(r - 0.5) < 0.5, r, 0.5)
            else:
                r = 0.5
            # no step shorter than half the tolerance
            r = np.maximum(r, tol / (ah + ah))
            xp, fp = x, fx
            x = x + r * h
            fx = np.asarray(f(x), dtype=float)
            np.copyto(xb, xp, where=(fx < 0.0) != (fp < 0.0))
            s = (xp - x) * fx / (fx - fp)
        else:
            raise QuadratureNonConvergence(
                f"refined_sign_nodes at N={N}: brackets {i.tolist()} still open "
                f"after {_NODE_MAX_ITER} iterations")
    return out[out == out].tolist()  # the nan of a dropped bracket is no node


def periodic_l1_quadrature(lam: float, N: int) -> float:
    """Circle L1 error of the optimal polynomial build_k(lam, N) against
    p(lam, .), the q_mu of a unit point mass at lam, by the sign-split
    quadrature of _circle_l1_mu; reproduces periodic_l1_error."""
    return _circle_l1_mu(PointMasses(((lam, 1.0),)), build_k(lam, N))


def _circle_l1_mu(spec, poly: TrigPoly) -> float:
    """int_0^1 |q_mu - poly| for an even real poly of degree N, with cells
    at the canonical nodes of L = 2N+2.  Where f_mu is singular at x = 0
    (Haar, power) the two cells touching it take f_mu's exact integral
    (cell0_integral) plus panels for the analytic q_mu - f_mu and for
    poly; a bounded target splits the wrap-around cell at x = 1 instead.
    """
    L = 2 * poly.degree + 2
    xs = (np.arange(L) + 0.5) / L
    h = xs[0]
    f_cell0 = spec.cell0_integral(h)
    if f_cell0 is None:
        return circle_l1_abs(lambda x: eval_q_mu(spec, x) - poly.eval(x), xs)
    # one panel set: the edge cell [0, h], then the cells between the nodes
    cells = np.column_stack([np.r_[0.0, xs[:-1]], xs])
    pts, wts, half = panel_nodes(cells, _ORDER)
    q, p = eval_q_mu(spec, pts), poly.eval(pts)
    smooth = half[0] * float(np.dot(wts, q[:_ORDER] - f_mu(spec, pts[:_ORDER])))
    edge = abs(f_cell0 + smooth - half[0] * float(np.dot(wts, p[:_ORDER])))
    body = reduce_cells_abs(q[_ORDER:] - p[_ORDER:], wts, half[1:], _ORDER)
    # the mirror cell [x_{L-1}, 1] contributes the same by evenness
    return body + 2.0 * edge


def l1_vs_log_circle(poly: TrigPoly) -> float:
    """int_0^1 |log|2 sin pi x| - poly(x)| dx for an even real poly, the
    circle L1 error against the log target: q_mu of the Haar measure is
    -log|2 sin pi x|, with the log integrated exactly next to x = 0."""
    return _circle_l1_mu(HaarLog(), -poly)
