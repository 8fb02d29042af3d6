"""Best L1 approximation on the circle by trigonometric polynomials.

Periodizing e^{-lam|x|} gives p(lam, x) = cosh(lam({x}-1/2))/sinh(lam/2)
- 2/lam (mean zero); integrating p against a measure gives q_mu, whose
Haar case is -log|2 sin pi x|.  The optimal degree-N approximations
have explicit Fourier coefficients: the sampled line-kernel transform
(build_k), equally the interpolant at the 2N+2 shifted nodes (build_k_mu,
one DCT of q_mu).  A direct cosine-sum interpolation is the reference for
both; circle L1 quadrature respects the corner of p at x = 0 and the log
singularity of the Haar target.  Every circle value goes through
TrigPoly.eval, Reinsch's modified Clenshaw recurrence: O(P) memory for P
points, as accurate as the direct sum, and exactly even for even
polynomials.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct
from scipy.optimize import brentq

from ._stable import cospi, one_minus_x_csch, sinpi
from .entire import l1_error_mu_raw
from .expkernel import _dual_sum, _khat, eval_p, l1_error_exp
from .measures import HaarLog, f_mu, validate
from .quadrature import gauss_panel, integrate_cells_abs

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
    "dual_lower_bound_periodic",
    "circle_l1_abs",
    "refined_sign_nodes",
    "periodic_l1_quadrature",
    "l1_vs_log_circle",
]


class TrigPoly:
    """Real-valued trig polynomial sum_{|n|<=N} c_n e(nx) on R/Z.

    Coefficients are stored as a dense complex array indexed n = -N..N
    and are symmetrized exactly on construction (c_{-n} <- conj barred
    average), after checking the input was Hermitian to 1e-8.
    """

    __slots__ = ("degree", "_c", "_cos", "_sin")

    def __init__(self, degree: int, coeffs):
        n = int(degree)
        if n < 0 or n != degree:
            raise ValueError(f"degree must be a nonnegative integer, got {degree}")
        if isinstance(coeffs, dict):
            arr = np.zeros(2 * n + 1, dtype=complex)
            for k, v in coeffs.items():
                if abs(int(k)) > n:
                    raise ValueError(f"coefficient index {k} exceeds degree {n}")
                arr[int(k) + n] = v
        else:
            arr = np.asarray(coeffs, dtype=complex)
            if arr.shape != (2 * n + 1,):
                raise ValueError(f"need {2*n+1} coefficients for degree {n}")
        scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 1.0)
        if not np.allclose(arr, arr[::-1].conj(), rtol=0.0, atol=1e-8 * scale):
            raise ValueError("coefficients are not Hermitian-symmetric")
        self.degree = n
        self._c = 0.5 * (arr + arr[::-1].conj())
        # eval's recurrence coefficients, frequency N first: 2 Re c_k, and
        # -2 Im c_k for the sine twin unless every Im c_k is 0
        self._cos = (2.0 * self._c[:n:-1].real).tolist()
        im = self._c[:n:-1].imag
        self._sin = (-2.0 * im).tolist() if np.any(im) else None

    def coeff(self, n: int) -> complex:
        if abs(n) > self.degree:
            return 0.0 + 0.0j
        return complex(self._c[n + self.degree])

    @property
    def coeffs(self):
        """Dense coefficient array, index i <-> frequency i - degree."""
        return self._c.copy()

    def eval(self, x):
        """Value at x (scalar or array) by Reinsch's modified Clenshaw
        recurrence (Reinsch 1967; Oliver, J. IMA 1977).

        With a_k = 2 Re c_k and b = d = 0 above N, run k = N..1:

            d_k = a_k + m b_{k+1} + s d_{k+1},   b_k = d_k + s b_{k+1};

        the value is c_0 + (m/2) b_1 + s d_1.  Where cos 2 pi x >= 0
        (|cospi x| >= |sinpi x|) s = +1 and m = -4 sin^2(pi x), elsewhere
        s = -1 and m = 4 cos^2(pi x): m is small exactly where plain
        Clenshaw's 2 cos 2 pi x sits near +-2 and loses digits.  When some
        Im c_k != 0 the sine twin, coefficients -2 Im c_k, runs the same
        loop and adds b_1 sin 2 pi x.  Memory is O(len(x)).  sinpi is odd
        and cospi even bit for bit, so an even polynomial evaluates exactly
        evenly.  Scalar x gives a Python float.
        """
        c0 = float(self._c[self.degree].real)
        scalar = np.ndim(x) == 0
        if self.degree == 0:
            return c0 if scalar else np.full(np.shape(x), c0)
        cx, sx = cospi(x), sinpi(x)
        if scalar:
            s, m = (1.0, -4.0 * sx * sx) if abs(cx) >= abs(sx) else (-1.0, 4.0 * cx * cx)
        else:
            pos = np.abs(cx) >= np.abs(sx)
            s = np.where(pos, 1.0, -1.0)
            m = np.where(pos, -4.0 * sx * sx, 4.0 * cx * cx)
        b, d = _reinsch(self._cos, m, s)
        out = c0 + 0.5 * m * b + s * d
        if self._sin is not None:
            out = out + 2.0 * sx * cx * _reinsch(self._sin, m, s)[0]
        return out

    def __neg__(self):
        return TrigPoly(self.degree, -self._c)

    def with_bumped_coeff(self, n: int, eps: complex):
        """New polynomial with c_n += eps and c_{-n} += conj(eps)."""
        if abs(n) > self.degree:
            raise ValueError("index exceeds degree")
        arr = self._c.copy()
        arr[self.degree + n] += eps
        if n != 0:
            arr[self.degree - n] += np.conj(eps)
        return TrigPoly(self.degree, arr)

    def to_json(self) -> str:
        rows = [[n, self._c[n + self.degree].real, self._c[n + self.degree].imag]
                for n in range(-self.degree, self.degree + 1)]
        return json.dumps({"degree": self.degree, "coeffs": rows},
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text) if isinstance(text, (str, bytes)) else text
        coeffs = {int(n): complex(re, im) for n, re, im in obj["coeffs"]}
        return cls(int(obj["degree"]), coeffs)


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

    def q_hat(self, n):
        return p_hat(self.lam, n)


@dataclass(frozen=True)
class MeasurePeriodized:
    """q_mu: the measure integral of p(lam, .)."""

    spec: object

    def __post_init__(self):
        validate(self.spec)

    def value(self, x):
        return eval_q_mu(self.spec, x)

    def q_hat(self, n):
        return q_hat_mu(self.spec, n)


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
    as a series in a^2 with coefficients computed once per call.  Scalar
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
    c = np.zeros(2 * N + 1, dtype=complex)
    c[N] = -(2.0 / lam) * float(one_minus_x_csch(0.5 * lam / L))
    if N > 0:
        n = np.arange(1, N + 1)
        cn = _khat(lam / L, n / L) / L
        c[N + n] = cn
        c[N - n] = cn
    return TrigPoly(N, c)


def build_k_mu(spec, N: int) -> TrigPoly:
    """Measure version of build_k: the optimal polynomial interpolates
    q_mu at the 2N+2 shifted nodes, so its coefficients are one DCT-II
    of q_mu at the N+1 distinct nodes (q_mu is even)."""
    if N < 0 or int(N) != N:
        raise ValueError("N must be a nonnegative integer")
    L = 2 * N + 2
    vals = eval_q_mu(spec, (np.arange(N + 1) + 0.5) / L)
    cn = dct(vals, type=2) / L
    return TrigPoly(N, np.concatenate([cn[:0:-1], cn]))


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
    cn = cospi(2.0 * np.outer(np.arange(N + 1), xs)) @ vals / L
    return TrigPoly(N, np.concatenate([cn[:0:-1], cn]))


def dual_lower_bound_periodic(target, N: int, terms: int = 10**4) -> float:
    """Duality lower bound from target coefficients at the frequencies
    (k+1/2)(2N+2); increases to the closed-form optimal error."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    return _dual_sum(target.q_hat((2 * N + 2) * (np.arange(terms) + 0.5)))


# --- circle L1 quadrature helpers -----------------------------------------

def circle_l1_abs(f, nodes, order: int = 24) -> float:
    """Integral of |f| over one period given its sign-change nodes in
    (0,1); splits the wrap-around cell at the integer point, where the
    periodized targets have a corner or singularity."""
    ns = sorted(float(v) for v in nodes)
    if not ns:
        raise ValueError("need at least one node")
    bounds = list(ns)
    if ns[-1] < 1.0 < ns[0] + 1.0:
        bounds.append(1.0)
    bounds.append(ns[0] + 1.0)
    return integrate_cells_abs(f, bounds, order=order)


def refined_sign_nodes(f, N: int):
    """Zeros of f near the canonical nodes (k+1/2)/(2N+2), located by
    root bracketing; nodes whose bracket shows no sign change are
    dropped (the resulting sum of |cell integrals| is then still a
    valid lower bound for the true L1 norm)."""
    L = 2 * N + 2
    out = []
    for k in range(L):
        a = (k + 0.5 - 0.45) / L
        b = (k + 0.5 + 0.45) / L
        fa, fb = f(a), f(b)
        if fa == 0.0:
            out.append(a)
        elif fb == 0.0:
            out.append(b)
        elif fa * fb < 0.0:
            out.append(float(brentq(f, a, b, xtol=1e-15, rtol=8.9e-16)))
    return out


def periodic_l1_quadrature(lam: float, N: int, poly: TrigPoly | None = None,
                           order: int = 24, refine: bool = False) -> float:
    """Circle L1 error of a polynomial against p(lam, .) by sign-split
    quadrature; defaults to the optimal polynomial, where the nodes are
    the canonical ones and the result reproduces periodic_l1_error."""
    if poly is None:
        poly = build_k(lam, N)
    f = lambda x: eval_p(lam, x) - poly.eval(x)
    if refine:
        nodes = refined_sign_nodes(f, N)
        if not nodes:
            nodes = [(0.5) / (2 * N + 2)]
    else:
        L = 2 * N + 2
        nodes = ((np.arange(L) + 0.5) / L).tolist()
    return circle_l1_abs(f, nodes, order=order)


def _circle_l1_mu(spec, poly: TrigPoly, order: int = 24) -> float:
    """int_0^1 |q_mu - poly| for an even real poly of degree N, with cells
    at the canonical nodes of L = 2N+2.  Where f_mu is singular at x = 0
    (Haar, power) the two cells touching it take f_mu's exact integral
    (cell0_integral) plus panels for the analytic q_mu - f_mu and for
    poly; a bounded target splits the wrap-around cell at x = 1 instead.
    """
    L = 2 * poly.degree + 2
    xs = (np.arange(L) + 0.5) / L
    f = lambda x: eval_q_mu(spec, x) - poly.eval(x)
    h = xs[0]
    f_cell0 = spec.cell0_integral(h)
    if f_cell0 is None:
        return circle_l1_abs(f, xs, order=order)
    smooth = gauss_panel(lambda x: eval_q_mu(spec, x) - f_mu(spec, x), 0.0, h, order=order)
    edge = abs(f_cell0 + smooth - gauss_panel(poly.eval, 0.0, h, order=order))
    # the mirror cell [x_{L-1}, 1] contributes the same by evenness
    return integrate_cells_abs(f, xs, order=order) + 2.0 * edge


def l1_vs_log_circle(poly: TrigPoly, order: int = 24) -> float:
    """int_0^1 |log|2 sin pi x| - poly(x)| dx for an even real poly, the
    circle L1 error against the log target: q_mu of the Haar measure is
    -log|2 sin pi x|, with the log integrated exactly next to x = 0."""
    return _circle_l1_mu(HaarLog(), -poly, order)
