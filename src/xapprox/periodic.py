"""Best L1 approximation on the circle by trigonometric polynomials.

Periodizing e^{-lam|x|} gives p(lam, x) = cosh(lam({x}-1/2))/sinh(lam/2)
- 2/lam (mean zero); integrating p against a measure gives q_mu, whose
Haar case is -log|2 sin pi x| and whose unit point mass at lam is p.  The
optimal degree-N polynomial has c_n = int Khat(lam/L, n/L)/L dmu, L = 2N+2,
and interpolates q_mu at the 2N+2 shifted nodes: build_k_mu takes the
Khat rows for point masses (build_k is the unit mass) and one DCT of q_mu
for a density.  Every target is even and real, and so is every
polynomial: TrigPoly stores its cosine coefficients c_0..c_N.  A direct
cosine-sum interpolation is the reference for both routes.  The circle
L1 quadrature runs on the line's sign-constant cells at type L = 2N+2,
quadrature._cell_rule(N + 1)/L, over half the period (every target is
even about 1/2 too), with f_mu's exact integral on the cell at x = 0
where the target is singular, and the polynomial at its nodes from one
real FFT of length L per Gauss offset.  Every other circle value goes
through TrigPoly.eval: Reinsch's modified Clenshaw recurrence, which from
degree 192 on keeps only the frequencies below 8 and sums the rest as one
BLAS matrix product per block of points, against twiddle tables built
once per chunk of points in a fixed per-thread workspace of 1 MB.  O(P)
memory for P points plus that workspace, as accurate as the direct sum,
and exactly even.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._stable import cospi, one_minus_x_csch, sinpi
from .entire import l1_error_mu_raw
from .expkernel import _circle_points, _khat, eval_p, l1_error_exp
from .measures import HaarLog, PointMasses, f_mu, validate
from .quadrature import _panel_rule

__all__ = [
    "TrigPoly",
    "ExpPeriodized",
    "MeasurePeriodized",
    "q_hat_mu",
    "eval_q_mu",
    "build_k",
    "build_k_mu",
    "periodic_l1_error",
    "periodic_l1_error_mu",
    "interpolation_oracle",
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
        frequencies below _LOW, which hold the largest coefficients, and
        adds the rest from _high_sum, one real matrix product per block of
        points against twiddle tables built once per chunk of points, in a
        workspace of 1 MB that each thread allocates once and keeps.  It
        folds x to u = |x - rint x| and evaluates each distinct u once, so
        evenness stays exact there too, and a scalar rounds as the same
        point of an array does.  Memory is O(len(x)) either way, plus the
        workspace from degree 192 on.
        A nan or infinite x raises NonFinitePoint (a ValueError).
        """
        xa = _circle_points(x)
        c0 = float(self._c[0])
        scalar = xa.ndim == 0
        if self.degree == 0:
            return c0 if scalar else np.full(xa.shape, c0)
        if self.degree >= _BLAS_DEGREE:
            u, inv = np.unique(np.abs(xa - np.rint(xa)).ravel(), return_inverse=True)
            # m and s first: cospi's temporaries peak before high exists
            m, s = _recurrence_ms(cospi(u), sinpi(u))
            high = _high_sum(2.0 * self._c, u)
            del u
            b, d = _reinsch(self._cos[-(_LOW - 1):], m, s)
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


# From degree _BLAS_DEGREE (a crossover measured on 2001 points) TrigPoly.eval
# keeps the frequencies below _LOW on the recurrence, which sums their large
# coefficients best, and hands the rest to _high_sum in rows of _BLOCK.
_BLOCK = 32
_LOW = 8
_BLAS_DEGREE = 192


def _high_sum(a, u):
    """sum_{k >= _LOW} a_k cos(2 pi k u) for a 1-d array u, as one BLAS
    product per block of points.

    Frequency k = q _BLOCK + r goes to row q, column r of the (Q, _BLOCK)
    matrix A (row 0 holds _LOW.._BLOCK-1).  The sum is then Re sum_q F_q
    (A E)_q, with E_r = e(r u) and F_q = e(q _BLOCK u), and A E is one real
    product with E viewed as (re, im) columns.  Both tables come by doubling
    from e(2^j u), each written by cos and sin at the exactly reduced
    argument 2^j u - rint(2^j u): phase errors grow like log2 of the degree,
    not like the degree.  Every block has the same padded shape, so a
    point's value does not depend on how many points come with it.

    The phases, their cos and sin, E, F and the products A E are rows over
    a chunk of whole blocks, as many as fit the calling thread's workspace
    (_workspace); only the products go block by block, in one batched
    matmul.  So the tables cost ~20 numpy calls per chunk, not per block.
    A block too large for the workspace (degree above ~130 000) gets a
    buffer of its own: memory is O(len(u)) plus the workspace or one
    block's tables.
    """
    Q = -(-a.size // _BLOCK)
    A = np.zeros(Q * _BLOCK)
    A[_LOW:a.size] = a[_LOW:]
    A = A.reshape(Q, _BLOCK)
    # points per block: a multiple of 8, since BLAS kernels round the
    # columns of a ragged edge differently; up to Q = 512 (degree ~16000)
    # at most 4096/Q, so a product is at most 2^18 multiply-adds, which
    # OpenBLAS runs on one thread (a threaded product of this size stalled
    # for up to 16 ms on a busy 2-CPU machine); and at most 256.  Every
    # value's bits depend on this width, not on the chunks
    width = 8 * max(1, min(32, 512 // Q))
    n = u.size
    padded = np.zeros(-(-n // width) * width)
    padded[:n] = u
    bits = (_BLOCK - 1).bit_length()
    scales = np.ldexp(1.0, np.arange(bits + (Q - 1).bit_length()))[:, None]
    R = scales.size
    # floats per point: the phases y (R rows), then complex rows: their
    # e() w, E, F and G = A E
    per_point = 3 * R + 2 * _BLOCK + 4 * Q
    buf = _workspace()
    step = min(buf.size, _WORKSPACE // 8) // (width * per_point) * width
    if not step:
        step = width
        buf = np.empty(width * per_point)
    out = np.empty(padded.size)
    for i in range(0, padded.size, step):
        x = padded[i:i + step]
        if i == 0 or x.size < step:
            C = x.size
            y = buf[:R * C].reshape(R, C)
            T = buf[R * C:per_point * C].view(complex).reshape(-1, C)
            w, E, F, G = T[:R], T[R:R + _BLOCK], T[R + _BLOCK:R + _BLOCK + Q], T[-Q:]
            # block by block, (Q, _BLOCK) @ (_BLOCK, 2 width) products
            Eb, Gb = (t.view(float).reshape(len(t), -1, 2 * width).transpose(1, 0, 2)
                      for t in (E, G))
        np.multiply(scales, x, out=y)
        np.rint(y, out=w.real)  # w.real holds rint(y) until the cosines
        y -= w.real
        y *= 2.0 * np.pi
        np.cos(y, out=w.real)
        np.sin(y, out=w.imag)
        _powers(w[:bits], E)
        _powers(w[bits:], F)
        np.matmul(A, Eb, out=Gb)
        np.multiply(F, G, out=G)
        G.real.sum(axis=0, out=out[i:i + C])
    return out[:n]


# bytes of _high_sum's workspace in each thread: a chunk of 512 points at
# degree 1000.  Against tables built block by block, 2001 points at degree
# 1000 took +0.5% with 256 KB (one block a chunk), -12% with 512 KB, -16%
# with 1 MB and -19% with 4 MB
_WORKSPACE = 2**20
_PER_THREAD = threading.local()


def _workspace():
    """The calling thread's float64 workspace of _WORKSPACE bytes, made at
    its first call and held as long as the thread.  A fresh ~1 MB array
    per call would be a fresh mmap, faulted in page by page on every call;
    one held at full size from the start also never moves the heap."""
    try:
        return _PER_THREAD.buf
    except AttributeError:
        _PER_THREAD.buf = np.empty(_WORKSPACE // 8)
        return _PER_THREAD.buf


def _powers(w, T):
    """Rows T[k] = z^k, k < len(T), in place, from w[j] = z^(2^j) by
    doubling: rows [m, 2m) are rows [0, m) times w[log2 m]."""
    n = len(T)
    T[0] = 1.0
    m = 1
    for z in w:
        np.multiply(T[:min(m, n - m)], z, out=T[m:2 * m])
        m *= 2


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
    only: math.gamma and an Euler-Maclaurin zeta).  Scalar or array x:
    a float x off the integers takes the power family's one-point route
    (~5 us), with the bits of the same point in an array.  Raises
    DivergentAtZero when q_mu is infinite at any of the points,
    NonFinitePoint (a ValueError) at a nan or infinite x.
    """
    validate(spec)
    return spec.q_mu(x)


def _degree(N) -> int:
    """N as an int; ValueError unless it is a nonnegative integer."""
    if not (math.isfinite(N) and N >= 0 and int(N) == N):
        raise ValueError(f"N must be a nonnegative integer, got {N}")
    return int(N)


def _coeff_rows(lam, N: int, centred: bool = True):
    """Coefficients c_0..c_N of the optimal degree-N polynomial for p(l, .)
    at each l of lam (a float: one row; a 1-D array: one row per entry),
    the sampled line-kernel transform with L = 2N+2:

        c_n = (1/L) Khat(l/L, n/L),   c_0 = -(2/l)(1 - x csch x),  x = l/(2L),

    the c_0 form having no 2/l-vs-csch cancellation.  centred=False leaves
    c_0 = Khat(l/L, 0)/L: the row of the periodized e^{-l|x|}, mean 2/l."""
    L = 2 * N + 2
    c = _khat((lam[:, None] if isinstance(lam, np.ndarray) else lam) / L, np.arange(N + 1) / L)
    c /= L
    if centred:
        c[..., 0] = -(2.0 / lam) * one_minus_x_csch(0.5 * lam / L)
    return c


def build_k(lam: float, N: int) -> TrigPoly:
    """Optimal degree-N polynomial for p(lam, .), the q_mu of the unit
    point mass at lam: its coefficient row from _coeff_rows, as
    build_k_mu of PointMasses(((lam, 1.0),)) gives bit for bit."""
    ExpPeriodized(lam)  # the check of lam > 0
    return TrigPoly(_coeff_rows(float(lam), _degree(N)))


def build_k_mu(spec, N: int) -> TrigPoly:
    """Optimal degree-N polynomial for q_mu.  Point masses take the
    theorem's route, c_n = int Khat(lam/L, n/L)/L dmu, as the exact
    weighted sum of the rows of _coeff_rows, one row per mass from one
    call, which keeps each coefficient's relative accuracy.  A density
    takes the interpolation route: the optimal polynomial interpolates
    q_mu at the 2N+2 shifted nodes, so its coefficients are one DCT-II of
    q_mu at the N+1 distinct nodes (q_mu is even)."""
    N = _degree(N)
    validate(spec)
    if spec.density_power is None:
        return TrigPoly(spec.integrate(lambda lam, w: w @ _coeff_rows(lam, N)))
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
    return l1_error_exp(lam, 2 * _degree(N) + 2)


def periodic_l1_error_mu(spec, N: int) -> float:
    """Closed-form optimal L1(R/Z) error for q_mu at degree N: the line
    error of the raw approximant at type 2N+2."""
    return l1_error_mu_raw(spec, 2 * _degree(N) + 2)


def interpolation_oracle(target, N: int) -> TrigPoly:
    """Degree-N polynomial interpolating the target at the 2N+2 shifted
    nodes x_k = (k+1/2)/(2N+2), by the real cosine transform (for even
    targets the alias frequency N+1 vanishes on this grid, so the
    interpolant is exactly recovered).  The direct cosine sum over all
    2N+2 nodes at exact integer phases, no evenness assumed: the reference
    for build_k_mu's Khat rows of point masses and DCT of a density.  The
    target is an ExpPeriodized or a MeasurePeriodized.
    """
    N = _degree(N)
    L = 2 * N + 2
    xs = (np.arange(L) + 0.5) / L
    vals = np.asarray(target.value(xs), dtype=float)
    return TrigPoly(_cospi_sum(vals, N + 1, L) / L)


def _cospi_sum(v, n, D):
    """sum_k v_k cos(pi i (2k+1)/D), i < n, directly: the integer phases
    i(2k+1) mod 2D index one table cospi(j/D), in row blocks whose phases
    and cosines take at most 256 KB each while len(v) <= 2^15."""
    table, odd = cospi(np.arange(2 * D) / D), 2 * np.arange(v.size) + 1
    rows = max(1, 2**15 // v.size)
    out = np.empty(n)
    for i in range(0, n, rows):
        j = np.outer(np.arange(i, min(i + rows, n)), odd)
        j %= 2 * D
        out[i:i + j.shape[0]] = table.take(j) @ v
    return out


# --- circle L1 quadrature -------------------------------------------------

def periodic_l1_quadrature(lam: float, N: int) -> float:
    """Circle L1 error of the optimal polynomial build_k(lam, N) against
    p(lam, .), the q_mu of a unit point mass at lam, by the sign-split
    quadrature of _circle_l1_mu; reproduces periodic_l1_error."""
    return _circle_l1_mu(PointMasses(((lam, 1.0),)), build_k(lam, N))


def _circle_l1_mu(spec, poly: TrigPoly) -> float:
    """int_0^1 |q_mu - poly| for an even real poly of degree N, on the
    line's sign-constant cells at type L = 2N+2 scaled to the circle:
    _cell_rule(N + 1)/L, the cells [0, 1/2], [1/2, 3/2], .., [N + 1/2,
    N + 3/2] over L, whose edges are the canonical nodes (k + 1/2)/L.
    q_mu and poly are even about 1/2, so cells 0..N count twice and cell
    N + 1, centred on 1/2, once: half the period is evaluated.  The
    integrand is q_mu - poly at each node, poly from _cell_poly's FFTs.
    Where f_mu is singular at x = 0 (Haar, power) cell 0 adds f_mu's exact
    integral (cell0_integral) less its Gauss sum.
    """
    L = 2 * poly.degree + 2
    w = _cell_offsets()[1] / L
    per_cell = np.zeros(poly.degree + 2)
    for j, x, p in _cell_poly(poly):
        d = eval_q_mu(spec, x)
        d -= p
        d[:, 0] *= w[0, j]
        d[:, 1:] *= w[1, j, None]
        per_cell += d.sum(axis=0)
    f_cell0 = spec.cell0_integral(0.5 / L)
    if f_cell0 is not None:
        per_cell[0] += f_cell0 - w[0] @ f_mu(spec, _cell_offsets()[0][0] / L)
    a = np.abs(per_cell)
    return float(2.0 * np.sum(a[:-1]) + a[-1])


@lru_cache(maxsize=1)
def _cell_offsets():
    """_cell_rule's 32 nodes and weights on cell 0 and on [-1/2, 1/2], as
    rows of two read-only (2, 32) arrays: cell c >= 1 has nodes c + t[1]."""
    t, w = map(np.stack, zip(_panel_rule([0.0, 0.5], 32), _panel_rule([-0.5, 0.5], 32)))
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _cell_poly(poly: TrigPoly):
    """(j, x, p) over groups j of the 32 offsets: the nodes x = (c + t[1, j])/L
    of the cells c = 0..N+1 (cell 0's own t[0, j]/L in column 0) and poly at
    x, each (len(j), N + 2), by one real inverse FFT of length L per offset
    s: sum_k c_k e(ks/L) e(kc/L), |k| <= N.  From degree _BLAS_DEGREE on the
    frequencies below _LOW run on eval's recurrence, as in eval.  A group
    takes about _WORKSPACE bytes of transform: memory is O(L)."""
    N, c, L = poly.degree, poly._c, 2 * poly.degree + 2
    t = _cell_offsets()[0]
    k = (2.0 * np.pi / L) * np.arange(N + 1)
    rows = max(1, _WORKSPACE // (16 * L))
    for i in range(0, 32, rows):
        j = slice(i, i + rows)
        Y = c * np.exp(1j * np.multiply.outer(t[:, j], k))
        if N >= _BLAS_DEGREE:
            Y[..., :_LOW] = 0.0
        P = np.fft.irfft(Y, n=L, axis=-1, norm="forward")
        x = (np.arange(N + 2.0) + t[1, j, None]) / L
        x[:, 0] = t[0, j] / L
        p = P[1, :, :N + 2]
        p[:, 0] = P[0, :, 0]
        if N >= _BLAS_DEGREE:
            m, s = _recurrence_ms(cospi(x), sinpi(x))
            b, d = _reinsch(poly._cos[-(_LOW - 1):], m, s)
            p += c[0] + 0.5 * m * b + s * d
        yield j, x, p


def l1_vs_log_circle(poly: TrigPoly) -> float:
    """int_0^1 |log|2 sin pi x| - poly(x)| dx for an even real poly, the
    circle L1 error against the log target: q_mu of the Haar measure is
    -log|2 sin pi x|, with the log integrated exactly next to x = 0."""
    return _circle_l1_mu(HaarLog(), -poly)
