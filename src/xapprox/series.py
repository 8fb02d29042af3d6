"""Series summation: the paired cardinal series and Dirichlet's beta.

_cardinal_sum is the one routine that sums the interpolation series

    KK(phi, w) = sum_{n>=0} phi(xi_n) [sinc(w - xi_n) + sinc(w + xi_n)]
               = (cos pi w/pi) sum_{n>=0} (-1)^n 2 xi_n phi(xi_n) / ((xi_n - w)(xi_n + w)),
    xi_n = n + 1/2,

behind every extremal function on the line: the exponential kernel
(phi = e^{-lam' xi}) and the measure-integrated approximants (phi a
point-mass sum, xi^e or (xi^e - 1)/e, e = sigma - 1).  It is one fixed
linear map of the node data, whatever their decay: the nodes up to 8 past
every evaluation point are summed directly, and the alternating remainder
beyond them by the 24 weights of Cohen, Rodriguez Villegas and Zagier
(Exp. Math. 9 (2000), Algorithm 1).  No rate, tolerance or stopping test.

Because the map is fixed, its integrals over fixed cells are too:
_cell_operator(K) folds the 32-node Gauss rule on the K + 1 sign-constant
cells [0, 1/2], [1/2, 3/2], .., [K - 1/2, K + 1/2] into one cached
(K + 1) x (K + 33) matrix, which the line L1 quadratures apply to the
node data of each lam', sigma or delta.  It and _cardinal_sum share one
form of the terms, the node coefficients (cached per head length) and
the near-node band.

Layout: the terms are formed one row per point, its nodes contiguous,
in two float64 buffers of rows x (H + 24) that stay under _BLOCK = 128 KB
(glibc's mmap threshold), held per thread and reused by every block and
every call.  Each row is summed on its own, so a point's bits depend on the
point and on H (through max |Re w|) only, never on the number of points
or on where the point sits among them or in a block.  One point (a scalar
eval_K or eval_K_mu, real or complex, each series of error_mu_pointwise)
takes a shorter route with the same bits: its per-point values in Python
floats and its H + 24 terms in one 1-D row, without the buffers, the
blocks, the band search or the one-element array operations.  On a 2-CPU
Xeon VM (numpy 2.4) a scalar eval_K takes ~11 us real and ~16 us complex
(~50 us complex on the block route).

Complex points are summed in real arithmetic, in _complex_series, which
this module imports on the first complex point: at v = a + ib (a >= 0)
every denominator (xi_n - v)(xi_n + v) is R_n - ic with
R_n = (xi_n - a)(xi_n + a) + b^2 and one c = 2ab per point, so with
q_n = g_n/(R_n^2 + c^2) the row's sum is sum q_n R_n + ic sum q_n: one
real division per term and two real row sums.  Its two routes run the
same real operations in the same order, so a complex scalar has the bits
of the same point in an array, as a real one does; numpy's complex
loops, which round a one-element product differently from a longer one,
are not used.  Real points keep the real form, one division per term.

cos pi w, which vanishes at the nodes, and the sinc pair that takes the
nearest node's term come from one sine of d = w - xi_m, exact for
Re w >= 1/4: cos pi w = (-1)^{m+1} sin pi d, so cos pi w keeps its
relative digits up to the node.  Off the axis
sin pi d = sin pi d_r cosh pi b + i cos pi d_r sinh pi b, d_r = a - xi_m,
each factor numpy's real function.

dirichlet_beta sums its alternating series with the same weights.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from .errors import SeriesNonConvergence
from .quadrature import panel_nodes

__all__ = ["dirichlet_beta", "catalan"]


def _crvz_weights(n):
    # Algorithm 1 of Cohen-Rodriguez Villegas-Zagier in closed form:
    # sum_{k>=0} (-1)^k a_k ~ sum_{k<n} w_k a_k with
    # w_k = (-1)^k sum_{j>k} b_j / sum_j b_j, where b_j = n/(n+j) C(n+j, 2j) 4^j
    # are the coefficients of T_n(1 - 2x) in absolute value.  For a
    # completely monotone a the error is at most 2 (3 + sqrt 8)^{-n} times
    # the sum itself.
    # the b_j are integers, so they are formed exactly with //, and each
    # weight is one correctly rounded int / int division
    b = [1]
    for j in range(n):
        b.append(b[-1] * 2 * (n + j) * (n - j) // ((2 * j + 1) * (j + 1)))
    total = sum(b)
    tail = total
    w = []
    for k in range(n):
        tail -= b[k]
        w.append((-1) ** k * (tail / total))
    return np.array(w)


_CRVZ = _crvz_weights(24)  # tail error ~1e-18 of its first term
_HEAD_PAST = 8  # direct nodes past the largest |Re w|
_BLOCK = 2**17  # bytes: each of the two term buffers stays below this
_MAX_RE = 2.0**20  # |Re w| beyond this raises: each point costs |Re w| + 32 terms


def _dilate(z, delta):
    """delta * z as a 1-D array of float64 or complex128, whatever the
    precision of z (the series forms its terms in float64).  An infinite
    part of a complex z would meet the zero imaginary part of delta in
    the product (inf * 0, a RuntimeWarning) before the series could
    refuse the point, so a non-finite complex z raises
    SeriesNonConvergence here; a real one passes, and the series raises
    on it."""
    z = np.atleast_1d(np.asarray(z))
    z = z.astype(np.promote_types(z.dtype, float), copy=False)
    if np.iscomplexobj(z) and not np.isfinite(z).all():
        raise SeriesNonConvergence(f"cardinal series at non-finite z = {z[~np.isfinite(z)][0]}")
    return z * delta


@lru_cache(maxsize=64)
def _map(H):
    """The fixed map for a head of H direct nodes: the nodes
    xi_n = n + 1/2, n < H + 24, the coefficients 2 xi_n s_n, with
    s_n = (-1)^n for the head n < H and (-1)^H times the CRVZ weights for
    the alternating remainder, and the signs (-1)^{n+1}.  Cached per H
    and read-only; a call then takes its numerators g_n = 2 xi_n s_n
    phi(xi_n) in one product."""
    xi = np.arange(H + _CRVZ.size) + 0.5
    coef = 2.0 * xi
    coef[1:H:2] *= -1.0
    coef[H:] *= (-1) ** H * _CRVZ
    sign = np.ones(xi.size)
    sign[::2] = -1.0
    for a in (xi, coef, sign):
        a.flags.writeable = False
    return xi, coef, sign


def _node_terms(v, xi, sign):
    """For real points v >= 0: the nearest node xi_m, m = floor(v),
    cos(pi v)/pi, the sinc pair sinc(v - xi_m) + sinc(v + xi_m), and the
    near band |v - xi_m| < 0.3, where the pair takes the node's term.

    All of them come from one sine of d = v - xi_m, which is exact for
    v >= 1/4: cos pi v = (-1)^{m+1} sin pi d, and the pair is
    (sin pi d/pi)(1/d - 1/(v + xi_m)), 1 at d = 0.  sin pi d keeps its
    relative digits as d -> 0, so cos pi v does too, and it is 0 at the
    node."""
    m = v.astype(np.intp)
    xm = xi[m]
    d = v - xm
    sn = math.pi * d
    np.sin(sn, out=sn)
    sn /= math.pi
    pair = np.divide(sn, d, out=np.ones_like(sn), where=d != 0)
    u = v + xm
    pair -= np.divide(sn, u, out=u)
    near = np.abs(d) < 0.3
    sn *= sign[m]
    return m, sn, pair, near


_SCRATCH = threading.local()


def _term_buffers(shape):
    """Two uninitialised float64 arrays of shape in the calling thread's
    two buffers of _BLOCK bytes, which live as long as the thread; a
    shape of _BLOCK bytes or more gets two new arrays.  Fresh
    buffers of ~128 KB on every call can end at the heap top, which glibc
    then trims when they are freed, and the next call faults the pages in
    again: ~0.1 ms a call, or not, depending on the heap's layout.  The
    arrays are valid until the thread's next call."""
    if shape[0] * shape[1] * 8 >= _BLOCK:
        return np.empty(shape), np.empty(shape)
    try:
        a, b = _SCRATCH.bufs
    except AttributeError:
        a, b = _SCRATCH.bufs = np.empty(_BLOCK, np.uint8), np.empty(_BLOCK, np.uint8)
    return np.ndarray(shape, float, a), np.ndarray(shape, float, b)


def _term_blocks(coef, xi, v, band, rows):
    """The far-field terms coef_n / ((xi_n - v)(xi_n + v)) in blocks of
    `rows` points, one row per point with its nodes contiguous, and the
    band's terms set to 0: band = (points, nodes), the points ascending.
    Yields (first point, block).  The blocks are formed in two arrays of
    min(rows, v.size) x xi.size from _term_buffers: each block overwrites
    the one before, and no block allocates a temporary."""
    a, b = _term_buffers((min(rows, v.size), xi.size))
    for i in range(0, v.size, rows):
        u = b[:min(rows, v.size - i)]
        np.copyto(u, v[i:i + rows, None])  # each row holds its point
        t = np.subtract(xi, u, out=a[:u.shape[0]])
        t *= np.add(xi, u, out=u)
        np.divide(coef, t, out=t)
        j0, j1 = band[0].searchsorted((i, i + rows))
        t[band[0][j0:j1] - i, band[1][j0:j1]] = 0.0
        yield i, t


def _head_map(H):
    # beyond the documented |Re w| <= 1e3 the map is built, not cached
    return (_map if H <= 2048 else _map.__wrapped__)(H)


@lru_cache(maxsize=None)
def _complex():
    # the complex form, imported on the first complex point: a process
    # that sums real points only never compiles it
    from . import _complex_series
    return _complex_series


def _one_point(phi, w):
    """KK(phi, w) at one real w, or None where the block route must take
    it (nan, infinite, |w| above 2^20, or a sum that is not finite): the
    block route's operations in the same order at v = |w|, the per-point
    values in Python floats and the H + 24 terms in one 1-D row, so the
    bits are the block route's (~6 us a call against ~40 us for a
    one-point block).  The sine is np.sin, as there: numpy's SIMD sine
    need not round as math.sin does.  The band term is divided by 1, not
    by its 0 at a node, and then zeroed, so no floating-point flag is
    raised for data that are finite."""
    v = abs(float(w))
    if not v <= _MAX_RE:
        return None
    xi, coef, _ = _head_map(math.ceil(v) + _HEAD_PAST)
    ph = np.asarray(phi(xi), dtype=float)
    # _node_terms: the nearest node xi_m, sin pi d / pi, the near band
    m = int(v)
    xm = m + 0.5
    d = v - xm
    sn = float(np.sin(math.pi * d)) / math.pi
    near = abs(d) < 0.3
    # _term_blocks: the row of far-field terms, the band term zeroed
    t = xi - v
    t *= xi + v
    if near:
        t[m] = 1.0
    np.divide(coef * ph, t, out=t)
    if near:
        t[m] = 0.0
    # cos pi v / pi = (-1)^{m+1} sin pi d / pi times the row's sum
    out = (sn if m % 2 else -sn) * float(np.add.reduce(t))
    if near:  # the sinc pair takes the node's term
        pair = (sn / d if d != 0.0 else 1.0) - sn / (v + xm)
        out += pair * float(ph[m])
    return out if math.isfinite(out) else None


def _cardinal_sum(phi, w):
    """KK(phi, w) for a 1-D array w of float64 or complex128 (_dilate
    makes one of any input).

    phi maps an array of nodes xi to the node data.  With
    H = ceil(max |Re w|) + 8, the nodes n < H are summed directly and the
    alternating remainder from n = H by the 24 CRVZ weights, so each
    point costs H + 24 terms; for |Re w| <= 1e3 and the data of this
    package (e^{-lam' xi} with lam' >= 1e-6, point masses, (xi^e - 1)/e,
    xi^e) the result is within a few 1e-15 of max(|KK|, 1) on the
    real axis and within ~1e-12 of cosh(pi Im w) max(1, |phi(|Re w| + 1/2)|)
    / 1e3 off it: the row sums round on the scale of the data, so data
    that grow ((xi^e - 1)/e with e near 1) are resolved on their size.

    Each point is evaluated at the one of +-w with Re w >= 0, and its row
    of terms is summed on its own, so its bits depend on w and on H
    alone: not on the number of points, nor on the point's place among
    them or in a block.  KK is even, so K(-w) == K(w) bit for bit.
    Within 0.3 of its nearest node xi_m the node's term is taken in the
    sinc form; at a node the value is phi(xi_m) exactly.  The terms are
    formed in two buffers under 128 KB each (one row each where a row
    alone is larger, |Re w| beyond ~16000), so memory does not grow with
    the number of points.  A sum that is not finite (|Im w| beyond ~226,
    where cosh pi Im w overflows) raises SeriesNonConvergence, as does
    |Re w| above 2^20.

    Complex points are summed in real arithmetic only, by
    _complex_series (imported on the first complex point): one real
    division per term and two real row sums, no numpy complex loop.

    A single point is summed by _one_point or _complex_series.one_point,
    which skip the term buffers, the blocks and the band search: its
    bits, its H and its map (cached up to H = 2048) are the block
    route's, so a scalar call, real or complex, equals the same point in
    an array of the same max |Re w|.  A point that is nan, infinite,
    beyond 2^20 or (if complex) beyond |Im w| = 226, or a sum that is not
    finite, goes on to the block route, which raises or sums it.  Per
    call on a 2-CPU Xeon VM (numpy 2.4): ~6 us a real point, ~10 us a
    complex one, against ~40 and ~50 us for one point on the block route.
    """
    cplx = np.iscomplexobj(w)
    if w.size == 1:
        out = (_complex().one_point if cplx else _one_point)(phi, w[0])
        if out is not None:
            return np.array([out])
    P = w.size
    if cplx:
        flip = (w.real < 0.0) | ((w.real == 0.0) & (w.imag < 0.0))
        a = np.where(flip, -w.real, w.real)
        b = np.where(flip, -w.imag, w.imag)
    else:
        a = np.abs(w)
    top = float(a.max()) if P else 0.0
    if not top <= _MAX_RE:
        raise SeriesNonConvergence(f"cardinal series at |Re w| = {top:g}, above {_MAX_RE:g}")
    xi, coef, sign = _head_map(math.ceil(top) + _HEAD_PAST)
    ph = np.asarray(phi(xi), dtype=float)
    rows = max(1, (_BLOCK - 1) // (xi.size * a.itemsize))
    # 0/0 at a node is overwritten; overflow off the axis raises below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if cplx:
            out = _complex().block(ph, a, b, xi, coef, sign, rows)
        else:
            out = np.empty(P)
            m, cw, pair, near = _node_terms(a, xi, sign)
            band = near.nonzero()[0]
            for i, t in _term_blocks(coef * ph, xi, a, (band, m[band]), rows):
                np.add.reduce(t, axis=1, out=out[i:i + rows])
            out *= cw
            pair *= ph[m]
            np.add(out, pair, out=out, where=near)
    if not np.isfinite(out).all():
        raise SeriesNonConvergence(
            f"cardinal series not finite at w={w[~np.isfinite(out)][0]}")
    return out


_CELL_ORDER = 32  # Gauss-Legendre nodes per cell of the L1 quadratures


@lru_cache(maxsize=4)
def _cell_operator(K):
    """The 32-node Gauss rule on the K + 1 sign-constant cells [0, 1/2],
    [1/2, 3/2], .., [K - 1/2, K + 1/2] of the line L1 integrals (w units),
    and the matrix that takes the node data to the cells' integrals of
    the series.

    Returns (pts, W, M): the rule's nodes and weights, each of shape
    (K + 1, 32), and M of shape (K + 1, K + 33), built so that
    sum_j W[c, j] KK(phi, pts[c, j]) is (M @ phi(xi))[c], with
    xi = arange(K + 33) + 1/2.  The head, the CRVZ tail and the near-band
    sinc terms of _cardinal_sum are folded in as its own helpers form
    them, so the cell integrals agree with a Gauss sum over its pointwise
    values to rounding.  M is formed in blocks of whole cells, one row
    per Gauss node, in _cardinal_sum's two buffers (under 128 KB each, or
    one cell).  Cached per K; the arrays are read-only, as every caller
    shares them.
    """
    lo = np.concatenate([[0.0], np.arange(K) + 0.5])
    pts, wts, half = panel_nodes(np.column_stack([lo, np.arange(K + 1) + 0.5]), _CELL_ORDER)
    W = half[:, None] * wts
    xi, coef, sign = _map(math.ceil(pts.max()) + _HEAD_PAST)
    m, cw, pair, near = _node_terms(pts, xi, sign)
    band = near.nonzero()[0]
    # the factor of each point's far-field terms: its weight times cos pi w / pi
    rw = W.ravel() * cw
    M = np.empty((K + 1, xi.size))
    rows = _CELL_ORDER * max(1, (_BLOCK - 1) // (_CELL_ORDER * xi.size * pts.itemsize))
    for i, t in _term_blocks(coef, xi, pts, (band, m[band]), rows):
        t *= rw[i:i + rows, None]
        c = i // _CELL_ORDER
        np.add.reduce(t.reshape(-1, _CELL_ORDER, xi.size), axis=1,
                      out=M[c:c + t.shape[0] // _CELL_ORDER])
    np.add.at(M, (band // _CELL_ORDER, m[band]), W.ravel()[band] * pair[band])
    pts = pts.reshape(W.shape)
    for a in (pts, W, M):
        a.flags.writeable = False
    return pts, W, M


def _cell_integrals(phi, K):
    """The Gauss integrals of KK(phi, w) over the K + 1 cells of
    _cell_operator(K), one matrix-vector product; a result that is not
    finite raises SeriesNonConvergence."""
    M = _cell_operator(K)[2]
    out = M @ np.asarray(phi(np.arange(M.shape[1]) + 0.5), dtype=float)
    if not np.isfinite(out).all():
        raise SeriesNonConvergence(f"cell integrals of the cardinal series not finite, K={K}")
    return out


def dirichlet_beta(s: float) -> float:
    """sum_{k>=0} (-1)^k / (2k+1)^s, for s > 0, by the 24 CRVZ weights
    ((2k+1)^{-s} is completely monotone in k, so they leave ~1e-18), the
    weighted terms added by fsum, as they cancel to 1/2 when s is small."""
    if not s > 0:
        raise ValueError("s must be positive")
    k = np.arange(_CRVZ.size)
    return math.fsum(_CRVZ * (2.0 * k + 1.0) ** (-s))


def catalan() -> float:
    """Catalan's constant beta(2)."""
    return dirichlet_beta(2.0)
