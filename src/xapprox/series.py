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
in two buffers of rows x (H + 24) that stay under _BLOCK = 128 KB
(glibc's mmap threshold), held per thread and reused by every block and
every call.  Each row is summed on its own, so a point's bits depend on the
point and on H (through max |Re w|) only, never on the number of points
or on where the point sits among them or in a block.  One real point (a
scalar eval_K or eval_K_mu, each series of error_mu_pointwise) takes a
shorter route with the same bits: its per-point values in Python floats
and its H + 24 terms in one 1-D row, without the buffers, the blocks, the
band search or the one-element array operations.

cos pi w, which vanishes at the nodes, and the sinc pair that takes the
nearest node's term come from one sine of d = w - xi_m, exact for
Re w >= 1/4: cos pi w = (-1)^{m+1} sin pi d, so cos pi w keeps its
relative digits up to the node.

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
    precision of z (the series forms its terms in the type of its
    points).  An infinite part of a complex z would meet the zero
    imaginary part of delta in the product (inf * 0, a RuntimeWarning)
    before the series could refuse the point, so a non-finite complex z
    raises SeriesNonConvergence here; a real one passes, and the series
    raises on it."""
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
    """For points v with Re v >= 0 (real or complex): the nearest node
    xi_m, m = floor(Re v), cos(pi v)/pi, the sinc pair
    sinc(v - xi_m) + sinc(v + xi_m), and the near band |v - xi_m| < 0.3,
    where the pair takes the node's term.

    All of them come from one sine of d = v - xi_m, which is exact for
    Re v >= 1/4: cos pi v = (-1)^{m+1} sin pi d, and the pair is
    (sin pi d/pi)(1/d - 1/(v + xi_m)), 1 at d = 0.  sin pi d keeps its
    relative digits as d -> 0, so cos pi v does too, and it is 0 at the
    node."""
    m = v.real.astype(np.intp)
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


def _term_buffers(shape, dtype):
    """Two uninitialised arrays of shape and dtype in the calling
    thread's two buffers of _BLOCK bytes, which live as long as the
    thread; a shape of _BLOCK bytes or more gets two new arrays.  Fresh
    buffers of ~128 KB on every call can end at the heap top, which glibc
    then trims when they are freed, and the next call faults the pages in
    again: ~0.1 ms a call, or not, depending on the heap's layout.  The
    arrays are valid until the thread's next call."""
    if shape[0] * shape[1] * dtype.itemsize >= _BLOCK:
        return np.empty(shape, dtype), np.empty(shape, dtype)
    try:
        a, b = _SCRATCH.bufs
    except AttributeError:
        a, b = _SCRATCH.bufs = np.empty(_BLOCK, np.uint8), np.empty(_BLOCK, np.uint8)
    return np.ndarray(shape, dtype, a), np.ndarray(shape, dtype, b)


def _term_blocks(coef, xi, v, band, rows):
    """The far-field terms coef_n / ((xi_n - v)(xi_n + v)) in blocks of
    `rows` points, one row per point with its nodes contiguous, and the
    band's terms set to 0: band = (points, nodes), the points ascending.
    Yields (first point, block).  The blocks are formed in two arrays of
    min(rows, v.size) x xi.size from _term_buffers: each block overwrites
    the one before, and no block allocates a temporary."""
    a, b = _term_buffers((min(rows, v.size), xi.size), v.dtype)
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


def _one_point(phi, v):
    """KK(phi, v) at one real v in [0, 2^20]: the block route's operations
    in the same order, the per-point values in Python floats and the
    H + 24 terms in one 1-D row, so the bits are the block route's.  The
    sine is np.sin, as there: numpy's SIMD sine need not round as
    math.sin does.  The band term is divided by 1, not by its 0 at a
    node, and then zeroed, so no floating-point flag is raised for data
    that are finite."""
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
    return out


def _cardinal_sum(phi, w):
    """KK(phi, w) for a 1-D array w of float64 or complex128 (_dilate
    makes one of any input).

    phi maps an array of nodes xi to the node data.  With
    H = ceil(max |Re w|) + 8, the nodes n < H are summed directly and the
    alternating remainder from n = H by the 24 CRVZ weights, so each
    point costs H + 24 terms; for |Re w| <= 1e3 and the data of this
    package (e^{-lam' xi} with lam' >= 1e-6, point masses, (xi^e - 1)/e,
    xi^e) the result is within a few 1e-15 of max(|KK|, 1) on the
    real axis and within ~1e-12 of cosh(pi Im w)/1e3 off it.

    Each point is evaluated at the one of +-w with Re w >= 0, and its row
    of terms is summed on its own, so its bits depend on w and on H
    alone: not on the number of points, nor on the point's place among
    them or in a block.  KK is even, so K(-w) == K(w) bit for bit.
    Within 0.3 of its nearest node xi_m the node's term is taken in the
    sinc form; at a node the value is phi(xi_m) exactly.  The terms are
    formed in two buffers under 128 KB each (one row each where a row
    alone is larger, |Re w| beyond ~16000 real or ~8000 complex), so
    memory does not grow with the number of points.  A sum that is not
    finite (|Im w| beyond ~225, where cos pi w overflows) raises
    SeriesNonConvergence, as does |Re w| above 2^20.

    A single real point is summed by _one_point, which skips the term
    buffers, the blocks and the band search: its bits, its H and its map
    (cached up to H = 2048) are the block route's, so a scalar call
    equals the same point in an array of the same max |Re w|.  A point
    that is nan, infinite or beyond 2^20, or a sum that is not finite,
    goes on to the block route, which raises.  Complex points always take
    the block route.
    """
    if w.size == 1 and w.dtype == np.float64:
        v = abs(float(w[0]))
        if v <= _MAX_RE:  # not nan, inf or too far: the block route raises
            out = _one_point(phi, v)
            if math.isfinite(out):
                return np.array([out])
    P = w.size
    if np.iscomplexobj(w):
        flip = (w.real < 0.0) | ((w.real == 0.0) & (w.imag < 0.0))
        v = np.where(flip, -w, w)
    else:
        v = np.abs(w)
    top = float(v.real.max()) if P else 0.0
    if not top <= _MAX_RE:
        raise SeriesNonConvergence(f"cardinal series at |Re w| = {top:g}, above {_MAX_RE:g}")
    xi, coef, sign = _head_map(math.ceil(top) + _HEAD_PAST)
    ph = np.asarray(phi(xi), dtype=float)
    s = np.empty(P, dtype=v.dtype)
    rows = max(1, (_BLOCK - 1) // (xi.size * v.itemsize))
    # 0/0 at a node is overwritten; overflow off the axis raises below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m, cw, pair, near = _node_terms(v, xi, sign)
        band = near.nonzero()[0]
        for i, t in _term_blocks(coef * ph, xi, v, (band, m[band]), rows):
            np.add.reduce(t, axis=1, out=s[i:i + rows])
        # not s *= cw: numpy rounds an in-place complex product of one
        # element differently from the same product in a longer array
        out = cw * s
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
