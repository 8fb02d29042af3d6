"""Series summation: the paired cardinal series and Dirichlet's beta.

_cardinal_sum is the one routine that sums the interpolation series

    KK(phi, w) = sum_{n>=0} phi(xi_n) [sinc(w - xi_n) + sinc(w + xi_n)]
               = (cos pi w/pi) sum_{n>=0} (-1)^n 2 xi_n phi(xi_n) / ((xi_n - w)(xi_n + w)),
    xi_n = n + 1/2,

behind every extremal function on the line: the exponential kernel
(phi = e^{-lam' xi}) and the measure-integrated approximants (phi a point-
mass sum, -log xi or xi^{sigma-1}).  It is one fixed linear map of the
node data, whatever their decay: the nodes up to 8 past every evaluation
point are summed directly, and the alternating remainder beyond them by
the 24 weights of Cohen, Rodriguez Villegas and Zagier (Exp. Math. 9
(2000), Algorithm 1).  There is no rate, tolerance or stopping test.

Because the map is fixed, its integrals over fixed cells are too:
_cell_operator(K) folds the 32-node Gauss rule on the K + 1 sign-constant
cells [0, 1/2], [1/2, 3/2], .., [K - 1/2, K + 1/2] into one cached
(K + 1) x (K + 33) matrix, which the line L1 quadratures apply to the
node data of each lam', sigma or delta.  It and _cardinal_sum share one
form of the terms, the node coefficients and the near-node band.

dirichlet_beta sums its alternating series with the same weights.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._stable import cospi, sinc, sinc_complex, sinpi
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
    b = [Fraction(1)]
    for j in range(n):
        b.append(b[-1] * 2 * (n + j) * (n - j) / ((2 * j + 1) * (j + 1)))
    total = sum(b)
    tail = total
    w = []
    for k in range(n):
        tail -= b[k]
        w.append((-1) ** k * float(tail / total))
    return np.array(w)


_CRVZ = _crvz_weights(24)  # tail error ~1e-18 of its first term
_HEAD_PAST = 8  # direct nodes past the largest |Re w|
_BLOCK = 2**19  # bytes of terms per block of points, about an L2 cache
_MAX_RE = 2.0**20  # |Re w| beyond this raises: each point costs |Re w| + 32 terms


def _dilate(z, delta):
    """delta * z as a 1-D array.  An infinite part of a complex z would
    meet the zero imaginary part of delta in the product (inf * 0, a
    RuntimeWarning) before the series could refuse the point, so a
    non-finite complex z raises SeriesNonConvergence here; a real one
    passes, and the series raises on it."""
    z = np.atleast_1d(np.asarray(z))
    if np.iscomplexobj(z) and not np.isfinite(z).all():
        raise SeriesNonConvergence(f"cardinal series at non-finite z = {z[~np.isfinite(z)][0]}")
    return z * delta


def _numerators(top, phi):
    """The nodes xi_n = n + 1/2, n < H + 24 with H = ceil(top) + 8, the
    node data phi(xi), and the series' numerators g_n = 2 xi_n phi(xi_n)
    s_n, s_n = (-1)^n for the direct head n < H and (-1)^H times the CRVZ
    weights for the alternating remainder (phi = 1 gives the coefficients
    2 xi_n s_n of the map itself)."""
    H = math.ceil(top) + _HEAD_PAST
    xi = np.arange(H + _CRVZ.size) + 0.5
    ph = np.asarray(phi(xi), dtype=float)
    g = 2.0 * xi * ph
    g[1:H:2] *= -1.0
    g[H:] *= (-1) ** H * _CRVZ
    return xi, ph, g


def _near_band(v, re, sinc_of):
    """The nearest node m = rint(Re v - 1/2) of each point v (Re v >= 0),
    the indices of the points within 0.3 of it, where cos pi v has lost
    relative digits, and at those points the sinc pair
    sinc(v - xi_m) + sinc(v + xi_m) that takes the node's term."""
    m = np.rint(re - 0.5).astype(np.intp)
    d = v - (m + 0.5)
    near = np.flatnonzero(np.abs(d) < 0.3)
    mn = m[near]
    pair = sinc_of(np.concatenate([d[near], v[near] + (mn + 0.5)]))
    return m, near, pair[:mn.size] + pair[mn.size:]


def _term_blocks(coef, xi, v, m, near, rows):
    """The far-field terms coef_n / ((xi_n - v)(xi_n + v)) in blocks of
    `rows` points, each point's band term set to 0; yields (first point,
    block).  Every block is formed in one buffer, so a block is
    overwritten by the next one."""
    buf = np.empty((min(rows, v.size), xi.size), dtype=np.result_type(xi, v))
    for i in range(0, v.size, rows):
        vb = v[i:i + rows, None]
        t = np.subtract(xi, vb, out=buf[:vb.shape[0]])
        t *= xi + vb
        np.divide(coef, t, out=t)
        band = near[(near >= i) & (near < i + rows)]
        t[band - i, m[band]] = 0.0
        yield i, t


def _cardinal_sum(phi, w):
    """KK(phi, w) for a 1-D array w (real or complex).

    phi maps an array of nodes xi to the node data.  With
    H = ceil(max |Re w|) + 8, the nodes n < H are summed directly and the
    alternating remainder from n = H by the 24 CRVZ weights, so each
    point costs H + 24 terms; for |Re w| <= 1e3 and the data of this
    package (e^{-lam' xi} with lam' >= 1e-6, point masses, -log xi,
    xi^{sigma-1}) the result is within a few 1e-15 of max(|KK|, 1) on the
    real axis and within ~1e-12 of cosh(pi Im w)/1e3 off it.

    KK is even, and each point is evaluated at the one of +-w with
    Re w >= 0, each row summed on its own, so K(-w) == K(w) bit for bit.
    Within 0.3 of a node xi_m (only m = rint(Re w - 1/2) can be that
    close) the node's term is taken in the sinc form, where cos pi w has
    lost relative digits; at a node it is phi(xi_m) exactly.  The terms
    are formed in blocks of points of 512 KB (or one point), so memory
    does not grow with the number of points.  A sum that is not finite
    (|Im w| beyond ~225, where cos pi w overflows) raises
    SeriesNonConvergence, as does |Re w| above 2^20.
    """
    P = w.size
    if np.iscomplexobj(w):
        flip = (w.real < 0.0) | ((w.real == 0.0) & (w.imag < 0.0))
        v = np.where(flip, -w, w)
        sinc_of = sinc_complex
    else:
        v = np.abs(w)
        sinc_of = sinc
    re = v.real
    top = float(re.max()) if P else 0.0
    if not top <= _MAX_RE:
        raise SeriesNonConvergence(f"cardinal series at |Re w| = {top:g}, above {_MAX_RE:g}")
    xi, ph, g = _numerators(top, phi)

    s = np.empty(P, dtype=v.dtype)
    rows = max(1, _BLOCK // (xi.size * v.itemsize))
    # 0/0 at a node is overwritten; overflow off the axis raises below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m, near, pair = _near_band(v, re, sinc_of)
        for i, t in _term_blocks(g, xi, v, m, near, rows):
            s[i:i + rows] = t.sum(axis=1)
        if np.iscomplexobj(v):
            pb = math.pi * v.imag
            cpw = cospi(re) * np.cosh(pb) - 1j * (sinpi(re) * np.sinh(pb))
        else:
            cpw = cospi(v)
        out = cpw / math.pi * s
        out[near] += ph[m[near]] * pair
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
    values to rounding.  M is formed in blocks of whole cells of at most
    512 KB of terms.  Cached per K; the arrays are read-only, as every
    caller shares them.
    """
    lo = np.concatenate([[0.0], np.arange(K) + 0.5])
    pts, wts, half = panel_nodes(np.column_stack([lo, np.arange(K + 1) + 0.5]), _CELL_ORDER)
    W = half[:, None] * wts
    xi, _, coef = _numerators(float(pts.max()), np.ones_like)
    m, near, pair = _near_band(pts, pts, sinc)
    # the factor of each point's far-field terms: its weight times cos pi w / pi
    rw = W.ravel() * cospi(pts) / math.pi
    M = np.zeros((K + 1, xi.size))
    rows = _CELL_ORDER * max(1, _BLOCK // (_CELL_ORDER * xi.size * pts.itemsize))
    for i, t in _term_blocks(coef, xi, pts, m, near, rows):
        t *= rw[i:i + rows, None]
        c = i // _CELL_ORDER
        M[c:c + t.shape[0] // _CELL_ORDER] = t.reshape(-1, _CELL_ORDER, xi.size).sum(axis=1)
    np.add.at(M, (near // _CELL_ORDER, m[near]), W.ravel()[near] * pair)
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
