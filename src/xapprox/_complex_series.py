"""The paired cardinal series of series.py at complex points, in real
arithmetic only.

series._cardinal_sum imports this module on its first complex point, so
a process that sums real points only never compiles it.  A point
v = a + ib is taken with a >= 0 (KK is even).  Every denominator
(xi_n - v)(xi_n + v) is then R_n - ic with

    R_n = (xi_n - a)(xi_n + a) + b^2,   c = 2ab (one per point),

so with q_n = g_n / (R_n^2 + c^2) the row's sum is
sum_n q_n R_n + ic sum_n q_n: one real division per term and two real
row sums.  cos pi v / pi = (-1)^{m+1} sin(pi d)/pi with d = v - xi_m and

    sin pi d = sin pi d_r cosh pi b + i cos pi d_r sinh pi b,   d_r = a - xi_m,

each factor numpy's real function; within |d| < 0.3 the node's term is
taken in the sinc form, as on the real axis.

The block route (block) and the one-point route (one_point) run these
real operations in the same order, so a complex scalar has the bits of
the same point in an array, as a real scalar has.  No numpy complex loop
is used: those round a one-element product differently from a longer
one.  A scalar takes ~7 us, against ~43 us for one point on the block
route (2-CPU Xeon VM, numpy 2.4).
"""

from __future__ import annotations

import math

import numpy as np

from .series import _HEAD_PAST, _MAX_RE, _head_map, _term_buffers

_MAX_IM = 226.0  # cosh(pi 226) = 1.1e308: numpy's cosh neither overflows nor warns


def _sine(dr, b):
    """sin(pi d)/pi = x + iy at d = dr + ib, from numpy's real sin, cos,
    cosh and sinh, on floats or arrays alike."""
    pd, pb = math.pi * dr, math.pi * b
    return np.sin(pd) * np.cosh(pb) / math.pi, np.cos(pd) * np.sinh(pb) / math.pi


def _pair(x, y, dr, b, h, ur):
    """The sinc pair sn/d - sn/u of a point within 0.3 of its node, on
    floats or arrays alike: sn = x + iy = sin(pi d)/pi, d = dr + ib with
    |d| = h > 0 (sn/d as (sn/h)(conj d/h), which neither underflows nor
    overflows) and u = v + xi_m = ur + ib with ur >= 1/2."""
    er, ei = dr / h, b / h
    sr, si = x / h, y / h
    den = ur * ur + b * b
    return (sr * er + si * ei - (x * ur + y * b) / den,
            si * er - sr * ei - (y * ur - x * b) / den)


def _row_sums(g, xi, a, b2, c2, band, rows):
    """The row sums sum_n q_n and sum_n q_n R_n of the points a + ib, with
    b2 = b^2 and c2 = c^2 per point, the band's q_n set to 0 (band as in
    series._term_blocks), formed in blocks of `rows` points in the two
    arrays of series._term_buffers."""
    sq, sr = np.empty(a.size), np.empty(a.size)
    r_buf, q_buf = _term_buffers((min(rows, a.size), xi.size))
    for i in range(0, a.size, rows):
        n = min(rows, a.size - i)
        r = np.subtract(xi, a[i:i + n, None], out=r_buf[:n])
        r *= np.add(xi, a[i:i + n, None], out=q_buf[:n])
        r += b2[i:i + n, None]
        q = np.multiply(r, r, out=q_buf[:n])
        q += c2[i:i + n, None]
        np.divide(g, q, out=q)
        j0, j1 = band[0].searchsorted((i, i + n))
        q[band[0][j0:j1] - i, band[1][j0:j1]] = 0.0
        np.add.reduce(q, axis=1, out=sq[i:i + n])
        r *= q
        np.add.reduce(r, axis=1, out=sr[i:i + n])
    return sq, sr


def block(ph, a, b, xi, coef, sign, rows):
    """KK at the points a + ib, every a >= 0, from the node data ph on the
    map (xi, coef, sign): the block route, under the caller's errstate."""
    m = a.astype(np.intp)
    xm = xi[m]
    dr = a - xm
    x, y = _sine(dr, b)
    h = np.hypot(dr, b)
    band = (h < 0.3).nonzero()[0]
    mb = m[band]
    c = 2.0 * a * b
    sq, sr = _row_sums(coef * ph, xi, a, b * b, c * c, (band, mb), rows)
    s = sign[m]
    cr, ci = x * s, y * s
    sq *= c
    out = np.empty(a.size, dtype=complex)
    out.real = cr * sr - ci * sq
    out.imag = cr * sq + ci * sr
    pr, pi = _pair(x[band], y[band], dr[band], b[band], h[band], a[band] + xm[band])
    at = h[band] == 0.0
    pr[at], pi[at] = 1.0, 0.0
    out.real[band] += pr * ph[mb]
    out.imag[band] += pi * ph[mb]
    return out


def one_point(phi, w):
    """KK(phi, w) at one complex w, or None where the block route must
    take it (a nan or infinite part, |Re w| above 2^20, |Im w| above
    _MAX_IM, or a sum that is not finite): block's operations in the same
    order, in Python floats and one 1-D row of terms.  The band term is
    divided by 1 and then zeroed, as in series._one_point."""
    a, b = float(w.real), float(w.imag)
    if a < 0.0 or (a == 0.0 and b < 0.0):
        a, b = -a, -b
    if not (a <= _MAX_RE and abs(b) <= _MAX_IM):
        return None
    xi, coef, _ = _head_map(math.ceil(a) + _HEAD_PAST)
    ph = np.asarray(phi(xi), dtype=float)
    m = int(a)
    xm = m + 0.5
    dr = a - xm
    x, y = map(float, _sine(dr, b))
    h = float(np.hypot(dr, b)) if abs(b) < 0.3 else 1.0
    near = h < 0.3
    # _row_sums on one row
    c = 2.0 * a * b
    r = xi - a
    r *= xi + a
    r += b * b
    q = r * r
    q += c * c
    if near:
        q[m] = 1.0
    np.divide(coef * ph, q, out=q)
    if near:
        q[m] = 0.0
    sq = float(np.add.reduce(q))
    r *= q
    sr = float(np.add.reduce(r))
    # cos pi v / pi = (-1)^{m+1} sin pi d / pi times the row's sums
    cr, ci = (x, y) if m % 2 else (-x, -y)
    sq *= c
    re = cr * sr - ci * sq
    im = cr * sq + ci * sr
    if near:
        pr, pi = _pair(x, y, dr, b, h, a + xm) if h != 0.0 else (1.0, 0.0)
        re += pr * float(ph[m])
        im += pi * float(ph[m])
    if math.isfinite(re) and math.isfinite(im):
        return complex(re, im)
    return None
