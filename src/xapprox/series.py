"""Series summation: the paired cardinal series and alternating series.

_cardinal_sum is the one routine that sums the interpolation series

    KK(phi, w) = sum_{n>=1} phi(xi_n) [sinc(w - xi_n) + sinc(w + xi_n)],
    xi_n = n - 1/2,

behind every extremal function on the line: the exponential kernel
(phi = e^{-lam' xi}) and the measure-integrated approximants (phi a point-
mass sum, -log xi or xi^{sigma-1}).  It works in blocks of node pairs, so
memory stays O(points x block) whatever the decay rate.

averaged_alternating sums an alternating series by iterated pairwise
averaging of the partial-sum sequence (the van Wijngaarden form of the
Euler transform).  For series whose terms are smooth in the index --
every series summed in this package qualifies -- each averaging pass
gains roughly a factor two, so ~50 terms deliver close to machine
precision.
"""

from __future__ import annotations

import math

import numpy as np

from ._stable import cospi, sinc, sinc_complex
from .errors import SeriesNonConvergence

__all__ = ["averaged_alternating", "dirichlet_beta", "catalan"]

_MAX_PAIRS = 2_000_000
_GEOM_EPS = 1e-15
_ALT4 = np.array([1.0, -1.0, 1.0, -1.0])
_SIGN2 = np.tile([-2.0, 2.0], 2048)  # (-1)^{n+1} 2 for n = 0..4095


def _boole_tail(t4):
    # Swap the last four summed terms t4 of each row for the Euler
    # transform of the remainder from their first index N.  With
    # t_n = (-1)^n u_n and u smooth in n,
    #   sum_{n>=N} t_n = (-1)^N (d0/2 - d1/4 + d2/8 - d3/16) + O(D4 u)
    # with d_k the forward differences of u at N; the (-1)^N cancels
    # against the one folded into u below.
    u = t4 * _ALT4
    d1 = u[:, 1] - u[:, 0]
    d2 = u[:, 2] - 2.0 * u[:, 1] + u[:, 0]
    d3 = u[:, 3] - 3.0 * u[:, 2] + 3.0 * u[:, 1] - u[:, 0]
    return 0.5 * u[:, 0] - 0.25 * d1 + 0.125 * d2 - 0.0625 * d3


def _cardinal_sum(phi, w, rate, tol=None):
    """KK(phi, w) for a 1-D array w (real or complex).

    rate is the decay rate of geometric node data, |phi(xi)| <= phi(0)
    e^{-rate xi} (the exponential kernel, point masses): the sum stops
    after the M pairs whose tail phi(0) e^{-rate(M-1)}/rate is below
    1e-15, and at least 8 past every evaluation point; tol is unused.
    rate=None marks slowly varying data (log, power), summed until the
    tail estimate stagnates below tol.

    Real input takes a fast path: outside a band around the nodes the
    pair collapses to (-1)^n (cos pi w/pi) 2 xi/(w^2 - xi^2),
    transcendental-free; inside the band the sinc form is used.  For slow
    data the last four terms of each block are traded for a fourth-order
    Euler (Boole) tail of the remainder, so power-law pair data that plain
    averaging would grind on for ~1e6 pairs settles within a few blocks;
    the stagnation test keeps a conservative n/2B inflation of the
    block-to-block delta.  A sum that is not finite, or that needs more
    than 2e6 pairs, raises SeriesNonConvergence.
    """
    is_complex = np.iscomplexobj(w)
    P = w.size
    B = 512 if P >= 64 else 4096
    re = np.real(w) if is_complex else w
    max_re = float(np.abs(re).max()) if P else 0.0
    if rate is None:
        n_min, n_max = max(16, int(math.ceil(max_re)) + 8), _MAX_PAIRS
    else:
        weight = max(abs(float(phi(np.zeros(1))[0])), _GEOM_EPS)
        m_tail = 1.0 + math.log(weight / (_GEOM_EPS * rate)) / rate
        n_max = int(max(8.0, math.ceil(m_tail), math.ceil(max_re) + 8.0))
        if n_max > _MAX_PAIRS:
            raise SeriesNonConvergence(
                f"decay rate lam'={rate:g} needs {n_max} pairs, above {_MAX_PAIRS}")

    acc = np.zeros(P, dtype=complex if is_complex else float)
    if not is_complex:
        cpw = cospi(w) / math.pi
        w2 = w * w
        aw = np.abs(w)
    prev = None
    n0 = 0
    # 0/0 at w == node is overwritten below, overflow off the axis raises
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while n0 < n_max:
            idx = np.arange(n0, min(n0 + B, n_max))
            xi = idx + 0.5
            ph = np.asarray(phi(xi), dtype=float)
            if is_complex:
                terms = sinc_complex(w[:, None] - xi) + sinc_complex(w[:, None] + xi)
            else:
                # blocks start at even n; garbage at w == node, overwritten below
                terms = cpw[:, None] * (_SIGN2[:xi.size] * xi / (w2[:, None] - xi * xi))
                if xi[0] - 0.5 <= max_re:
                    near_i, near_j = np.nonzero(np.abs(aw[:, None] - xi) < 0.3)
                    if near_i.size:
                        wn, xn = w[near_i], xi[near_j]
                        s = sinc(np.concatenate([wn - xn, wn + xn]))
                        terms[near_i, near_j] = s[:wn.size] + s[wn.size:]
            terms *= ph
            acc += terms.sum(axis=1)
            n0 += idx.size
            if not np.isfinite(acc).all():
                data = "slow node data" if rate is None else f"lam'={rate:g}"
                raise SeriesNonConvergence(
                    f"cardinal series not finite at w={w[~np.isfinite(acc)][0]} ({data})")
            if rate is None:
                T = acc - terms[:, -4:].sum(axis=1) + _boole_tail(terms[:, -4:])
                if prev is not None and n0 >= n_min:
                    if float(np.max(np.abs(T - prev))) * n0 / (2.0 * B) < tol:
                        return T
                prev = T
    if rate is not None:
        return acc
    raise SeriesNonConvergence(
        f"interpolation series not converged after {n0} pairs (tol {tol:g})"
    )


def averaged_alternating(terms, depth: int | None = None):
    """Sum an alternating series from its signed leading terms.

    terms: the first n signed terms a_0, a_1, ... of sum(a_k).
    depth: number of averaging passes (default: as many as possible
           while keeping two entries for the error estimate).

    Returns (value, err_estimate).
    """
    t = np.asarray(terms, dtype=float)
    if t.ndim != 1 or t.size < 4:
        raise ValueError("need at least 4 terms")
    s = np.cumsum(t)
    max_depth = s.size - 2
    if depth is None:
        depth = max_depth
    depth = min(depth, max_depth)
    for _ in range(depth):
        s = 0.5 * (s[:-1] + s[1:])
    value = float(s[-1])
    if not np.isfinite(value):
        raise SeriesNonConvergence("averaged series produced a non-finite value")
    err = float(abs(s[-1] - s[-2]))
    return value, err


def dirichlet_beta(s: float, terms: int = 64) -> float:
    """sum_{k>=0} (-1)^k / (2k+1)^s, for s > 0."""
    if not s > 0:
        raise ValueError("s must be positive")
    k = np.arange(terms)
    signed = np.where(k % 2 == 0, 1.0, -1.0) * (2.0 * k + 1.0) ** (-s)
    value, err = averaged_alternating(signed)
    if err > 1e-13 * max(1.0, abs(value)):
        raise SeriesNonConvergence(
            f"beta({s}) error estimate {err:.3e} above target"
        )
    return value


def catalan() -> float:
    """Catalan's constant via the accelerated defining series."""
    return dirichlet_beta(2.0, terms=48)
