"""Adaptive ray integrals and fixed-order Gauss panels.

The ray integrator is a thin policy layer over scipy's QUADPACK: the
semi-infinite range is split at ``a+1`` and at a finite ``tail_cut`` so
that integrable endpoint singularities, the mid-range bulk, and the
far tail each land in the regime QUADPACK handles best.  All error
estimates are summed and checked against the configured tolerances;
failure raises instead of returning a silently bad number.  scipy is
imported on the first call, so the package's exact routes never load it.

Gauss-Legendre panels of fixed order are used wherever the integrand is
analytic on a known interval (sign-constant cells of the L1 integrals).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureNonConvergence

__all__ = [
    "QuadratureConfig",
    "integrate_ray",
    "gauss_panel",
    "integrate_cells_abs",
]

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-10
DEFAULT_MAX_DEPTH = 48
DEFAULT_TAIL_CUT = 50.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for all adaptive integrals.

    abs_tol/rel_tol: target absolute/relative error of the full integral.
    max_depth:       QUADPACK subdivision limit per piece.
    tail_cut:        where the finite mid-range piece ends and the
                     semi-infinite tail piece begins.  Integrands that
                     decay like exp(-r*lambda) are fully resolved by the
                     default (the tail piece is then ~e^{-50}); slower
                     decays should raise it (callers pass e.g. 30/rate).
    """

    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    max_depth: int = DEFAULT_MAX_DEPTH
    tail_cut: float = DEFAULT_TAIL_CUT

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_depth < 8:
            raise ValueError("max_depth must be >= 8")
        if not self.tail_cut > 0:
            raise ValueError("tail_cut must be positive")


def integrate_ray(f, a: float = 0.0, cfg: QuadratureConfig | None = None):
    """Integrate f over (a, infinity) adaptively.

    Pieces: [a, a+1] (endpoint singularities), [a+1, T] (bulk) and
    [T, inf) (tail, QUADPACK's infinite-range transformation), with
    T = max(a+1, a+tail_cut).  Raises QuadratureNonConvergence when the
    summed error estimate exceeds abs_tol + rel_tol*|value| or any piece
    reports a failure code.
    """
    from scipy.integrate import quad

    if cfg is None:
        cfg = QuadratureConfig()
    t = max(a + 1.0, a + cfg.tail_cut)
    pieces = [(a, a + 1.0), (a + 1.0, t), (t, np.inf)]
    total = 0.0
    err = 0.0
    # per-piece tolerance: a third of the overall budget each
    eps = cfg.abs_tol / 3.0
    for lo, hi in pieces:
        val, est, info, *msg = quad(
            f, lo, hi, epsabs=eps, epsrel=cfg.rel_tol,
            limit=cfg.max_depth, full_output=True,
        )
        if msg and "roundoff" not in msg[0]:
            raise QuadratureNonConvergence(
                f"quadrature failed on [{lo}, {hi}]: {msg[0].splitlines()[0]}"
            )
        total += val
        err += est
    if not np.isfinite(total):
        raise QuadratureNonConvergence("integral is not finite")
    if err > cfg.abs_tol + cfg.rel_tol * abs(total) + 1e-300:
        raise QuadratureNonConvergence(
            f"error estimate {err:.3e} exceeds tolerance for value {total:.6e}"
        )
    return total


@lru_cache(maxsize=8)
def _leggauss(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def gauss_panel(f, a: float, b: float, order: int = 32):
    """Fixed-order Gauss-Legendre integral of f over [a, b].

    f must accept an ndarray of abscissae.  Exact for polynomials of
    degree < 2*order; for analytic integrands on a sign-constant cell
    the error is far below the tolerances used here.
    """
    nodes, weights = _leggauss(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(weights, f(mid + half * nodes)))


def panel_nodes(cells, order: int = 32):
    """All Gauss abscissae for a list of cells, concatenated.

    Returns (points, weights, half_lengths_repeated) so a caller can
    evaluate an expensive integrand once over every cell and then reduce
    per cell.  ``points.shape == (len(cells)*order,)``.
    """
    nodes, weights = _leggauss(order)
    cells = np.asarray(cells, dtype=float)
    mid = 0.5 * (cells[:, 0] + cells[:, 1])
    half = 0.5 * (cells[:, 1] - cells[:, 0])
    pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    return pts, weights, half


def reduce_cells_abs(values, weights, half, order: int):
    """Sum of |per-cell Gauss integrals| given flat integrand values."""
    mat = values.reshape(-1, order)
    per_cell = mat @ weights * half
    return float(np.sum(np.abs(per_cell)))


def integrate_cells_abs(f, bounds, order: int = 32):
    """Sum over consecutive cells of |integral of f| (sign-split L1).

    bounds is an increasing 1-D sequence; cell i is [bounds[i],
    bounds[i+1]].  When f is sign-constant on each cell this equals the
    integral of |f| over [bounds[0], bounds[-1]].
    """
    bounds = np.asarray(bounds, dtype=float)
    cells = np.column_stack([bounds[:-1], bounds[1:]])
    pts, weights, half = panel_nodes(cells, order)
    return reduce_cells_abs(np.asarray(f(pts), dtype=float), weights, half, order)

