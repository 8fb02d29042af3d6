"""Adaptive ray integrals and fixed-order Gauss panels.

The library's QUADPACK routes all go through one piece loop,
``_quad_pieces``: it integrates each piece at fixed tolerances, sums the
values and the error estimates, and raises instead of returning a
silently bad number (only two certificate checks, which need QUADPACK's
algebraic weight or its own subdivision limit, call ``quad`` directly).  The ray integrator splits (0, inf) at 1 and at a
finite ``tail_cut``, so that integrable endpoint singularities, the
mid-range bulk and the far tail each land in the regime QUADPACK handles
best.  scipy is imported on the first call, so the package's exact
routes never load it.

Gauss-Legendre panels of fixed order are used wherever the integrand is
analytic on a known interval (sign-constant cells of the L1 integrals).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureNonConvergence

__all__ = ["integrate_ray"]

# QUADPACK subdivision limit per piece
_LIMIT = 48


def _quad_pieces(pieces, epsabs: float, epsrel: float) -> float:
    """Sum of QUADPACK integrals over pieces [(f, lo, hi), ...], each run
    at epsabs absolute and epsrel relative tolerance.  Raises
    QuadratureNonConvergence when a piece reports a failure (a roundoff
    notice alone is accepted), when the sum is not finite, or when the
    summed error estimate exceeds len(pieces) * epsabs + epsrel * |sum|."""
    from scipy.integrate import quad

    total = 0.0
    err = 0.0
    for f, lo, hi in pieces:
        val, est, _, *msg = quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel,
                                 limit=_LIMIT, full_output=True)
        if msg and "roundoff" not in msg[0]:
            raise QuadratureNonConvergence(
                f"quadrature failed on [{lo}, {hi}]: {msg[0].splitlines()[0]}"
            )
        total += val
        err += est
    if not np.isfinite(total):
        raise QuadratureNonConvergence("integral is not finite")
    if err > len(pieces) * epsabs + epsrel * abs(total) + 1e-300:
        raise QuadratureNonConvergence(
            f"error estimate {err:.3e} exceeds tolerance for value {total:.6e}"
        )
    return total


def integrate_ray(f, tail_cut: float = 50.0) -> float:
    """Integrate f over (0, infinity) adaptively.

    Pieces: [0, 1] (endpoint singularities), [1, T] (bulk) and [T, inf)
    (tail, QUADPACK's infinite-range transformation), T = max(1,
    tail_cut); integrands that decay like e^{-r lam} are resolved by the
    default when r is not small (callers pass larger cuts otherwise).
    The integral is held to 1e-10 absolute and 1e-10 relative error.
    """
    t = max(1.0, tail_cut)
    return _quad_pieces([(f, 0.0, 1.0), (f, 1.0, t), (f, t, np.inf)], 1e-10 / 3, 1e-10)


@lru_cache(maxsize=8)
def _leggauss(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


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
