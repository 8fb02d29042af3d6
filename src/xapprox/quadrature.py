"""Fixed-order Gauss rules.

Every integral the library computes runs a fixed rule on a known
interval, where the integrand is analytic: Gauss-Legendre panels (the
sign-constant cells of the L1 integrals, the oracles' w- and
lambda-panels) and Gauss-Jacobi nodes for an algebraic endpoint weight
(the lambda-rule of error_mu_pointwise, and the density rule behind the
certificate's measure integrals: the coefficients of the theorem's K-hat
route, the Watson constants of the line L1 tail, the two 1-D identities
and the defining integral of the periodized power target).  Their node
tables are cached and read-only.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureNonConvergence

__all__ = []


@lru_cache(maxsize=8)
def _leggauss(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False  # shared by every caller of this order
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=64)
def _gauss_jacobi(n: int, beta: float):
    """Nodes and weights of the n-point Gauss rule on [-1, 1] for the
    weight (1 + t)^beta, beta > -1, from the symmetric Jacobi matrix J of
    the orthonormal Jacobi polynomials p_k of P^{(0, beta)}.

    The nodes are J's eigenvalues (eigvalsh, no eigenvectors), the
    weights the Christoffel numbers mu_0 / sum_{k<n} p_k(t)^2, mu_0 =
    2^{beta+1}/(beta+1), with the p_k and their derivatives run on J's
    own three-term recurrence.  The same pass gives p_n/p_n', the Newton
    step to the root, which moves each node and, to first order, its sum
    of squares: nodes within ~1e-16 and weights within ~1.5e-14 relative
    of a 30-digit eigendecomposition of J for n <= 48.  Cached by
    (n, beta) and read-only, so every call returns the same bits."""
    k = np.arange(1.0, n)
    s = 2.0 * k + beta
    diag = np.empty(n)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    # off[j] p_{j+1} = (t - diag[j]) p_j - off[j-1] p_{j-1}, p_0 = 1; the
    # last step, with off[n-1] taken as 1, gives a multiple of p_n.  The
    # rows of x are p_j and p_j', run as one stacked recurrence; the rows
    # of acc the sums of p_k^2 and p_k p_k'
    x_prev, x = np.zeros((2, n)), np.zeros((2, n))
    x[0] = 1.0
    acc = x.copy()
    for j, tj in enumerate(t - diag[:, None]):
        y = tj * x
        y[1] += x[0]
        y -= (off[j - 1] if j else 0.0) * x_prev
        y /= off[j] if j < n - 1 else 1.0
        x_prev, x = x, y
        if j < n - 1:
            acc += x[0] * x
    (p, dp), (sq, dsq) = x, acc
    newton = p / dp
    nodes = t - newton
    weights = 2.0 ** (beta + 1.0) / (beta + 1.0) / (sq - 2.0 * newton * dsq)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _panel_rule(edges, order: int):
    """Nodes and weights of order-point Gauss-Legendre panels between
    consecutive edges, flattened: the integral is f(nodes) @ weights."""
    edges = np.asarray(edges, dtype=float)
    pts, wts, half = panel_nodes(np.column_stack([edges[:-1], edges[1:]]), order)
    return pts, (half[:, None] * wts).ravel()


# Gauss orders of the density rule and of its twin, head and panels alike,
# and the end of its head [0, a]
_DENSITY_ORDERS = (16, 24)
_DENSITY_HEAD = 4.0


def _density_integral(g, sigma, rate, what, far=None, slow=0.0):
    """int_0^inf g(lam) lam^{-sigma} dlam, 0 < sigma < 2, by a fixed rule.

    g maps an array of n nodes to n values, or to an (n, k) array of k
    integrands at once (the result is then a length-k array); g/lam must
    be analytic near [0, a], a = _DENSITY_HEAD = 4.  On [0, a] Gauss-Jacobi nodes for the
    weight lam^{1-sigma} are applied to g/lam.  Beyond a, doubling
    Gauss-Legendre panels [a 2^k, a 2^{k+1}] run out to where
    e^{-rate lam}, g's exponential part, is below e^{-40}.  g's complex
    poles must lie on the imaginary axis (as those of K-hat and sech do):
    each panel then sees them no nearer, in units of its half-width, than
    lam = 0 (three half-widths from its centre), so no panel width
    depends on g.  There g may be given as
    far(lam) + slow/lam: far is integrated by the panels and the slowly
    decaying slow/lam exactly, slow a^{-sigma}/sigma.  Orders 16 (head
    and panels) and a twin of order 24 must agree within 1e-10 absolute
    plus 1e-10 relative and be finite, or QuadratureNonConvergence is
    raised, naming `what`, sigma and both estimates.
    """
    a = _DENSITY_HEAD
    edges = a * 2.0 ** np.arange(max(1, math.ceil(math.log2(40.0 / (rate * a)))) + 1.0)
    heads = [_gauss_jacobi(n, 1.0 - sigma) for n in _DENSITY_ORDERS]
    panels = [_panel_rule(edges, n) for n in _DENSITY_ORDERS]
    lh = [0.5 * a * (1.0 + t) for t, _ in heads]
    # one evaluation over the head nodes of both rules, one over their panels
    gh = np.split(g(np.concatenate(lh)), [lh[0].size])
    gf = np.split((far or g)(np.concatenate([lt for lt, _ in panels])), [panels[0][0].size])
    est = []
    for (_, wj), lam, vh, (lt, wt), vf in zip(heads, lh, gh, panels, gf):
        head = (0.5 * a) ** (2.0 - sigma) * (wj / lam) @ vh
        est.append(head + (wt * lt ** (-sigma)) @ vf + slow * a ** (-sigma) / sigma)
    lo, hi = est
    bad = ~(np.isfinite(hi) & (np.abs(hi - lo) <= 1e-10 + 1e-10 * np.abs(hi)))
    if np.any(bad):
        i = int(np.argmax(bad))  # the first integrand that fails
        raise QuadratureNonConvergence(
            f"{what}, sigma={sigma:g}: twin rules give "
            f"{np.ravel(lo)[i]!r} and {np.ravel(hi)[i]!r}")
    return hi


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
