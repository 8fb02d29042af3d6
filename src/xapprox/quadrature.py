"""Fixed-order Gauss rules.

Every integral the library computes runs a fixed rule on a known
interval, where the integrand is analytic.  Gauss-Legendre panels run
between given edges (_panel_rule: the oracles' w-panels, the density
rule's doubling panels, the certificate's cells) or on the canonical
sign-constant cells [0, 1/2], [1/2, 3/2], .. of every L1 integral
(_cell_rule), which the line takes in w = delta x and the circle at
degree N scaled by 1/(2N+2).  Gauss-Jacobi nodes for an algebraic
endpoint weight meet them in the density rule behind every integral
against lam^{-sigma} dlam: the pointwise error of the measure
approximants, the Watson constants of the line L1 tail, and the
certificate's K-hat coefficients, 1-D identities and periodized power
target.  Their node tables are cached and read-only.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureNonConvergence

__all__ = []


def _legval(x, c):
    """sum_k c_k P_k(x) for a list c of two or more floats: numpy 2.4's
    legval (Clenshaw's recurrence from the top), its grouping kept."""
    c0, c1 = c[-2], c[-1]
    nd = len(c)
    for ck in c[-3::-1]:
        nd -= 1
        c0, c1 = ck - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=8)
def _leggauss(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], n >= 2: numpy 2.4's
    leggauss, its operations in the same order (so its bits) but without
    importing numpy.polynomial, which costs a fresh process 2-4 ms.  The
    nodes are the eigenvalues of the symmetric companion matrix of P_n,
    moved by one Newton step; the weights 1/(P_{n-1} P_n'), both factors
    scaled to max 1; then nodes and weights are symmetrized and the
    weights normalized to sum 2.  Cached and read-only."""
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = [0.0] * n + [1.0]  # P_n
    # P_n' = sum (2k + 1) P_k over k = n - 1, n - 3, ..
    dc = [float(2 * k + 1) if (n - 1 - k) % 2 == 0 else 0.0 for k in range(n)]
    df = _legval(x, dc)
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])  # P_{n-1}
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    weights = (w + w[::-1]) / 2
    nodes = (x - x[::-1]) / 2
    weights *= 2.0 / weights.sum()
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
    nodes, weights = _leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * nodes).ravel()
    return pts, (half[:, None] * weights).ravel()


def _cell_rule(K):
    """The 32-node Gauss rule on the K + 1 cells [0, 1/2], [1/2, 3/2], ..,
    [K - 1/2, K + 1/2], between the half-integers where the line's errors
    change sign (and, scaled by 1/L, the circle's at degree N, L = 2N+2):
    its nodes and weights, each of shape (K + 1, 32), one row per cell."""
    pts, wts = _panel_rule(np.r_[0.0, np.arange(K + 1) + 0.5], 32)
    return pts.reshape(K + 1, 32), wts.reshape(K + 1, 32)


# Gauss orders of the density rule and of its twin, head and panels alike,
# and the end of its head [0, a]
_DENSITY_ORDERS = (16, 24)
_DENSITY_HEAD = 4.0


@lru_cache(maxsize=64)
def _density_panels(k: int, order: int):
    """The density rule's k doubling panels beyond its head at one order,
    flattened as by _panel_rule; cached by (k, order) and read-only."""
    lt, wt = _panel_rule(_DENSITY_HEAD * 2.0 ** np.arange(k + 1.0), order)
    lt.flags.writeable = wt.flags.writeable = False
    return lt, wt


def _density_integral(g, sigma, rate, what, far=None, slow=0.0):
    """int_0^inf g(lam) lam^{-sigma} dlam, 0 < sigma < 2, by a fixed rule.

    g maps an array of n nodes to n values, or to an (n, k) array of k
    integrands at once (the result is then a length-k array).  On [0, a],
    a = _DENSITY_HEAD = 4, Gauss-Jacobi nodes for the weight lam^{1-sigma}
    are applied to g/lam, which must be analytic near [0, a].  Beyond a,
    doubling Gauss-Legendre panels [a 2^k, a 2^{k+1}] run out to where
    e^{-rate lam}, g's exponential part, is below e^{-40}.  g must be
    analytic for Re lam > 0 (the poles of K-hat and sech and the branch
    points of the pointwise error lie on the imaginary axis): each panel
    then sees its singularities no nearer, in units of its half-width,
    than lam = 0, three half-widths from its centre, so no panel width
    depends on g.  There g may be given as far + slow/lam: far(nodes,
    weights), by default weights @ g(nodes), sums the panels, which a
    caller may take as point masses, and slow/lam is integrated exactly,
    slow a^{-sigma}/sigma.  Orders 16 (head and panels) and a twin of
    order 24 must agree within 1e-10 absolute plus 1e-10 relative and be
    finite, or QuadratureNonConvergence is raised, naming `what`, sigma
    and both estimates.
    """
    a = _DENSITY_HEAD
    k = max(1, math.ceil(math.log2(40.0 / (rate * a))))
    heads = [_gauss_jacobi(n, 1.0 - sigma) for n in _DENSITY_ORDERS]
    lh = [0.5 * a * (1.0 + t) for t, _ in heads]
    # one evaluation over the head nodes of both rules
    gh = np.split(g(np.concatenate(lh)), [lh[0].size])
    far = far or (lambda lam, wt: wt @ g(lam))
    est = []
    for n, (_, wj), lam, vh in zip(_DENSITY_ORDERS, heads, lh, gh):
        lt, wt = _density_panels(k, n)
        head = (0.5 * a) ** (2.0 - sigma) * (wj / lam) @ vh
        est.append(head + far(lt, wt * lt ** (-sigma)) + slow * a ** (-sigma) / sigma)
    lo, hi = est
    bad = ~(np.isfinite(hi) & (np.abs(hi - lo) <= 1e-10 + 1e-10 * np.abs(hi)))
    if np.any(bad):
        i = int(np.argmax(bad))  # the first integrand that fails
        raise QuadratureNonConvergence(
            f"{what}, sigma={sigma:g}: twin rules give "
            f"{np.ravel(lo)[i]!r} and {np.ravel(hi)[i]!r}")
    return hi
