"""Measure-integrated extremal entire approximations.

For an admissible measure mu on (0, inf) the raw target is
f_mu(x) = integral(e^{-lam|x|} - e^{-lam}) dmu; the best entire
approximation of exponential type pi*delta interpolates f_mu at the
points (n - 1/2)/delta and is given by a conditionally convergent
interpolation series.  This module evaluates it through the paired
cardinal form

    KK(phi, w) = sum_{n>=1} phi(xi_n) [sinc(w - xi_n) + sinc(w + xi_n)],
    xi_n = n - 1/2,

which is stable at the nodes, plus a constant split using the exact
identity KK(1, w) = 1, so the node data phi is either decaying (point
masses) or slowly growing (log / power), never constant-offset.  KK is
summed by series._cardinal_sum, the engine eval_K uses too: one fixed
linear map of the node data (a direct head and a 24-term CRVZ tail), the
same for every family, with no tolerance or stopping test.  The node
data, the closed-form constants and the presentation forms (TargetForm)
come from the measure family objects in measures.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentAtZero, QuadratureNonConvergence
from .expkernel import ExpKernel, _oracle, _watson_c1_c3, error_exp
from .measures import TargetForm, f_mu, integrate_measure, validate
from .quadrature import _density_integral, _gauss_jacobi, _panel_rule
from .series import _cardinal_sum, _cell_integrals, _cell_operator, _dilate

__all__ = [
    "EntireApproximant",
    "eval_K_mu",
    "error_mu_pointwise",
    "l1_error_mu",
    "l1_error_mu_raw",
    "l1_error_mu_quadrature",
]


@dataclass(frozen=True)
class EntireApproximant:
    """A measure, a type parameter delta, and a presentation form."""

    spec: object
    delta: float = 1.0
    form: TargetForm = TargetForm.RAW

    def __post_init__(self):
        validate(self.spec)
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.form is not TargetForm.RAW and self.form is not self.spec.form:
            raise ValueError(f"{self.form.value} form does not apply to {self.spec!r}")


def _eval_raw(spec, delta, z):
    # raw(z) = prefactor * KK(phi, delta*z) + offset, with phi never
    # constant-offset (the constant part is summed exactly via KK(1, .) = 1)
    phi, pref, off = spec.raw_frame(delta)
    vals = _cardinal_sum(phi, _dilate(z, delta))
    return pref * vals + off


def eval_K_mu(a: EntireApproximant, z):
    """Evaluate the approximant at z (scalar or array, real or complex).

    raw form interpolates f_mu at (n-1/2)/delta; log form returns the
    entire function matching log|x| there; power form the one matching
    |x|^{sigma-1}.  The range and accuracy are eval_K's, with w = delta*z:
    |Re w| <= 1e3 documented, and SeriesNonConvergence where cos pi w
    overflows (|Im w| beyond ~225) or z has an infinite or nan part.
    """
    zz = np.asarray(z)
    scalar = zz.ndim == 0
    raw = _eval_raw(a.spec, a.delta, zz)
    out = raw if a.form is TargetForm.RAW else a.spec.natural(raw)
    if scalar:
        out = out[0]
        return complex(out) if np.iscomplexobj(zz) else float(out)
    return out


def _form_map(a: EntireApproximant, raw_err: float) -> float:
    return raw_err if a.form is TargetForm.RAW else raw_err / a.spec.form_scale


# The lam-rule of error_mu_pointwise, in l = lam/delta: Gauss-Jacobi nodes
# on [0, _S0], then Gauss-Legendre nodes per doubling panel beyond; the
# rule and its higher-order twin
_S0 = 0.25
_LAM_RULES = ((32, 24), (48, 32))


def error_mu_pointwise(a: EntireApproximant, x: float) -> float:
    """Target-form pointwise error at x, via the quadrature identity

        f_mu(x) - raw(x) = integral of {e^{-lam|x|} - K(lam/d, d x)} dmu,

    independent of the interpolation series (its test oracle).  Point
    masses give an exact weighted sum.  For the density lam^{-sigma}
    (sigma = 1 for Haar) a fixed rule in l = lam/delta integrates
    G(l) l^{-sigma}, G(l) = e^{-l w} - K(l, w) at w = delta|x|:
    Gauss-Jacobi for the weight l^{1-sigma} applied to G/l on [0, 1/4],
    with G from the positive integral representation of
    error_exp_integral_oracle, where the series would need
    prohibitively many nodes; then Gauss-Legendre panels [2^k/4,
    2^{k+1}/4] until e^{-min(w, 1/2) l} is negligible, whose weighted sum
    is the error of a point-mass measure and takes one series
    evaluation.  At x = 0, G = (4/pi) arctan(tanh(l/4)) in closed form.
    The integral is held to 1e-10 absolute and 1e-10 relative error
    against a higher-order twin rule, or QuadratureNonConvergence is
    raised; a non-finite x raises ValueError.
    """
    spec, delta = a.spec, a.delta
    ax = abs(float(x))
    if not math.isfinite(ax):
        raise ValueError(f"x must be finite, got {x}")
    sigma = spec.density_power
    if sigma is None:  # discrete measure: an exact weighted sum
        raw = integrate_measure(
            spec, lambda lams: [float(error_exp(ExpKernel(l, delta), ax)) for l in lams])
        return _form_map(a, raw)
    if ax == 0.0 and f_mu(spec, 0.0) == math.inf:
        raise DivergentAtZero("target is infinite at x = 0 for this measure")

    w = delta * ax
    beta = 1.0 - sigma
    heads = [_gauss_jacobi(nj, beta) for nj, _ in _LAM_RULES]
    ls = np.concatenate([0.5 * _S0 * (1.0 + t) for t, _ in heads])
    if w == 0.0:
        g = (4.0 / math.pi) * np.arctan(np.tanh(0.25 * ls))
    else:
        g = _oracle(ls, w)
    g_over_l = np.split(g / ls, [_LAM_RULES[0][0]])
    # doubling panels until e^{-r l}/r < e^{-42}, r the decay rate of G
    r = 0.5 if w == 0.0 else min(w, 0.5)
    k = max(1, math.ceil(math.log2((42.0 - math.log(r)) / (r * _S0))))
    edges = _S0 * 2.0 ** np.arange(k + 1.0)
    vals = []
    for (_, ng), (_, wj), gl in zip(_LAM_RULES, heads, g_over_l):
        head = (0.5 * _S0) ** (beta + 1.0) * float(gl @ wj)
        lt, wt = _panel_rule(edges, ng)
        wt = wt * lt ** (-sigma)
        if w == 0.0:  # the 1 in G integrated exactly over [_S0, inf)
            tail = (_S0 ** beta / (sigma - 1.0)
                    - (4.0 / math.pi) * float(wt @ np.arctan(np.exp(-0.5 * lt))))
        else:  # point masses wt at lt: their targets minus one series
            def phi(xi, lt=lt, wt=wt):
                return np.exp(-np.multiply.outer(xi, lt)) @ wt
            tail = (float(wt @ np.exp(-lt * w))
                    - float(_cardinal_sum(phi, np.array([w]))[0]))
        vals.append(delta ** beta * (head + tail))
    if not (math.isfinite(vals[1])
            and abs(vals[1] - vals[0]) <= 1e-10 * (1.0 + abs(vals[1]))):
        raise QuadratureNonConvergence(
            f"pointwise error at x={x}: twin rules give {vals[0]!r} and {vals[1]!r}")
    return _form_map(a, vals[1])


def l1_error_mu_raw(spec, delta: float = 1.0) -> float:
    """L1(R) error of the raw-form approximant, in closed form."""
    validate(spec)
    if not delta > 0:
        raise ValueError("delta must be positive")
    return spec.l1_raw(delta)


def l1_error_mu(spec, delta: float = 1.0) -> float:
    """L1(R) error in the natural form of each target: identical to the
    raw value except for the power family, where the target
    |x|^{sigma-1} rescales the error by 1/|Gamma(1-sigma)|."""
    return l1_error_mu_raw(spec, delta) / abs(spec.form_scale)


def l1_error_mu_quadrature(spec, delta: float = 1.0) -> float:
    """L1 error recomputed from pointwise values, independent of the
    closed form: sign-split 32-node Gauss panels on the 51 cells [0, 1/2]
    and [m - 1/2, m + 1/2], m = 1..50, of w = delta*x (the nodes are
    (m+1/2)/delta), with the target evaluated at the panel nodes and the
    approximant's panel integrals (prefactor * M phi + offset * width)/delta
    from the cached matrix M of series._cell_operator and raw_frame(delta);
    the exact integral of the target over the singular first cell; and
    the measure-integrated large-x tail model beyond the last node.  The
    tail's two Watson constants int C^{(k)}(lam/delta) dmu, k = 1, 3, are
    exact sums for point masses; for a density they are delta^{1-sigma}
    int C^{(k)}(u) u^{-sigma} du, both from one evaluation of the fixed
    density rule in quadrature.py (C has its poles on the imaginary
    axis, as the rule needs), so no route here needs scipy.  Raises
    ValueError unless delta is finite and positive.
    """
    validate(spec)
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive, got {delta}")
    K = 50
    pts, wts, _ = _cell_operator(K)
    target = np.einsum("cj,cj->c", wts, f_mu(spec, pts / delta)) / delta
    phi, pref, off = spec.raw_frame(delta)
    widths = np.concatenate([[0.5], np.ones(K)])
    approx = (pref * _cell_integrals(phi, K) + off * widths) / delta
    per_cell = np.abs(target - approx)
    f_cell0 = spec.cell0_integral(0.5 / delta)
    if f_cell0 is not None:
        # first cell: target integrated exactly (it absorbs the x = 0
        # singularity)
        per_cell[0] = abs(f_cell0 - approx[0])
    body = float(np.sum(per_cell))
    sigma = spec.density_power
    if sigma is None:  # point masses: exact weighted sums
        c2 = integrate_measure(spec, lambda l: _watson_c1_c3(l / delta)[0])
        c4 = integrate_measure(spec, lambda l: _watson_c1_c3(l / delta)[1])
    else:  # lam = delta u: delta^{1-sigma} int C^{(k)}(u) u^{-sigma} du
        c2, c4 = map(float, delta ** (1.0 - sigma) * _density_integral(
            lambda u: np.column_stack(_watson_c1_c3(u)), sigma, 0.5,
            f"{spec!r} Watson constants at delta={delta}"))
    tw = K + 0.5
    tail = (4.0 / math.pi**2) * (c2 / tw + c4 / (3.0 * tw**3)) / delta
    return 2.0 * body + 2.0 * tail
