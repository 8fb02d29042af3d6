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
identity KK(1, w) = 1, so the node data phi are decaying (point masses,
xi^{sigma-1} for sigma <= 1/2) or (xi^e - 1)/e, e = sigma - 1.  KK is
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

from .errors import DivergentAtZero
from .expkernel import _oracle, _watson_c1_c3
from .measures import TargetForm, f_mu, validate
from .quadrature import _DENSITY_HEAD, _density_integral
from .series import _cardinal_sum, _cell_integrals, _cell_operator, _dilate, _point_sum

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


def _present(a: EntireApproximant, pref, off, re, im=None):
    """The approximant from the series' real part re and imaginary part
    im (floats or arrays; im None for a real series): raw = pref KK + off,
    then the natural form, whose linear part (_form_map) maps the
    imaginary part.  Each part is mapped in real arithmetic, so a scalar
    has the bits of the same point in an array: Python's complex
    arithmetic and numpy's complex loops round apart.  Returns (re, im);
    off's imaginary part 0.0 is added too, so a -0.0 reads 0.0."""
    re = pref * re + off
    if a.form is not TargetForm.RAW:
        re = a.spec.natural(re)
    return re, None if im is None else _form_map(a, pref * im + 0.0)


def eval_K_mu(a: EntireApproximant, z):
    """Evaluate the approximant at z (scalar or array, real or complex).

    raw form interpolates f_mu at (n-1/2)/delta; log form returns the
    entire function matching log|x| there; power form the one matching
    |x|^{sigma-1}.  The range and accuracy are eval_K's, with w = delta*z
    (off the axis on the scale of the node data too, which grow with |w|
    for sigma > 1: see series._cardinal_sum): |Re w| <= 1e3 documented,
    and SeriesNonConvergence where cosh pi Im w
    overflows (|Im w| beyond ~226) or z has an infinite or nan part.
    A scalar z gives a float or complex with the bits of the same point
    in an array of the same max |Re w|, by the one-point route of
    series._point_sum and the affine map in Python floats; an array gives
    an array.
    """
    # raw(z) = prefactor * KK(phi, delta*z) + offset, with phi never
    # constant-offset (the constant part is summed exactly via KK(1, .) = 1)
    phi, pref, off = a.spec.raw_frame(a.delta)
    v = _point_sum(phi, z, a.delta)
    if isinstance(v, complex):
        return complex(*_present(a, pref, off, v.real, v.imag))
    if v is not None:
        return _present(a, pref, off, v)[0]
    zz = np.asarray(z)
    out = _cardinal_sum(phi, _dilate(zz, a.delta))
    if np.iscomplexobj(out):
        out.real, out.imag = _present(a, pref, off, out.real, out.imag)
    else:
        out = _present(a, pref, off, out)[0]
    if zz.ndim == 0:
        return complex(out[0]) if np.iscomplexobj(out) else float(out[0])
    return out


def _form_map(a: EntireApproximant, raw_err: float) -> float:
    return raw_err if a.form is TargetForm.RAW else raw_err / a.spec.form_scale


def error_mu_pointwise(a: EntireApproximant, x: float) -> float:
    """Target-form pointwise error at x, via the quadrature identity

        f_mu(x) - raw(x) = integral of {e^{-lam|x|} - K(lam/d, d x)} dmu,

    independent of the interpolation series (its test oracle).  In
    l = lam/delta the integrand is G(l) = e^{-l w} - K(l, w), w = delta|x|.
    Point masses c_j at l_j give the exact sum of c_j G(l_j): their
    targets minus one cardinal series with node data sum_j c_j e^{-l_j xi}.
    A density lam^{-sigma} (sigma = 1 for Haar) gives
    delta^{1-sigma} int G(l) l^{-sigma} dl by quadrature's density rule.
    G meets that rule's conditions: the series of K converges for
    Re l > 0, so G is analytic there, its singularities the branch points
    l = +-(2k+1) pi i on the imaginary axis; G/l is analytic on [0, 4];
    and G decays like e^{-min(w, 1/2) l}.  On the rule's head [0, 4], G
    comes from the positive integral representation of
    error_exp_integral_oracle, where the series would need prohibitively
    many nodes; beyond, the panel nodes and weights of each twin are point
    masses again, summed by one series.  At x = 0,
    G = (4/pi) arctan(tanh(l/4)) in closed form, and its limit 1 is
    integrated exactly beyond the head.  The rule's twin check holds the
    integral to 1e-10 absolute and 1e-10 relative error, or
    QuadratureNonConvergence is raised; a non-finite x raises ValueError.
    """
    spec, delta = a.spec, a.delta
    ax = abs(float(x))
    if not math.isfinite(ax):
        raise ValueError(f"x must be finite, got {x}")
    w = delta * ax

    def masses(l, wt):  # point masses wt at l: their targets minus one series
        def phi(xi):  # beyond xi = 746/min(l) every e^{-l xi} underflows to 0
            out = np.zeros(xi.size)
            k = np.searchsorted(xi, 746.0 / l.min(), side="right")
            out[:k] = np.exp(-np.multiply.outer(xi[:k], l)) @ wt
            return out
        return float(wt @ np.exp(-l * w)) - float(_cardinal_sum(phi, np.array([w]))[0])

    sigma = spec.density_power
    if sigma is None:  # discrete measure: an exact weighted sum
        return _form_map(a, spec.integrate(lambda lam, wt: masses(lam / delta, wt)))
    if ax == 0.0 and f_mu(spec, 0.0) == math.inf:
        raise DivergentAtZero("target is infinite at x = 0 for this measure")
    what = f"pointwise error at x={x}"
    if w == 0.0:  # G - 1 beyond the head, and the 1 integrated exactly
        raw = _density_integral(
            lambda l: (4.0 / math.pi) * np.arctan(np.tanh(0.25 * l)), sigma, 0.5, what,
            far=lambda l, wt: -(4.0 / math.pi) * float(wt @ np.arctan(np.exp(-0.5 * l))))
        raw += _DENSITY_HEAD ** (1.0 - sigma) / (sigma - 1.0)
    else:
        raw = _density_integral(lambda l: _oracle(l, w), sigma, min(w, 0.5), what, far=masses)
    return _form_map(a, delta ** (1.0 - sigma) * float(raw))


def l1_error_mu_raw(spec, delta: float = 1.0) -> float:
    """L1(R) error of the raw-form approximant, in closed form."""
    EntireApproximant(spec, delta)  # the checks of spec and delta
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
    EntireApproximant(spec, delta)  # the checks of spec and delta
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

    def watson(u):  # the integrands C^{(1)} and C^{(3)} as two columns
        return np.column_stack(_watson_c1_c3(u))

    sigma = spec.density_power
    if sigma is None:  # point masses: an exact weighted sum
        c2, c4 = spec.integrate(lambda lam, wt: wt @ watson(lam / delta))
    else:  # lam = delta u: delta^{1-sigma} int C^{(k)}(u) u^{-sigma} du
        c2, c4 = delta ** (1.0 - sigma) * _density_integral(
            watson, sigma, 0.5, f"{spec!r} Watson constants at delta={delta}")
    tw = K + 0.5
    tail = (4.0 / math.pi**2) * (c2 / tw + c4 / (3.0 * tw**3)) / delta
    return float(2.0 * body + 2.0 * tail)
