"""Measure families on (0, inf) and the targets they generate.

Three families cover every closed form downstream: finite point masses
(weighted exponentials), the multiplicative Haar measure dlam/lam
(target -log|x|), and the power family lam^{-sigma} dlam (target
proportional to |x|^{sigma-1}).  The raw target of a measure mu is

    f_mu(x) = integral of (e^{-lam|x|} - e^{-lam}) dmu(lam),

with the subtraction making the integral converge for Haar and for
sigma > 1.  Each family class carries every formula that depends on the
family; the other modules call its methods and never ask which family
they hold.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as _gamma

from ._stable import sinpi
from .errors import DivergentAtZero, InvalidPointMass, InvalidSigma
from .expkernel import eval_p, l1_error_exp
from .quadrature import QuadratureConfig, integrate_ray
from .series import catalan, dirichlet_beta

__all__ = [
    "TargetForm",
    "PointMasses",
    "HaarLog",
    "PowerSigma",
    "validate",
    "gamma_one_minus",
    "power_l1_constant",
    "f_mu",
    "integrate_measure",
    "measure_to_json",
    "measure_from_json",
]


class TargetForm(Enum):
    """Presentation of a measure-integrated approximant.

    raw    approximates f_mu itself,
    log    (HaarLog only)    -raw approximates log|x|,
    power  (PowerSigma only) raw/Gamma(1-sigma) + 1 approximates |x|^{sigma-1}.
    """

    RAW = "raw"
    LOG = "log"
    POWER = "power"


class _Family:
    """Base of the measure families, which validate at construction.

    form, form_scale   natural form; its errors are raw errors / form_scale
    f_mu(ax)           raw target at |x| = ax (1-D array)
    density(lam)       density against dlam; None for a discrete measure
    integrate(g, cfg)  integral of g(lam) dmu, g taking ndarray input
    raw_frame(delta)   (phi, prefactor, offset, rate): the raw approximant
                       is prefactor * KK(phi, delta*z) + offset; rate is
                       the geometric decay rate of phi, None for slow data
    cell0_integral(b)  integral of f_mu over [0, b]; None if f_mu is smooth
    l1_raw(delta)      closed-form L1(R) error of the raw approximant
    q_hat(nn), q_mu(x, cfg)   the periodized target and its coefficients
    """

    form = TargetForm.RAW
    form_scale = 1.0
    density = None

    def natural(self, raw):
        return raw / self.form_scale

    def natural_target(self, ax):
        return self.natural(self.f_mu(ax))

    def to_json_obj(self):
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class PointMasses(_Family):
    """Finite sum of weighted Dirac masses: masses = ((lam_1, w_1), ...)."""

    masses: tuple

    kind = "points"

    def __post_init__(self):
        masses = tuple((float(l), float(w)) for l, w in self.masses)
        object.__setattr__(self, "masses", masses)
        if len(masses) == 0:
            raise InvalidPointMass("point-mass list must be non-empty")
        prev = 0.0
        total = 0.0
        for lam, w in masses:
            if not (math.isfinite(lam) and lam > 0):
                raise InvalidPointMass(f"mass location must be positive, got {lam}")
            if not (math.isfinite(w) and w >= 0):
                raise InvalidPointMass(f"weight must be nonnegative, got {w}")
            if lam <= prev:
                raise InvalidPointMass("mass locations must be strictly increasing")
            prev = lam
            total += w * lam / (lam * lam + 1.0)
        if not math.isfinite(total):
            raise InvalidPointMass("admissibility sum is not finite")

    def _arrays(self):
        return (np.array([m[0] for m in self.masses]),
                np.array([m[1] for m in self.masses]))

    def f_mu(self, ax):
        lam, w = self._arrays()
        return (np.exp(-np.multiply.outer(ax, lam)) - np.exp(-lam)) @ w

    def integrate(self, g, cfg):
        lam, w = self._arrays()
        return float(np.dot(w, np.asarray(g(lam), dtype=float)))

    def raw_frame(self, delta):
        lam, wts = self._arrays()
        phi = lambda xi: np.exp(-np.multiply.outer(xi, lam / delta)) @ wts
        return phi, 1.0, -float(np.dot(wts, np.exp(-lam))), lam[0] / delta

    def cell0_integral(self, b):
        return None

    def l1_raw(self, delta):
        return float(sum(w * l1_error_exp(l, delta) for l, w in self.masses))

    def q_hat(self, nn):
        lam, w = self._arrays()
        return (2.0 * lam / (lam * lam + 4.0 * math.pi**2 * nn[:, None] ** 2)) @ w

    def q_mu(self, x, cfg):
        xx = np.asarray(x, dtype=float)
        acc = 0.0
        for lam, w in self.masses:
            acc = acc + w * eval_p(lam, xx)
        return acc


@dataclass(frozen=True)
class HaarLog(_Family):
    """The measure dlam/lam on (0, inf); raw target -log|x|."""

    kind = "haar"
    form = TargetForm.LOG
    form_scale = -1.0

    def f_mu(self, ax):
        return -np.log(ax)

    def density(self, lam):
        return 1.0 / lam

    def integrate(self, g, cfg):
        return integrate_ray(lambda t: float(g(t)) / t, 0.0, cfg)

    def raw_frame(self, delta):
        return (lambda xi: -np.log(xi)), 1.0, math.log(delta), None

    def cell0_integral(self, b):
        return b - b * math.log(b)

    def l1_raw(self, delta):
        return 4.0 * catalan() / (math.pi * delta)

    def q_hat(self, nn):
        return 0.5 / nn

    def q_mu(self, x, cfg):
        # closed form -log|2 sin pi x|
        xx = np.asarray(x, dtype=float)
        s = sinpi(xx)
        if np.any(np.asarray(s) == 0.0):
            raise DivergentAtZero("q_mu is +inf at integer x for the Haar measure")
        return -np.log(np.abs(2.0 * s)) if xx.ndim else -math.log(abs(2.0 * float(s)))


@dataclass(frozen=True)
class PowerSigma(_Family):
    """The measure lam^{-sigma} dlam, 0 < sigma < 2, sigma != 1."""

    sigma: float

    kind = "power"
    form = TargetForm.POWER

    def __post_init__(self):
        s = self.sigma
        if not (isinstance(s, (int, float)) and math.isfinite(s)):
            raise InvalidSigma(f"sigma must be a finite real, got {s!r}")
        if not (0.0 < s < 2.0) or s == 1.0:
            raise InvalidSigma(f"sigma must lie in (0,2) excluding 1, got {s}")

    @property
    def form_scale(self):
        return gamma_one_minus(self.sigma)

    def natural(self, raw):
        return raw / self.form_scale + 1.0

    def natural_target(self, ax):
        return ax ** (self.sigma - 1.0)

    def f_mu(self, ax):
        return gamma_one_minus(self.sigma) * (ax ** (self.sigma - 1.0) - 1.0)

    def density(self, lam):
        return lam ** (-self.sigma)

    def integrate(self, g, cfg):
        s = self.sigma
        return integrate_ray(lambda t: float(g(t)) * t ** (-s), 0.0, cfg)

    def raw_frame(self, delta):
        s = self.sigma
        g = gamma_one_minus(s)
        return (lambda xi: xi ** (s - 1.0)), g * delta ** (1.0 - s), -g, None

    def cell0_integral(self, b):
        s = self.sigma
        return gamma_one_minus(s) * (b**s / s - b)

    def l1_raw(self, delta):
        return delta ** (-self.sigma) * power_l1_constant(self.sigma)

    def q_hat(self, nn):
        s = self.sigma
        return math.pi * (2.0 * math.pi * nn) ** (-s) / math.sin(0.5 * math.pi * s)

    def q_mu(self, x, cfg):
        # quadrature of the defining integral, one point at a time
        if cfg is None:
            cfg = QuadratureConfig()
        if np.ndim(x):
            vals = [self.q_mu(v, cfg) for v in np.ravel(x)]
            return np.array(vals, dtype=float).reshape(np.shape(x))
        s = self.sigma
        xf = float(x)
        a = float(xf - np.floor(xf))
        dist = min(a, 1.0 - a)
        if dist == 0.0 and s <= 1.0:
            raise DivergentAtZero("q_mu is +inf at integer x for sigma <= 1")

        def p_part(l):  # cosh(l(a-1/2))/sinh(l/2), stable exponentials
            return (math.exp(l * (a - 1.0)) + math.exp(-l * a)) / (-math.expm1(-l))

        def p_over_l(l):  # smooth on [0, 1]: p(l, a)/l -> (a-1/2)^2 - 1/12
            return float(eval_p(l, a)) / l if l > 0.0 else (a - 0.5) ** 2 - 1.0 / 12.0

        # the l^{1-s} endpoint singularity goes into QUADPACK's algebraic
        # weight; [1, T] gets one breakpoint per decade since the decay scale
        # 1/dist can reach 1e6; at integers p_part -> 1, an analytic tail
        T = 40.0 / dist + 50.0 if dist else 60.0
        v1, _ = quad(p_over_l, 0.0, 1.0, weight="alg", wvar=(1.0 - s, 0.0),
                     epsabs=cfg.abs_tol / 2, epsrel=cfg.rel_tol, limit=cfg.max_depth)
        v2, _ = quad(lambda l: p_part(l) * l ** (-s), 1.0, T,
                     points=np.geomspace(1.0, T, int(math.log10(T)) + 2)[1:-1],
                     epsabs=cfg.abs_tol / 2, epsrel=cfg.rel_tol, limit=cfg.max_depth)
        tail = 0.0 if dist else T ** (1.0 - s) / (s - 1.0)
        # int_1^inf (-2/l) l^{-s} dl = -2/s exactly
        return v1 + v2 + tail - 2.0 / s


def validate(spec) -> None:
    """Reject objects that are not a measure family (the families check
    their parameters when constructed)."""
    if not isinstance(spec, _Family):
        raise TypeError(f"not a measure specification: {spec!r}")


def gamma_one_minus(sigma: float) -> float:
    """Gamma(1 - sigma) for sigma in (0,2)\\{1} (negative for sigma > 1)."""
    return float(_gamma(1.0 - sigma))


def power_l1_constant(sigma: float) -> float:
    """A(sigma) = 4 beta(1+sigma) / (sin(pi sigma/2) pi^sigma): the raw
    L1 error of the power measure at delta = 1."""
    return 4.0 * dirichlet_beta(1.0 + sigma) / (math.sin(0.5 * math.pi * sigma)
                                                * math.pi ** sigma)


def f_mu(spec, x):
    """Raw target f_mu(x); vectorized over x, +inf where divergent.

    PointMasses -> sum w_j (e^{-lam_j|x|} - e^{-lam_j})
    HaarLog     -> -log|x|            (+inf at 0)
    PowerSigma  -> Gamma(1-sigma) (|x|^{sigma-1} - 1)
                   (+inf at 0 for sigma < 1, finite for sigma > 1)
    """
    validate(spec)
    ax = np.abs(np.asarray(x, dtype=float))
    scalar = ax.ndim == 0
    with np.errstate(divide="ignore"):
        out = spec.f_mu(np.atleast_1d(ax))
    return float(out[0]) if scalar else out


def integrate_measure(spec, g, cfg: QuadratureConfig | None = None,
                      tail_cut: float | None = None) -> float:
    """integral of g(lam) dmu(lam) over (0, inf).

    Exact weighted sum for point masses; adaptive quadrature with the
    density folded in otherwise.  g must accept ndarray input (scalars
    arrive as 0-d arrays from the quadrature driver).  tail_cut
    overrides the config's tail split for slowly decaying integrands.
    """
    validate(spec)
    if cfg is None:
        cfg = QuadratureConfig()
    if tail_cut is not None:
        cfg = replace(cfg, tail_cut=tail_cut)
    return spec.integrate(g, cfg)


# --- JSON wire format ------------------------------------------------------
# {"kind":"haar"} | {"kind":"power","sigma":0.5}
#                 | {"kind":"points","masses":[[1.0,1.0],...]}

def measure_to_json(spec) -> str:
    validate(spec)
    return json.dumps(spec.to_json_obj(), separators=(",", ":"))


def measure_from_json(text):
    """Parse the wire format (a JSON string or an already-decoded dict)."""
    obj = json.loads(text) if isinstance(text, (str, bytes)) else text
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"not a measure object: {obj!r}")
    kind = obj["kind"]
    if kind == "haar":
        return HaarLog()
    if kind == "power":
        if "sigma" not in obj:
            raise InvalidSigma("power measure requires a 'sigma' field")
        return PowerSigma(float(obj["sigma"]))
    if kind == "points":
        if "masses" not in obj:
            raise InvalidPointMass("points measure requires a 'masses' field")
        return PointMasses(tuple((float(l), float(w)) for l, w in obj["masses"]))
    raise ValueError(f"unknown measure kind: {kind!r}")
