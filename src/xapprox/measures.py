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
from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from ._stable import sinpi
from .errors import DivergentAtZero, InvalidPointMass, InvalidSigma
from .expkernel import eval_p, l1_error_exp
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
    density_power      s of the density lam^{-s} against dlam; None for a
                       discrete measure, which has integrate(g) instead
    raw_frame(delta)   (phi, prefactor, offset): the raw approximant is
                       prefactor * KK(phi, delta*z) + offset
    cell0_integral(b)  integral of f_mu over [0, b]; None if f_mu is smooth
    l1_raw(delta)      closed-form L1(R) error of the raw approximant
    q_hat(nn), q_mu(x)   the periodized target and its coefficients
    """

    form = TargetForm.RAW
    form_scale = 1.0
    density_power = None

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

    def integrate(self, g):
        """The exact weighted sum of g(lam) dmu, g taking ndarray input."""
        lam, w = self._arrays()
        return float(np.dot(w, np.asarray(g(lam), dtype=float)))

    def raw_frame(self, delta):
        lam, wts = self._arrays()
        phi = lambda xi: np.exp(-np.multiply.outer(xi, lam / delta)) @ wts
        return phi, 1.0, -float(np.dot(wts, np.exp(-lam)))

    def cell0_integral(self, b):
        return None

    def l1_raw(self, delta):
        return float(sum(w * l1_error_exp(l, delta) for l, w in self.masses))

    def q_hat(self, nn):
        lam, w = self._arrays()
        return (2.0 * lam / (lam * lam + 4.0 * math.pi**2 * nn[:, None] ** 2)) @ w

    def q_mu(self, x):
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
    density_power = 1.0

    def f_mu(self, ax):
        return -np.log(ax)

    def raw_frame(self, delta):
        return (lambda xi: -np.log(xi)), 1.0, math.log(delta)

    def cell0_integral(self, b):
        return b - b * math.log(b)

    def l1_raw(self, delta):
        return 4.0 * catalan() / (math.pi * delta)

    def q_hat(self, nn):
        return 0.5 / nn

    def q_mu(self, x):
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

    @property
    def density_power(self):
        return self.sigma

    def raw_frame(self, delta):
        s = self.sigma
        g = gamma_one_minus(s)
        return (lambda xi: xi ** (s - 1.0)), g * delta ** (1.0 - s), -g

    def cell0_integral(self, b):
        s = self.sigma
        return gamma_one_minus(s) * (b**s / s - b)

    def l1_raw(self, delta):
        return delta ** (-self.sigma) * power_l1_constant(self.sigma)

    def q_hat(self, nn):
        s = self.sigma
        return math.pi * (2.0 * math.pi * nn) ** (-s) / math.sin(0.5 * math.pi * s)

    def q_mu(self, x):
        # Hurwitz: q_mu = Gamma(s) [zeta(s, a) + zeta(s, 1-a)] with s = 1 - sigma
        # and a = dist(x, Z) (DLMF 25.11.9, 25.13).  zeta(s, a) = a^{-s} +
        # zeta(s, 1+a) and the Taylor series of zeta(s, 1 +- a) (DLMF
        # 25.11.10), whose odd powers cancel, give
        #   Gamma(1+s) [(a^{-s} - 1)/s + C0(s) + sum_{k=2,4,..} c_k a^k],
        # c_k = 2 (s+1)...(s+k-1)/k! zeta(s+k); terms fall like 2^{-k} at
        # a = 1/2.  (a^{-s} - 1)/s = -log(a) exprel(-s log a) keeps sigma -> 1
        # (Haar's -log|2 sin pi x|) free of 0/0; at a = 0 it is -1/s.
        sg = self.sigma
        xx = np.asarray(x, dtype=float)
        a = np.atleast_1d(xx - np.floor(xx)).ravel()
        a = np.minimum(a, 1.0 - a)
        at0 = a == 0.0
        if sg < 1.0 and at0.any():
            raise DivergentAtZero("q_mu is +inf at integer x for sigma <= 1")
        g, c0, ck = _power_series(sg)
        y = a * a
        series = np.empty_like(y)
        for i in range(0, y.size, _Q_BLOCK):  # rows y, y^2, .., y^32 by cumprod
            pw = np.repeat(y[i:i + _Q_BLOCK, None], _Q_TERMS, axis=1)
            np.cumprod(pw, axis=1, out=pw)
            pw *= ck
            series[i:i + _Q_BLOCK] = pw.sum(axis=1)
        s = 1.0 - sg
        la = -np.log(np.where(at0, 1.0, a))
        head = np.where(at0, -1.0 / s, la * _exprel(s * la))
        out = g * (head + c0 + series)
        return out.reshape(xx.shape) if xx.ndim else float(out[0])


# PowerSigma.q_mu's series: c_2 a^2 + .. + c_64 a^64, a <= 1/2, where the
# first term left out is about 2^{-64} of q_mu; the power rows are built
# _Q_BLOCK points at a time, 0.5 MB
_Q_TERMS = 32
_Q_BLOCK = 2048
# Euler-Maclaurin for zeta: M - 1 direct terms and B_{2j}/(2j)! for
# j = 1..10.  The Bernoulli tail is asymptotic, not convergent: at M = 6 it
# leaves zeta(t) 1.4e-14 off near t = 4-5, at M = 12 (_ZETA_M) within 3e-16
# of 40-digit mpmath for t in (1, 65].  C0 keeps M = 6 (_C0_M): its sum
# cancels from about 10 |C0| at M = 6 but 20 |C0| at M = 12, which costs
# it a digit (4e-15 against 1.1e-14 relative near s = 0)
_ZETA_M = 12
_C0_M = 6
_EM_B = np.array([b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
     43867 / 798, -174611 / 330), start=1)])


@lru_cache(maxsize=128)
def _power_series(sigma: float):
    """(Gamma(1+s), C0(s), [c_2, c_4, .., c_64]) for PowerSigma.q_mu,
    s = 1 - sigma: c_k = 2 prod_{j=2}^{k} (j - sigma)/j * zeta(k + 1 - sigma),
    every zeta argument above 1.  Cached by sigma, so equal PowerSigma
    objects share one table."""
    j = np.arange(2.0, 2 * _Q_TERMS + 1)
    ck = 2.0 * np.cumprod((j - sigma) / j)[::2] * _zeta(j[::2] + 1.0 - sigma)
    ck.flags.writeable = False  # shared by every q_mu call with this sigma
    return math.gamma(2.0 - sigma), _zeta_c0(1.0 - sigma), ck


def _exprel(x):
    """(e^x - 1)/x elementwise, exactly 1 at x = 0 (no 0/0 warning); like
    scipy's exprel it overflows to inf, silently, above x = 709.78."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)


def _em_tail(s, M: int):
    """Euler-Maclaurin's Bernoulli tail of zeta(s) at M, divided by s:
    sum_j B_{2j}/(2j)! (s+1)(s+2)...(s+2j-2) M^{1-s-2j} (float or array s)."""
    M = float(M)
    j = np.arange(_EM_B.size)
    # rows j = 2..10 of the Pochhammer products (s+1)...(s+2j-2)
    poch = np.cumprod(np.add.outer(np.arange(1.0, 2 * j[-1] + 1), s), axis=0)[1::2]
    w = _EM_B * M ** (-2.0 * j)
    return M ** (-s - 1.0) * (w[0] + w[1:] @ poch)


def _zeta(t):
    """Riemann zeta(t) for t > 1 (float or array), by Euler-Maclaurin at
    M = _ZETA_M (DLMF 25.2.9):
        zeta(t) = sum_{n<M} n^{-t} + M^{1-t}/(t-1) + M^{-t}/2 + t * tail(t),
    the pole term explicit, so t -> 1+ keeps full relative accuracy."""
    t = np.asarray(t, dtype=float)
    M = float(_ZETA_M)
    mt = M ** -t
    acc = t * _em_tail(t, _ZETA_M) + 0.5 * mt + M * mt / (t - 1.0)
    # n = M-1, .., 2: the smallest terms first
    return acc + np.power.outer(np.arange(M - 1.0, 1.0, -1.0), -t).sum(axis=0) + 1.0


def _zeta_c0(s: float) -> float:
    """C0(s) = (2 zeta(s) + 1)/s for s in (-1, 1), finite through s = 0
    (C0(0) = 2 zeta'(0) = -log 2 pi); zeta is only evaluated above 1.

    For s < -0.2 zeta(s) comes from the reflection formula with zeta(1-s).
    Otherwise Euler-Maclaurin at M = _C0_M, written in e_n = (n^{-s} - 1)/s
    so that the zeta(0) = -1/2 parts cancel exactly:
        C0 = 2 sum_{n=2}^{M-1} e_n + 2M (1 + e_M)/(s-1) + e_M
             + 2 sum_j B_{2j}/(2j)! (s+1)...(s+2j-2) M^{1-s-2j}.
    Both agree with 30-digit mpmath to 4e-15 relative.
    """
    if s < -0.2:
        sg = 1.0 - s
        z = (2.0**s * math.pi ** (s - 1.0) * math.cos(0.5 * math.pi * sg)
             * math.gamma(sg) * float(_zeta(sg)))
        return (2.0 * z + 1.0) / s
    M = _C0_M
    ln = np.log(np.arange(2.0, M + 1))
    e = -ln * _exprel(-s * ln)
    eM = float(e[-1])
    acc = 2.0 * float(np.sum(e[:-1])) + 2.0 * M * (1.0 + eM) / (s - 1.0) + eM
    return acc + 2.0 * float(_em_tail(s, M))


def validate(spec) -> None:
    """Reject objects that are not a measure family (the families check
    their parameters when constructed)."""
    if not isinstance(spec, _Family):
        raise TypeError(f"not a measure specification: {spec!r}")


def gamma_one_minus(sigma: float) -> float:
    """Gamma(1 - sigma) for sigma in (0,2)\\{1} (negative for sigma > 1)."""
    return math.gamma(1.0 - sigma)


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
