"""Numerically stable building blocks shared across the package.

Everything here is plain elementary-function arithmetic, written so that

* ``sinpi`` / ``cospi`` are exactly zero at integers / half-integers
  (argument reduction before multiplying by pi, so ``sin(pi*x)`` never
  sees a rounded multiple of pi),
* the hyperbolic helpers never overflow for large arguments (all
  exponentials are of non-positive argument), and
* the "one minus ..." combinations avoid catastrophic cancellation for
  small arguments via Taylor series with switchovers placed where both
  branches agree to ~1e-15 relative.

All functions accept scalars or numpy arrays and return matching shapes
(scalars in, Python floats out).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sinpi",
    "cospi",
    "sech",
    "csch",
    "one_minus_sech",
    "one_minus_x_csch",
]

_PI = np.pi


def _restore(x_in, out):
    """Return a Python float for scalar input, ndarray otherwise."""
    if np.ndim(x_in) == 0:
        return float(out)
    return out


def sinpi(x):
    """sin(pi*x) with exact zeros at integer x.

    Reduction: write x = n + r with n = round(x), |r| <= 1/2; then
    sin(pi*x) = (-1)^n sin(pi*r).  The reduction r = x - n is exact in
    IEEE arithmetic, so integers map to r = +-0.0 and the result is a
    signed zero rather than ~1e-16 noise.  Odd in x bit-for-bit.
    """
    xa = np.asarray(x, dtype=float)
    n = np.rint(xa)
    r = xa - n
    # (-1)^n without integer casts (safe for |x| beyond 2**63)
    sign = 1.0 - 2.0 * np.abs(np.fmod(n, 2.0))
    return _restore(x, sign * np.sin(_PI * r))


def cospi(x):
    """cos(pi*x) with exact zeros at half-integer x.

    Uses cos(pi*x) = sin(pi*(|x| + 1/2)); the half-shift of |x| is exact
    whenever x is a half-integer, so the zeros are exact.  Taking |x|
    first makes the function even bit-for-bit.
    """
    return _restore(x, sinpi(np.abs(np.asarray(x, dtype=float)) + 0.5))


def sech(x):
    """1/cosh(x) via 2*e^{-|x|}/(1+e^{-2|x|}); underflows cleanly to 0."""
    a = np.abs(np.asarray(x, dtype=float))
    u = np.exp(-a)
    return _restore(x, 2.0 * u / (1.0 + u * u))


def csch(x):
    """1/sinh(x) for x != 0, stable for both tiny and huge |x|."""
    xa = np.asarray(x, dtype=float)
    a = np.abs(xa)
    with np.errstate(divide="ignore"):
        out = 2.0 * np.exp(-a) / (-np.expm1(-2.0 * a))
    return _restore(x, np.sign(xa) * out)


def one_minus_sech(x):
    """1 - sech(x) without cancellation: expm1(-|x|)^2/(1+e^{-2|x|}).

    The identity 1 - 2u/(1+u^2) = (1-u)^2/(1+u^2) with u = e^{-|x|} is
    exact; expm1 keeps (1-u) accurate when x is tiny.  Relative accuracy
    is uniform in x, which the closed-form L1 error values rely on.
    """
    a = np.abs(np.asarray(x, dtype=float))
    em = np.expm1(-a)
    return _restore(x, em * em / (1.0 + np.exp(-2.0 * a)))


def _omxc_series(s2):
    """(1 - x/sinh x)/x^2 at s2 = x^2: the Taylor series
    sum_n (4^n - 2) B_2n x^(2n-2)/(2n)! through x^36, float or array;
    its terms shrink by ~x^2/pi^2, so at x = 1 it is cut below 1e-17
    relative."""
    return (0.16666666666666666 + s2 * (-0.019444444444444445 + s2 * (
        0.00205026455026455 + s2 * (-0.0002099867724867725 + s2 * (
            2.1336045641601196e-05 + s2 * (-2.1633474427786596e-06 + s2 * (
                2.192327134456764e-07 + s2 * (-2.2213930853920414e-08 + s2 * (
                    2.2507674795567867e-09 + s2 * (-2.280510770721821e-10 + s2 * (
                        2.3106421580996967e-11 + s2 * (-2.3411704028931947e-12 + s2 * (
                            2.3721016693292245e-13 + s2 * (-2.4034415154237358e-14 + s2 * (
                                2.435195398382432e-15 + s2 * (-2.4673688033682493e-16 + s2 * (
                                    2.4999672768310465e-17
                                    + s2 * -2.532996435666915e-18)))))))))))))))))


def one_minus_x_csch(x):
    """1 - x/sinh(x), accurate down to x = 0 (value ~ x^2/6).

    Below |x| = 1 the Taylor series, above it 1 - x csch x, which cancels
    at most a factor 7 there: within ~1.2e-15 relative everywhere.  A
    scalar, or up to 8 points, goes point by point in Python floats: the
    array path makes ~40 numpy calls, ~30 us on one point against ~2 us,
    with the crossover at 8-16 points (eval_p needs one per new lam,
    build_k_mu one per mass).  Its exponentials come from numpy too, so a
    point has the same bits either way.
    """
    a = np.abs(np.asarray(x, dtype=float))
    if a.size <= 8:
        out = [v * v * _omxc_series(v * v) if v < 1.0
               else float(1.0 - v * (2.0 * np.exp(-v) / -np.expm1(-2.0 * v)))
               for v in a.ravel().tolist()]
        return out[0] if a.ndim == 0 else np.array(out).reshape(a.shape)
    out = np.empty_like(a)
    small = a < 1.0
    s2 = a[small] ** 2
    out[small] = s2 * _omxc_series(s2)
    b = a[~small]
    out[~small] = 1.0 - b * csch(b)
    return out
