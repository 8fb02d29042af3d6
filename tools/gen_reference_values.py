#!/usr/bin/env python3
"""Regenerate tests/data/reference_values.json.

Every value is computed with mpmath at 40 working digits, and wherever
two genuinely independent routes exist (defining series vs integral
representation, closed form vs quadrature) both are evaluated and must
agree to ~1e-28 before the value is frozen.  The JSON stores doubles
(plus a few long decimal strings for digit tests); the test suite
compares library output against these at its own tolerances.

Run from the repository root:

    python3 tools/gen_reference_values.py

With --zeta-numpy it prints, instead, the (t, zeta(t)) literals of the
certification check zeta_numpy (``_ZETA_REFERENCE`` in
src/xapprox/certify.py), and writes nothing.
"""

import json
import pathlib
import sys
import time

from mpmath import mp

mp.dps = 40
T0 = time.time()

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "reference_values.json"

CHECK_TOL = mp.mpf("1e-28")


def check(a, b, what):
    if abs(a - b) > CHECK_TOL * max(1, abs(a)):
        raise SystemExit(f"cross-check failed for {what}: {a} vs {b}")
    return a


def note(msg):
    print(f"[{time.time() - T0:7.1f}s] {msg}", flush=True)


# --- basic building blocks --------------------------------------------------

def one_minus_sech(u):
    """1 - sech(u) = 2 sinh(u/2)^2 / cosh(u): cancellation-free identity,
    relatively accurate for every u (quadrature probes u down to ~1e-80)."""
    sh = mp.sinh(u / 2)
    return 2 * sh * sh / mp.cosh(u)


def one_minus_x_csch(v):
    """1 - v/sinh(v), guard digits scaled to the v^2/6 cancellation so the
    result keeps full relative accuracy however small v gets."""
    if v == 0:
        return mp.mpf(0)
    extra = 15 if abs(v) >= 1 else 15 + int(-2 * mp.log10(abs(v)))
    with mp.workdps(mp.dps + extra):
        r = 1 - v / mp.sinh(v)
    return +r


def coth_minus_inv(u):
    """coth(u) - 1/u, stable near 0 (series) and exact elsewhere."""
    if abs(u) < mp.mpf("1e-8"):
        u2 = u * u
        return u / 3 - u * u2 / 45 + 2 * u * u2 * u2 / 945
    with mp.workdps(mp.dps + 30):
        r = mp.coth(u) - 1 / u
    return +r


def quad_sqrt(f, pts):
    """mp.quad of f over [0, ..., inf) through the substitution l = t*t.

    Integrands of the power family behave like l**(k + 1/2) at the origin
    and like l**(-m - 1/2) in the tail, and tanh-sinh quadrature stalls
    near HALF working precision on half-integer endpoint powers (the
    level-to-level differences decay too slowly for its error model).
    The square map turns both endpoints into plain integer-power behavior.
    """
    sq = [mp.inf if p == mp.inf else mp.sqrt(p) for p in pts]
    return mp.quad(lambda t: 2 * t * f(t * t), sq)


def kernel_series(lam, z):
    """sum over half-integers m of e^{-lam|m|} sinc(z - m)."""
    M = int(mp.ceil(40 * mp.log(10) / lam + abs(mp.re(z)) + 12))
    total = mp.mpf(0) if mp.im(z) == 0 else mp.mpc(0)
    for k in range(-M, M):
        m = k + mp.mpf(1) / 2
        d = z - m
        total += mp.e ** (-lam * abs(m)) * (mp.sinpi(d) / (mp.pi * d) if d != 0 else mp.mpf(1))
    return total


def kernel_at_zero(lam):
    return 4 / mp.pi * mp.atan(mp.e ** (-lam / 2))


def exp_error_integral(lam, x):
    """(cos pi x/pi) * int_0^inf (C(lam+w) - C(lam-w)) e^{-xw} dw,
    C(v) = -sech(v/2)/2; positive-integrand route for e^{-lam x}-K."""
    def f(w):
        return (mp.sech((lam - w) / 2) - mp.sech((lam + w) / 2)) / 2 * mp.e ** (-x * w)
    top = 40 * mp.log(10) / x + lam + 20
    val = mp.quad(f, [0, lam, lam + 10, lam + 40, top])
    return mp.cospi(x) / mp.pi * val


def alternating_tail(a, n_terms):
    """Cohen-Rodriguez-Villegas-Zagier acceleration of sum (-1)^k a(k),
    k >= 0, for positive slowly varying a."""
    n = n_terms
    d = (3 + mp.sqrt(8)) ** n
    d = (d + 1 / d) / 2
    b = mp.mpf(-1)
    c = -d
    s = mp.mpf(0)
    for k in range(n):
        c = b - c
        s += c * a(k)
        b *= (k + n) * (k - n) / ((k + mp.mpf(1) / 2) * (k + 1))
    return s / d


def node_series(f_node, z):
    """(cos pi z/pi) sum_{n>=1} (-1)^n f(n-1/2) 2(n-1/2)/(z^2-(n-1/2)^2),
    evaluated with direct leading terms plus accelerated tail."""
    z = mp.mpf(z)
    n0 = int(mp.ceil(abs(z))) + 3
    head = mp.mpf(0)
    for n in range(1, n0):
        xi = n - mp.mpf(1) / 2
        head += (-1) ** n * f_node(xi) * 2 * xi / (z * z - xi * xi)

    def a(k):  # magnitude of term n0+k; all have sign (-1)^(n0+k)
        xi = n0 + k - mp.mpf(1) / 2
        return f_node(xi) * 2 * xi / (xi * xi - z * z)

    sign = (-1) ** (n0 - 1)  # (-1)^n * (-1) from the flipped denominator
    tail = sign * alternating_tail(a, 200)
    return mp.cospi(z) / mp.pi * (head + tail)


def dirichlet_beta(s):
    return 4 ** (-mp.mpf(s)) * (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4))


def khat(lam, u):
    """transform of the line kernel at frequency u, |u| <= 1/2."""
    sh = mp.sinh(lam / 2)
    return sh * mp.cospi(u) / (sh * sh + mp.sinpi(u) ** 2)


def p_periodized(lam, x):
    a = x - mp.floor(x)
    if lam < mp.mpf("1e-8"):
        # closed form cancels to O(lam); series keeps relative error ~ lam^6
        u2 = (a - mp.mpf(1) / 2) ** 2
        c1 = u2 - mp.mpf(1) / 12
        c3 = u2 * u2 / 12 - u2 / 24 + mp.mpf(7) / 2880
        c5 = u2 ** 3 / 360 - u2 * u2 / 288 + 7 * u2 / 5760 - mp.mpf(31) / 483840
        return lam * (c1 + lam * lam * (c3 + lam * lam * c5))
    with mp.workdps(mp.dps + 50):
        r = (mp.e ** (lam * (a - 1)) + mp.e ** (-lam * a)) / (1 - mp.e ** (-lam)) - 2 / lam
    return +r


def p_brute(lam, x):
    M = int(mp.ceil(40 * mp.log(10) / lam)) + 2
    return mp.fsum(mp.e ** (-lam * abs(x + m)) for m in range(-M, M + 1)) - 2 / lam


def q_power_polylog(sigma, x):
    """(2 pi)^{1-sigma}/sin(pi sigma/2) * Re Li_sigma(e(x))."""
    s = mp.mpf(sigma)
    if x == int(x):
        li = mp.zeta(s)
    else:
        li = mp.re(mp.polylog(s, mp.e ** (2j * mp.pi * x)))
    return (2 * mp.pi) ** (1 - s) / mp.sinpi(s / 2) * li


def q_power_integral(sigma, x):
    s = mp.mpf(sigma)
    if x != int(x):
        return quad_sqrt(lambda l: p_periodized(l, mp.mpf(x)) * l ** (-s),
                          [0, 1, 10, 60, mp.inf])
    # at integers the periodization peaks; tail decays only like l^{-s}
    return quad_sqrt(lambda l: coth_minus_inv(l / 2) * l ** (-s),
                      [0, 1, 10, 80, mp.inf])


# --- measure-family values ---------------------------------------------------

def log_error_lambda_integral(x):
    """int_0^inf (e^{-lam x} - K(lam, x)) d(lam)/lam via the nested
    positive integral representation (integration order swapped)."""
    x = mp.mpf(x)

    def dker(w):  # int_0^inf (C(lam+w)-C(lam-w))/lam d(lam)
        return mp.quad(
            lambda l: (mp.sech((l - w) / 2) - mp.sech((l + w) / 2)) / (2 * l),
            [0, w, w + 10, w + 60, mp.inf])

    top = 40 * mp.log(10) / x + 30
    val = mp.quad(lambda w: mp.e ** (-x * w) * dker(w),
                  [0, 1, 5, 20, top])
    return mp.cospi(x) / mp.pi * val


def power_error_lambda_integral(sigma, x):
    s = mp.mpf(sigma)
    x = mp.mpf(x)

    def diff(l, w):
        # the sech difference cancels like l near 0, and l**(-s) amplifies
        # the rounding noise for s > 1; guard digits keep it harmless
        with mp.workdps(mp.dps + 30):
            d = (mp.sech((l - w) / 2) - mp.sech((l + w) / 2)) / 2
        return +d

    def dker(w):
        return quad_sqrt(lambda l: diff(l, w) * l ** (-s),
                          [0, w, w + 10, w + 60, mp.inf])

    top = 40 * mp.log(10) / x + 30
    val = mp.quad(lambda w: mp.e ** (-x * w) * dker(w),
                  [0, 1, 5, 20, top])
    return mp.cospi(x) / mp.pi * val


def log_approximant(x):
    """Best type-pi approximation of log at x > 0, two independent routes."""
    x = mp.mpf(x)
    via_series = -node_series(lambda xi: -mp.log(xi), x)
    via_integral = mp.log(x) + log_error_lambda_integral(x)
    return check(via_series, via_integral, f"log approximant at {x}")


def log_approximant_zero():
    def num(l):  # K(l, 0) - e^{-l}, cancels like l(1 - 1/pi) near 0
        with mp.workdps(mp.dps + 60):
            r = (4 / mp.pi) * mp.atan(mp.e ** (-l / 2)) - mp.e ** (-l)
        return +r

    via_closed = -mp.quad(lambda l: num(l) / l, [0, 1, 10, 60, mp.inf])
    via_series = -node_series(lambda xi: -mp.log(xi), mp.mpf(0))
    return check(via_closed, via_series, "log approximant at 0")


def power_approximant(sigma, x):
    s = mp.mpf(sigma)
    g = mp.gamma(1 - s)
    f_node = lambda xi: g * (xi ** (s - 1) - 1)
    raw_series = node_series(f_node, mp.mpf(x))
    f_mu = g * (mp.mpf(x) ** (s - 1) - 1)
    raw_integral = f_mu - power_error_lambda_integral(s, x)
    raw = check(raw_series, raw_integral, f"power approximant s={sigma} x={x}")
    return raw / g + 1


def power_error_at_zero(sigma):
    """Presented-form pointwise error at x = 0 for 1 < sigma < 2."""
    s = mp.mpf(sigma)

    def num(l):  # 1 - K(l, 0), cancels like l/pi near 0
        with mp.workdps(mp.dps + 60):
            r = 1 - (4 / mp.pi) * mp.atan(mp.e ** (-l / 2))
        return +r

    raw = quad_sqrt(lambda l: num(l) * l ** (-s), [0, 1, 10, 80, mp.inf])
    return raw / mp.gamma(1 - s)


def power_l1_constant(sigma):
    """4 beta(1+sigma) / (pi^sigma sin(pi sigma/2)), checked against the
    quadrature of the per-lambda optimal error."""
    s = mp.mpf(sigma)
    closed = 4 * dirichlet_beta(1 + s) / (mp.pi ** s * mp.sinpi(s / 2))
    quadr = quad_sqrt(lambda l: (2 / l) * one_minus_sech(l / 2) * l ** (-s),
                       [0, 1, 10, 100, mp.inf])
    return check(closed, quadr, f"power L1 constant sigma={sigma}")


def haar_l1_constant():
    closed = 4 * mp.catalan / mp.pi
    quadr = mp.quad(lambda l: (2 / l) * one_minus_sech(l / 2) / l,
                    [0, 1, 10, 100, mp.inf])
    return check(closed, quadr, "haar L1 constant")


# --- periodic coefficients ----------------------------------------------------

def coeff_haar(N, n):
    """Fourier coefficient n of the optimal degree-N polynomial for the
    periodized log target (haar measure), two routes: the per-lambda
    coefficient integral, and the cosine transform of the closed-form
    target values at the interpolation nodes."""
    L = 2 * N + 2
    if n == 0:
        via_int = -mp.quad(
            lambda l: (2 / l) * one_minus_x_csch(l / (2 * L)) / l,
            [0, 1, 10, 100, mp.inf])
    else:
        via_int = mp.quad(lambda l: khat(l / L, mp.mpf(n) / L) / L / l,
                          [0, 1, 10, 100, mp.inf])
    vals = [-mp.log(abs(2 * mp.sinpi((k + mp.mpf(1) / 2) / L))) for k in range(L)]
    via_nodes = mp.fsum(
        v * mp.cospi(2 * n * (k + mp.mpf(1) / 2) / L) for k, v in enumerate(vals)) / L
    return check(via_int, via_nodes, f"haar coeff N={N} n={n}")


def coeff_power(sigma, N, n):
    s = mp.mpf(sigma)
    L = 2 * N + 2
    if n == 0:
        via_int = -quad_sqrt(
            lambda l: (2 / l) * one_minus_x_csch(l / (2 * L)) * l ** (-s),
            [0, 1, 10, 100, mp.inf])
    else:
        via_int = quad_sqrt(lambda l: khat(l / L, mp.mpf(n) / L) / L * l ** (-s),
                             [0, 1, 10, 100, mp.inf])
    vals = [q_power_polylog(s, (k + mp.mpf(1) / 2) / L) for k in range(L)]
    via_nodes = mp.fsum(
        v * mp.cospi(2 * n * (k + mp.mpf(1) / 2) / L) for k, v in enumerate(vals)) / L
    return check(via_int, via_nodes, f"power coeff s={sigma} N={N} n={n}")


# --- zeta_numpy's frozen references ----------------------------------------------

# the check's arguments: from the pole (sigma -> 2) through the 4-5 band, where
# the asymptotic Bernoulli tail is weakest, up to q_mu's largest argument
ZETA_NUMPY_T = (1 + 1e-9, 1 + 1e-6, 1.05, 1.5, 2.05, 3.0, 4.3, 4.8, 5.1,
                10.0, 33.0, 65.0)


def zeta_numpy_literals():
    """Lines of Python source, one (t, zeta(t)) pair each, zeta to 30
    digits.  Each zeta is taken at the exact double t: 1 + 1e-9 is
    1.00000000100000008..., and so close to the pole that the zeta of the
    decimal 1.000000001 is 8e-8 relative away."""
    lines = []
    for t in ZETA_NUMPY_T:
        z = mp.zeta(mp.mpf(t))
        check(z, mp.zeta(mp.mpf(t), 1), f"zeta({t!r}) as Hurwitz zeta at 1")
        lines.append(f"    ({t!r}, {mp.nstr(z, 30, strip_zeros=False, min_fixed=-1, max_fixed=40)}),")
    return lines


# --- assembly -------------------------------------------------------------------

def main():
    beta2 = dirichlet_beta(2)
    check(beta2, mp.catalan, "beta(2) = catalan")

    data = {"working_digits": mp.dps}
    note("beta/catalan ok")

    # line kernel: real samples cross-checked against the error integral
    kernel_samples = []
    for lam, delta, x in [(1, 1, 0.3), (1, 1, 2.2), (0.5, 1, 7.6),
                          (2, 1, 0.1), (5, 1, 1.3), (1, 2, 0.3), (0.5, 2, 1.7)]:
        lam_p = mp.mpf(lam) / delta
        w = mp.mpf(delta) * mp.mpf(x)
        val = kernel_series(lam_p, w)
        alt = mp.e ** (-lam_p * w) - exp_error_integral(lam_p, w)
        check(val, alt, f"kernel sample lam={lam} delta={delta} x={x}")
        kernel_samples.append(
            {"lam": lam, "delta": delta, "x": x, "value": float(val)})
    data["kernel_samples"] = kernel_samples
    note("kernel samples ok")

    kernel_complex = []
    for lam, re, im in [(1, 1.0, 0.7), (2, -0.3, -1.1), (0.5, 0.5, 2.0)]:
        val = kernel_series(mp.mpf(lam), mp.mpc(re, im))
        kernel_complex.append({"lam": lam, "re": re, "im": im,
                               "value_re": float(mp.re(val)),
                               "value_im": float(mp.im(val))})
    data["kernel_complex_samples"] = kernel_complex

    data["kernel_at_zero"] = [
        {"lam": lam, "value": float(kernel_at_zero(mp.mpf(lam)))}
        for lam in (0.5, 1, 2, 5)]

    data["khat_samples"] = [
        {"lam": lam, "delta": delta, "t": t,
         "value": float(khat(mp.mpf(lam) / delta, mp.mpf(t) / delta) / delta)}
        for lam, delta, t in [(1, 1, 0.2), (2, 1, 0.45), (1, 2, 0.6),
                              (0.5, 1, 0.49), (5, 1, 0.0)]]

    # pointwise error on the cross-check grid (series vs integral)
    grid = {"lams": [0.5, 1.0, 2.0], "xs": [0.1, 0.25, 0.75, 1.3, 4.6]}
    values = []
    for lam in grid["lams"]:
        row = []
        for x in grid["xs"]:
            via_int = exp_error_integral(mp.mpf(lam), mp.mpf(x))
            via_ser = mp.e ** (-mp.mpf(lam) * x) - kernel_series(mp.mpf(lam), mp.mpf(x))
            check(via_int, via_ser, f"error grid lam={lam} x={x}")
            row.append(float(via_int))
        values.append(row)
    grid["values"] = values
    data["exp_error_grid"] = grid
    note("exp error grid ok")

    # log target approximant
    data["log_approx_samples"] = (
        [{"x": 0.0, "value": float(log_approximant_zero())}] +
        [{"x": x, "value": float(log_approximant(x))}
         for x in (0.3, 0.75, 2.2, 7.6)])

    note("log approximants ok")

    # power target approximant (presented form) and its x=0 error
    data["power_approx_samples"] = [
        {"sigma": s, "x": x, "value": float(power_approximant(s, x))}
        for s in (0.5, 1.5) for x in (0.3, 2.2)]
    data["power_error_at_zero"] = {"sigma": 1.5,
                                   "value": float(power_error_at_zero(1.5))}

    note("power approximants ok")

    # a two-atom point measure, raw-form approximant value
    masses = [(1.0, 1.0), (2.0, 0.5)]
    val = mp.fsum(w * (kernel_series(mp.mpf(l), mp.mpf(0.3)) - mp.e ** (-mp.mpf(l)))
                  for l, w in masses)
    data["point_mass_sample"] = {"masses": masses, "x": 0.3, "value": float(val)}

    # constants
    data["catalan_30"] = mp.nstr(mp.catalan, 30)
    data["dirichlet_beta"] = {str(s): float(dirichlet_beta(mp.mpf(s)))
                              for s in ("1.5", "2", "2.5", "3")}
    data["haar_l1_constant"] = float(haar_l1_constant())
    data["power_l1_constants"] = {str(s): float(power_l1_constant(mp.mpf(s)))
                                  for s in ("0.5", "1.5")}

    note("constants ok")

    # periodized targets
    per = []
    for lam, x in [(0.005, 0.3), (1.0, 0.3), (5.0, 0.9), (0.019, 0.5), (1.0, 0.0)]:
        val = p_periodized(mp.mpf(lam), mp.mpf(x))
        check(val, p_brute(mp.mpf(lam), mp.mpf(x)), f"p sample lam={lam} x={x}")
        per.append({"lam": lam, "x": x, "value": float(val)})
    data["periodized_exp_samples"] = per
    note("periodized exp ok")

    qs = []
    for s, x in [(0.5, 0.3), (0.5, 0.25), (1.5, 0.3), (1.5, 0.0)]:
        val = q_power_polylog(s, x)
        check(val, q_power_integral(s, x), f"q sample s={s} x={x}")
        qs.append({"sigma": s, "x": x, "value": float(val)})
    data["periodized_power_samples"] = qs
    note("periodized power ok")

    # optimal polynomial coefficients (nonnegative frequencies)
    data["periodic_coeffs_haar"] = {
        str(N): [float(coeff_haar(N, n)) for n in range(N + 1)]
        for N in (0, 1, 3)}
    data["periodic_coeffs_power"] = {
        "sigma": 0.5, "N": 1,
        "coeffs": [float(coeff_power(0.5, 1, n)) for n in range(2)]}

    note("periodic coeffs ok")

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--zeta-numpy"]:
        print("\n".join(zeta_numpy_literals()))
        sys.exit(0)
    sys.exit(main())
