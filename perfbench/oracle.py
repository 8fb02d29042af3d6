"""High-precision oracle values from mpmath, for a seeded subsample.

run.py picks a few outputs of each request list (``subsample``),
computes their values with mpmath before any timing starts, and keeps
them in a JSON cache under the benchmark's own directory, keyed by the
mathematical parameters.  The child process that runs the workload only
reads the cache.  mpmath is imported lazily so the child never loads it.

The routes are independent of the library:
  K(lam, z)       the defining cardinal series summed to 1e-22, or the
                  Lerch transcendent form for small lam (faster there);
  K_mu(spec, x)   the node series (cos pi w/pi) sum (-1)^n f(xi) 2xi/(w^2-xi^2)
                  with Cohen-Rodriguez Villegas-Zagier acceleration;
  q_mu power      (2 pi)^{1-s}/sin(pi s/2) Re Li_s(e(x));
  TrigPoly value  the optimal polynomial's closed-form coefficients
                  summed in high precision.
"""

from __future__ import annotations

import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_PATH = os.path.join(HERE, ".cache", "oracle.json")
DPS = 24


def key(*parts):
    return "|".join(repr(p) for p in parts)


def _spec_key(spec):
    return "haar" if spec == "haar" else float(spec)


def subsample(workload, reqs, seed):
    """[(rid, index, cache key, params)] of the outputs checked against
    mpmath.  index is the point index in a batch request, or None."""
    rng = np.random.default_rng([int(seed), 99])
    out = []

    def off_node(r):
        # scalar requests at a node or at 0 have exact oracles of their own
        z = r.args.get("z")
        return z is None or isinstance(z, complex) or abs(z * r.args["delta"]) % 1.0 not in (0.0, 0.5)

    def pick(kinds, n, real_only=False):
        pool = [r for r in reqs if r.kind in kinds and r.defect is None
                and r.cls != "probe" and off_node(r)
                and not ("frozen" in r.args and "layout" not in r.args)
                and not (real_only and isinstance(r.args.get("z"), complex))]
        idx = rng.choice(len(pool), min(n, len(pool)), replace=False)
        return [pool[i] for i in sorted(idx)]

    if workload == "line-batch":
        for r in pick(("eval_K",), 4):
            for i in rng.choice(r.args["layout"]["pairs"], 2, replace=False):
                z = complex(r.args["x"][i])
                out.append((r.rid, int(i), key("K", r.args["lam"], r.args["delta"],
                                               z.real, z.imag),
                            ("K", r.args["lam"], r.args["delta"], z.real, z.imag)))
        for r in pick(("eval_K_mu",), 3):
            for i in rng.choice(r.args["layout"]["pairs"], 2, replace=False):
                x = float(r.args["x"][i])
                s = _spec_key(r.args["spec"])
                out.append((r.rid, int(i), key("Kmu", s, r.args["delta"], x),
                            ("Kmu", s, r.args["delta"], x)))
    elif workload == "pointwise":
        for r in pick(("eval_K_1",), 6):
            z = complex(r.args["z"])
            out.append((r.rid, None, key("K", r.args["lam"], r.args["delta"], z.real, z.imag),
                        ("K", r.args["lam"], r.args["delta"], z.real, z.imag)))
        for r in pick(("eval_K_mu_1",), 4, real_only=True):
            s = _spec_key(r.args["spec"])
            x = float(r.args["z"])
            out.append((r.rid, None, key("Kmu", s, r.args["delta"], x),
                        ("Kmu", s, r.args["delta"], x)))
        for r in pick(("q_mu",), 4):
            out.append((r.rid, None, key("q", r.args["sigma"], r.args["x"]),
                        ("q", r.args["sigma"], r.args["x"])))
        for r in pick(("err_oracle",), 2):
            out.append((r.rid, None, key("err", r.args["lam"], r.args["x"]),
                        ("err", r.args["lam"], r.args["x"])))
    elif workload == "circle":
        for r in pick(("trig_eval",), 3):
            lo = 1 + 2 * r.args["n_node"]
            for i in rng.choice(r.args["n_pair"], 2, replace=False):
                x = float(r.args["x"][lo + int(i)])
                out.append((r.rid, lo + int(i), key("P", r.args["lam"], r.args["N"], x),
                            ("P", r.args["lam"], r.args["N"], x)))
    return out


# --- mpmath routes -----------------------------------------------------------------

def _mp():
    import mpmath

    mpmath.mp.dps = DPS
    return mpmath


def kernel(lam, delta, re, im):
    """K(lam/delta, delta*z) for z = re + i im."""
    mp = _mp()
    lam_p = mp.mpf(lam) / mp.mpf(delta)
    w = mp.mpf(delta) * mp.mpc(re, im) if im else mp.mpf(delta) * mp.mpf(re)
    half = mp.mpf(1) / 2
    if lam_p < 0.1:
        q = -mp.exp(-lam_p)
        return mp.cospi(w) / mp.pi * mp.exp(-lam_p / 2) * (
            mp.lerchphi(q, 1, half - w) + mp.lerchphi(q, 1, half + w))
    M = int(mp.ceil((DPS - 2) * mp.log(10) / lam_p + abs(mp.re(w)) + 12))
    total = mp.mpf(0)
    for k in range(-M, M):
        d = w - (k + half)
        total += mp.exp(-lam_p * abs(k + half)) * mp.sinpi(d) / (mp.pi * d)
    return total


def _crvz(a, n):
    """sum_{k>=0} (-1)^k a(k) by Cohen-Rodriguez Villegas-Zagier."""
    mp = _mp()
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


def _node_series(f_node, w):
    """(cos pi w/pi) sum_{n>=1} (-1)^n f(n-1/2) 2(n-1/2)/(w^2-(n-1/2)^2)."""
    mp = _mp()
    half = mp.mpf(1) / 2
    n0 = int(mp.ceil(abs(w))) + 3
    head = mp.mpf(0)
    for n in range(1, n0):
        xi = n - half
        head += (-1) ** n * f_node(xi) * 2 * xi / (w * w - xi * xi)

    def a(k):
        xi = n0 + k - half
        return f_node(xi) * 2 * xi / (xi * xi - w * w)

    tail = (-1) ** (n0 - 1) * _crvz(a, 48)
    return mp.cospi(w) / mp.pi * (head + tail)


def kernel_mu(spec, delta, x):
    """Presented-form approximant: log form for Haar, power form else."""
    mp = _mp()
    d = mp.mpf(delta)
    w = d * mp.mpf(x)
    if spec == "haar":
        return -_node_series(lambda xi: -mp.log(xi), w) - mp.log(d)
    s = mp.mpf(spec)
    return d ** (1 - s) * _node_series(lambda xi: xi ** (s - 1), w)


def q_power(sigma, x):
    mp = _mp()
    s = mp.mpf(sigma)
    li = mp.re(mp.polylog(s, mp.exp(2j * mp.pi * mp.mpf(x))))
    return (2 * mp.pi) ** (1 - s) / mp.sinpi(s / 2) * li


def exp_error(lam, x):
    """e^{-lam x} - K(lam, x): the value error_exp_integral_oracle computes."""
    mp = _mp()
    return mp.exp(-mp.mpf(lam) * mp.mpf(x)) - kernel(lam, 1.0, x, 0.0)


def trig_value(lam, N, x):
    """Optimal degree-N polynomial for p(lam, .) at x, from the closed-form
    coefficients c_0 = -(2/lam)(1 - v csch v), v = lam/2L, and
    c_n = sinh(l/2) cos(pi u)/(L (sinh(l/2)^2 + sin(pi u)^2)), l = lam/L, u = n/L."""
    mp = _mp()
    L = 2 * N + 2
    lam = mp.mpf(lam)
    v = lam / (2 * L)
    total = -(2 / lam) * (1 - v / mp.sinh(v))
    sh = mp.sinh(lam / L / 2)
    x = mp.mpf(x)
    for n in range(1, N + 1):
        u = mp.mpf(n) / L
        c = sh * mp.cospi(u) / (L * (sh * sh + mp.sinpi(u) ** 2))
        total += 2 * c * mp.cospi(2 * n * x)
    return total


_ROUTES = {"K": kernel, "Kmu": kernel_mu, "q": q_power, "err": exp_error, "P": trig_value}


def evaluate(params):
    val = _ROUTES[params[0]](*params[1:])
    val = complex(val)
    return [val.real, val.imag]


def load_cache():
    try:
        with open(CACHE_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def prepare(workload, reqs, seed):
    """Compute the missing oracle values of a run; return the cache."""
    cache = load_cache()
    missing = [(k, p) for _, _, k, p in subsample(workload, reqs, seed) if k not in cache]
    if not missing:
        return cache
    for k, p in missing:
        cache[k] = evaluate(p)
    os.makedirs(os.path.dirname(CACHE_PATH), exist_ok=True)
    tmp = CACHE_PATH + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(cache, fh)
    os.replace(tmp, CACHE_PATH)
    return cache
