"""Turn requests into library calls, and check every output.

``bind`` builds the inputs of a request (arrays, kernel and measure
objects) once, outside timing, and returns the call to time.  ``check``
runs after timing and grades one output against its named oracles:

  frozen    the mpmath values in tests/data/reference_values.json
  node      interpolation at the nodes, exact in exact arithmetic
  zero      K(lam, 0) = (4/pi) atan(e^{-lam/2}) in closed form
  even      K(-z) == K(z), bitwise (the paired sums are symmetric)
  mpmath    the seeded subsample computed by oracle.py
  cross     an independent route of the library (quadrature against
            the closed form, interpolation against the coefficient
            builder) at the certification suite's tolerance
  cli       exit code 0, every verify report passed

Oracles of the first five kinds also yield digits: the correct
significant digits of the output, -log10(|c - r| / max(|r|, scale)),
capped at 16.  The scale is 1e-3: below it the approximants decay
towards zero and the library's accuracy is absolute, so relative digits
would measure underflow, not error.  For K off the real axis the scale
grows with the sinc terms, like 1e-3 cosh(pi Im w): there the series
cancels terms of that size, and digits count against what the double
sum can resolve.  Cross-route checks are pass/fail only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import numpy as np

DIGITS_CAP = 16.0
DIGITS_FLOOR = 1e-3
# an output that has a high-precision oracle passes above this many digits
MIN_DIGITS = 8.0
# tolerances of the certification suite for the identities and routes
TOL_EXP_NODES = 1e-12        # interp_exp_nodes
TOL_LOG_NODES = 1e-8         # log_interpolation
TOL_L1_EXP = 1e-8            # thm1_1_*
TOL_L1_MU = 1e-4             # haar_l1_2d
TOL_ORACLE_AGREEMENT = 1e-9  # s27_oracle_agreement
TOL_PERIODIC_NODES = 1e-11   # thm6_1_nodes
TOL_CROSS_ORACLE = 1e-10     # cross_oracle_exp, cross_oracle_haar
TOL_L1_PERIODIC = 1e-9       # thm6_1_*
TOL_LOG_CIRCLE = 1e-7        # thm1_4_*
TOL_EVEN_BLAS = 1e-13        # relative; rows of a BLAS product round differently


def digits(computed, reference, scale=DIGITS_FLOOR):
    """Correct significant digits of computed against reference."""
    c, r = complex(computed), complex(reference)
    if not (math.isfinite(abs(c)) and math.isfinite(abs(r))):
        return 0.0
    err = abs(c - r)
    if err == 0.0:
        return DIGITS_CAP
    scale = max(abs(r), scale)
    return max(0.0, min(DIGITS_CAP, -math.log10(err / scale)))


class Outcome:
    """The verdict on one output: every failed check, and the digits."""

    def __init__(self):
        self.failures = []
        self.digits = []
        self.oracles = set()

    @property
    def ok(self):
        return not self.failures

    def fail(self, what):
        self.failures.append(what)

    def value(self, oracle, computed, reference, abs_tol=None, scale=DIGITS_FLOOR):
        """Grade against a high-precision value: digits, plus pass/fail at
        MIN_DIGITS or, when given, at an absolute tolerance."""
        self.oracles.add(oracle)
        d = digits(computed, reference, scale)
        self.digits.append(d)
        if abs_tol is None:
            bad = d < MIN_DIGITS
        else:
            bad = not abs(complex(computed) - complex(reference)) <= abs_tol
        if bad:
            self.fail(f"{oracle}: {computed!r} vs {reference!r} ({d:.2f} digits)")

    def cross(self, oracle, computed, reference, tol):
        self.oracles.add(oracle)
        if not abs(computed - reference) <= tol:
            self.fail(f"{oracle}: {float(computed)!r} vs {float(reference)!r} (tol {tol:g})")


def _spec(X, spec):
    return X.HaarLog() if spec == "haar" else X.PowerSigma(float(spec))


def _approximant(X, spec, delta):
    form = X.TargetForm.LOG if spec == "haar" else X.TargetForm.POWER
    return X.EntireApproximant(_spec(X, spec), float(delta), form)


def _points(xs):
    return np.array(xs, dtype=complex if any(isinstance(v, complex) for v in xs) else float)


def run_cli(X, argv):
    """xapprox.cli.main in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = X.cli.main(list(argv))
    return code, out.getvalue()


def bind(X, req):
    """The zero-argument call that performs the request."""
    a = req.args
    k = req.kind
    if k == "eval_K":
        kern, x = X.ExpKernel(a["lam"], a["delta"]), _points(a["x"])
        return lambda: X.eval_K(kern, x)
    if k == "eval_K_mu":
        ap, x = _approximant(X, a["spec"], a["delta"]), _points(a["x"])
        return lambda: X.eval_K_mu(ap, x)
    if k == "eval_K_1":
        kern, z = X.ExpKernel(a["lam"], a["delta"]), a["z"]
        return lambda: X.eval_K(kern, z)
    if k == "eval_K_mu_1":
        ap, z = _approximant(X, a["spec"], a["delta"]), a["z"]
        return lambda: X.eval_K_mu(ap, z)
    if k == "l1_exp_quad":
        return lambda: X.l1_error_exp_quadrature(a["lam"], a["delta"])
    if k == "l1_mu_quad":
        spec = _spec(X, a["spec"])
        return lambda: X.l1_error_mu_quadrature(spec)
    if k == "q_mu":
        spec = X.PowerSigma(a["sigma"])
        return lambda: X.eval_q_mu(spec, a["x"])
    if k == "err_oracle":
        return lambda: X.error_exp_integral_oracle(a["lam"], a["x"])
    if k == "err_mu_pw":
        ap = _approximant(X, a["spec"], a["delta"])
        return lambda: X.error_mu_pointwise(ap, a["x"])
    if k == "build_k_mu":
        spec = _spec(X, a["spec"])
        return lambda: X.build_k_mu(spec, a["N"])
    if k == "trig_eval":
        x = np.array(a["x"])
        return lambda: X.build_k(a["lam"], a["N"]).eval(x)
    if k == "interp":
        target = (X.MeasurePeriodized(X.HaarLog()) if a["target"] == "haar"
                  else X.ExpPeriodized(a["target"]))
        return lambda: X.interpolation_oracle(target, a["N"])
    if k == "pl1q":
        return lambda: X.periodic_l1_quadrature(a["lam"], a["N"])
    if k == "log_circle":
        return lambda: X.l1_vs_log_circle(-X.build_k_mu(X.HaarLog(), a["N"]))
    if k == "cli":
        return lambda: run_cli(X, a["argv"])
    raise KeyError(f"unknown request kind {k!r}")


def _stable_stdout(req, text):
    """verify reports carry their own wall time (runtime_ms); everything
    else the CLI prints must repeat byte for byte."""
    if req.cls != "verify":
        return text
    try:
        reports = json.loads(text)
    except ValueError:
        return text
    return json.dumps([{k: v for k, v in r.items() if k != "runtime_ms"} for r in reports])


def fingerprint(req, out):
    """Bytes that two runs of a request must share exactly."""
    h = hashlib.sha256()
    if isinstance(out, BaseException):
        h.update(f"{type(out).__name__}: {out}".encode())
    elif isinstance(out, tuple):  # cli: (exit code, stdout)
        h.update(str(out[0]).encode())
        h.update(_stable_stdout(req, out[1]).encode())
    elif hasattr(out, "coeffs") and hasattr(out, "degree"):  # TrigPoly
        h.update(np.ascontiguousarray(out.coeffs).tobytes())
    else:
        h.update(np.ascontiguousarray(np.asarray(out)).tobytes())
    return h.hexdigest()


# --- checks --------------------------------------------------------------------------

def _finite(o, out):
    arr = np.asarray(out)
    if not np.all(np.isfinite(arr)):
        o.fail(f"non-finite output ({int(np.sum(~np.isfinite(arr)))} values)")
        return False
    return True


def _mirror(o, out, layout, tol=0.0):
    """K(-z) == K(z) for each mirrored block; bitwise when tol is 0."""
    o.oracles.add("even")
    for a, b, n in layout["mirror"]:
        x, y = out[a:a + n], out[b:b + n]
        if not (np.array_equal(x, y) if tol == 0.0
                else np.all(np.abs(x - y) <= tol * np.maximum(1.0, np.abs(x)))):
            o.fail("even: K(-z) differs from K(z)")


def _scale(req, idx=None):
    """The digits scale of output idx of a request (see the module doc)."""
    if req.kind not in ("eval_K", "eval_K_1"):
        return DIGITS_FLOOR
    z = req.args["z"] if idx is None else req.args["x"][idx]
    return DIGITS_FLOOR * math.cosh(math.pi * req.args["delta"] * complex(z).imag)


def _mpmath(o, req, out, cache, picks):
    for idx, k in picks.get(req.rid, ()):
        re, im = cache[k]
        val = out if idx is None else out[idx]
        o.value("mpmath", val, complex(re, im) if im else re, scale=_scale(req, idx))


def _node_target(a, x):
    if a["spec"] == "haar":
        return math.log(abs(x))
    return abs(x) ** (float(a["spec"]) - 1.0)


def _node(o, req, x, val):
    """Interpolation at a node x: e^{-lam|x|}, log|x| or |x|^{sigma-1}."""
    if req.kind in ("eval_K", "eval_K_1"):
        o.value("node", val, math.exp(-req.args["lam"] * abs(x)), TOL_EXP_NODES)
    else:
        ref = _node_target(req.args, x)
        o.value("node", val, ref, TOL_LOG_NODES * max(1.0, abs(ref)))


def _zero(o, req, val):
    """K(lam/delta, 0) in closed form."""
    a = req.args
    ref = (4.0 / math.pi) * math.atan(math.exp(-0.5 * a["lam"] / a["delta"]))
    o.value("zero", val, ref, TOL_EXP_NODES)


def check(X, req, out, cache, picks):
    """Grade one output; ``picks`` maps rid -> [(index, oracle key)]."""
    o = Outcome()
    if isinstance(out, BaseException):
        o.fail(f"raised {type(out).__name__}: {out}")
        return o
    a = req.args
    k = req.kind
    if k in ("eval_K", "eval_K_mu"):
        if not _finite(o, out):
            return o
        lay = a.get("layout")
        x = _points(a["x"])
        for i, v in zip(lay["frozen"] if lay else (), a.get("frozen", ())):
            o.value("frozen", out[i], v, scale=_scale(req, i))
        if lay:
            _mirror(o, out, lay)
            for i in lay["nodes"]:
                _node(o, req, x[i].real, out[i])
            if k == "eval_K" and lay["zero"] is not None:
                _zero(o, req, out[lay["zero"]])
        _mpmath(o, req, out, cache, picks)
    elif k in ("eval_K_1", "eval_K_mu_1"):
        if not _finite(o, out):
            return o
        z = a["z"]
        if "frozen" in a:
            o.value("frozen", out, a["frozen"], scale=_scale(req))
        if isinstance(z, complex):
            o.oracles.add("even")
            mirror = X.eval_K(X.ExpKernel(a["lam"], a["delta"]), -z) if k == "eval_K_1" \
                else X.eval_K_mu(_approximant(X, a["spec"], a["delta"]), -z)
            if mirror != out:
                o.fail("even: K(-z) differs from K(z)")
        elif z != 0.0 and abs(z * a["delta"]) % 1.0 == 0.5:
            _node(o, req, z, out)
        elif z == 0.0 and k == "eval_K_1":
            _zero(o, req, out)
        _mpmath(o, req, out, cache, picks)
    elif k == "l1_exp_quad":
        o.cross("cross", out, X.l1_error_exp(a["lam"], a["delta"]), TOL_L1_EXP)
    elif k == "l1_mu_quad":
        o.cross("cross", out, X.l1_error_mu_raw(_spec(X, a["spec"])), TOL_L1_MU)
    elif k == "q_mu":
        if _finite(o, out):
            if "frozen" in a:
                o.value("frozen", out, a["frozen"])
            _mpmath(o, req, out, cache, picks)
    elif k == "err_oracle":
        if _finite(o, out):
            o.cross("cross", out, float(X.error_exp(X.ExpKernel(a["lam"]), a["x"])),
                    TOL_ORACLE_AGREEMENT)
            if "frozen" in a:
                o.value("frozen", out, a["frozen"])
            _mpmath(o, req, out, cache, picks)
    elif k == "err_mu_pw":
        if _finite(o, out):
            x = a["x"]
            direct = _node_target(a, x) - X.eval_K_mu(_approximant(X, a["spec"], a["delta"]), x)
            o.cross("cross", out, direct, TOL_ORACLE_AGREEMENT)
    elif k == "build_k_mu":
        spec = _spec(X, a["spec"])
        other = X.interpolation_oracle(X.MeasurePeriodized(spec), a["N"]).coeffs
        o.cross("cross", float(np.max(np.abs(out.coeffs - other))), 0.0, TOL_CROSS_ORACLE)
        for n, v in enumerate(a.get("frozen", ())):
            o.value("frozen", out.coeff(n).real, v)
    elif k == "trig_eval":
        if _finite(o, out):
            x = np.asarray(a["x"])
            nodes = slice(1, 1 + 2 * a["n_node"])
            target = X.eval_p(a["lam"], x[nodes])
            for c, r in zip(out[nodes], target):
                o.value("node", c, r, TOL_PERIODIC_NODES)
            n, m = a["n_node"], a["n_pair"]
            # TrigPoly.eval sums each row in a BLAS matrix-vector product,
            # whose order can differ between rows: even only to rounding
            _mirror(o, out, {"mirror": [(1, 1 + n, n), (1 + 2 * n, 1 + 2 * n + m, m)]},
                    TOL_EVEN_BLAS)
            _mpmath(o, req, out, cache, picks)
    elif k == "interp":
        if a["target"] == "haar":
            other = X.build_k_mu(X.HaarLog(), a["N"])
        else:
            other = X.build_k(a["target"], a["N"])
        o.cross("cross", float(np.max(np.abs(out.coeffs - other.coeffs))), 0.0,
                TOL_CROSS_ORACLE)
    elif k == "pl1q":
        o.cross("cross", out, X.periodic_l1_error(a["lam"], a["N"]), TOL_L1_PERIODIC)
    elif k == "log_circle":
        o.cross("cross", out, X.periodic_l1_error_mu(X.HaarLog(), a["N"]), TOL_LOG_CIRCLE)
    elif k == "cli":
        _check_cli(o, req, out)
    return o


def _check_cli(o, req, out):
    code, text = out
    o.oracles.add("cli")
    if code != 0:
        o.fail(f"exit code {code}")
        return
    a = req.args
    if req.cls == "verify":
        reports = json.loads(text)
        if not reports or not all(r["passed"] for r in reports):
            o.fail("verify: a report did not pass")
    elif req.cls == "error-table":
        for line in text.strip().splitlines()[1:]:
            param, closed, quad, _ = line.split(",")
            o.cross("cross", float(quad), float(closed), a["tol"])
    elif req.cls == "eval-point":
        x, target, approx, _ = (float(v) for v in text.strip().splitlines()[1].split(","))
        o.value("node", approx, target, TOL_LOG_NODES * max(1.0, abs(target)))
    elif req.cls == "coeffs" and "frozen" in a:
        obj = json.loads(text)
        rows = {int(n): re for n, re, _ in obj["coeffs"]}
        for n, v in enumerate(a["frozen"]):
            o.value("frozen", rows[n], v)
    elif req.cls == "eval" and "frozen" in a:
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        for row, v in zip(rows, a["frozen"]):
            o.value("frozen", float(row[2]), v)


def oracle_picks(sub):
    """rid -> [(index, cache key)] from oracle.subsample output."""
    picks = {}
    for rid, idx, k, _ in sub:
        picks.setdefault(rid, []).append((idx, k))
    return picks

