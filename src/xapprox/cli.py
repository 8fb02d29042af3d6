"""Command-line front end.

Five subcommands: ``eval`` (pointwise target/approximant/error),
``coeffs`` (trigonometric-polynomial JSON export), ``error-table``
(closed-form optimal errors over a parameter grid, optionally
cross-checked by quadrature), ``plot-data`` (uniform sampling for
external plotting) and ``verify`` (the certification suite).

Conventions: range flags accept ``start:stop[:step]`` with inclusive
endpoints; all floats print with 17 significant digits; CSV uses plain
``\\n`` line endings; identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 failed verification, 2 bad flags.

A model command works on the circle iff ``--periodic`` or ``--degree`` is
given; the circle needs ``--degree``, refuses ``--delta``, and takes the
kernel mode's p(lam, .) as the q_mu of the unit point mass at lam.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np

from ._stable import sinpi
from .errors import DivergentAtZero, XapproxError
from .expkernel import ExpKernel, eval_K, l1_error_exp, l1_error_exp_quadrature
from .entire import (
    EntireApproximant,
    eval_K_mu,
    l1_error_mu,
    l1_error_mu_quadrature,
)
from .measures import HaarLog, PointMasses, PowerSigma, TargetForm, measure_from_json
from .periodic import _circle_l1_mu, build_k_mu, eval_q_mu, periodic_l1_error_mu
from .certify import (
    reports_passed,
    reports_to_json,
    reports_to_table,
    run_cert_suite,
)

__all__ = ["main"]


class CliError(Exception):
    """Flag validation failure; maps to exit code 2."""


# --- flag plumbing ----------------------------------------------------------

@lru_cache(maxsize=1)  # parsing leaves the parser as it was
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="xapprox",
        description="Best bandlimited L1 approximations of e^{-lam|x|}, "
                    "log|x|, |x|^{s-1} and their periodizations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def model_flags(p):
        p.add_argument("--kernel", choices=["exp"], default=None,
                       help="single-exponential target (default when --measure absent)")
        p.add_argument("--measure", default=None, metavar="SPEC",
                       help="'haar', 'power' (with --sigma), or measure JSON")
        p.add_argument("--sigma", type=float, default=None,
                       help="exponent for --measure power")
        p.add_argument("--lambda", dest="lam", default=None, metavar="A[:B[:STEP]]",
                       help="kernel decay rate (range form only in error-table)")
        p.add_argument("--delta", type=float, default=None,
                       help="dilation / exponential type parameter on the line (default 1)")
        p.add_argument("--degree", default=None, metavar="N[:M]",
                       help="trig-polynomial degree; selects the circle "
                            "(range form only in error-table)")
        p.add_argument("--periodic", action="store_true",
                       help="work on the circle (periodized targets); needs --degree")

    def io_flags(p, formats=("csv", "json")):
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write here instead of stdout")
        p.add_argument("--format", choices=list(formats), default=formats[0])

    p = sub.add_parser("eval", help="target, approximant and error at points")
    model_flags(p)
    p.add_argument("--x", action="append", type=float, default=None,
                   metavar="VALUE", help="evaluation point (repeatable)")
    p.add_argument("--x-range", dest="x_range", default=None, metavar="A:B[:STEP]")
    io_flags(p)

    p = sub.add_parser("coeffs", help="export polynomial coefficients as JSON")
    model_flags(p)
    p.add_argument("--negate-for-vn", dest="negate", action="store_true",
                   help="export the negated polynomial (log|1-e(x)| convention)")
    io_flags(p, formats=("json",))

    p = sub.add_parser("error-table", help="closed-form optimal errors on a grid")
    model_flags(p)
    p.add_argument("--verify", action="store_true",
                   help="recompute each value by quadrature and report the difference")
    io_flags(p)

    p = sub.add_parser("plot-data", help="uniform samples of target/approximant/error")
    model_flags(p)
    p.add_argument("--x-range", dest="x_range", default=None, metavar="A:B")
    p.add_argument("--samples", type=int, default=None)
    io_flags(p)

    p = sub.add_parser("verify", help="run the certification suite")
    p.add_argument("--only", action="append", default=None, metavar="NAME",
                   help="check name (repeatable, comma lists allowed)")
    io_flags(p, formats=("table", "json"))
    return ap


def _parse_grid(text, name):
    """start:stop[:step] with inclusive endpoints, or a single value."""
    parts = str(text).split(":")
    try:
        nums = [float(s) for s in parts]
    except ValueError:
        raise CliError(f"bad {name} value {text!r}") from None
    if len(nums) == 1:
        return nums
    if len(nums) == 2:
        a, b, step = nums[0], nums[1], 1.0
    elif len(nums) == 3:
        a, b, step = nums
    else:
        raise CliError(f"bad {name} range {text!r} (want start:stop[:step])")
    if not all(map(math.isfinite, nums)):
        raise CliError(f"bad {name} range {text!r} (its ends and step must be finite)")
    if not step > 0:
        raise CliError(f"{name} range step must be positive")
    n = int(math.floor((b - a) / step + 1e-9)) + 1
    if n < 1:
        raise CliError(f"empty {name} grid {text!r}")
    return [a + k * step for k in range(n)]


def _single(values, name):
    if len(values) != 1:
        raise CliError(f"{name} takes a single value here, got a range")
    return values[0]


def _lambdas(args):
    """Every --lambda value, each finite and positive."""
    if args.lam is None:
        raise CliError("--lambda is required in kernel mode")
    lams = _parse_grid(args.lam, "--lambda")
    if not all(math.isfinite(v) and v > 0 for v in lams):
        raise CliError(f"--lambda must be finite and positive, got {args.lam}")
    return lams


def _degrees(args):
    """Every --degree value, each a nonnegative integer."""
    if args.degree is None:
        raise CliError("--degree is required here")
    raw = _parse_grid(args.degree, "--degree")
    if not all(math.isfinite(v) and v >= 0 and int(v) == v for v in raw):
        raise CliError(f"--degree must hold nonnegative integers, got {args.degree}")
    return [int(v) for v in raw]


def _get_lambda(args):
    return _single(_lambdas(args), "--lambda")


def _get_degree(args):
    return _single(_degrees(args), "--degree")


def _resolve_measure(args):
    """None in kernel mode, else a measure family object.  Every model
    command starts here, so the circle's flag rule and a bad --delta are
    refused first.  Leaves args.periodic true on the circle (--periodic
    or --degree given) and args.delta set on the line (default 1)."""
    if args.periodic or args.degree is not None:
        if args.degree is None:
            raise CliError("the circle (--periodic) needs --degree")
        if args.delta is not None:
            raise CliError("--delta has no meaning on the circle (--periodic or --degree)")
        args.periodic = True
    elif args.delta is None:
        args.delta = 1.0
    elif not (math.isfinite(args.delta) and args.delta > 0):
        raise CliError(f"--delta must be finite and positive, got {args.delta}")
    if args.measure is not None and args.kernel is not None:
        raise CliError("give either --kernel or --measure, not both")
    if args.measure is None:
        return None
    txt = args.measure.strip()
    if txt == "haar":
        return HaarLog()
    if txt == "power":
        if args.sigma is None:
            raise CliError("--measure power requires --sigma")
        return PowerSigma(args.sigma)
    if txt.startswith("{"):
        try:
            return measure_from_json(txt)
        except XapproxError:
            raise
        except Exception as exc:
            raise CliError(f"bad measure JSON: {exc}") from None
    raise CliError(f"unknown measure {txt!r}")


# --- output formatting -------------------------------------------------------

def _g17(v):
    if v is None:
        return ""
    v = float(v)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def _json_cell(v):
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else None


def _render_rows(fmt, header, rows):
    if fmt == "json":
        payload = [{k: _json_cell(v) for k, v in zip(header, row)} for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(header)]
    lines.extend(",".join(_g17(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(args, text):
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- evaluation core ---------------------------------------------------------

def _triplet(args, spec, xs):
    """(target, approximant, error) arrays at the points xs."""
    xs = np.asarray(xs, dtype=float)
    if args.periodic:
        N = _get_degree(args)
        spec = spec or PointMasses(((_get_lambda(args), 1.0),))
        if spec.form is TargetForm.LOG:
            # presented as log|1 - e(x)| versus the negated polynomial; eval
            # first, which refuses a nan or infinite x
            approx = (-build_k_mu(spec, N)).eval(xs)
            with np.errstate(divide="ignore"):
                target = np.log(np.abs(2.0 * sinpi(xs)))
        else:
            try:
                target = eval_q_mu(spec, xs)
            except DivergentAtZero:  # +inf at the integers, one call for the rest
                at_int = xs == np.floor(xs)
                target = np.full(xs.shape, math.inf)
                target[~at_int] = eval_q_mu(spec, xs[~at_int])
            approx = build_k_mu(spec, N).eval(xs)
    else:
        if spec is None:
            lam = _get_lambda(args)
            target = np.exp(-lam * np.abs(xs))
            approx = eval_K(ExpKernel(lam, args.delta), xs)
        else:
            # each family in its natural form: log|x|, |x|^{sigma-1} or f_mu
            with np.errstate(divide="ignore"):
                target = spec.natural_target(np.abs(xs))
            approx = eval_K_mu(EntireApproximant(spec, args.delta, spec.form), xs)
    with np.errstate(invalid="ignore"):
        err = target - approx
    return target, approx, err


def _eval_points(args):
    xs = list(args.x or [])
    if args.x_range is not None:
        xs.extend(_parse_grid(args.x_range, "--x-range"))
    if not xs:
        raise CliError("eval needs --x or --x-range")
    return xs


# --- commands ----------------------------------------------------------------

def cmd_eval(args):
    spec = _resolve_measure(args)
    xs = _eval_points(args)
    target, approx, err = _triplet(args, spec, xs)
    rows = list(zip(xs, target, approx, err))
    _emit(args, _render_rows(args.format, ("x", "target", "approximant", "error"), rows))
    return 0


def cmd_coeffs(args):
    spec = _resolve_measure(args)
    N = _get_degree(args)  # coefficients live on the circle alone
    poly = build_k_mu(spec or PointMasses(((_get_lambda(args), 1.0),)), N)
    if args.negate:
        poly = -poly
    _emit(args, poly.to_json() + "\n")
    return 0


def cmd_error_table(args):
    spec = _resolve_measure(args)
    rows = []
    if args.periodic:
        # (param, measure, degree): a --lambda grid at one degree in kernel
        # mode, a --degree grid for a measure
        if spec is None:
            lams, N = _lambdas(args), _get_degree(args)
            cases = [(lam, PointMasses(((lam, 1.0),)), N) for lam in lams]
        else:
            cases = [(N, spec, N) for N in _degrees(args)]
        for param, mu, N in cases:
            closed = periodic_l1_error_mu(mu, N)
            quad = _circle_l1_mu(mu, build_k_mu(mu, N)) if args.verify else None
            rows.append((param, closed, quad))
    elif spec is None:
        for lam in _lambdas(args):
            closed = l1_error_exp(lam, args.delta)
            quad = l1_error_exp_quadrature(lam, args.delta) if args.verify else None
            rows.append((lam, closed, quad))
    else:
        param = getattr(spec, "sigma", args.delta)
        closed = l1_error_mu(spec, args.delta)
        quad = None
        if args.verify:
            # in the natural form, as l1_error_mu reports it
            quad = l1_error_mu_quadrature(spec, args.delta) / abs(spec.form_scale)
        rows.append((param, closed, quad))
    if not rows:
        raise CliError("empty parameter grid")
    table = [(p, c, q, None if q is None else abs(c - q)) for p, c, q in rows]
    _emit(args, _render_rows(args.format,
                             ("param", "closed_form", "quadrature", "abs_diff"),
                             table))
    return 0


def cmd_plot_data(args):
    spec = _resolve_measure(args)
    if args.samples is None or args.samples < 2:
        raise CliError("plot-data needs --samples >= 2")
    span = args.x_range if args.x_range is not None else ("0:1" if args.periodic else None)
    if span is None:
        raise CliError("plot-data needs --x-range (defaults to 0:1 only with --periodic)")
    parts = str(span).split(":")
    if len(parts) != 2:
        raise CliError("plot-data --x-range takes start:stop")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise CliError(f"bad --x-range {span!r}") from None
    if not b > a:
        raise CliError("plot-data --x-range must have stop > start")
    xs = np.linspace(a, b, args.samples)
    target, approx, err = _triplet(args, spec, xs)
    rows = list(zip(xs, target, approx, err))
    _emit(args, _render_rows(args.format, ("x", "target", "approximant", "error"), rows))
    return 0


def cmd_verify(args):
    names = None
    if args.only:
        names = [s for item in args.only for s in item.split(",") if s]
    reports = run_cert_suite(names)
    text = (reports_to_json(reports) + "\n" if args.format == "json"
            else reports_to_table(reports) + "\n")
    _emit(args, text)
    return 0 if reports_passed(reports) else 1


_COMMANDS = {
    "eval": cmd_eval,
    "coeffs": cmd_coeffs,
    "error-table": cmd_error_table,
    "plot-data": cmd_plot_data,
    "verify": cmd_verify,
}


def _glue_negative_values(argv):
    """Join flags with values starting in a single '-' (e.g. --x-range -3:3,
    --x -.5 or --x -inf), which argparse would otherwise read as option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in ("--x", "--x-range") and i + 1 < len(argv)
                and argv[i + 1][:1] == "-" and argv[i + 1][1:2] != "-"):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_negative_values(list(argv)))
    except SystemExit as exc:  # argparse printed its own diagnostic
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (CliError, XapproxError) as exc:  # UnknownCheckName included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
