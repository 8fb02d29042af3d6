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
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from ._stable import sinpi
from .errors import DivergentAtZero, UnknownCheckName, XapproxError
from .expkernel import ExpKernel, eval_K, eval_p, l1_error_exp, l1_error_exp_quadrature
from .entire import (
    EntireApproximant,
    eval_K_mu,
    l1_error_mu,
    l1_error_mu_quadrature,
)
from .measures import HaarLog, PowerSigma, TargetForm, measure_from_json
from .periodic import (
    _circle_l1_mu,
    build_k,
    build_k_mu,
    eval_q_mu,
    periodic_l1_error,
    periodic_l1_error_mu,
    periodic_l1_quadrature,
)
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
        p.add_argument("--delta", type=float, default=1.0,
                       help="dilation / exponential type parameter (default 1)")
        p.add_argument("--degree", default=None, metavar="N[:M]",
                       help="trig-polynomial degree (range form only in error-table)")
        p.add_argument("--periodic", action="store_true",
                       help="work on the circle (periodized targets)")

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


def _get_lambda(args):
    if args.lam is None:
        raise CliError("--lambda is required in kernel mode")
    lam = _single(_parse_grid(args.lam, "--lambda"), "--lambda")
    if not lam > 0:
        raise CliError("--lambda must be positive")
    return lam


def _get_degree(args):
    if args.degree is None:
        raise CliError("--degree is required here")
    raw = _single(_parse_grid(args.degree, "--degree"), "--degree")
    n = int(raw)
    if n != raw or n < 0:
        raise CliError(f"--degree must be a nonnegative integer, got {args.degree}")
    return n


def _resolve_measure(args):
    """None in kernel mode, else a measure family object."""
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
        if spec is None:
            lam = _get_lambda(args)
            target = np.asarray(eval_p(lam, xs), dtype=float)
            approx = build_k(lam, N).eval(xs)
        elif spec.form is TargetForm.LOG:
            # presented as log|1 - e(x)| versus the negated polynomial
            with np.errstate(divide="ignore"):
                target = np.log(np.abs(2.0 * sinpi(xs)))
            approx = (-build_k_mu(spec, N)).eval(xs)
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
    N = _get_degree(args)
    if spec is None:
        poly = build_k(_get_lambda(args), N)
    else:
        poly = build_k_mu(spec, N)
    if args.negate:
        poly = -poly
    _emit(args, poly.to_json() + "\n")
    return 0


def cmd_error_table(args):
    spec = _resolve_measure(args)
    rows = []
    if spec is None:
        if args.lam is None:
            raise CliError("--lambda is required in kernel mode")
        lams = _parse_grid(args.lam, "--lambda")
        if args.periodic:
            N = _get_degree(args)
            for lam in lams:
                closed = periodic_l1_error(lam, N)
                quad = periodic_l1_quadrature(lam, N) if args.verify else None
                rows.append((lam, closed, quad))
        else:
            for lam in lams:
                closed = l1_error_exp(lam, args.delta)
                quad = (l1_error_exp_quadrature(lam, args.delta)
                        if args.verify else None)
                rows.append((lam, closed, quad))
    elif args.degree is not None:
        for raw in _parse_grid(args.degree, "--degree"):
            N = int(raw)
            if N != raw or N < 0:
                raise CliError("--degree grid must hold nonnegative integers")
            closed = periodic_l1_error_mu(spec, N)
            quad = _circle_l1_mu(spec, build_k_mu(spec, N)) if args.verify else None
            rows.append((N, closed, quad))
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
    """Join flags with values starting in '-' (e.g. --x-range -3:3),
    which argparse would otherwise read as option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in ("--x", "--x-range") and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and len(argv[i + 1]) > 1
                and argv[i + 1][1].isdigit()):
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
    except UnknownCheckName as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except XapproxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
