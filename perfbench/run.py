#!/usr/bin/env python3
"""Benchmark of xapprox: four seeded workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload line-batch --seed 1 --seconds 15 --trace 0

Workloads: line-batch, pointwise, circle, cli-session (see DESIGN.md).
Each run builds the workload's request list from --seed, computes the
mpmath oracle values of a seeded subsample (cached under
perfbench/.cache), measures set-up in five fresh processes, then runs
the list in a closed loop with one client in a fresh child process for
--seconds, checks every output, and prints a table and, as the last
line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
``failed`` counts the request executions that failed and are not known
defects; known defects are listed in workloads.py and count only in
fail_frac.  The library is imported from ./src, never from an installed
copy, and BLAS threads are capped at the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_RUNS = 5
# Latencies are reported at a reference speed: the one at which the
# calibration step (child.calibrate, ~0.3 ms of numpy and interpreter
# work run before every request) takes CAL_REF_S.  On a shared virtual
# machine the CPU's speed swings by +-20% over seconds and minutes; the
# scaling cancels most of that, because the calibration slows with it.
CAL_REF_S = 3e-4
CAL_WINDOW = 8
RUN_LIMIT_S = 170.0

sys.path.insert(0, HERE)

END_TO_END = (
    ("wall_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("digits_min", "digits"),
)

LAYER_NAMES = ("stable", "series", "quadrature", "measures", "expkernel", "entire",
               "periodic", "certify", "cli")
PER_LAYER = (
    [(f"{layer}.calls", "count") for layer in LAYER_NAMES]
    + [(f"{layer}.self_s", "s") for layer in LAYER_NAMES]
    + [
        ("stable.elements", "count"),
        ("expkernel.eval_K.points", "count"),
        ("expkernel.eval_K.self_s", "s"),
        ("expkernel.peak_alloc_mb", "MB"),
        ("entire.eval_K_mu.points", "count"),
        ("entire.eval_K_mu.self_s", "s"),
        ("entire.error_mu_pointwise.self_s", "s"),
        ("quadrature.quadpack_calls", "count"),
        ("quadrature.quadpack_evals", "count"),
        ("quadrature.panel_points", "count"),
        ("measures.integrate_measure.calls", "count"),
        ("measures.integrate_measure.self_s", "s"),
        ("periodic.build_k_mu.self_s", "s"),
        ("periodic.trigpoly_eval.self_s", "s"),
        ("periodic.trigpoly_eval.point_terms", "count"),
        ("periodic.eval_q_mu.calls", "count"),
        ("periodic.eval_q_mu.self_s", "s"),
        ("periodic.peak_alloc_mb", "MB"),
        ("certify.checks", "count"),
        ("expkernel.raised", "count"),
        ("entire.raised", "count"),
        ("periodic.raised", "count"),
        ("quadrature.raised", "count"),
        ("trace.overhead_s", "s"),
    ]
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("XAPPROX_TOL", None)  # the library's tolerance override
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(args, timeout):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")] + args,
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q):
    """q-quantile (0 < q < 1) by linear interpolation between order statistics."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def normalized(latencies, calibrations):
    """Latencies scaled to the reference speed: each one times CAL_REF_S
    over the median calibration time of the CAL_WINDOW requests on each
    side of it, in the order they ran."""
    out = []
    for j, x in enumerate(latencies):
        near = calibrations[max(0, j - CAL_WINDOW):j + CAL_WINDOW + 1]
        out.append(x * CAL_REF_S / statistics.median(near))
    return out


def summarize(res, setup_s):
    """End-to-end metrics, the failure count and the printed extras."""
    outcomes = res["outcomes"]
    passes = res["passes"]
    n = res["requests"]
    bad = [not (o["ok"] and rep) for o, rep in zip(outcomes, res["repeat_ok"])]
    attempted = len(outcomes) * passes
    failed_all = sum(bad) * passes
    unexpected = sum(b for b, o in zip(bad, outcomes) if o["defect"] is None) * passes
    digit_vals = [o["digits"] for o in outcomes
                  if o["defect"] is None and o["digits"] is not None]
    lat = normalized(res["latencies_s"], res["calibration_s"])
    lat_ms = [x * 1e3 for x in lat]
    metrics = {
        "wall_s": sum(statistics.median(lat[p * n + r] for p in range(passes))
                      for r in range(n)),
        "req_p50_ms": quantile(lat_ms, 0.5),
        "req_p90_ms": quantile(lat_ms, 0.9),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": setup_s,
        "digits_min": min(digit_vals) if digit_vals else 0.0,
    }
    extra = {
        "fail_frac": failed_all / attempted,
        "known_defect_failures": (failed_all - unexpected) // passes,
        "samples": len(lat_ms),
        "passes": passes,
        "requests": n,
        "raw_wall_s": statistics.median(res["pass_s"]),
        "raw_p50_ms": quantile(res["latencies_s"], 0.5) * 1e3,
        "raw_p90_ms": quantile(res["latencies_s"], 0.9) * 1e3,
        "calibration_ms": statistics.median(res["calibration_s"]) * 1e3,
    }
    return metrics, attempted, unexpected, extra


def class_table(res):
    rows = {}
    n = res["requests"]
    for i, o in enumerate(res["outcomes"]):
        lat = [res["latencies_s"][p * n + i] * 1e3 for p in range(res["passes"])]
        r = rows.setdefault(o["cls"], {"n": 0, "lat": [], "fail": 0, "digits": [],
                                       "oracles": set()})
        r["n"] += 1
        r["oracles"].update(o["oracles"])
        r["lat"].append(statistics.median(lat))
        r["fail"] += (not o["ok"]) or (not res["repeat_ok"][i])
        if o["digits"] is not None and o["defect"] is None:
            r["digits"].append(o["digits"])
    lines = [f"{'class':<14} {'n':>4} {'raw med ms':>10} {'max ms':>9} {'failed':>6} "
             f"{'digits':>6}  oracles"]
    for cls, r in rows.items():
        d = f"{min(r['digits']):.2f}" if r["digits"] else "-"
        lines.append(f"{cls:<14} {r['n']:>4} {statistics.median(r['lat']):>10.3f} "
                     f"{max(r['lat']):>9.3f} {r['fail']:>6} {d:>6}  {','.join(sorted(r['oracles']))}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    for need in (os.path.join(SRC, "xapprox", "__init__.py"), workloads.REFERENCE_PATH):
        if not os.path.isfile(need):
            print(f"error: {need} not found; run from the repository root", file=sys.stderr)
            return 2

    # untimed preparation: the request list and its mpmath oracle values
    reqs = workloads.build(args.workload, args.seed)
    oracle.prepare(args.workload, reqs, args.seed)

    # set-up time is an end-to-end metric only; the traced run skips it
    setup = [run_child(["setup", args.workload], deadline - time.perf_counter())["setup_s"]
             for _ in range(0 if args.trace else SETUP_RUNS)]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv")
    res = run_child(["run", args.workload, str(args.seed), str(args.seconds),
                     str(args.trace), spans_path], deadline - time.perf_counter())

    metrics, attempted, unexpected, extra = summarize(
        res, statistics.median(setup) if setup else float("nan"))
    correct = unexpected == 0 and all(res["repeat_ok"])
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client  "
          f"{extra['requests']} requests x {extra['passes']} passes = "
          f"{extra['samples']} samples")
    print(class_table(res))
    for o in res["outcomes"]:
        if not o["ok"]:
            tag = "known defect" if o["defect"] else "FAILED"
            print(f"  {tag}: request {o['rid']} ({o['cls']}): {'; '.join(o['failures'])}")
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name:<12} {value:14.6g} {units[name]}")
    print(f"{'fail_frac':<12} {extra['fail_frac']:14.6g} 1  "
          f"({extra['known_defect_failures']} known-defect requests)")
    print(f"setup_s runs: {', '.join(f'{s:.3f}' for s in setup)}")
    print(f"as measured, before scaling to the reference speed: wall {extra['raw_wall_s']:.6g} s, "
          f"p50 {extra['raw_p50_ms']:.6g} ms, p90 {extra['raw_p90_ms']:.6g} ms; "
          f"calibration median {extra['calibration_ms']:.6g} ms (reference "
          f"{CAL_REF_S * 1e3:g} ms)")

    if args.trace:
        correct = correct and res["traced_equal"] and res["counts_repeat"]
        print(f"traced outputs bitwise equal: {res['traced_equal']}; "
              f"counts repeat: {res['counts_repeat']}; spans: {spans_path}")
        values = dict(res["counts"])
        values.update(res["self_s"])
        for layer, mb in res["peak_alloc_mb"].items():
            values[f"{layer}.peak_alloc_mb"] = mb
        values["trace.overhead_s"] = res["trace_overhead_s"]
        out = {name: {"value": float(values.get(name, 0)), "unit": unit}
               for name, unit in PER_LAYER}
        for name, m in out.items():
            print(f"{name:<36} {m['value']:14.6g} {m['unit']}")
    else:
        out = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": unexpected, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
