"""One fresh process per measurement; started by run.py.

    child.py setup WORKLOAD
        import xapprox and run the workload's warm-up request; prints
        {"setup_s": ...}.
    child.py run WORKLOAD SEED SECONDS TRACE SPANS_PATH
        run the workload's request list in a closed loop (one client,
        each request waits for the previous one) for SECONDS, check
        every output, print one JSON object.

With TRACE 0 the passes are untraced.  With TRACE 1 untraced and traced
passes alternate, then one more traced pass runs under tracemalloc for
the per-layer allocation peaks; the spans of the first traced pass are
written to SPANS_PATH.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import warnings

import numpy as np

import calls
import oracle
import workloads

MIN_PASSES = 2


def _warmup(X, workload):
    """The one warm-up request that setup_s includes."""
    if workload == "line-batch":
        X.l1_error_mu_quadrature(X.HaarLog())
    elif workload == "pointwise":
        X.error_exp_integral_oracle(1.0, 1.3)
    elif workload == "circle":
        X.build_k_mu(X.HaarLog(), 4)
    else:
        import xapprox.cli  # noqa: F401

        calls.run_cli(X, ["eval", "--kernel", "exp", "--lambda", "1", "--x", "0.3"])


def setup(workload):
    t0 = time.perf_counter()
    import xapprox as X

    _warmup(X, workload)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


_CAL_X = np.linspace(0.0, 1.0, 8192)
_CAL_SRC = np.ones(1 << 17)
_CAL_DST = np.empty(1 << 17)
_CAL_SMALL = np.ones(8)


def calibrate():
    """Fixed work that touches no library code, in about equal shares:
    a vectorized sine, a 1 MB copy, calls on tiny arrays (per-call
    overhead) and an interpreter loop; ~0.3 ms in all.  Its time, taken
    right before every request, tracks how fast this CPU and its memory
    run at that moment."""
    t0 = time.perf_counter()
    a = np.sin(3.0 * _CAL_X)
    np.copyto(_CAL_DST, _CAL_SRC)
    c = _CAL_SMALL
    for _ in range(20):
        c = np.add(c, 1.0)
    s = 0
    for i in range(2000):
        s += i * i
    float(a.sum() + _CAL_DST[-1] + c[0] + s)
    return time.perf_counter() - t0


class Runner:
    """One workload's request list, bound to the library, run pass by pass."""

    def __init__(self, X, workload, seed):
        self.X = X
        self.reqs = workloads.build(workload, seed)
        self.calls = [calls.bind(X, r) for r in self.reqs]
        cache = oracle.load_cache()
        sub = oracle.subsample(workload, self.reqs, seed)
        missing = [k for _, _, k, _ in sub if k not in cache]
        if missing:
            raise SystemExit(f"oracle values missing from {oracle.CACHE_PATH}: {missing[:3]}")
        self.cache = cache
        self.picks = calls.oracle_picks(sub)
        self.tracer = None

    def warm(self):
        """Finish lazy set-up: one request of each kind, smallest first."""
        seen = set()
        for r, call in sorted(zip(self.reqs, self.calls),
                              key=lambda rc: np.size(rc[0].args.get("x", ()))):
            if r.kind not in seen and r.defect is None and r.cls != "build_k_mu":
                seen.add(r.kind)
                call()

    def one_pass(self, keep_outputs=False):
        lat, cal, fps, outs = [], [], [], []
        tracer = self.tracer
        for r, call in zip(self.reqs, self.calls):
            if tracer is not None:
                tracer.request = r.rid
            cal.append(calibrate())
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failed request is graded, not fatal
                out = exc
            lat.append(time.perf_counter() - t0)
            fps.append(calls.fingerprint(r, out))
            if keep_outputs:
                outs.append(out)
        return lat, cal, fps, outs

    def grade(self, outs):
        return [calls.check(self.X, r, out, self.cache, self.picks)
                for r, out in zip(self.reqs, outs)]


def run(workload, seed, seconds, trace, spans_path):
    import xapprox as X
    import xapprox.cli  # noqa: F401

    warnings.simplefilter("ignore")
    runner = Runner(X, workload, seed)
    _warmup(X, workload)
    runner.warm()

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer

    untraced, traced = [], []   # (wall, latencies, calibrations, fingerprints) per pass
    layer_runs = []
    first_spans = None
    outputs = None
    t_start = time.perf_counter()
    while True:
        lat, cal, fps, outs = runner.one_pass(keep_outputs=outputs is None)
        if outputs is None:
            outputs = outs
        untraced.append((sum(lat), lat, cal, fps))
        if trace:
            tracer.reset()
            tracer.active = True
            lat, cal, fps, _ = runner.one_pass()
            tracer.active = False
            traced.append((sum(lat), lat, cal, fps))
            layer_runs.append((dict(tracer.counts), tracer.self_times()))
            if first_spans is None:
                first_spans = tracer.spans
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and (trace or len(untraced) >= MIN_PASSES):
            break

    result = {
        "requests": len(runner.reqs),
        "passes": len(untraced),
        "pass_s": [p[0] for p in untraced],
        "latencies_s": [x for p in untraced for x in p[1]],
        "calibration_s": [x for p in untraced for x in p[2]],
    }
    ref_fps = untraced[0][3]
    result["repeat_ok"] = [all(p[3][i] == ref_fps[i] for p in untraced)
                           for i in range(len(runner.reqs))]

    if trace:
        import tracemalloc

        tracer.reset()
        tracer.memory = True
        tracemalloc.start()
        tracer.active = True
        mem_fps = runner.one_pass()[2]
        tracer.active = False
        tracemalloc.stop()
        mem_counts = dict(tracer.counts)
        peak = dict(tracer.peak_alloc)
        tracer.uninstall()
        counts0 = layer_runs[0][0]
        result["traced_equal"] = all(p[3] == ref_fps for p in traced) and mem_fps == ref_fps
        result["counts_repeat"] = (all(c == counts0 for c, _ in layer_runs)
                                   and mem_counts == counts0)
        selfs = {}
        for key in set().union(*(s.keys() for _, s in layer_runs)):
            selfs[key] = statistics.median(s.get(key, 0.0) for _, s in layer_runs)
        result["counts"] = counts0
        result["self_s"] = selfs
        result["peak_alloc_mb"] = {k: v / 2**20 for k, v in peak.items()}
        result["trace_overhead_s"] = (statistics.median(p[0] for p in traced)
                                      - statistics.median(p[0] for p in untraced))
        with open(spans_path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for name, _, t0, t1, parent, rid, _ in first_spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{rid}\n")

    outcomes = runner.grade(outputs)
    result["outcomes"] = [
        {"rid": r.rid, "cls": r.cls, "defect": r.defect, "ok": o.ok,
         "digits": min(o.digits) if o.digits else None,
         "oracles": sorted(o.oracles), "failures": o.failures[:3]}
        for r, o in zip(runner.reqs, outcomes)]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


def main(argv):
    if argv[0] == "setup":
        setup(argv[1])
    elif argv[0] == "run":
        run(argv[1], int(argv[2]), float(argv[3]), int(argv[4]), argv[5])
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
