"""Tests of the benchmark itself: its checker, its seeding and its tracer.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import os
import sys
import warnings

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import xapprox as X  # noqa: E402
import xapprox.cli  # noqa: E402,F401

import calls  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _result(outcomes, passes=1):
    """The child's result record for graded outcomes, as run.summarize reads it."""
    return {
        "requests": len(outcomes), "passes": passes,
        "pass_s": [1.0] * passes, "latencies_s": [0.001] * (len(outcomes) * passes),
        "calibration_s": [1e-4] * (len(outcomes) * passes),
        "peak_rss_mb": 100.0, "repeat_ok": [True] * len(outcomes),
        "outcomes": [{"rid": i, "cls": "c", "defect": None, "ok": o.ok,
                      "digits": min(o.digits) if o.digits else None,
                      "oracles": sorted(o.oracles)}
                     for i, o in enumerate(outcomes)],
    }


def test_perturbed_output_fails_and_lowers_digits():
    reqs = workloads.build("line-batch", 3)
    req = next(r for r in reqs if r.kind == "eval_K" and "frozen" in r.args)
    out = calls.bind(X, req)()
    good = calls.check(X, req, out, {}, {})
    assert good.ok, good.failures

    bad_out = out.copy()
    i = req.args["layout"]["frozen"][0]
    bad_out[i] *= 1.0 + 1e-6  # injected here, in the checker's input only
    bad = calls.check(X, req, bad_out, {}, {})
    assert not bad.ok
    assert any(f.startswith("frozen") for f in bad.failures)

    m_good, _, failed_good, _ = run.summarize(_result([good]), 0.5)
    m_bad, attempted, failed_bad, _ = run.summarize(_result([bad]), 0.5)
    assert failed_good == 0 and failed_bad == attempted == 1
    assert m_good["digits_min"] > 13.0
    assert m_bad["digits_min"] < 6.5


def test_broken_evenness_and_cross_route_fail():
    reqs = workloads.build("line-batch", 3)
    req = next(r for r in reqs if r.kind == "eval_K" and r.defect is None)
    out = calls.bind(X, req)()
    a, b, n = req.args["layout"]["mirror"][1]
    out[b] = np.nextafter(out[b], np.inf)
    assert not calls.check(X, req, out, {}, {}).ok

    quad = next(r for r in reqs if r.kind == "l1_exp_quad" and r.defect is None)
    closed = X.l1_error_exp(quad.args["lam"], quad.args["delta"])
    assert calls.check(X, quad, closed, {}, {}).ok
    assert not calls.check(X, quad, closed + 1e-6, {}, {}).ok


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    def dump(reqs):
        return repr([(r.rid, r.kind, r.cls, r.args, r.defect) for r in reqs])

    a = workloads.build(workload, 7)
    b = workloads.build(workload, 7)
    c = workloads.build(workload, 8)
    assert dump(a) == dump(b)
    assert dump(a) != dump(c)
    assert oracle.subsample(workload, a, 7) == oracle.subsample(workload, b, 7)


def test_known_defects_are_tagged_and_fail():
    reqs = workloads.build("line-batch", 1)
    probes = [r for r in reqs if r.cls == "probe"]
    assert probes and all(r.defect for r in probes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in probes:
            if r.kind == "eval_K_mu":
                continue  # the Haar 1+50i probe takes ~0.4 s to give up
            try:
                out = calls.bind(X, r)()
            except Exception as exc:
                out = exc
            assert not calls.check(X, r, out, {}, {}).ok


def _cheap(workload, n):
    """A few cheap requests of a workload, for in-process tracer tests."""
    heavy = {"probe", "err_mu_pw", "build_k_mu", "trig_eval", "plot-data", "l1_exp_quad",
             "error-table", "coeffs"}
    reqs = [r for r in workloads.build(workload, 2) if r.cls not in heavy
            and np.size(r.args.get("x", ())) <= 257]
    return reqs[:: max(1, len(reqs) // n)][:n]


def _traced_pass(tracer, reqs, bound):
    tracer.reset()
    tracer.active = True
    outs = [calls.fingerprint(r, call()) for r, call in zip(reqs, bound)]
    tracer.active = False
    return outs, dict(tracer.counts)


def test_traced_counts_repeat_and_outputs_match():
    reqs = (_cheap("line-batch", 6) + _cheap("pointwise", 12) + _cheap("circle", 6)
            + [r for r in workloads.build("cli-session", 2) if r.cls == "verify"
               and r.args["argv"][2] in ("catalan_digits", "thm6_1_nodes")])
    bound = [calls.bind(X, r) for r in reqs]
    untraced = [calls.fingerprint(r, call()) for r, call in zip(reqs, bound)]
    tracer = Tracer()
    tracer.install()
    try:
        out1, counts1 = _traced_pass(tracer, reqs, bound)
        out2, counts2 = _traced_pass(tracer, reqs, bound)
    finally:
        tracer.uninstall()
    assert out1 == untraced and out2 == untraced
    assert counts1 == counts2
    for key in ("stable.elements", "expkernel.eval_K.points", "entire.eval_K_mu.points",
                "quadrature.quadpack_calls", "quadrature.quadpack_evals", "certify.checks",
                "cli.calls", "periodic.calls"):
        assert counts1.get(key, 0) > 0, key
    # after uninstall the library's own functions are back in place
    assert X.eval_K.__module__ == "xapprox.expkernel" and not hasattr(X.eval_K, "__wrapped__")


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        X.l1_error_exp_quadrature(1.0)
        tracer.active = False
    finally:
        tracer.uninstall()
    top = next(s for s in tracer.spans if s[0] == "expkernel.l1_error_exp_quadrature")
    selfs = tracer.self_times()
    total = top[3] - top[2]
    assert 0.0 < selfs["expkernel.l1_error_exp_quadrature.self_s"] < total
    assert abs(sum(v for k, v in selfs.items() if k.count(".") == 1 and k.endswith("self_s"))
               - total) < 1e-3
