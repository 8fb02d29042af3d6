"""Outside-in tracing of the library's layers, from the benchmark's files.

Every public function of each layer module is replaced by a wrapper in
every xapprox module that binds it (``from .expkernel import eval_K``
makes a second binding in the importing module), plus ``TrigPoly.eval``.
``scipy.integrate.quad`` is wrapped where the library binds it; its
wrapper counts calls and wraps the integrand to count evaluations, and
passes every argument through unchanged, so traced outputs are bitwise
equal to untraced ones.

A span is (name, start, end, parent, request id), kept in memory.  A
layer's self time is the sum over its spans of the span's duration minus
the durations of its direct children.  With ``memory=True`` each span
also tracks the tracemalloc peak reached while it was open, relative to
the traced size when it opened.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np

LAYERS = {
    "stable": "xapprox._stable",
    "series": "xapprox.series",
    "quadrature": "xapprox.quadrature",
    "measures": "xapprox.measures",
    "expkernel": "xapprox.expkernel",
    "entire": "xapprox.entire",
    "periodic": "xapprox.periodic",
    "certify": "xapprox.certify",
    "cli": "xapprox.cli",
}


class Tracer:
    """Wraps the library's layers on ``install`` and restores them on
    ``uninstall``; records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.memory = False
        self.request = None
        self.reset()
        self._patched = []

    def reset(self):
        self.spans = []      # [name, layer, start, end, parent, request, child_time]
        self.stack = []
        self.counts = Counter()
        self.mem_base = []   # per open span: traced size at entry
        self.mem_peak = []   # per open span: highest traced size seen
        self.peak_alloc = Counter()

    # --- span bookkeeping ---------------------------------------------------------

    def _mem_event(self):
        _, peak = tracemalloc.get_traced_memory()
        for i in range(len(self.mem_peak)):
            if peak > self.mem_peak[i]:
                self.mem_peak[i] = peak
        tracemalloc.reset_peak()

    def enter(self, layer, name):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, layer, 0.0, 0.0, parent, self.request, 0.0])
        self.stack.append(idx)
        self.counts[f"{layer}.calls"] += 1
        self.counts[f"{name}.calls"] += 1
        if self.memory:
            self._mem_event()
            cur, _ = tracemalloc.get_traced_memory()
            self.mem_base.append(cur)
            self.mem_peak.append(cur)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def exit(self, idx, raised):
        t = time.perf_counter()
        span = self.spans[idx]
        span[3] = t
        self.stack.pop()
        if span[4] >= 0:
            self.spans[span[4]][6] += t - span[2]
        layer = span[1]
        if raised and (span[4] < 0 or self.spans[span[4]][1] != layer):
            self.counts[f"{layer}.raised"] += 1
        if self.memory:
            self._mem_event()
            alloc = self.mem_peak.pop() - self.mem_base.pop()
            if alloc > self.peak_alloc[layer]:
                self.peak_alloc[layer] = alloc

    def self_times(self):
        """{layer or function name: summed self time in seconds}."""
        out = Counter()
        for name, layer, t0, t1, _, _, child in self.spans:
            own = (t1 - t0) - child
            out[f"{layer}.self_s"] += own
            out[f"{name}.self_s"] += own
        return out

    # --- wrappers ---------------------------------------------------------------------

    def _wrap(self, layer, qualname, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.enter(layer, qualname)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(idx, True)
                raise
            if work is not None:
                work(tracer.counts, args, kwargs, out)
            tracer.exit(idx, False)
            return out

        return wrapper

    def _wrap_quad(self, quad):
        tracer = self

        @functools.wraps(quad)
        def wrapper(func, *args, **kwargs):
            if not tracer.active:
                return quad(func, *args, **kwargs)
            counts = tracer.counts
            counts["quadrature.quadpack_calls"] += 1

            def counted(*a):
                counts["quadrature.quadpack_evals"] += 1
                return func(*a)

            return quad(counted, *args, **kwargs)

        return wrapper

    def _set(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import scipy.integrate

        import xapprox
        import xapprox.cli  # noqa: F401  (the cli layer is not imported by the package)

        def count(name, amount):
            def work(c, args, kwargs, out):
                c[name] += amount(args, kwargs, out)
            return work

        work = {
            "stable": count("stable.elements", lambda a, k, o: np.size(a[0])),
            "expkernel.eval_K": count("expkernel.eval_K.points", lambda a, k, o: np.size(a[1])),
            "entire.eval_K_mu": count("entire.eval_K_mu.points", lambda a, k, o: np.size(a[1])),
            "quadrature.panel_nodes": count("quadrature.panel_points",
                                            lambda a, k, o: o[0].size),
            "quadrature.gauss_panel": count(
                "quadrature.panel_points",
                lambda a, k, o: a[3] if len(a) > 3 else k.get("order", 32)),
            "certify.run_cert_suite": count("certify.checks", lambda a, k, o: len(o)),
            "periodic.trigpoly_eval": count(
                "periodic.trigpoly_eval.point_terms",
                lambda a, k, o: np.size(a[1]) * a[0].degree),
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "xapprox" or n.startswith("xapprox.")) and m is not None]
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                qual = f"{layer}.{name}"
                wrapper = self._wrap(layer, qual, fn, work.get(qual, work.get(layer)))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._set(m, attr, wrapper)

        trig = sys.modules["xapprox.periodic"].TrigPoly
        self._set(trig, "eval", self._wrap("periodic", "periodic.trigpoly_eval", trig.eval,
                                           work["periodic.trigpoly_eval"]))
        quad = scipy.integrate.quad
        wrapped = self._wrap_quad(quad)
        self._set(scipy.integrate, "quad", wrapped)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is quad:
                    self._set(m, attr, wrapped)

    def uninstall(self):
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched = []
