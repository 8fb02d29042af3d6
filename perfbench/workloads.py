"""Seeded request lists for the four benchmark workloads.

Everything here is plain data: the library is not imported, so the
run.py can build the same list as the child process (to prepare the
mpmath oracle values) without paying for the import.  The same seed
always gives the same list.

Parameters are drawn by stratified sampling: a range is cut into equal
strata (in log scale where the range is log-uniform) and
each stratum gets one uniform draw.  The count of requests in each cost
class is then fixed, which keeps the latency quantiles inside a class
and the pass time steady from seed to seed.  A few fixed anchors (the
heaviest case of a class, the frozen reference points) are the same
for every seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_PATH = os.path.join(ROOT, "tests", "data", "reference_values.json")

WORKLOADS = ("line-batch", "pointwise", "circle", "cli-session")

# the 44 certification checks registered when the benchmark was written;
# pinned so that checks added later do not change the cli-session workload
CHECK_NAMES = (
    "thm1_1_lambda0p5", "thm1_1_lambda1", "thm1_1_lambda2", "thm1_1_lambda5",
    "thm1_1_lambda0p5_delta2", "thm1_1_lambda1_delta2",
    "thm1_1_lambda2_delta2", "thm1_1_lambda5_delta2",
    "interp_exp_nodes", "sign_exp", "khat_int", "khat_nonneg",
    "khat_edge_zero", "s27_oracle_agreement",
    "duality_exp_lambda0p1", "duality_exp_lambda1", "duality_exp_lambda10",
    "catalan_series", "catalan_digits", "haar_identity_1d", "haar_l1_2d",
    "log_interpolation", "power_sigma_half",
    "thm6_1_lambda0p5_N0", "thm6_1_lambda0p5_N1", "thm6_1_lambda0p5_N3",
    "thm6_1_lambda1_N0", "thm6_1_lambda1_N1", "thm6_1_lambda1_N3",
    "thm6_1_lambda2_N0", "thm6_1_lambda2_N1", "thm6_1_lambda2_N3",
    "thm6_1_nodes", "thm6_1_sign",
    "thm1_4_N0", "thm1_4_N1", "thm1_4_N2", "thm1_4_N4", "thm1_4_N8",
    "cross_oracle_exp", "cross_oracle_haar",
    "perturbation_N0", "perturbation_N1", "perturbation_N3",
)

# Known defects kept in the mix on purpose (ROADMAP item 3 and the ones
# found while sizing the benchmark).  A request carrying one of these tags
# is run and checked like any other; when it fails, the failure counts in
# fail_frac but is not reported as an unexpected failure.
DEFECT_L1_TAIL = "l1_error_exp_quadrature tail model wrong for lam/delta < 0.2"
DEFECT_COMPLEX_OVERFLOW = "eval_K returns nan for Im z near 260"
DEFECT_HAAR_COMPLEX = "eval_K_mu Haar diverges at 1+50i"

# l1_error_exp_quadrature is only reliable above this lam/delta
L1_TAIL_RELIABLE = 0.2

# lam' = 0.01 for l1_error_exp_quadrature is left out for run length only:
# it takes ~7.8 s and is ~1e4 times off the closed form
L1_QUAD_LAM_MIN = 0.05


@dataclass
class Request:
    rid: int
    kind: str
    cls: str
    args: dict = field(default_factory=dict)
    defect: str | None = None


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# --- sampling helpers ----------------------------------------------------------

def _strata(rng, lo, hi, n, log=False):
    """One uniform draw in each of n equal strata of [lo, hi]."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    u = rng.uniform(0.0, 1.0, n)
    vals = a + (np.arange(n) + u) * (b - a) / n
    return [float(v) for v in (np.exp(vals) if log else vals)]


def _sigmas(rng, n):
    """n stratified draws of sigma in [0.05, 1.95], never exactly 1."""
    out = []
    for s in _strata(rng, 0.05, 1.95, n):
        out.append(s if abs(s - 1.0) > 1e-3 else s + 2e-3)
    return out


def _line_points(rng, P, delta, complex_im=0.0, nodes=8, frozen=(), zero=True):
    """P points x for a line request, laid out as
    [frozen..., 0.0?, extra node?, nodes, -nodes, pairs, -pairs]
    so evenness can be checked bitwise (K(-x) == K(x)) and the nodes
    (m+1/2)/delta interpolate exactly.  Returns (x, layout) where layout
    holds index lists: frozen, zero, nodes, and the mirrored halves."""
    head = list(frozen) + ([0.0] if zero else [])
    n_pair = (P - len(head) - 2 * nodes) // 2
    extra = len(head) + 2 * (nodes + n_pair) != P
    m = rng.choice(20, nodes + 1, replace=False) + 0.5
    node_x = [float(v) / delta for v in m[:nodes]]
    if extra:  # one more node pads the list to exactly P points
        head.append(float(m[nodes]) / delta)
    pair_x = [float(v) / delta for v in rng.uniform(0.02, 20.0, n_pair)]
    if complex_im:
        im = rng.uniform(-complex_im, complex_im, n_pair)
        pair_x = [complex(r, i) for r, i in zip(pair_x, im)]
    xs = head + node_x + [-v for v in node_x] + pair_x + [-v for v in pair_x]
    h = len(head)
    nf = len(frozen)
    layout = {
        "frozen": list(range(nf)),
        "zero": nf if zero else None,
        "nodes": ([h - 1] if extra else []) + list(range(h, h + 2 * nodes)),
        "mirror": [(h, h + nodes, nodes),
                   (h + 2 * nodes, h + 2 * nodes + n_pair, n_pair)],
        "pairs": list(range(h + 2 * nodes, h + 2 * nodes + n_pair)),
    }
    return xs, layout


class _Builder:
    def __init__(self):
        self.reqs = []

    def add(self, kind, cls, defect=None, **args):
        self.reqs.append(Request(len(self.reqs), kind, cls, args, defect))


# --- line-batch -----------------------------------------------------------------

def _line_batch(rng, ref):
    b = _Builder()
    # anchors: the heaviest (lam' = 0.01, 2001 points) and lightest eval_K
    for lam_p, P in ((0.01, 2001), (5.0, 2001)):
        xs, lay = _line_points(rng, P, 1.0)
        b.add("eval_K", "eval_K", lam=lam_p, delta=1.0, x=xs, layout=lay)
    # log-uniform lam' in [0.01, 5] on 257 points, real and complex alternating
    for k, lam_p in enumerate(_strata(rng, 0.01, 5.0, 16, log=True)):
        delta = float(rng.choice([0.5, 1.0, 2.0]))
        xs, lay = _line_points(rng, 257, delta, complex_im=4.0 if k % 2 else 0.0)
        b.add("eval_K", "eval_K", lam=lam_p * delta, delta=delta, x=xs, layout=lay)
    # 2001 points where the dense matrix stays small
    for lam_p in _strata(rng, 0.3, 5.0, 6, log=True):
        delta = float(rng.choice([0.5, 1.0, 2.0]))
        xs, lay = _line_points(rng, 2001, delta)
        b.add("eval_K", "eval_K", lam=lam_p * delta, delta=delta, x=xs, layout=lay)
    # frozen mpmath reference points, one request per (lam, delta)
    groups = {}
    for row in ref["kernel_samples"]:
        groups.setdefault((float(row["lam"]), float(row["delta"])), []).append(
            (float(row["x"]), float(row["value"])))
    for (lam, delta), rows in sorted(groups.items()):
        xs, lay = _line_points(rng, 257, delta, frozen=[x for x, _ in rows])
        b.add("eval_K", "eval_K", lam=lam, delta=delta, x=xs, layout=lay,
              frozen=[v for _, v in rows])
    for row in ref["kernel_complex_samples"]:
        z = complex(row["re"], row["im"])
        xs, lay = _line_points(rng, 257, 1.0, complex_im=4.0, frozen=[z])
        b.add("eval_K", "eval_K", lam=float(row["lam"]), delta=1.0, x=xs, layout=lay,
              frozen=[complex(row["value_re"], row["value_im"])])

    # eval_K_mu: Haar (log form) and power (sigma in [0.05, 1.95])
    sig = _sigmas(rng, 24)
    for k in range(48):
        spec = "haar" if k % 2 == 0 else sig[k // 2]
        delta = float(rng.choice([0.5, 1.0, 2.0]))
        xs, lay = _line_points(rng, 257, delta, zero=False)
        b.add("eval_K_mu", "eval_K_mu", spec=spec, delta=delta, x=xs, layout=lay)
    sig = _sigmas(rng, 4)
    for k in range(8):
        spec = "haar" if k % 2 == 0 else sig[k // 2]
        delta = float(rng.choice([0.5, 1.0, 2.0]))
        xs, lay = _line_points(rng, 2001, delta, zero=False)
        b.add("eval_K_mu", "eval_K_mu", spec=spec, delta=delta, x=xs, layout=lay)
    rows = ref["log_approx_samples"]
    xs, lay = _line_points(rng, 257, 1.0, zero=False, frozen=[float(r["x"]) for r in rows])
    b.add("eval_K_mu", "eval_K_mu", spec="haar", delta=1.0, x=xs, layout=lay,
          frozen=[float(r["value"]) for r in rows])
    for s in sorted({float(r["sigma"]) for r in ref["power_approx_samples"]}):
        rows = [r for r in ref["power_approx_samples"] if float(r["sigma"]) == s]
        xs, lay = _line_points(rng, 257, 1.0, zero=False,
                               frozen=[float(r["x"]) for r in rows])
        b.add("eval_K_mu", "eval_K_mu", spec=s, delta=1.0, x=xs, layout=lay,
              frozen=[float(r["value"]) for r in rows])

    # L1 errors by quadrature, checked against the closed forms.  Below
    # L1_TAIL_RELIABLE the routine is a known defect and its cost grows
    # like 1/lam, so that part of [L1_QUAD_LAM_MIN, 5] enters as fixed
    # probes (below) rather than seeded draws that would swing the pass time.
    for lam in _strata(rng, L1_TAIL_RELIABLE, 5.0, 10, log=True):
        b.add("l1_exp_quad", "l1_exp_quad", lam=lam, delta=1.0)
    b.add("l1_mu_quad", "l1_mu_quad", spec="haar")
    for s in _sigmas(rng, 6):
        b.add("l1_mu_quad", "l1_mu_quad", spec=s)

    # known-defect probes, the same for every seed
    for lam in (L1_QUAD_LAM_MIN, 0.1):
        b.add("l1_exp_quad", "probe", lam=lam, delta=1.0, defect=DEFECT_L1_TAIL)
    b.add("eval_K", "probe", lam=1.0, delta=1.0, x=[complex(1.0, 260.0), complex(0.3, 260.5)],
          layout=None, defect=DEFECT_COMPLEX_OVERFLOW)
    b.add("eval_K_mu", "probe", spec="haar", delta=1.0, x=[complex(1.0, 50.0)],
          layout=None, defect=DEFECT_HAAR_COMPLEX)
    return b.reqs


# --- pointwise ------------------------------------------------------------------

def _pointwise(rng, ref):
    b = _Builder()
    # scalar eval_K: log-uniform lam', real and complex, every fifth at a node
    for k, lam_p in enumerate(_strata(rng, 0.01, 5.0, 100, log=True)):
        delta = float(rng.choice([0.5, 1.0, 2.0]))
        if k % 5 == 0:
            z = (float(rng.integers(0, 20)) + 0.5) / delta * float(rng.choice([-1.0, 1.0]))
        elif k % 2:
            z = complex(rng.uniform(-20.0, 20.0) / delta, rng.uniform(-4.0, 4.0))
        else:
            z = float(rng.uniform(-20.0, 20.0)) / delta
        b.add("eval_K_1", "eval_K_1", lam=lam_p * delta, delta=delta, z=z)
    for row in ref["kernel_samples"]:
        b.add("eval_K_1", "eval_K_1", lam=float(row["lam"]), delta=float(row["delta"]),
              z=float(row["x"]), frozen=float(row["value"]))
    for row in ref["kernel_complex_samples"]:
        b.add("eval_K_1", "eval_K_1", lam=float(row["lam"]), delta=1.0,
              z=complex(row["re"], row["im"]),
              frozen=complex(row["value_re"], row["value_im"]))
    for row in ref["kernel_at_zero"]:
        b.add("eval_K_1", "eval_K_1", lam=float(row["lam"]), delta=1.0, z=0.0,
              frozen=float(row["value"]))

    # scalar eval_K_mu: real (every fifth at a node) and complex with |Im z| <= 1
    sig = _sigmas(rng, 60)
    for k in range(120):
        spec = "haar" if k % 2 == 0 else sig[k // 2]
        delta = float(rng.choice([0.5, 1.0, 2.0]))
        if k % 6 == 5:
            z = complex(rng.uniform(-20.0, 20.0) / delta, rng.uniform(-1.0, 1.0))
            cls = "eval_K_mu_1c"
        elif k % 5 == 0:
            z = (float(rng.integers(0, 20)) + 0.5) / delta
            cls = "eval_K_mu_1"
        else:
            z = float(rng.uniform(0.02, 20.0)) / delta * float(rng.choice([-1.0, 1.0]))
            cls = "eval_K_mu_1"
        b.add("eval_K_mu_1", cls, spec=spec, delta=delta, z=z)
    for row in ref["log_approx_samples"]:
        b.add("eval_K_mu_1", "eval_K_mu_1", spec="haar", delta=1.0, z=float(row["x"]),
              frozen=float(row["value"]))
    for row in ref["power_approx_samples"]:
        b.add("eval_K_mu_1", "eval_K_mu_1", spec=float(row["sigma"]), delta=1.0,
              z=float(row["x"]), frozen=float(row["value"]))

    # periodic power target, one point per call
    # sigma and the distance of x from the integers (which sets the
    # quadrature's tail cut) both move the cost: a Latin hypercube keeps
    # the cost distribution of the class the same from seed to seed
    xs = _strata(rng, 0.02, 0.98, 60)
    for s, i in zip(_sigmas(rng, 60), rng.permutation(60)):
        b.add("q_mu", "q_mu", sigma=s, x=xs[i])
    for row in ref["periodized_power_samples"]:
        b.add("q_mu", "q_mu", sigma=float(row["sigma"]), x=float(row["x"]),
              frozen=float(row["value"]))

    # QUADPACK-driven oracles: the error integral on the frozen grid plus
    # seeded points, and error_mu_pointwise (Haar seeded; power at fixed
    # anchors, whose cost swings by 2x with sigma and x)
    g = ref["exp_error_grid"]
    for i, lam in enumerate(g["lams"]):
        for j, x in enumerate(g["xs"]):
            b.add("err_oracle", "err_oracle", lam=float(lam), x=float(x),
                  frozen=float(g["values"][i][j]))
    for lam in _strata(rng, 0.05, 5.0, 5, log=True):
        b.add("err_oracle", "err_oracle", lam=lam, x=float(rng.uniform(0.05, 8.0)))
    for x in _strata(rng, 0.1, 10.0, 3, log=True):
        b.add("err_mu_pw", "err_mu_pw", spec="haar", delta=1.0, x=x)
    for s, x in ((0.5, 0.7), (1.5, 2.2)):
        b.add("err_mu_pw", "err_mu_pw", spec=s, delta=1.0, x=x)
    return b.reqs


# --- circle ------------------------------------------------------------------------

def _circle(rng, ref):
    b = _Builder()
    # power at N = 64 is a fixed anchor: it is the heaviest request, and
    # its cost moves by 20% with sigma
    s_lo, s_hi = _strata(rng, 0.05, 0.95, 1)[0], _strata(rng, 1.05, 1.95, 1)[0]
    b.add("build_k_mu", "build_k_mu", spec="haar", N=16)
    b.add("build_k_mu", "build_k_mu", spec="haar", N=64)
    b.add("build_k_mu", "build_k_mu", spec=s_lo, N=16)
    b.add("build_k_mu", "build_k_mu", spec=s_hi, N=16)
    b.add("build_k_mu", "build_k_mu", spec=0.5, N=64)
    for N, vals in sorted(ref["periodic_coeffs_haar"].items()):
        b.add("build_k_mu", "build_k_mu_ref", spec="haar", N=int(N),
              frozen=[float(v) for v in vals])
    c = ref["periodic_coeffs_power"]
    b.add("build_k_mu", "build_k_mu_ref", spec=float(c["sigma"]), N=int(c["N"]),
          frozen=[float(v) for v in c["coeffs"]])

    # build_k + TrigPoly.eval on 2001 points: N = 1000 anchors and seeded N
    def trig(N, lam):
        L = 2 * N + 2
        k = rng.choice(L, 16, replace=False)
        nodes = [(float(v) + 0.5) / L for v in k]
        w = [float(v) for v in rng.uniform(0.0, 0.5, (2001 - 1 - 32) // 2)]
        xs = [0.0] + nodes + [-v for v in nodes] + w + [-v for v in w]
        b.add("trig_eval", "trig_eval", lam=lam, N=N, x=xs, n_node=16, n_pair=len(w))

    for lam in _strata(rng, 0.1, 10.0, 14, log=True):
        trig(1000, lam)
    for N in _strata(rng, 16, 600, 6, log=True):
        trig(int(N), float(rng.uniform(0.1, 10.0)))

    # req_p50_ms sits in the exp interpolation class; its cost grows with
    # N, so N is fixed and the class costs the same for every seed.  The
    # cheaper classes below it hold as many requests as the classes above.
    for lam in _strata(rng, 0.1, 10.0, 40, log=True):
        b.add("interp", "interp", target=lam, N=32)
    for N in _strata(rng, 1, 16, 8):
        b.add("interp", "interp_haar", target="haar", N=int(N))
    for N in _strata(rng, 0, 16, 32):
        b.add("pl1q", "pl1q", lam=float(rng.uniform(0.1, 10.0)), N=int(N))
    for N in _strata(rng, 1, 12, 3):
        b.add("log_circle", "log_circle", N=int(N))
    return b.reqs


# --- cli-session ------------------------------------------------------------------

def _g(v):
    return format(v, ".6g")


def _cli_session(rng, ref):
    b = _Builder()
    for name in CHECK_NAMES:
        b.add("cli", "verify", argv=["verify", "--only", name, "--format", "json"])
    # quick lookups, the bulk of an interactive session: three points of the
    # log or power approximant, the first at a node (m + 1/2)
    sig = _sigmas(rng, 30)
    for k in range(60):
        argv = (["eval", "--measure", "haar"] if k % 2 == 0
                else ["eval", "--measure", "power", "--sigma", _g(sig[k // 2])])
        xs = [float(rng.integers(0, 12)) + 0.5] + [float(v) for v in rng.uniform(0.05, 12.0, 2)]
        for x in xs:
            argv += ["--x", repr(x)]
        b.add("cli", "eval-point", argv=argv)
    for lam_p in _strata(rng, L1_TAIL_RELIABLE, 5.0, 5, log=True):
        delta = float(rng.choice([1.0, 2.0]))
        b.add("cli", "error-table", argv=["error-table", "--kernel", "exp", "--lambda",
                                          _g(lam_p * delta), "--delta", _g(delta), "--verify"],
              tol=1e-8)
    lam0 = float(rng.uniform(0.2, 2.0))
    b.add("cli", "error-table", argv=["error-table", "--kernel", "exp", "--periodic",
                                      "--degree", str(int(rng.integers(1, 9))),
                                      "--lambda", f"{_g(lam0)}:{_g(lam0 + 4)}:1",
                                      "--verify"], tol=1e-9)
    b.add("cli", "error-table", argv=["error-table", "--measure", "haar", "--degree", "0:8",
                                      "--verify"], tol=1e-7)
    b.add("cli", "error-table", argv=["error-table", "--measure", "power", "--sigma",
                                      _g(_sigmas(rng, 1)[0]), "--verify"], tol=1e-4)
    b.add("cli", "coeffs", argv=["coeffs", "--measure", "haar", "--degree", "3"],
          frozen=[float(v) for v in ref["periodic_coeffs_haar"]["3"]])
    b.add("cli", "coeffs", argv=["coeffs", "--measure", "power", "--sigma",
                                 _g(_sigmas(rng, 1)[0]), "--degree", "8"])
    rows = ref["kernel_samples"][:2]
    argv = ["eval", "--kernel", "exp", "--lambda", "1"]
    for r in rows:
        argv += ["--x", repr(float(r["x"]))]
    b.add("cli", "eval", argv=argv, frozen=[float(r["value"]) for r in rows])
    rows = ref["log_approx_samples"][1:]
    argv = ["eval", "--measure", "haar"]
    for r in rows:
        argv += ["--x", repr(float(r["x"]))]
    b.add("cli", "eval", argv=argv, frozen=[float(r["value"]) for r in rows])
    a = float(rng.uniform(5.0, 15.0))
    b.add("cli", "eval", argv=["eval", "--kernel", "exp", "--lambda",
                               _g(float(rng.uniform(0.3, 3.0))),
                               "--x-range", f"-{_g(a)}:{_g(a)}:0.25"])
    b.add("cli", "plot-data", argv=["plot-data", "--kernel", "exp", "--lambda",
                                    _g(float(rng.uniform(0.3, 3.0))),
                                    "--x-range", f"-{_g(a)}:{_g(a)}", "--samples", "601"])
    # the heaviest run, a fixed anchor: its cost moves with sigma and degree
    b.add("cli", "plot-data", argv=["plot-data", "--periodic", "--measure", "power",
                                    "--sigma", "0.5", "--degree", "8", "--samples", "601"])
    return b.reqs


_BUILDERS = {
    "line-batch": _line_batch,
    "pointwise": _pointwise,
    "circle": _circle,
    "cli-session": _cli_session,
}


def build(workload, seed, ref=None):
    """The fixed request list of a workload for a seed."""
    if workload not in _BUILDERS:
        raise KeyError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    reqs = _BUILDERS[workload](rng, ref if ref is not None else load_reference())
    # Shuffled so that the requests of each class are spread over the whole
    # pass: a class's latencies then sample the machine's speed across the
    # run instead of in one burst, which keeps the quantiles steady.
    order = rng.permutation(len(reqs))
    return [Request(i, reqs[j].kind, reqs[j].cls, reqs[j].args, reqs[j].defect)
            for i, j in enumerate(order)]
