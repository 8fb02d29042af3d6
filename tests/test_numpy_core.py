"""The numpy-only core: the library, the certification suite, the CLI and
the demos run with scipy refused, the numpy primitives that replaced
scipy's (zeta, exprel, the DCT-II) hold their accuracy, and the BLAS thread
count moves no bit."""

import csv
import io
import math
import pathlib
import warnings

import mpmath
import numpy as np
import pytest

from xapprox import PowerSigma, eval_q_mu, measure_to_json
from xapprox.certify import _ZETA_REFERENCE
from xapprox.measures import _exprel, _power_series, _zeta
from xapprox.periodic import _cospi_sum, _dct2
from xapprox.quadrature import _gauss_jacobi

# Every exact route, the fixed-rule oracles (error_exp_integral_oracle and
# error_mu_pointwise), then the CLI, --verify in both periodic error-table
# modes; the line modes and `verify` run in the tests below
_SCRIPT = r"""
import contextlib, io, json
import numpy as np
import xapprox as X
import xapprox.cli
from xapprox.periodic import _circle_l1_mu

xs = np.linspace(-3.0, 3.0, 41)
X.eval_K(X.ExpKernel(1.0), xs); X.eval_K(X.ExpKernel(0.05, 2.0), 0.3)
X.eval_K(X.ExpKernel(1.0), 0.5 + 0.25j)
X.k_value_at_zero(1.0); X.K_hat(X.ExpKernel(1.0), np.linspace(-0.5, 0.5, 9))
X.error_exp(X.ExpKernel(1.0), xs)
specs = (X.HaarLog(), X.PowerSigma(0.5), X.PowerSigma(1.5),
         X.PointMasses(((1.0, 1.0), (3.0, 0.5))))
for spec in specs:
    for form in {X.TargetForm.RAW, spec.form}:
        X.eval_K_mu(X.EntireApproximant(spec, 1.0, form), xs + 0.1)
    X.l1_error_mu(spec); X.l1_error_mu_raw(spec, 2.0)
    X.eval_q_mu(spec, np.linspace(0.01, 0.99, 13)); X.eval_q_mu(spec, 0.3)
    for N in (0, 1, 8, 64):
        poly = X.build_k_mu(spec, N)
        poly.eval(0.2); poly.eval(xs)
        X.periodic_l1_error_mu(spec, N); _circle_l1_mu(spec, poly)
for N in (0, 3, 64):
    X.build_k(1.0, N).eval(xs); X.periodic_l1_error(1.0, N)
    X.periodic_l1_quadrature(1.0, N)
    X.l1_vs_log_circle(-X.build_k_mu(X.HaarLog(), N))
    X.interpolation_oracle(X.ExpPeriodized(1.0), N)
X.l1_error_exp(1.0); X.l1_error_mu_raw(X.PowerSigma(0.5)); X.PowerSigma(0.5).form_scale
X.f_mu(X.PowerSigma(0.5), xs)
X.error_exp_integral_oracle(1.0, 0.3); X.error_exp_integral_oracle(0.05, 40.0)
for spec in specs:
    X.error_mu_pointwise(X.EntireApproximant(spec, 1.0, spec.form), 0.7)
    X.error_mu_pointwise(X.EntireApproximant(spec, 2.0), -2.2)
X.error_mu_pointwise(X.EntireApproximant(X.PowerSigma(1.5)), 0.0)

power = json.dumps({"kind": "power", "sigma": 0.5})
for argv in (["eval", "--kernel", "exp", "--lambda", "1", "--x", "0.3"],
             ["eval", "--measure", "haar", "--x-range", "0.5:2.5:0.5"],
             ["coeffs", "--periodic", "--measure", power, "--degree", "4"],
             ["plot-data", "--periodic", "--measure", "power", "--sigma", "0.5",
              "--degree", "4", "--samples", "13"],
             ["error-table", "--kernel", "exp", "--lambda", "0.5:2:0.5"],
             ["error-table", "--periodic", "--measure", "power", "--sigma", "1.5",
              "--degree", "0:4"],
             ["error-table", "--periodic", "--kernel", "exp", "--lambda", "0.5:2:0.5",
              "--degree", "3", "--verify"],
             ["error-table", "--periodic", "--measure", "haar", "--degree", "0:4",
              "--verify"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert xapprox.cli.main(argv) == 0, argv
"""


def test_exact_routes_load_no_scipy(fresh_python):
    fresh_python("-c", _SCRIPT, no_scipy=True)


def test_measure_l1_quadrature_loads_no_scipy(fresh_python):
    # its Watson constants run the fixed density rule, not QUADPACK; so
    # does the CLI's check of the measure L1 errors
    script = ("import contextlib, io, xapprox as X, xapprox.cli\n"
              "for spec in (X.HaarLog(), X.PowerSigma(0.5), X.PowerSigma(1.5),\n"
              "             X.PointMasses(((1.0, 1.0), (3.0, 0.5)))):\n"
              "    X.l1_error_mu_quadrature(spec); X.l1_error_mu_quadrature(spec, 2.0)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert xapprox.cli.main(['error-table', '--measure', 'power',\n"
              "                             '--sigma', '1.5', '--verify']) == 0\n")
    fresh_python("-c", script, no_scipy=True)


@pytest.mark.parametrize("no_scipy", [False, True], ids=["scipy-allowed", "scipy-refused"])
def test_verify_runs_without_scipy(fresh_python, no_scipy):
    # every check of `xapprox verify`, on numpy alone too
    fresh_python("-m", "xapprox.cli", "verify", no_scipy=no_scipy)


# the exp L1 quadrature and the CLI path that runs it for one lam; the
# table below runs it for many lam at once
_EXP_QUAD_CALLS = (
    "X.l1_error_exp_quadrature(1.0, 2.0)",
    "assert xapprox.cli.main(['verify', '--only', 'thm1_1_lambda1']) == 0",
)


@pytest.mark.parametrize("call", _EXP_QUAD_CALLS)
def test_exp_l1_quadrature_loads_no_scipy(fresh_python, call):
    script = ("import contextlib, io, xapprox as X, xapprox.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    {call}\n")
    fresh_python("-c", script, no_scipy=True)


# one process applies the cached cell operator to 25 lam and checks every
# row's quadrature against the closed form; on the circle the kernel mode
# is the unit point mass, and its quadrature is tighter still
@pytest.mark.parametrize("mode, bound", [((), 1e-8), (("--periodic", "--degree", "8"), 1e-15)],
                         ids=["line", "circle"])
def test_exp_error_table_against_its_quadrature(fresh_python, mode, bound):
    res = fresh_python("-m", "xapprox.cli", "error-table", "--kernel", "exp", *mode,
                       "--lambda", "0.2:5:0.2", "--verify", no_scipy=True)
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    assert len(rows) == 25
    assert max(float(r["abs_diff"]) for r in rows) <= bound


_DEMO_DIR = pathlib.Path(__file__).parents[1] / "demos"
_DEMOS = sorted(_DEMO_DIR.glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[d.name for d in _DEMOS])
def test_demo_runs_without_scipy(fresh_python, demo, tmp_path):
    # a demo writes its output to the working directory, never next to
    # itself, so it runs from a read-only checkout
    before = sorted(_DEMO_DIR.iterdir())
    fresh_python(str(demo), no_scipy=True, cwd=tmp_path)
    assert sorted(_DEMO_DIR.iterdir()) == before


# `import xapprox` is lazy: a public name loads its home module, and the
# modules that one imports, on first use
_LAZY_SCRIPT = r"""
import sys
import xapprox as X

def loaded():
    return sorted(m for m in sys.modules if m.startswith("xapprox."))

assert loaded() == [], loaded()
X.error_exp_integral_oracle(1.0, 1.3)
assert loaded() == ["xapprox._stable", "xapprox.errors", "xapprox.expkernel",
                    "xapprox.quadrature", "xapprox.series"], loaded()
X.eval_K(X.ExpKernel(1.0), [0.3, 2.5])  # real points never load the complex form
assert "xapprox._complex_series" not in loaded(), loaded()
X.eval_K(X.ExpKernel(1.0), 0.3 + 1j)
assert "xapprox._complex_series" in loaded(), loaded()
assert set(X.__all__) <= set(dir(X))
assert X.periodic is sys.modules["xapprox.periodic"]
try:
    X.nope
except AttributeError as exc:
    assert "nope" in str(exc)
else:
    raise AssertionError("X.nope resolved")
try:
    from xapprox import nope
except ImportError:
    pass
else:
    raise AssertionError("from xapprox import nope succeeded")
print("ok")
"""

_STAR_SCRIPT = r"""
import sys
import xapprox
from xapprox import *

assert len(set(xapprox.__all__)) == len(xapprox.__all__)
assert len(xapprox.__all__) == 52, len(xapprox.__all__)
for name in xapprox.__all__:
    if name == "__version__":
        continue
    obj = globals()[name]
    home = obj.__module__
    assert home.startswith("xapprox."), (name, home)
    assert getattr(sys.modules[home], name) is obj, name
    assert getattr(xapprox, name) is obj, name
print("ok")
"""


@pytest.mark.parametrize("script", [_LAZY_SCRIPT, _STAR_SCRIPT], ids=["first-call", "star"])
def test_lazy_namespace_in_a_fresh_process(fresh_python, script):
    assert fresh_python("-c", script).stdout.strip() == "ok"


# t from the pole through the 4-5 band, where Euler-Maclaurin at M = 6 is
# 1.4e-14 off, to q_mu's largest argument
_ZETA_T = ([1 + 1e-9, 1 + 1e-6, 1.05, 1.5, 2.05, 3.0, 4.3, 4.8, 5.1, 10.0, 33.0, 65.0]
           + np.linspace(4.0, 5.0, 41).tolist() + np.linspace(1.01, 65.0, 60).tolist())


def test_zeta_against_mpmath():
    vals = _zeta(np.array(_ZETA_T))
    with mpmath.workdps(30):
        refs = [mpmath.zeta(mpmath.mpf(t)) for t in _ZETA_T]
        errs = [abs(float((mpmath.mpf(v) - r) / r)) for v, r in zip(vals, refs)]
    assert max(errs) <= 1e-15
    # scalar and array arguments run the same arithmetic
    assert [float(_zeta(t)) for t in _ZETA_T[:12]] == vals[:12].tolist()


def test_zeta_reference_literals():
    # zeta_numpy's frozen references: mpmath's zeta at each double t, which
    # for t = 1 + 1e-9 next to the pole is not the zeta of the decimal
    with mpmath.workdps(40):
        for t, ref in _ZETA_REFERENCE:
            assert float(mpmath.zeta(mpmath.mpf(t))) == ref
    assert _ZETA_REFERENCE[0][0] == 1 + 1e-9
    assert [t for t, _ in _ZETA_REFERENCE] == _ZETA_T[:12]


@pytest.mark.parametrize("N", [0, 1, 4, 64, 256])
def test_dct2_against_direct_cosine_sum(N):
    # build_k_mu's transform at degree N, of N+1 values; reference in
    # extended precision: y_k = 2 sum_m x_m cos(pi k (2m+1)/(2n)), n = N+1
    n = N + 1
    x = np.random.default_rng(N).standard_normal(n)
    k, m = np.arange(n)[:, None], np.arange(n)[None, :]
    pi = np.arccos(np.longdouble(-1.0))
    j = k * (2 * m + 1) % (4 * n)  # cos(pi j/(2n)) has period 4n in j
    ref = 2 * np.cos(pi * j / (2 * n)) @ x.astype(np.longdouble)
    out = _dct2(x)
    assert out.shape == (n,)
    assert float(np.max(np.abs(out - ref)) / np.max(np.abs(ref))) <= 1e-15
    # the dct_numpy check's reference: the same sum in double, in row blocks
    direct = 2.0 * _cospi_sum(x, n, 2 * n)
    assert float(np.max(np.abs(direct - ref)) / np.max(np.abs(ref))) <= 1e-15


def test_exprel_edges_raise_no_warning():
    x = np.array([0.0, 1e-300, -1e-300, 700.0, -700.0, -0.0])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        out = _exprel(x)
    assert out[0] == out[1] == out[2] == out[5] == 1.0
    with mpmath.workdps(30):
        for xv, v in zip(x[3:5], out[3:5]):
            ref = mpmath.expm1(mpmath.mpf(xv)) / xv
            assert abs(float((mpmath.mpf(v) - ref) / ref)) <= 2e-16


def test_power_table_is_cached_per_object_and_invisible():
    xs = np.linspace(0.0, 1.0, 57)
    reused = PowerSigma(1.5)
    first = eval_q_mu(reused, xs)
    again = eval_q_mu(reused, xs)
    fresh = eval_q_mu(PowerSigma(1.5), xs)
    assert first.tobytes() == again.tobytes() == fresh.tobytes()
    assert eval_q_mu(reused, 0.3) == eval_q_mu(PowerSigma(1.5), 0.3)
    # the cached table is no field: equality, hash and JSON are unchanged
    assert reused == PowerSigma(1.5) and hash(reused) == hash(PowerSigma(1.5))
    assert measure_to_json(reused) == measure_to_json(PowerSigma(1.5))
    assert math.isfinite(first[0])
    # equal objects share one read-only table
    assert _power_series(1.5) is _power_series(reused.sigma)
    assert not _power_series(1.5)[2].flags.writeable


def _jacobi_mp(n, a, b, t):
    # P_n^{(a, b)}(t) by the three-term recurrence, in mpmath
    p0, p1 = mpmath.mpf(1), (a + 1) + (a + b + 2) * (t - 1) / 2
    if n == 0:
        return p0
    for k in range(2, n + 1):
        c = 2 * k + a + b
        p0, p1 = p1, ((c - 1) * (c * (c - 2) * t + a * a - b * b) * p1
                      - 2 * (k + a - 1) * (k + b - 1) * c * p0) / (2 * k * (k + a + b) * (c - 2))
    return p1


@pytest.mark.parametrize("beta", [-0.95, -0.5, 0.0, 0.5, 0.95])
def test_gauss_jacobi_nodes_and_weights(beta):
    # Golub-Welsch against scipy's nodes, and against 40-digit weights:
    # Newton-polished roots of P_n^{(0, beta)} and the closed form
    # 2^{beta+1}/((1 - t^2) P_n'(t)^2).  scipy's weights are not the
    # reference: at beta = -0.95, n = 48 they are 2.4e-11 off.
    from scipy.special import roots_jacobi

    for n in (16, 32, 48):
        t, w = _gauss_jacobi(n, beta)
        assert not t.flags.writeable and not w.flags.writeable
        assert np.max(np.abs(t - roots_jacobi(n, 0.0, beta)[0])) <= 1e-14
        ref = []
        with mpmath.workdps(40):
            b = mpmath.mpf(beta)
            for tj in t:
                tj = mpmath.mpf(tj)
                for _ in range(2):
                    tj -= _jacobi_mp(n, 0, b, tj) / ((n + b + 1) / 2 * _jacobi_mp(n - 1, 1, b + 1, tj))
                d = (n + b + 1) / 2 * _jacobi_mp(n - 1, 1, b + 1, tj)
                ref.append(float(2 ** (b + 1) / ((1 - tj * tj) * d * d)))
        mass = 2.0 ** (beta + 1.0) / (beta + 1.0)
        assert np.max(np.abs(w - np.array(ref))) <= 5e-14 * mass


@pytest.mark.parametrize("n, beta", [(16, -0.95), (24, 0.5), (32, 0.95), (48, -0.5)])
def test_gauss_jacobi_against_a_30_digit_eigendecomposition(n, beta):
    # the rule of the very Jacobi matrix the routine builds: mpmath's
    # eigenvalues, and mu_0 times the squared first eigenvector components
    k = np.arange(1.0, n)
    s = 2.0 * k + beta
    diag = np.concatenate([[beta / (beta + 2.0)], beta * beta / (s * (s + 2.0))])
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    J = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    with mpmath.workdps(30):
        vals, vecs = mpmath.eigsy(mpmath.matrix(J.tolist()))
        mass = 2 ** (mpmath.mpf(beta) + 1) / (mpmath.mpf(beta) + 1)
        ref = sorted((vals[i], mass * vecs[0, i] ** 2) for i in range(n))
    t, w = _gauss_jacobi(n, beta)
    assert np.max(np.abs(t - np.array([float(x) for x, _ in ref]))) <= 1e-15
    assert np.max(np.abs(w / np.array([float(v) for _, v in ref]) - 1.0)) <= 2e-14


# TrigPoly.eval from degree 192 on sums its frequencies >= 8 in BLAS block
# products, batched over chunks of points that share one per-thread
# workspace (3001 points at degree 1000 span six chunks; many narrow
# products at degree 4000, 8-point ones at 10^4), and interpolation_oracle
# contracts its blocks of cosines with @; the line series sums each point's
# row of terms on its own, at real points and at the same points plus 1j,
# and each scalar point, real (a node among them) or complex (one in the
# near band), on its one-point route, with 257 complex points beside them;
# the pointwise measure error and the Watson constants of the L1 quadrature
# contract the density rule's weights through @, the error integral oracle
# contracts its (lam x nodes) matrix with its twin weights through @ (on
# the density rule's head nodes and on one lam), and build_k_mu contracts
# point-mass weights with its K-hat rows; the power family next to
# sigma = 1 takes all of these routes through its raw forms in e = sigma - 1;
# the Gauss-Jacobi rule solves its Jacobi matrix without eigenvectors (eigh
# ran 50x slower on two OpenBLAS threads than on one)
_BLAS_HASH = r"""
import hashlib, numpy as np, xapprox as X
x = np.linspace(-20, 20, 2001)
h = hashlib.sha256(X.build_k(0.3, 1000).eval(np.linspace(-1, 1, 2001)).tobytes())
u = np.random.default_rng(1).uniform(-2, 2, 3001)
for N in (192, 1000, 4000, 10**4):
    h.update(X.build_k(0.7, N).eval(u).tobytes())
h.update(X.interpolation_oracle(X.ExpPeriodized(0.3), 1000).coeffs.tobytes())
h.update(X.build_k_mu(X.PointMasses(((0.5, 1.0), (2.0, 0.25))), 1000).coeffs.tobytes())
for z in (x, x + 1j):
    h.update(X.eval_K(X.ExpKernel(0.3), z).tobytes())
    h.update(X.eval_K_mu(X.EntireApproximant(X.HaarLog()), z).tobytes())
    h.update(X.eval_K_mu(X.EntireApproximant(X.PowerSigma(1.0 + 1e-6)), z).tobytes())
for p in np.append(x[::40], 2.5):
    h.update(np.float64(X.eval_K(X.ExpKernel(0.3), p)).tobytes())
    for s in (X.HaarLog(), X.PowerSigma(1.0 + 1e-6)):
        h.update(np.float64(X.eval_K_mu(X.EntireApproximant(s), p)).tobytes())
z = np.linspace(-20, 20, 257) + 1j * np.linspace(4, -4, 257)
for p in (z, 0.5 + 0.25j, -3.7 + 1.3j, 12.4 - 0.1j):
    h.update(np.complex128(X.eval_K(X.ExpKernel(0.3), p)).tobytes())
    for s in (X.HaarLog(), X.PowerSigma(1.5)):
        h.update(np.complex128(X.eval_K_mu(X.EntireApproximant(s), p)).tobytes())
for s in (X.HaarLog(), X.PowerSigma(0.5), X.PowerSigma(1.95), X.PowerSigma(1.0 + 1e-6),
          X.PointMasses(((0.5, 1.0), (2.0, 0.25)))):
    h.update(np.float64(X.l1_error_mu_quadrature(s, 1.3)).tobytes())
    for p in (0.0, 0.3, 2.2, 50.0):
        try:
            v = X.error_mu_pointwise(X.EntireApproximant(s, 1.3), p)
        except X.DivergentAtZero:
            continue
        h.update(np.float64(v).tobytes())
for lam, p in ((1.0, 0.3), (0.05, 40.0), (50.0, 1.3), (1.0, 30.0)):
    h.update(np.float64(X.error_exp_integral_oracle(lam, p)).tobytes())
from xapprox.quadrature import _gauss_jacobi
for n in (16, 24, 32, 48):
    for b in (-0.95, 0.0, 0.5):
        for a in _gauss_jacobi(n, b):
            h.update(a.tobytes())
print(h.hexdigest())
"""


def test_bits_do_not_depend_on_blas_threads(fresh_python):
    # one thread and two must give the same bits
    one, two = (fresh_python("-c", _BLAS_HASH, blas_threads=t).stdout.strip() for t in (1, 2))
    assert one and one == two
