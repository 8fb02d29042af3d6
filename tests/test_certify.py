"""The certification suite's plumbing: registry, determinism, reporting."""

import ast
import collections
import json
import pathlib
import tracemalloc

import mpmath
import numpy as np
import pytest

from xapprox import (
    CertReport,
    HaarLog,
    PointMasses,
    PowerSigma,
    UnknownCheckName,
    build_k_mu,
    check_names,
    l1_error_mu_raw,
    reports_passed,
    reports_to_json,
    reports_to_table,
    run_cert_suite,
)
from xapprox.certify import (
    _ZETA_REFERENCE,
    _chk_catalan_series,
    _coeffs_by_quadrature,
    _dual_bound,
)

FAST = ["thm1_1_lambda1", "catalan_digits", "thm6_1_lambda1_N0", "khat_edge_zero"]


def test_registry_is_stable_and_complete():
    names = check_names()
    assert len(names) == len(set(names))
    # the fixed interface names the suite promises
    for required in ("thm1_1_lambda1", "thm1_1_lambda0p5_delta2", "sign_exp",
                     "khat_int", "s27_oracle_agreement", "duality_exp_lambda10",
                     "catalan_series", "haar_identity_1d", "haar_l1_2d",
                     "log_interpolation", "power_sigma_half", "thm6_1_lambda2_N3",
                     "thm6_1_sign", "thm1_4_N0", "thm1_4_N8", "cross_oracle_exp",
                     "cross_oracle_haar", "cross_oracle_power", "perturbation_N3",
                     "zeta_numpy", "dct_numpy", "pointwise_mu_oracle", "thm6_1_nodes_N1000",
                     "thm6_1_sign_N1000", "duality_points"):
        assert required in names
    assert len(names) == 52


def test_selection_preserves_registration_order():
    sel = ["catalan_digits", "thm1_1_lambda1"]  # reversed relative to registry
    reports = run_cert_suite(sel)
    assert [r.name for r in reports] == ["thm1_1_lambda1", "catalan_digits"]


def test_unknown_name_raises_before_running():
    with pytest.raises(UnknownCheckName):
        run_cert_suite(["thm1_1_lambda1", "bogus"])
    # message carries the offending name without repr noise
    try:
        run_cert_suite(["nope"])
    except UnknownCheckName as exc:
        assert str(exc) == "unknown check name: 'nope'"


def test_rerun_is_bitwise_identical():
    subset = FAST + ["sign_exp", "perturbation_N0", "catalan_series"]
    a = run_cert_suite(subset)
    b = run_cert_suite(subset)
    for ra, rb in zip(a, b):
        assert ra.name == rb.name
        assert ra.computed == rb.computed  # bitwise, not approx
        assert ra.reference == rb.reference
        assert ra.passed is rb.passed


def test_report_fields_are_consistent():
    for r in run_cert_suite(FAST):
        assert isinstance(r, CertReport)
        assert r.abs_diff == abs(r.computed - r.reference)
        assert r.passed == (r.abs_diff <= r.tolerance)
        assert r.runtime_ms >= 0.0
        assert r.passed


def test_reports_passed_logic():
    reports = run_cert_suite(FAST)
    assert reports_passed(reports)
    doctored = reports[:-1] + [CertReport(
        name="x", computed=1.0, reference=0.0, abs_diff=1.0,
        tolerance=0.5, passed=False, runtime_ms=0.0)]
    assert not reports_passed(doctored)


def test_json_serialization_roundtrips():
    reports = run_cert_suite(["catalan_digits"])
    payload = json.loads(reports_to_json(reports))
    assert payload[0]["name"] == "catalan_digits"
    assert set(payload[0]) == {"name", "computed", "reference", "abs_diff",
                               "tolerance", "passed", "runtime_ms"}
    assert payload[0]["computed"] == reports[0].computed


def test_table_rendering():
    text = reports_to_table(run_cert_suite(FAST))
    lines = text.splitlines()
    assert len(lines) == 1 + len(FAST)
    assert "PASS" in text and "FAIL" not in text
    assert "catalan_digits" in text


def _mp_coeffs(sigma, N):
    """c_n = int Khat(lam/L, n/L)/L lam^{-sigma} dlam, n = 0..N, at 30
    digits; c_0 = -int (2/lam)(1 - x csch x) lam^{-sigma} dlam, x = lam/2L,
    split at 4 (below: the difference by its series; above: Khat(lam/L, 0)/L
    - 2/lam with the 2/lam part exact), u = v^m near 0 as for tanh-sinh."""
    L = 2 * N + 2
    s = mpmath.mpf(sigma)
    m = 1 / (2 - s)
    fact = [mpmath.factorial(2 * k + 1) for k in range(1, 14)]
    out = []
    for n in range(N + 1):
        u = mpmath.mpf(n) / L

        def khat(lam):
            cs = mpmath.csch(lam / (2 * L))
            return mpmath.cospi(u) * cs / (1 + (mpmath.sinpi(u) * cs) ** 2) / L

        def head(lam):
            if n:
                return khat(lam)
            x = lam / (2 * L)  # x <= 1: sinh x - x to 30 digits in 13 terms
            sinh_minus_x = sum(x ** (2 * k + 3) / f for k, f in enumerate(fact))
            return -(2 / lam) * sinh_minus_x / mpmath.sinh(x)

        c = mpmath.quad(lambda v: head(v**m) * v ** (m * (1 - s) - 1) * m, [0, 1])
        c += mpmath.quad(lambda lam: head(lam) * lam ** (-s), [1, 4])
        c += mpmath.quad(lambda lam: khat(lam) * lam ** (-s), [4, 16, 64, 256, mpmath.inf])
        out.append(c - (2 * 4 ** (-s) / s if n == 0 else 0))
    return out


@pytest.mark.parametrize("spec, N", [(HaarLog(), 2), (PowerSigma(0.05), 4),
                                     (PowerSigma(0.5), 4)], ids=repr)
def test_coefficient_quadrature_against_mpmath(spec, N):
    # the K-hat route of cross_oracle_haar/_power holds 1e-14 per
    # coefficient; build_k_mu (interpolation) is held to 3e-15 of max |c_n|.
    # At sigma = 0.05 the two differ by ~5e-14 in c_0, and build_k_mu's c_0
    # is the further one from the reference (4.8e-14 against 1.3e-15)
    quad = _coeffs_by_quadrature(spec, N)
    interp = build_k_mu(spec, N).coeffs
    assert quad.dtype == interp.dtype == np.float64
    assert quad.shape == interp.shape == (N + 1,)
    with mpmath.workdps(30):
        ref = _mp_coeffs(spec.density_power, N)
        scale = max(abs(float(r)) for r in ref)
        for q, i, r in zip(quad, interp, ref):
            assert abs(float(q - r)) <= 1e-14 * abs(float(r))
            assert abs(float(i - r)) <= 3e-15 * scale


_DUAL_CASES = ([(PointMasses(((lam, 1.0),)), 1.0)
                for lam in (1e-4, 1e-2, 0.1, 1.0, 5.0, 50.0, 200.0, 1000.0)]
               + [(PointMasses(((0.5, 1.0), (2.0, 0.25))), delta)
                  for delta in (0.25, 1.0, 4.0, 130.0, 2002.0)])


@pytest.mark.parametrize("spec, delta", _DUAL_CASES, ids=[
    f"{len(s.masses)} masses at {s.masses[0][0]:g}, delta {d:g}" for s, d in _DUAL_CASES])
def test_dual_bound_attains_the_closed_forms(spec, delta):
    # the 24-weight duality sum against (2/lam)(1 - sech(lam/2)) at 30
    # digits for the unit mass, and against l1_error_mu_raw for two masses
    if len(spec.masses) == 1:
        with mpmath.workdps(30):
            lam = mpmath.mpf(spec.masses[0][0])
            ref = float(2 / lam * (1 - mpmath.sech(lam / 2)))
    else:
        ref = l1_error_mu_raw(spec, delta)
    assert abs(_dual_bound(spec, delta) - ref) <= 2e-15 * ref


def test_catalan_series_check_runs_in_chunks():
    # one cumsum over the 1e6 + 1 terms peaks at 30.5 MB and reads
    # 1.1662436161232974, 2.2e-14 off 4G/pi; the pairwise chunk sums, added
    # by fsum, peak at 0.25 MB and land one ulp from it
    tracemalloc.start()
    try:
        got, want, tol = _chk_catalan_series()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 1.166243616123275
    assert abs(got - want) <= 2.3e-16 and tol == 2e-14
    assert peak < 2**20


def test_no_check_calls_quadpack(monkeypatch):
    # every integral of the suite runs a fixed rule, the defining integral
    # behind power_q_mu_closed_form included: no check calls QUADPACK
    import scipy.integrate

    quad = scipy.integrate.quad
    calls = collections.Counter()
    running = []

    def counted(*args, **kwargs):
        calls[running[-1]] += 1
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    for name in check_names():
        running.append(name)
        assert reports_passed(run_cert_suite([name]))
    assert not calls


_GENERATOR = pathlib.Path(__file__).resolve().parent.parent / "tools" / "gen_reference_values.py"


def test_zeta_reference_is_the_generators_output(fresh_python):
    # zeta_numpy's frozen pairs are what the generator prints for them
    out = fresh_python(str(_GENERATOR), "--zeta-numpy").stdout
    assert ast.literal_eval(f"({out})") == _ZETA_REFERENCE
