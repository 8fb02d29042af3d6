"""The certification suite's plumbing: registry, determinism, reporting."""

import json

import pytest

from xapprox import (
    CertReport,
    UnknownCheckName,
    check_names,
    reports_passed,
    reports_to_json,
    reports_to_table,
    run_cert_suite,
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
                     "zeta_numpy", "dct_numpy", "pointwise_mu_oracle"):
        assert required in names
    assert len(names) == 49


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
