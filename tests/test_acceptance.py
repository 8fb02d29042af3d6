"""End-to-end acceptance checks.

One test per acceptance item, each printing a single PASS line on
success (run with ``pytest -v -s`` to see them inline).  The heavy
lifting is delegated to the certification registry so that the numbers
asserted here are the same ones ``xapprox verify`` reports; on top of
that, several tests re-derive the headline values directly so a registry
bug cannot silently vacuously pass.
"""

import math
import time

import numpy as np
import pytest

from xapprox import (
    EntireApproximant,
    ExpKernel,
    ExpPeriodized,
    HaarLog,
    K_hat,
    MeasurePeriodized,
    PointMasses,
    PowerSigma,
    TargetForm,
    build_k,
    build_k_mu,
    catalan,
    eval_K,
    eval_K_mu,
    interpolation_oracle,
    l1_error_exp,
    periodic_l1_error_mu,
    run_cert_suite,
)
from xapprox.certify import _coeffs_by_quadrature


def _run_all(names, label, budget_s=None):
    """Run a registry subset, assert every report passed, print one line."""
    t0 = time.perf_counter()
    reports = run_cert_suite(list(names))
    wall = time.perf_counter() - t0
    bad = [r for r in reports if not r.passed]
    assert not bad, f"{label}: " + "; ".join(
        f"{r.name}: computed={r.computed!r} reference={r.reference!r} "
        f"abs_diff={r.abs_diff:.3e} tol={r.tolerance:.1e}"
        for r in bad
    )
    if budget_s is not None:
        assert wall < budget_s, f"{label}: took {wall:.2f}s (budget {budget_s}s)"
    print(f"PASS {label}")
    return reports


def test_exp_l1_error_closed_form_over_lambda_delta_grid():
    names = [f"thm1_1_lambda{t}" for t in ("0p5", "1", "2", "5")]
    names += [n + "_delta2" for n in names]
    reports = _run_all(names, "exp kernel L1 error vs sign-split quadrature, 8 cases")
    for r in reports:
        assert r.runtime_ms < 1000.0, f"{r.name} took {r.runtime_ms:.0f} ms"
    # the headline number, written out
    assert l1_error_exp(1.0, 1.0) == pytest.approx(2.0 - 2.0 / math.cosh(0.5), abs=1e-15)


def test_exp_kernel_interpolates_at_half_integers():
    m = np.arange(10) + 0.5
    for lam in (0.5, 1.0, 2.0, 5.0):
        worst = float(np.max(np.abs(eval_K(ExpKernel(lam), m) - np.exp(-lam * m))))
        assert worst < 1e-12, f"lam={lam}: worst node residual {worst:.2e}"
    _run_all(["interp_exp_nodes"], "half-integer interpolation, 4 lambdas")


def test_exp_error_sign_follows_cosine():
    reports = _run_all(["sign_exp"], "error sign on 4000 off-node samples")
    assert reports[0].computed == 1.0  # every sample, not merely most


def test_transform_mass_nonnegativity_and_edge():
    # integral of the transform over its support recovers K(lam, 0);
    # the transform is nonnegative and vanishes identically at the edge
    for lam in (0.5, 1.0, 2.0, 5.0):
        assert K_hat(ExpKernel(lam), 0.5) == 0.0
        assert K_hat(ExpKernel(lam), -0.5) == 0.0
    _run_all(["khat_int", "khat_nonneg", "khat_edge_zero"],
             "transform mass, nonnegativity, edge zeros")


def test_pointwise_error_matches_integral_oracle():
    reports = _run_all(["s27_oracle_agreement"],
                       "pointwise error vs integral oracle on 15-point grid")
    assert reports[0].runtime_ms < 1000.0


def test_duality_lower_bound_attains_closed_form():
    names = [f"duality_exp_lambda{t}" for t in ("0p1", "1", "10")]
    reports = _run_all(names, "duality lower bound by 24 CRVZ weights, 3 lambdas")
    for r in reports:
        assert r.runtime_ms < 1000.0, f"{r.name} took {r.runtime_ms:.0f} ms"


def test_catalan_series_identity_and_digits():
    assert abs(catalan() - 0.91596559417721901505) < 1e-15
    _run_all(["catalan_series", "catalan_digits"], "catalan constant, series and digits")


def test_haar_error_identity_1d_and_2d():
    reports = _run_all(["haar_identity_1d", "haar_l1_2d"],
                       "log-target L1 identity, ray integral and full quadrature",
                       budget_s=60.0)
    assert reports[1].tolerance == 1e-6


def test_log_approximant_interpolates_half_integers():
    a = EntireApproximant(HaarLog(), 1.0, TargetForm.LOG)
    worst = max(abs(eval_K_mu(a, k + 0.5) - math.log(k + 0.5)) for k in range(10))
    assert worst < 1e-8, f"worst log-node residual {worst:.2e}"
    _run_all(["log_interpolation"], "log approximant at half-integers", budget_s=10.0)


def test_power_half_measure_quadrature_matches_closed_form():
    _run_all(["power_sigma_half"],
             "sigma=1/2 measure quadrature vs closed form", budget_s=5.0)


def test_periodic_l1_error_nodes_and_sign():
    names = [f"thm6_1_lambda{t}_N{N}" for t in ("0p5", "1", "2") for N in (0, 1, 3)]
    names += ["thm6_1_nodes", "thm6_1_sign"]
    _run_all(names, "periodic L1 closed form, node residuals, sign certificate",
             budget_s=5.0)


def test_periodized_log_polynomial_end_to_end():
    for N in (0, 1, 2, 4, 8):
        closed = periodic_l1_error_mu(HaarLog(), N)
        assert closed == pytest.approx(4.0 * catalan() / ((2 * N + 2) * math.pi),
                                       abs=1e-15)
    _run_all([f"thm1_4_N{N}" for N in (0, 1, 2, 4, 8)],
             "periodized log target, degree-N L1 error end to end", budget_s=30.0)


def test_interpolation_oracle_matches_construction():
    # direct spot check on top of the registry sweep
    a = build_k(1.0, 1).coeffs
    b = interpolation_oracle(ExpPeriodized(1.0), 1).coeffs
    assert float(np.max(np.abs(a - b))) < 1e-10
    c = build_k_mu(HaarLog(), 2).coeffs
    d = interpolation_oracle(MeasurePeriodized(HaarLog()), 2).coeffs
    assert float(np.max(np.abs(c - d))) < 1e-10
    # and against the theorem's per-coefficient K-hat integrals
    e = _coeffs_by_quadrature(HaarLog(), 2)
    assert float(np.max(np.abs(c - e))) < 1e-13
    f = build_k_mu(PowerSigma(0.5), 2).coeffs
    g = _coeffs_by_quadrature(PowerSigma(0.5), 2)
    assert float(np.max(np.abs(f - g))) < 1e-13
    # point masses: the exact weighted sum of K-hat rows, c_0 included
    pm = PointMasses(((0.5, 1.0), (2.0, 0.3)))
    h = interpolation_oracle(MeasurePeriodized(pm), 2).coeffs
    assert float(np.max(np.abs(build_k_mu(pm, 2).coeffs - h))) < 1e-13
    _run_all(["cross_oracle_exp", "cross_oracle_haar", "cross_oracle_power"],
             "interpolation oracle vs construction coefficients", budget_s=10.0)


def test_coefficient_perturbations_increase_circle_error():
    reports = _run_all([f"perturbation_N{N}" for N in (0, 1, 3)],
                       "single-coefficient perturbations strictly increase L1 error",
                       budget_s=10.0)
    for r in reports:
        assert r.computed == 1.0  # every bump, both signs
