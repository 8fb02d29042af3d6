"""Measure specifications: validation, targets, integration, JSON wire format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xapprox import (
    HaarLog,
    InvalidPointMass,
    InvalidSigma,
    PointMasses,
    PowerSigma,
    f_mu,
    gamma_one_minus,
    measure_from_json,
    measure_to_json,
    validate,
)


# --- validation --------------------------------------------------------------

def test_validate_accepts_the_three_families():
    validate(HaarLog())
    validate(PowerSigma(0.5))
    validate(PowerSigma(1.5))
    validate(PointMasses(((1.0, 1.0), (2.0, 0.5))))


@pytest.mark.parametrize("sigma", [0.0, 1.0, 2.0, -0.3, 2.4, math.nan, math.inf])
def test_validate_rejects_bad_sigma(sigma):
    with pytest.raises(InvalidSigma):
        validate(PowerSigma(sigma))


def test_validate_rejects_bad_point_masses():
    with pytest.raises(InvalidPointMass):
        validate(PointMasses(()))
    with pytest.raises(InvalidPointMass):
        validate(PointMasses(((0.0, 1.0),)))  # location must be > 0
    with pytest.raises(InvalidPointMass):
        validate(PointMasses(((1.0, -1.0),)))  # weight must be >= 0
    with pytest.raises(InvalidPointMass):
        validate(PointMasses(((2.0, 1.0), (1.0, 1.0))))  # increasing order
    with pytest.raises(InvalidPointMass):
        validate(PointMasses(((1.0, math.inf),)))


def test_families_check_themselves_at_construction():
    for make, exc in ((lambda: PowerSigma(1.0), InvalidSigma),
                      (lambda: PowerSigma(2.5), InvalidSigma),
                      (lambda: PointMasses(()), InvalidPointMass)):
        with pytest.raises(exc):
            make()


def test_validate_rejects_non_measures():
    with pytest.raises(TypeError):
        validate(42)


# --- targets -----------------------------------------------------------------

def test_f_mu_power_half_at_four():
    # Gamma(1/2) (4^{-1/2} - 1) = -sqrt(pi)/2
    assert f_mu(PowerSigma(0.5), 4.0) == pytest.approx(-math.sqrt(math.pi) / 2.0,
                                                       rel=1e-14)


def test_f_mu_haar_is_minus_log():
    assert f_mu(HaarLog(), math.e) == pytest.approx(-1.0, rel=1e-15)
    assert f_mu(HaarLog(), -math.e) == pytest.approx(-1.0, rel=1e-15)  # even
    assert f_mu(HaarLog(), 0.0) == math.inf


def test_f_mu_point_masses():
    spec = PointMasses(((1.0, 1.0), (2.0, 0.5)))
    x = 0.7
    expect = (math.exp(-x) - math.exp(-1.0)) + 0.5 * (math.exp(-2 * x) - math.exp(-2.0))
    assert f_mu(spec, x) == pytest.approx(expect, rel=1e-15)
    arr = f_mu(spec, np.array([0.7, -0.7, 1.0]))
    assert arr.shape == (3,)
    assert arr[0] == arr[1]
    assert arr[2] == pytest.approx(0.0, abs=1e-16)


def test_f_mu_at_zero_divergence_pattern():
    assert f_mu(PowerSigma(0.5), 0.0) == math.inf
    # sigma > 1: finite limit Gamma(1-s)(0 - 1) = 2 sqrt(pi) at s = 3/2
    assert f_mu(PowerSigma(1.5), 0.0) == pytest.approx(2.0 * math.sqrt(math.pi),
                                                       rel=1e-14)


def test_gamma_one_minus_signs():
    assert gamma_one_minus(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma_one_minus(1.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)


# --- integration -------------------------------------------------------------

def test_point_masses_integrate_is_exact_sum():
    spec = PointMasses(((1.0, 2.0), (3.0, 0.25)))
    val = spec.integrate(lambda lam: lam * lam)
    assert val == 2.0 * 1.0 + 0.25 * 9.0


# --- JSON wire format ----------------------------------------------------------

def test_json_roundtrip_exact():
    for spec in (HaarLog(), PowerSigma(0.75),
                 PointMasses(((0.5, 1.0), (2.5, 0.125)))):
        assert measure_from_json(measure_to_json(spec)) == spec


def test_json_accepts_decoded_dict():
    assert measure_from_json({"kind": "haar"}) == HaarLog()


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        measure_from_json({"nope": 1})
    with pytest.raises(ValueError):
        measure_from_json({"kind": "mystery"})
    with pytest.raises(InvalidSigma):
        measure_from_json({"kind": "power"})
    with pytest.raises(InvalidPointMass):
        measure_from_json({"kind": "points"})
    with pytest.raises(InvalidSigma):
        measure_from_json({"kind": "power", "sigma": 1.0})


@given(st.lists(
    st.tuples(st.floats(0.01, 90.0), st.floats(0.0, 8.0)),
    min_size=1, max_size=6,
))
@settings(max_examples=40, deadline=None)
def test_json_roundtrip_point_masses(pairs):
    locs = sorted(set(round(l, 6) for l, _ in pairs))
    masses = tuple((l, w) for l, (_, w) in zip(locs, pairs))
    spec = PointMasses(masses)
    assert measure_from_json(measure_to_json(spec)) == spec
