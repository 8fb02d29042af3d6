"""The stable elementary helpers: exact zeros, symmetry, branch agreement."""

import math

import mpmath
import numpy as np
import pytest

from xapprox._stable import (
    cospi,
    csch,
    one_minus_sech,
    one_minus_x_csch,
    sech,
    sinpi,
)


def test_sinpi_exact_zeros_at_integers():
    for n in [-3, -1, 0, 1, 2, 7, 1001, -2**40]:
        assert sinpi(float(n)) == 0.0


def test_cospi_exact_zeros_at_half_integers():
    for n in [-5, -1, 0, 3, 12, 99]:
        assert cospi(n + 0.5) == 0.0
        assert cospi(-(n + 0.5)) == 0.0


def test_sinpi_agrees_with_naive_away_from_zeros():
    rng = np.random.default_rng(7)
    x = rng.uniform(-30, 30, 500)
    assert np.allclose(sinpi(x), np.sin(np.pi * x), rtol=0, atol=3e-14)
    assert np.allclose(cospi(x), np.cos(np.pi * x), rtol=0, atol=3e-14)


def test_symmetry_is_bitwise():
    rng = np.random.default_rng(11)
    x = rng.uniform(-9, 9, 200)
    assert np.all(sinpi(-x) == -sinpi(x))
    assert np.all(cospi(-x) == cospi(x))


@pytest.mark.parametrize("x", [1e-12, 0.05, 0.0999, 0.1001, 0.7, 3.0, 40.0, 690.0])
def test_hyperbolics_match_reference(x):
    # 690 is near the top of math.cosh/sinh's range; past it the naive
    # references overflow while sech/csch keep going (separate test)
    assert sech(x) == pytest.approx(1.0 / math.cosh(x), rel=1e-14, abs=0)
    assert csch(x) == pytest.approx(1.0 / math.sinh(x), rel=1e-14, abs=0)


def test_hyperbolics_extreme_arguments():
    # no overflow warnings, clean underflow
    assert sech(5000.0) == 0.0
    assert csch(5000.0) == 0.0
    assert csch(-3.0) == -csch(3.0)


@pytest.mark.parametrize("x", [1e-9, 1e-4, 0.0999, 0.1001, 0.5, 3.0, 50.0])
def test_one_minus_sech_small_and_large(x):
    # reference: series where 1 - 1/cosh(x) would cancel, direct above that
    if x <= 1e-2:
        ref = x * x / 2.0 - 5 * x**4 / 24.0 + 61 * x**6 / 720.0
    else:
        ref = 1.0 - 1.0 / math.cosh(x)
    assert one_minus_sech(x) == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_one_minus_x_csch_branch_continuity():
    # the series side of x = 0.1 against the direct formula, which cancels
    # there to ~1e-13 relative
    x = 0.1 - 1e-12
    assert one_minus_x_csch(x) == pytest.approx(1.0 - x * csch(x), rel=5e-12)
    assert one_minus_x_csch(1e-8) == pytest.approx(1e-16 / 6.0, rel=1e-10, abs=0)
    assert one_minus_x_csch(0.0) == 0.0
    assert one_minus_x_csch(2.0) == pytest.approx(1.0 - 2.0 / math.sinh(2.0), rel=1e-14)


def test_one_minus_x_csch_against_mpmath():
    # series below x = 1, direct above; a series cut at x^8 is 1.3e-12
    # off at x = 0.0999; scalars and arrays alike
    xs = np.concatenate([np.linspace(0.0, 1.0, 401),
                         [1e-8, 0.0999, 0.5, 1.0 - 1e-12, 1.0 + 1e-12]])
    # 50 digits, since 1 - x/sinh x cancels 16 of them at x = 1e-8
    with mpmath.workdps(50):
        ref = [1 - mpmath.mpf(x) / mpmath.sinh(mpmath.mpf(x)) if x else mpmath.mpf(0) for x in xs]
        for vals in (one_minus_x_csch(xs), [one_minus_x_csch(float(x)) for x in xs]):
            for v, r in zip(vals, ref):
                assert abs(mpmath.mpf(float(v)) - r) <= 2e-15 * r


def test_one_minus_x_csch_scalar_has_the_array_bits():
    # the scalar branch takes numpy's exponentials too: math's round apart
    # at 54 of these points, and the cancellation amplifies it
    xs = np.linspace(0.0, 50.0, 20001)
    scalars = np.array([one_minus_x_csch(float(x)) for x in xs])
    assert np.array_equal(scalars, one_minus_x_csch(xs))
    assert isinstance(one_minus_x_csch(3.0), float)


def test_scalar_in_scalar_out():
    assert isinstance(sinpi(0.3), float)
    assert isinstance(sech(np.float64(1.0)), float)
    out = sinpi(np.array([0.1, 0.2]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
