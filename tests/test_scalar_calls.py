"""Scalar calls take one-point routes: eval_K, eval_K_mu, error_exp and
eval_q_mu at one point return the bits of the same point in an array, keep
their return types, and raise as the array route does."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xapprox import (
    DivergentAtZero,
    EntireApproximant,
    ExpKernel,
    HaarLog,
    NonFinitePoint,
    PointMasses,
    PowerSigma,
    SeriesNonConvergence,
    TargetForm,
    error_exp,
    eval_K,
    eval_K_mu,
    eval_q_mu,
)

_SPECS = (HaarLog(), PowerSigma(0.05), PowerSigma(0.5), PowerSigma(1.0 + 1e-6),
          PowerSigma(1.5), PowerSigma(1.95), PointMasses(((0.5, 1.0), (2.0, 0.25))))
_DELTAS = (0.5, 1.0, 2.0, 0.3)

# w = delta z: the nodes n + 1/2 (exact for delta in 0.5, 1, 2), the near
# band |w - node| < 0.3 and its edges, and points anywhere up to |Re w| = 40
_OFFSETS = st.sampled_from([0.0, 5e-324, 1e-12, -1e-12, 0.1, -0.1, 0.3, -0.3,
                            np.nextafter(0.3, 0.0), -np.nextafter(0.3, 0.0)])
_NEAR = st.builds(lambda n, off: n + 0.5 + off, st.integers(0, 40), _OFFSETS)
_W = st.one_of(_NEAR, st.floats(0.0, 40.0), st.sampled_from([0.0, 0.25]))
_SIGN = st.sampled_from([1.0, -1.0])
_IM = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 0.2, -0.3, 4.0, -50.0]),
                st.floats(-5.0, 5.0))
_REAL_KIND = st.sampled_from(["float", "float64", "int"])
_COMPLEX_KIND = st.sampled_from(["complex", "complex128"])


def _real(w, sign, delta, kind):
    # the scalar z and its twin array [z, -z], which has the same max |Re w|
    if kind == "int":
        z = int(sign * round(w))
    else:
        z = sign * w / delta
        z = np.float64(z) if kind == "float64" else float(z)
    return z, np.array([z, -z])


def _complex(w, sign, im, delta, kind):
    z = complex(sign * w / delta, im)
    z = np.complex128(z) if kind == "complex128" else z
    return z, np.array([z, -z])


def _same(got, want, typ):
    assert type(got) is typ
    assert np.array(got).tobytes() == np.array(want).tobytes()


_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


@_SETTINGS
@given(lam=st.sampled_from([1e-6, 0.01, 0.7, 5.0, 50.0]), delta=st.sampled_from(_DELTAS),
       w=_W, sign=_SIGN, kind=_REAL_KIND)
def test_eval_K_and_error_exp_real_scalar_equal_array(lam, delta, w, sign, kind):
    k = ExpKernel(lam, delta)
    z, zz = _real(w, sign, delta, kind)
    _same(eval_K(k, z), eval_K(k, zz)[0], np.float64)
    _same(error_exp(k, z), error_exp(k, zz)[0], np.float64)


@_SETTINGS
@given(lam=st.sampled_from([1e-6, 0.01, 0.7, 5.0, 50.0]), delta=st.sampled_from(_DELTAS),
       w=_W, sign=_SIGN, im=_IM, kind=_COMPLEX_KIND)
def test_eval_K_complex_scalar_equals_array(lam, delta, w, sign, im, kind):
    k = ExpKernel(lam, delta)
    z, zz = _complex(w, sign, im, delta, kind)
    _same(eval_K(k, z), eval_K(k, zz)[0], np.complex128)


def _approximants(spec, delta):
    return [EntireApproximant(spec, delta, form) for form in {TargetForm.RAW, spec.form}]


@_SETTINGS
@given(spec=st.sampled_from(_SPECS), delta=st.sampled_from(_DELTAS), w=_W, sign=_SIGN,
       kind=_REAL_KIND)
def test_eval_K_mu_real_scalar_equals_array(spec, delta, w, sign, kind):
    z, zz = _real(w, sign, delta, kind)
    for a in _approximants(spec, delta):
        _same(eval_K_mu(a, z), eval_K_mu(a, zz)[0], float)


@_SETTINGS
@given(spec=st.sampled_from(_SPECS), delta=st.sampled_from(_DELTAS), w=_W, sign=_SIGN,
       im=_IM, kind=_COMPLEX_KIND)
def test_eval_K_mu_complex_scalar_equals_array(spec, delta, w, sign, im, kind):
    # the affine map and the natural form run on the real and imaginary
    # parts apart on both routes: Python's complex arithmetic and numpy's
    # complex loops would round apart
    z, zz = _complex(w, sign, im, delta, kind)
    for a in _approximants(spec, delta):
        _same(eval_K_mu(a, z), eval_K_mu(a, zz)[0], complex)


@_SETTINGS
@given(sigma=st.one_of(st.floats(0.01, 1.99).filter(lambda s: s != 1.0),
                       st.sampled_from([0.05, 1.0 - 1e-6, 1.0 + 1e-6, 1.95])),
       x=st.one_of(st.floats(-5.0, 5.0), st.floats(1e-300, 1e-3), st.sampled_from(
           [0.5, -0.5, 2.5, 1e-300, 5e-324, 1.0 - 2.0**-53, 3.0 + 2.0**-20])),
       kind=st.sampled_from(["float", "float64"]))
def test_eval_q_mu_power_scalar_equals_array(sigma, x, kind):
    spec = PowerSigma(sigma)
    z = np.float64(x) if kind == "float64" else x
    if sigma < 1.0 and float(x).is_integer():
        for p in (z, np.array([x, 0.3])):
            with pytest.raises(DivergentAtZero):
                eval_q_mu(spec, p)
        return
    _same(eval_q_mu(spec, z), eval_q_mu(spec, np.array([x, 0.3]))[0], float)


def test_non_finite_scalars_raise_as_before():
    k = ExpKernel(1.0, 2.0)
    mu = [EntireApproximant(s, 2.0, s.form) for s in _SPECS]
    bad = [math.nan, math.inf, -math.inf, np.float64(math.nan)]
    for z in bad + [complex(math.nan, 0.0), complex(0.3, math.inf),
                    np.complex128(complex(math.inf, 1.0))]:
        with pytest.raises(SeriesNonConvergence):
            eval_K(k, z)
        for a in mu:
            with pytest.raises(SeriesNonConvergence):
                eval_K_mu(a, z)
    for z in bad:
        with pytest.raises(SeriesNonConvergence):
            error_exp(k, z)
        with pytest.raises(NonFinitePoint):
            eval_q_mu(PowerSigma(0.5), z)
    # beyond |Re w| = 2^20 and |Im w| = 226.15 the series raises too
    for z in (2.0**20, complex(0.3, 200.0)):
        with pytest.raises(SeriesNonConvergence):
            eval_K(k, z)


@pytest.mark.parametrize("sigma", [0.5, 1.5])
def test_q_mu_is_even_next_to_zero(sigma):
    # x and -x fold to the same distance |x - rint x| on both routes; 1 + x
    # rounds to 1 at x = -1e-20, so x - floor x would put -x on the integer
    spec = PowerSigma(sigma)
    for x in (1e-20, 1e-300):
        want = eval_q_mu(spec, np.array([x, 0.3]))[0]
        assert np.isfinite(want)
        for z in (x, -x):
            _same(eval_q_mu(spec, z), want, float)
            assert eval_q_mu(spec, np.array([z, 0.3]))[0].tobytes() == want.tobytes()


def test_q_mu_at_integers():
    # finite for sigma > 1 (2 Gamma(1 - sigma) zeta(1 - sigma)), infinite below
    want = eval_q_mu(PowerSigma(1.5), np.array([0.0]))[0]
    for x in (0.0, 3.0, -2.0, 2, np.float64(-1.0)):
        _same(eval_q_mu(PowerSigma(1.5), x), want, float)
        with pytest.raises(DivergentAtZero):
            eval_q_mu(PowerSigma(0.5), x)
