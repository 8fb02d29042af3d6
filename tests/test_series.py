"""The cardinal-series engine against an mpmath node series, and the
constants summed with the same alternating-series weights."""

import math
import threading
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from xapprox import (
    EntireApproximant,
    ExpKernel,
    HaarLog,
    PointMasses,
    PowerSigma,
    SeriesNonConvergence,
    catalan,
    dirichlet_beta,
    eval_K,
    eval_K_mu,
)
from xapprox import series
from xapprox.series import _cardinal_sum


def _crvz(a, n=120):
    # Cohen-Rodriguez Villegas-Zagier, Algorithm 1: sum_{k>=0} (-1)^k a(k)
    d = (3 + mp.sqrt(8)) ** n
    d = (d + 1 / d) / 2
    b, c, s = mp.mpf(-1), -d, mp.mpf(0)
    for k in range(n):
        c = b - c
        s += c * a(k)
        b *= (k + n) * (k - n) / ((k + mp.mpf(1) / 2) * (k + 1))
    return s / d


def _node_series(phi, z):
    """KK(phi, z) = (cos pi z/pi) sum_{n>=0} (-1)^n phi(xi) 2 xi/((xi - z)(xi + z)),
    xi = n + 1/2, at 40 digits: 10 direct terms past |Re z|, then CRVZ.
    Within 0.3 of the nearest node xi_m, cos pi z ~ 0 meets that node's
    pole, which no fixed precision resolves as Im z -> 0; its term is
    taken as phi(xi_m)(sincpi(z - xi_m) + sincpi(z + xi_m)) instead."""
    with mp.workdps(40):
        z = mp.mpc(z)
        n0 = int(mp.ceil(abs(z.real))) + 10
        m = int(mp.floor(abs(z.real)))
        xm = m + mp.mpf(1) / 2
        near = min(abs(z - xm), abs(z + xm)) < 0.3

        def term(n):
            xi = n + mp.mpf(1) / 2
            return phi(xi) * 2 * xi / ((xi - z) * (xi + z))

        head = mp.fsum((-1) ** n * term(n) for n in range(n0) if not (near and n == m))
        tail = (-1) ** n0 * _crvz(lambda k: term(n0 + k))
        out = mp.cos(mp.pi * z) / mp.pi * (head + tail)
        if near:
            out += phi(xm) * (mp.sincpi(z - xm) + mp.sincpi(z + xm))
        return complex(out)


def _exp_data(lam):
    return lambda xi: np.exp(-lam * xi), lambda xi: mp.exp(-mp.mpf(lam) * xi)


def _power_data(sigma):
    return (lambda xi: xi ** (sigma - 1.0),
            lambda xi: xi ** (mp.mpf(sigma) - 1))


_HAAR = (lambda xi: -np.log(xi)), (lambda xi: -mp.log(xi))


def _errors(data, z, scale):
    phi, phi_mp = data
    z = np.asarray(z)
    got = _cardinal_sum(phi, z)
    out = []
    for zi, v in zip(z, got):
        ref = _node_series(phi_mp, zi)
        out.append(abs(v - ref) / scale(v, zi))
    return np.array(out)


_NEAR_DATA = {"exp 1": _exp_data(1.0), "exp 0.01": _exp_data(0.01),
              "haar": _HAAR, "sigma 1.95": _power_data(1.95)}


@pytest.mark.parametrize("name", sorted(_NEAR_DATA))
def test_near_nodes_against_mpmath(name):
    # within 0.3 of a node cos pi w has lost relative digits; the node's
    # term must come from the sinc form
    offs = np.concatenate([10.0 ** -np.arange(1.0, 16.0), [0.2, 0.3]])
    offs = np.concatenate([offs, -offs])
    z = np.concatenate([xi + offs for xi in (0.5, 2.5, 11.5)])
    err = _errors(_NEAR_DATA[name], z, lambda v, zi: max(abs(v), 1.0))
    assert err.max() <= 1e-15, (name, z[err.argmax()], err.max())


_COMPLEX_CASES = [
    ("haar", _HAAR, 1 + 50j),
    ("sigma 1.95", _power_data(1.95), 1 + 4j),
    ("sigma 1.5", _power_data(1.5), 1 + 8j),
] + [(f"exp {lam:g}", _exp_data(lam), z)
     for lam in (1e-6, 1e-4, 0.01) for z in (1 + 50j, 40.2 + 10j)]


@pytest.mark.parametrize("name,data,z", _COMPLEX_CASES, ids=[
    f"{c[0]} at {c[2]}" for c in _COMPLEX_CASES])
def test_complex_points_against_mpmath(name, data, z):
    # the digits scale: cos pi w is of size cosh(pi Im w)
    zs = np.array([z, -z, z.conjugate(), z + 0.37])
    err = _errors(data, zs, lambda v, zi: max(abs(v), 1e-3 * math.cosh(math.pi * zi.imag)))
    assert err.max() <= 1e-12, (name, zs[err.argmax()], err.max())


_GRID_DATA = {f"exp {lam:g}": _exp_data(lam) for lam in (1e-6, 0.01, 1.0, 50.0)}
_GRID_DATA.update({
    "haar": _HAAR, "sigma 0.05": _power_data(0.05), "sigma 1.95": _power_data(1.95),
    "two masses": (lambda xi: np.exp(-0.5 * xi) + 0.25 * np.exp(-2.0 * xi),
                   lambda xi: mp.exp(-xi / 2) + mp.exp(-2 * xi) / 4)})


def _complex_grid():
    # random points over 0 <= Re w <= 40, |Im w| <= 8; the near band's
    # inside (within 0.3 of a node, at 1e-8, 1e-30 and 1e-300 from it) and
    # just outside it; the imaginary axis, a corner, and the two far cases
    # above
    rng = np.random.default_rng(32)
    z = rng.uniform(0.0, 40.0, 12) + 1j * rng.uniform(-8.0, 8.0, 12)
    return np.concatenate([z, [11.5 + 1e-8j, 2.5 + 1e-30j, 2.5 - 1e-30j, 2.5 + 1e-300j,
                               2.5 - 1e-300j, 2.5 + 0.2j, 0.5 - 0.29j, 30.2 + 0.31j, 8j,
                               40.0 - 8j, 1 + 50j, 40.2 + 10j]])


@pytest.mark.parametrize("name", sorted(_GRID_DATA))
def test_complex_grid_against_mpmath(name):
    # the digits scale of the cases above, times the size of the data at
    # the point: the rounding of the row sums grows with |phi|, so growing
    # data (sigma 1.95, |phi| ~ 30 at Re w = 40) are measured on their size
    phi = _GRID_DATA[name][0]
    zs = _complex_grid()
    err = _errors(_GRID_DATA[name], zs, lambda v, zi: max(
        abs(v), 1e-3 * math.cosh(math.pi * zi.imag) * max(1.0, abs(phi(abs(zi.real) + 0.5)))))
    assert err.max() <= 1e-12, (name, zs[err.argmax()], err.max())


@pytest.mark.parametrize("z", [complex(math.inf, 1.0), complex(-math.inf, 1.0),
                               complex(math.nan, 1.0), complex(1.0, math.inf),
                               complex(1.0, -math.inf), complex(1.0, math.nan)], ids=repr)
def test_non_finite_complex_points_raise_without_warning(z):
    # both lines dilate z by delta before summing; an infinite or nan part
    # must reach the library error, not a RuntimeWarning from inf * 0
    for f, obj in ((eval_K, ExpKernel(1.0, 2.0)), (eval_K_mu, EntireApproximant(HaarLog(), 2.0))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesNonConvergence):
                f(obj, [z])
            with pytest.raises(SeriesNonConvergence):
                f(obj, np.array([0.5, z]))


def _block_rows(x):
    # points per block of terms at these points (delta = 1, so w = x),
    # from the engine's own constants; complex points too are summed in
    # float64 terms
    n = math.ceil(np.abs(x.real).max()) + series._HEAD_PAST + series._CRVZ.size
    return max(1, (series._BLOCK - 1) // (n * x.real.itemsize))


@pytest.mark.parametrize("im", [0.0, 3.0], ids=["real", "complex"])
def test_bits_do_not_depend_on_block_or_position(im):
    # P covers every block edge; the first point's mirror comes last, and
    # one point sets max |Re x| (so H) for the array and alone
    rng = np.random.default_rng(5)
    top = 19.75
    dtype = complex if im else float
    rows = _block_rows(np.array([top], dtype=dtype))
    for f, obj in ((eval_K, ExpKernel(0.3)), (eval_K_mu, EntireApproximant(HaarLog()))):
        for P in (2, rows - 1, rows, rows + 1, 2 * rows + 1):
            x = rng.uniform(-top, top, P).astype(dtype)
            if im:
                x += 1j * rng.uniform(-im, im, P)
            k = P // 2 if P > 2 else 0
            x[k] = np.copysign(top, x[k].real) + (x[k] - x[k].real)
            x[-1] = -x[0]
            assert _block_rows(x) == rows
            vals = f(obj, x)
            assert vals[0].tobytes() == vals[-1].tobytes(), (f.__name__, P)
            assert f(obj, x[::-1])[::-1].tobytes() == vals.tobytes(), (f.__name__, P)
            assert f(obj, x[k:k + 1]).tobytes() == vals[k:k + 1].tobytes(), (f.__name__, P)


_ONE_POINT_DATA = [(f"exp {lam:g}", lambda xi, lam=lam: np.exp(-lam * xi))
                   for lam in (1e-6, 1e-3, 0.05, 1.0, 50.0)] + [
    (repr(s), s.raw_frame(1.0)[0])
    for s in (HaarLog(), PowerSigma(0.05), PowerSigma(0.5), PowerSigma(1.0 - 1e-6),
              PowerSigma(1.0 + 1e-6), PowerSigma(1.95), PointMasses(((0.5, 1.0), (2.0, 0.25))))]


def _one_point_grid():
    # every node, the near band's edges at node +- 0.3 and the floats next
    # to them, the origin and its neighbours, random points, and two points
    # far out: 1e3 (cached map) and 2048.5 (H = 2057, built, not cached)
    nodes = np.arange(41) + 0.5
    edges = np.concatenate([nodes - 0.3, nodes + 0.3])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    draws = np.random.default_rng(29).uniform(0.0, 40.0, 60)
    pts = np.concatenate([nodes, edges, [0.0, 5e-324, 0.25], draws, [1e3, 2048.5]])
    return np.concatenate([pts, -pts])


# the imaginary parts of the complex one-point grid, each with both signs:
# next to the axis, inside and outside the near band's |Im w| < 0.3, and
# out to where cos pi w is within e^{-20} of overflow
_ONE_POINT_IM = [1e-300, 1e-8, 0.2, 0.3, 4.0, 50.0, 220.0]


def _raises_without_warning(phi, pts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SeriesNonConvergence):
            _cardinal_sum(phi, pts)


@pytest.mark.parametrize("name,phi", _ONE_POINT_DATA, ids=[d[0] for d in _ONE_POINT_DATA])
def test_one_point_route_has_the_block_routes_bits(name, phi):
    # one point takes the Python-float route; two points or more, the
    # block route: a point's bits must not tell which one summed it.
    # Complex points cover the same real parts with each imaginary part of
    # _ONE_POINT_IM, both signs (so each conjugate too), and the real axis,
    # where a node's value is the node's datum exactly; the block route
    # sums each point among its mirrors and conjugates, which share its H
    grid = _one_point_grid()
    for w in grid:
        cached = series._map.cache_info().currsize
        got = _cardinal_sum(phi, np.array([w]))
        if abs(w) > 2040.0:  # the map beyond H = 2048 is built, not cached
            assert series._map.cache_info().currsize == cached
        want = _cardinal_sum(phi, np.array([w, -w]))[:1]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, w)
    ims = np.array([0.0] + _ONE_POINT_IM + [-im for im in _ONE_POINT_IM])
    nodes = np.arange(41) + 0.5
    for a in grid[:grid.size // 2]:
        col = a + 1j * ims
        pts = np.concatenate([col, -col])
        want = _cardinal_sum(phi, pts)
        for w, v in zip(pts, want):
            got = _cardinal_sum(phi, np.array([w]))
            assert got.dtype == want.dtype and got.tobytes() == v.tobytes(), (name, w)
    at_nodes = _cardinal_sum(phi, np.concatenate([nodes, -nodes]).astype(complex))
    assert at_nodes.real.tobytes() == np.tile(phi(nodes), 2).tobytes(), name
    assert not at_nodes.imag.any(), name
    for w in (2.0**20 + 1.0, math.nan, math.inf, -math.inf):
        for pts in (np.array([w]), np.array([w, 0.5])):
            _raises_without_warning(phi, pts)
    # beyond |Im w| = 226.15 cosh(pi Im w) overflows; at 226 it is 1.1e308
    for im in (226.2, 260.0, math.inf, math.nan):
        for s in (1.0, -1.0):
            w = complex(0.3, s * im)
            for pts in (np.array([w]), np.array([w, 0.5])):
                _raises_without_warning(phi, pts)
    for a in (0.0, 0.5, 3.3, 20.0):
        w = complex(a, 226.0)
        got = _cardinal_sum(phi, np.array([w]))
        assert got.tobytes() == _cardinal_sum(phi, np.array([w, -w]))[:1].tobytes(), (name, w)


def test_threads_sum_in_their_own_term_buffers():
    # the term buffers are per thread: threads that run the series at once
    # (numpy releases the GIL inside each block) get the serial bits
    rng = np.random.default_rng(11)
    xs = [rng.uniform(-20.0, 20.0, 2001) + 1j * rng.uniform(-3.0, 3.0, 2001) * (i % 2)
          for i in range(6)]
    kern = ExpKernel(0.3)
    want = [eval_K(kern, x).tobytes() for x in xs]
    got = [None] * len(xs)

    def work(i):
        for _ in range(20):
            got[i] = eval_K(kern, xs[i]).tobytes()
            if got[i] != want[i]:
                return

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(xs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_single_precision_points_are_summed_in_double():
    # the points are dilated and summed in double precision
    x = np.linspace(-20.0, 20.0, 101).astype(np.float32)
    k = ExpKernel(0.3, 0.7)
    assert eval_K(k, x).tobytes() == eval_K(k, x.astype(float)).tobytes()
    z = (x + 1j).astype(np.complex64)
    assert eval_K(k, z).tobytes() == eval_K(k, z.astype(complex)).tobytes()


def _crvz_weights_fraction(n):
    b = [Fraction(1)]
    for j in range(n):
        b.append(b[-1] * 2 * (n + j) * (n - j) / ((2 * j + 1) * (j + 1)))
    total = sum(b)
    return [(-1) ** k * float(sum(b[k + 1:]) / total) for k in range(n)]


def test_crvz_weights_match_exact_rationals():
    # the b_j are integers, so integer arithmetic and one int / int division
    # per weight round exactly as float(Fraction) does
    for n in range(1, 41):
        assert series._crvz_weights(n).tolist() == _crvz_weights_fraction(n), n
    assert series._CRVZ.tolist() == _crvz_weights_fraction(24)


def test_series_import_leaves_fractions_unloaded(fresh_python):
    res = fresh_python("-c", "import sys, xapprox.series; print('fractions' in sys.modules)")
    assert res.stdout.strip() == "False"


def test_dirichlet_beta_known_values(ref):
    assert dirichlet_beta(1.0) == pytest.approx(math.pi / 4.0, abs=1e-14)
    for s_txt, val in ref["dirichlet_beta"].items():
        assert dirichlet_beta(float(s_txt)) == pytest.approx(val, abs=2e-14)


def test_dirichlet_beta_against_mpmath():
    for s in np.concatenate([np.geomspace(1e-6, 0.05, 8), np.linspace(0.05, 3.0, 60)]):
        with mp.workdps(30):
            expect = float(mp.mpf(4) ** -mp.mpf(s)
                           * (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4))
                           if s != 1.0 else mp.pi / 4)
        assert abs(dirichlet_beta(s) - expect) <= 1e-15, s


def test_dirichlet_beta_rejects_nonpositive():
    with pytest.raises(ValueError):
        dirichlet_beta(0.0)
    with pytest.raises(ValueError):
        dirichlet_beta(-1.0)


def test_catalan_30_digits(ref):
    assert catalan() == pytest.approx(float(ref["catalan_30"]), abs=2e-15)
