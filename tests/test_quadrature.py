"""Log-moment evaluation, spectral log integrals, and Monte Carlo plumbing."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special

from fadingrate.model import Jakes, RaisedCosine, Rectangular
from fadingrate.quadrature import (
    _CHUNK,
    EULER_GAMMA,
    _log_mix,
    _mix_work,
    g_logmoment,
    g_logmoment_gauss,
    make_rng,
    szego_log_integral,
)

# Exponential-integral identity values computed with 50-digit arithmetic.
G_REFERENCE = {
    0.001: 0.000999001994023880715,
    0.1: 0.091563333939788081876,
    1.0: 0.59634736232319407434,
    5.0: 1.4933487469322396119,
    10.0: 2.0146425447084516791,
    100.0: 4.0785114434564258466,
    1e6: 13.238309131365003456,
}


@pytest.mark.parametrize("a,expected", sorted(G_REFERENCE.items()))
def test_g_logmoment_reference_values(a, expected):
    assert g_logmoment(a) == pytest.approx(expected, abs=3e-15, rel=3e-15)


def test_g_logmoment_edge_cases():
    assert g_logmoment(0.0) == 0.0
    with pytest.raises(ValueError):
        g_logmoment(-0.5)
    for a in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"argument must be finite, got {a}"):
            g_logmoment(a)


def test_g_logmoment_matches_scipy_identity():
    """E[log(1+aZ)] = e^{1/a} E_1(1/a); scipy's exp1 is an independent
    implementation of the right-hand side."""
    for a in (0.2, 1.0, 3.0, 7.5):
        x = 1.0 / a
        assert g_logmoment(a) == pytest.approx(math.exp(x) * special.exp1(x), rel=1e-13)


def test_g_logmoment_matches_mpmath():
    """e^x E_1(x) at x = 1/a in 30-digit arithmetic over 1e-8 <= a <= 1e8,
    20 points per decade, across the series, E_1-series and continued
    fraction branches."""
    for a in 10.0 ** (np.arange(-160, 161) / 20.0):
        with mpmath.workdps(30):
            x = 1 / mpmath.mpf(a)
            expect = float(mpmath.exp(x) * mpmath.e1(x))
        assert g_logmoment(a) == pytest.approx(expect, rel=1e-14, abs=0.0)


def test_g_logmoment_series_branch_is_continuous():
    # the series branch hands over at small argument; both sides must agree
    below, above = 0.999e-4, 1.001e-4
    slope = (g_logmoment(above) - g_logmoment(below)) / (above - below)
    assert slope == pytest.approx(1.0, abs=1e-2)
    assert g_logmoment(1e-9) == pytest.approx(1e-9, rel=1e-6)


def test_g_logmoment_bounds_and_monotonicity():
    grid = 10.0 ** np.arange(-4, 7, 0.25)
    vals = [g_logmoment(a) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # Jensen from above, and the high-SNR expansion log(a) - gamma from below
    for a, v in zip(grid, vals):
        assert v < math.log1p(a)
        if a > 1:
            assert v > math.log(a) - EULER_GAMMA - 1.0 / a


def test_gauss_route_agrees_where_it_converges():
    for a in (0.1, 0.5, 1.0, 3.0):
        assert g_logmoment_gauss(a) == pytest.approx(g_logmoment(a), abs=1e-10)
    assert g_logmoment_gauss(10.0, order=180) == pytest.approx(g_logmoment(10.0), abs=1e-8)


def test_szego_rect_closed_form():
    val = szego_log_integral(Rectangular(0.1), 1.0)
    assert val == pytest.approx(0.35835189384561100016, abs=1e-15)
    assert val == pytest.approx(0.2 * math.log1p(5.0), abs=1e-15)
    assert szego_log_integral(Rectangular(0.3), 0.0) == 0.0
    with pytest.raises(ValueError):
        szego_log_integral(Rectangular(0.3), -1.0)


def test_szego_jakes_frozen_value():
    assert szego_log_integral(Jakes(0.1), 1.0) == pytest.approx(
        0.3367161284733811, abs=1e-10)


def _szego_reference(model, c):
    # 30-digit tanh-sinh quadrature in the physical frequency variable (Jakes
    # after f = f_d sin t), independent of the models' node/weight rules
    with mpmath.workdps(30):
        c, fd = mpmath.mpf(c), mpmath.mpf(model.f_d)
        if isinstance(model, Jakes):
            return float(2 * mpmath.quad(
                lambda t: mpmath.log1p(c / (mpmath.pi * fd * mpmath.cos(t))) * fd * mpmath.cos(t),
                [0, mpmath.pi / 2]))
        beta = mpmath.mpf(model.beta_ro)
        lo, hi = (1 - beta) * fd, (1 + beta) * fd
        shape = lambda f: (1 - mpmath.sin(mpmath.pi * (f - fd) / (2 * beta * fd))) / (4 * fd)
        roll = mpmath.quad(lambda f: mpmath.log1p(c * shape(f)), [lo, fd, hi])
        return float(2 * lo * mpmath.log1p(c / (2 * fd)) + 2 * roll)


@pytest.mark.parametrize("model", [
    Jakes(0.005), Jakes(0.1), Jakes(0.45),
    RaisedCosine(0.01, 0.2), RaisedCosine(0.1, 1.0), RaisedCosine(0.24, 0.05),
], ids=repr)
def test_szego_rule_matches_mpmath(model):
    """The graded rule holds machine precision from c = 1e-8, where the log
    transition sits 1e-8 from the band edge, to c = 1e10; the adaptive
    quadrature it replaced was off by up to 3.6e-6 relative."""
    for c in (1e-8, 1e-4, 1.0, 1e4, 1e10):
        expect = _szego_reference(model, c)
        assert szego_log_integral(model, c) == pytest.approx(expect, rel=1e-14, abs=0.0)


def test_make_rng_streams_and_validation():
    a = make_rng(5, 0).standard_normal(4)
    b = make_rng(5, 0).standard_normal(4)
    c = make_rng(5, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        make_rng(-1)


PHASES = np.exp(2j * math.pi * np.arange(100) / 100)
# recent scipy releases take the row maximum out of the sum and add log1p
# of the rest; older ones take the log of the whole shifted sum, which
# loses the 4e-18 below
SPLIT_MAX = special.logsumexp([0.0, -40.0]) > 0.0


def _logsumexp_rows(y, centers, xs, scale):
    # the log-mixture exactly as the Monte Carlo estimators used to form it
    d2 = np.abs(y[:, None] - centers[:, None] * xs[None, :]) ** 2
    return special.logsumexp(-d2 / scale, axis=1)


def _log_mix_quiet(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _log_mix(*args)


@pytest.mark.parametrize("n", [5, _CHUNK - 1, _CHUNK, _CHUNK + 1, 16383, 16384, 16385])
def test_log_mix_matches_logsumexp(n):
    """Bit for bit the split-max log-sum-exp, across block edges and over
    many blocks, for real centers (the symmetry-reduced estimators) and
    complex ones (the simulation oracle), at unit and non-unit scale."""
    rng = np.random.default_rng(n)
    for scale in (1.0, 0.37, 5.25):
        for complex_centers in (False, True):
            centers = 3.0 * rng.exponential(size=n)
            if complex_centers:
                centers = centers * np.exp(2j * math.pi * rng.random(n))
            y = centers + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            got = _log_mix_quiet(y, centers, PHASES, scale)
            want = _logsumexp_rows(y, centers, PHASES, scale)
            if SPLIT_MAX:
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            else:
                np.testing.assert_array_max_ulp(got, want, maxulp=4)


def test_log_mix_reused_work_matches_fresh_buffers():
    """One work set serves calls of any row count up to its size, and what
    an earlier call left in it does not reach a later one."""
    rng = np.random.default_rng(7)
    work = _mix_work(_CHUNK + 3, len(PHASES))
    for n, scale in ((_CHUNK + 3, 1.0), (400, 0.37), (5, 5.25), (400, 1.0)):
        centers = 3.0 * rng.exponential(size=n)
        y = centers + rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = _log_mix_quiet(y, centers, PHASES, scale, work)
        want = _log_mix_quiet(y, centers, PHASES, scale)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_log_mix_reused_work_touches_no_new_pages():
    # a search runs the kernel thousands of times on a few hundred rows;
    # with one work set the calls after the first fault in no fresh pages
    # (buffers allocated per call cost from about one fault per call up to
    # 240 per call when malloc trims the heap in between)
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(3)
    centers = 3.0 * rng.exponential(size=400)
    y = centers + rng.standard_normal(400) + 1j * rng.standard_normal(400)
    work = _mix_work(400, len(PHASES))
    _log_mix(y, centers, PHASES, 1.0, work)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(200):
        _log_mix(y, centers, PHASES, 1.0, work)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 20


def test_log_mix_all_tied_rows():
    # zero centers (a vanishing prediction variance) put every point at the
    # same distance: the sum is log(m) plus the shared exponent
    y = np.array([0.0, 0.5 - 1.5j, 3.0 + 0.25j])
    centers = np.zeros(3)
    got = _log_mix_quiet(y, centers, PHASES, 2.0)
    assert np.array_equal(got, _logsumexp_rows(y, centers, PHASES, 2.0))
    assert np.array_equal(got, math.log(100) + -np.abs(y) ** 2 / 2.0)


def test_log_mix_overflowing_rows_match_logsumexp():
    # all distances overflow -> -inf; only the nearest point finite -> its
    # exponent; an infinite center against an infinite output -> NaN
    y = np.array([1e200 + 0j, 1e200 + 0j, np.inf + 0j, 1.0 + 0j])
    centers = np.array([0.0, 1e200, np.inf, 0.5])
    got = _log_mix_quiet(y, centers, PHASES, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _logsumexp_rows(y, centers, PHASES, 1.0)
    np.testing.assert_array_equal(got, want)
    assert got[0] == -np.inf and got[1] == 0.0 and np.isnan(got[2]) and np.isfinite(got[3])
