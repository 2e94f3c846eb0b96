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
    _log_mix_psk,
    _psk_window,
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


def _log_mix_quiet(*args, kernel=_log_mix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return kernel(*args)


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


# The m-PSK kernel against 40-digit mpmath.  The bound, fixed before the
# first run: 1e-13 absolute plus 2e-15 times the row's sensitivity S to
# its inputs, S = |dL/dphi| + |y| |dL/d|y|| + |c| |dL/d|c||.  The second
# term is what a phase error of 2e-15 (a few ulps of pi: two arctan2 values
# and the reduction to the nearest phase) or a like relative error in a
# modulus moves the exact value by; any kernel that reads y and c in
# double precision has it, the direct sum as well.  It grows like
# sqrt(kappa) on rows near a phase and like kappa between two phases.
PSK_POINTS = [2, 3, 4, 16, 100, 256]
PSK_KAPPAS = [0.0] + [10.0 ** e for e in np.arange(-12.0, 6.01, 1.5)]


def _psk_rows(m, rng):
    # rows of modulus gap d (in units of sqrt(scale)) and offset r from the
    # nearest phase, at every kappa of PSK_KAPPAS and one part in 1e9 each
    # side of m's cut; real centers (the estimators) and complex ones
    cut = _psk_window(m)[0]
    y, c, s = [], [], []
    for kappa in PSK_KAPPAS + [cut * (1.0 - 1e-9), cut * (1.0 + 1e-9)]:
        near = 0.5 / math.sqrt(1.0 + kappa)
        anywhere = rng.uniform(-1.0, 1.0) * math.pi / m
        for d, r, real in ((0.0, 0.0, True), (0.8, near, True), (0.3, math.pi / m, False),
                           (1.7, anywhere, False)):
            scale = 1.0 if real else 2.5
            v = kappa / (d + math.sqrt(d * d + 2.0 * kappa)) if kappa else 0.0
            alpha = 0.0 if real else rng.uniform(-math.pi, math.pi)
            theta = alpha + 2.0 * math.pi * rng.integers(m) / m + r
            c.append(v * math.sqrt(scale) * complex(math.cos(alpha), math.sin(alpha)))
            y.append((v + d) * math.sqrt(scale) * complex(math.cos(theta), math.sin(theta)))
            s.append(scale)
    return np.array(y), np.array(c), np.array(s)


def _psk_reference(y, c, m, scale):
    # (L, S) of one row from the direct sum over all m phases in 40 digits
    with mpmath.workdps(40):
        y, c, scale = mpmath.mpc(y), mpmath.mpc(c), mpmath.mpf(scale)
        cx = [c * mpmath.expjpi(mpmath.mpf(2 * j) / m) for j in range(m)]
        a = [-abs(y - p) ** 2 / scale for p in cx]
        top = max(a)
        weights = [mpmath.exp(t - top) for t in a]
        total = mpmath.fsum(weights)
        row = top + mpmath.log(total)

        def slope(f):
            return abs(mpmath.fsum(w * f(p) for w, p in zip(weights, cx)) / total)

        sens = (slope(lambda p: -2 * mpmath.re(mpmath.conj(1j * y) * (y - p)) / scale)
                + slope(lambda p: -2 * mpmath.re(mpmath.conj(y) * (y - p)) / scale)
                + slope(lambda p: -2 * mpmath.re(mpmath.conj(p) * (p - y)) / scale))
        return float(row), float(sens)


@pytest.mark.parametrize("m", PSK_POINTS)
def test_log_mix_psk_matches_mpmath(m):
    """Over kappa in [0, 1e6] and both sides of m's cut, at the nearest
    phase, near it, half way between two phases and anywhere between."""
    y, c, scale = _psk_rows(m, np.random.default_rng(m))
    got = np.array([_log_mix_psk(y[i:i + 1], c[i:i + 1], m, scale[i])[0]
                    for i in range(len(y))])
    for i in range(len(y)):
        want, sens = _psk_reference(y[i], c[i], m, scale[i])
        assert abs(got[i] - want) <= 1e-13 + 2e-15 * sens, (m, y[i], c[i], scale[i])


@pytest.mark.parametrize("m", PSK_POINTS)
def test_psk_cut_is_the_first_series_term_to_rounding(m):
    # 2 I_m / I_0 is below 1e-16 at the cut and not at one part in 1e9 above
    cut = _psk_window(m)[0]
    assert 2.0 * special.ive(m, cut) < 1e-16 * special.i0e(cut)
    above = cut * (1.0 + 1e-9)
    assert 2.0 * special.ive(m, above) >= 1e-16 * special.i0e(above)


def test_log_mix_psk_overflowing_rows_give_minus_inf():
    # every distance overflows (as |y| or as the phase gap at huge moduli),
    # or y is infinite against a finite center: -inf, as the direct sum
    # gives; a nearest phase at distance 0 among overflowing ones gives 0
    tilt = np.exp(0.5j * math.pi / 100)
    y = np.array([1e200, 1e200 * tilt, np.inf, np.inf, 1e200, 1e200 * tilt], dtype=complex)
    c = np.array([0.0, 1e200, 1.0, 0.0, 1e200, 1e200 * tilt], dtype=complex)
    got = _log_mix_quiet(y, c, 100, 1.0, kernel=_log_mix_psk)
    assert np.array_equal(got, [-np.inf] * 4 + [0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(got, _log_mix(y, c, PHASES, 1.0))


def test_log_mix_psk_nan_in_gives_nan():
    y = np.array([np.nan, 1.0, np.nan, 30.0 + 1j, complex(np.nan, 1.0), np.inf])
    c = np.array([1.0, np.nan, 0.0, np.nan, 30.0, np.inf])
    for m in (2, 100):
        assert np.isnan(_log_mix_quiet(y, c, m, 1.0, kernel=_log_mix_psk)).all()


def test_log_mix_psk_zero_center_is_log_m_minus_energy():
    y = np.array([0.0, 0.5 - 1.5j, 3.0 + 0.25j, 1e5 + 0j, 1e-160j])
    for m in PSK_POINTS:
        for scale in (1.0, 0.37, 2.0):
            got = _log_mix_quiet(y, np.zeros(5), m, scale, kernel=_log_mix_psk)
            assert np.array_equal(got, math.log(m) + -np.abs(y) ** 2 / scale)
