"""Log-moment evaluation, spectral log integrals, and Monte Carlo plumbing."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special

from fadingrate.model import Jakes, RaisedCosine, Rectangular
from fadingrate.quadrature import (
    _G_MOMENTS_UP_TO,
    EULER_GAMMA,
    _g_logmoment,
    _log_mix_psk,
    _psk_window,
    _szego_shaped,
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


def test_g_logmoment_refuses_before_the_cache():
    before = _g_logmoment.cache_info()
    for a in (math.nan, math.inf, -math.inf, -0.5, -1e-300):
        with pytest.raises(ValueError):
            g_logmoment(a)
    assert _g_logmoment.cache_info() == before
    zero = g_logmoment(-0.0)
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    assert _g_logmoment.cache_info() == before


def _switch_neighbours(steps):
    # the moment series' last argument and the doubles within steps of it
    grid = [_G_MOMENTS_UP_TO]
    for toward in (0.0, math.inf):
        a = _G_MOMENTS_UP_TO
        for _ in range(steps):
            a = math.nextafter(a, toward)
            grid.append(a)
    return grid


def test_g_logmoment_cache_is_bit_identical_to_the_core():
    # the switch from the moment series to scipy's E_1 at a = 1/600, with
    # its neighbouring doubles
    grid = list(10.0 ** (np.arange(-120, 121) / 20.0)) + _switch_neighbours(2)
    for a in grid:
        first, again = g_logmoment(a), g_logmoment(a)
        core = _g_logmoment.__wrapped__(a)
        assert first == again == core
        assert math.copysign(1.0, first) == math.copysign(1.0, core)


def test_g_logmoment_matches_scipy_identity():
    """E[log(1+aZ)] = e^{1/a} E_1(1/a); on the moment-series branch
    (a <= 1/600) scipy's exp1 is an independent route to the right-hand side."""
    for a in 1.0 / np.linspace(601.0, 700.0, 34):
        assert a <= _G_MOMENTS_UP_TO
        x = 1.0 / a
        assert g_logmoment(a) == pytest.approx(math.exp(x) * special.exp1(x), rel=2e-15)


def test_g_logmoment_matches_mpmath():
    """e^x E_1(x) at x = 1/a in 30-digit arithmetic over 1e-8 <= a <= 1e8,
    20 points per decade, plus the doubles next to the switch at a = 1/600
    on both branches."""
    grid = list(10.0 ** (np.arange(-160, 161) / 20.0)) + _switch_neighbours(8)
    grid += [0.999 * _G_MOMENTS_UP_TO, 1.001 * _G_MOMENTS_UP_TO]
    for a in grid:
        with mpmath.workdps(30):
            x = 1 / mpmath.mpf(a)
            expect = float(mpmath.exp(x) * mpmath.e1(x))
        assert g_logmoment(a) == pytest.approx(expect, rel=2e-15, abs=0.0)


def test_g_logmoment_series_branch_is_continuous():
    # the series branch hands over to scipy's E_1 at a = 1/600: the last
    # series value and the first E_1 value one double apart agree to
    # rounding, and the slope across the switch is g'(a) = 1 - 2a + 6a^2 - ...
    last = _G_MOMENTS_UP_TO
    first = math.nextafter(last, math.inf)
    assert g_logmoment(first) == pytest.approx(g_logmoment(last), rel=2e-15)
    below, above = 0.999 * last, 1.001 * last
    slope = (g_logmoment(above) - g_logmoment(below)) / (above - below)
    assert slope == pytest.approx(1.0 - 2.0 * last + 6.0 * last**2 - 24.0 * last**3, rel=1e-8)
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


def test_gauss_route_refuses_non_finite():
    for a in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"argument must be finite, got {a}"):
            g_logmoment_gauss(a)


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


@pytest.mark.parametrize("model", [Rectangular(0.1), Jakes(0.1), RaisedCosine(0.1, 0.2)],
                         ids=repr)
def test_szego_refuses_before_the_cache(model):
    before = _szego_shaped.cache_info()
    for c in (math.nan, math.inf, -math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"c must be finite, got {c}"):
                szego_log_integral(model, c)
    with pytest.raises(ValueError, match="c must be nonnegative"):
        szego_log_integral(model, -1.0)
    assert szego_log_integral(model, 0.0) == 0.0
    assert _szego_shaped.cache_info() == before


@pytest.mark.parametrize("model", [Jakes(0.01), Jakes(0.24), RaisedCosine(0.1, 0.2),
                                   RaisedCosine(0.24, 1.0)], ids=repr)
def test_szego_memo_is_bit_identical_to_the_rule(model):
    for c in 10.0 ** (np.arange(-80, 101, 7) / 10.0):
        first, again = szego_log_integral(model, c), szego_log_integral(model, c)
        # an equal model built anew shares the entry
        twin = dataclasses.replace(model)
        direct = model.transform(lambda s: np.log1p(c * s / model.sigma_h2))
        assert first == again == szego_log_integral(twin, c) == direct


def test_szego_overflow_is_refused_and_not_cached():
    # at 3000 dB the Jakes edge nodes overflow log1p(c S): the rule sum is
    # refused each time, and the refusal stores no entry
    model = Jakes(0.01)
    size = _szego_shaped.cache_info().currsize
    for _ in range(2):
        with pytest.raises(OverflowError, match="spectral integral overflows double precision"):
            szego_log_integral(model, 1e300)
    assert _szego_shaped.cache_info().currsize == size


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


def _log_mix_psk_quiet(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _log_mix_psk(*args)


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
    # side of m's cut; real centers (the estimators) and complex ones at
    # scale 2.5, which the kernel takes as the real center |c| / sqrt(scale)
    # at unit scale for the row rotated by conj(c) / |c| and divided by
    # sqrt(scale) (exact in exact arithmetic)
    cut = _psk_window(m)[0]
    y, c = [], []
    for kappa in PSK_KAPPAS + [cut * (1.0 - 1e-9), cut * (1.0 + 1e-9)]:
        near = 0.5 / math.sqrt(1.0 + kappa)
        anywhere = rng.uniform(-1.0, 1.0) * math.pi / m
        for d, r, real in ((0.0, 0.0, True), (0.8, near, True), (0.3, math.pi / m, False),
                           (1.7, anywhere, False)):
            scale = 1.0 if real else 2.5
            v = kappa / (d + math.sqrt(d * d + 2.0 * kappa)) if kappa else 0.0
            alpha = 0.0 if real else rng.uniform(-math.pi, math.pi)
            theta = alpha + 2.0 * math.pi * rng.integers(m) / m + r
            center = v * math.sqrt(scale) * complex(math.cos(alpha), math.sin(alpha))
            row = (v + d) * math.sqrt(scale) * complex(math.cos(theta), math.sin(theta))
            if not real:
                turn = center.conjugate() / abs(center) if center else 1.0
                row, center = row * turn / math.sqrt(scale), abs(center) / math.sqrt(scale)
            c.append(center.real)
            y.append(row)
    return np.array(y), np.array(c)


def _psk_reference(y, c, m):
    # (L, S) of one row from the direct sum over all m phases in 40 digits
    with mpmath.workdps(40):
        y, c = mpmath.mpc(y), mpmath.mpc(c)
        cx = [c * mpmath.expjpi(mpmath.mpf(2 * j) / m) for j in range(m)]
        a = [-abs(y - p) ** 2 for p in cx]
        top = max(a)
        weights = [mpmath.exp(t - top) for t in a]
        total = mpmath.fsum(weights)
        row = top + mpmath.log(total)

        def slope(f):
            return abs(mpmath.fsum(w * f(p) for w, p in zip(weights, cx)) / total)

        sens = (slope(lambda p: -2 * mpmath.re(mpmath.conj(1j * y) * (y - p)))
                + slope(lambda p: -2 * mpmath.re(mpmath.conj(y) * (y - p)))
                + slope(lambda p: -2 * mpmath.re(mpmath.conj(p) * (p - y))))
        return float(row), float(sens)


@pytest.mark.parametrize("m", PSK_POINTS)
def test_log_mix_psk_matches_mpmath(m):
    """Over kappa in [0, 1e6] and both sides of m's cut, at the nearest
    phase, near it, half way between two phases and anywhere between."""
    y, c = _psk_rows(m, np.random.default_rng(m))
    got = np.array([_log_mix_psk(y[i:i + 1], c[i:i + 1], m)[0] for i in range(len(y))])
    for i in range(len(y)):
        want, sens = _psk_reference(y[i], c[i], m)
        assert abs(got[i] - want) <= 1e-13 + 2e-15 * sens, (m, y[i], c[i])


@pytest.mark.parametrize("m", PSK_POINTS)
def test_psk_cut_is_the_first_series_term_to_rounding(m):
    # 2 I_m / I_0 is below 1e-16 at the cut and not at one part in 1e9 above
    cut = _psk_window(m)[0]
    assert 2.0 * special.ive(m, cut) < 1e-16 * special.i0e(cut)
    above = cut * (1.0 + 1e-9)
    assert 2.0 * special.ive(m, above) >= 1e-16 * special.i0e(above)


@pytest.mark.parametrize("m", PSK_POINTS)
def test_psk_cut_matches_200_bisection_steps(m):
    # the bisection stops once its midpoint is an end; 200 steps, long past
    # the point where the bracket stops shrinking, find the same cut
    lo, hi = 0.0, float(m * m)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * special.ive(m, mid) < 1e-16 * special.i0e(mid):
            lo = mid
        else:
            hi = mid
    assert _psk_window(m)[0] == lo


@pytest.mark.parametrize("m", PSK_POINTS)
def test_psk_log_i0e_matches_mpmath(m):
    """The kernel's interpolant of log i0e alone, over [0, cut] at linearly
    and log-spaced points, against 40-digit log I_0(kappa) - kappa."""
    cut, _, _, log_i0e = _psk_window(m)
    kappa = np.concatenate([np.linspace(0.0, cut, 65), cut * np.logspace(-12.0, 0.0, 65)])
    got = log_i0e(kappa)
    with mpmath.workdps(40):
        want = [float(mpmath.log(mpmath.besseli(0, k)) - k) for k in map(mpmath.mpf, kappa)]
    assert np.abs(got - want).max() <= 1e-14
    assert log_i0e(np.zeros(1))[0] == 0.0


def _psk_window_rows_unfloored(y, h, m):
    # the kernel's window rows as they were before terms below e^-700 were
    # set to 0: exp over every window column
    _, cos_k, sin_k, _ = _psk_window(m)
    step = 2.0 * math.pi / m
    ay = np.abs(y)
    phi = np.angle(y)
    half = 0.5 * (phi - step * np.rint(phi / step))
    root = 2.0 * np.sqrt(ay) * np.sqrt(h)
    t0 = root * np.sin(half)
    t = np.multiply.outer(t0, cos_k)
    t -= np.multiply.outer(root * np.cos(half), sin_k)
    np.square(t, out=t)
    t0 *= t0
    with np.errstate(under="ignore"):
        np.subtract(np.minimum(t0, np.finfo(float).max)[:, None], t, out=t)
        np.exp(t, out=t)
    d = ay - h
    return np.log1p(t.sum(axis=1)) - t0 - d * d


@pytest.mark.parametrize("m", [100, 256])
def test_log_mix_psk_window_floor_keeps_the_bits(m):
    """Window terms below e^-700 set to 0 move no bit of a row with kappa
    from 128 to 1e5: on a phase (where y = c, the row is the neighbours'
    sum alone), half way between two, and anywhere.  A row on a phase can
    move once its neighbours fall below e^-700, from kappa about
    350 / sin^2(pi / m): 3.5e5 at m = 100, but 700 at m = 4."""
    rng = np.random.default_rng(m)
    cut = _psk_window(m)[0]
    kappa = np.logspace(math.log10(max(128.0, 2.0 * cut)), 5.0, 400)
    offset = rng.uniform(-1.0, 1.0, kappa.size) * math.pi / m
    offset[::4], offset[1::4] = 0.0, math.pi / m
    gap = rng.uniform(0.0, 2.0, kappa.size)
    gap[::4] = 0.0
    for scale in (1.0, 2.5):
        v = kappa / (gap + np.sqrt(gap * gap + 2.0 * kappa))
        alpha = rng.uniform(-math.pi, math.pi, kappa.size) if scale != 1.0 else 0.0
        theta = alpha + 2.0 * math.pi * rng.integers(m, size=kappa.size) / m + offset
        c = v * math.sqrt(scale) * np.exp(1j * alpha)
        y = (v + gap) * math.sqrt(scale) * np.exp(1j * theta)
        # a complex center at scale 2.5 is the real one |c| / sqrt(scale) at
        # unit scale for the row rotated by conj(c) / |c|
        y, h = y * (np.conj(c) / np.abs(c)) / math.sqrt(scale), np.abs(c) / math.sqrt(scale)
        assert np.array_equal(_log_mix_psk_quiet(y, h, m), _psk_window_rows_unfloored(y, h, m))


def test_log_mix_psk_overflowing_rows_give_minus_inf():
    # every distance overflows (as |y| or as the phase gap at huge moduli),
    # or y is infinite against a finite center: -inf, as the direct sum
    # gives; a nearest phase at distance 0 among overflowing ones gives 0,
    # also where kappa = 2 |y| h itself overflows
    tilt = np.exp(0.5j * math.pi / 100)
    y = np.array([1e200, 1e200 * tilt, np.inf, np.inf, 1e200, 1e300], dtype=complex)
    c = np.array([0.0, 1e200, 1.0, 0.0, 1e200, 1e300])
    got = _log_mix_psk_quiet(y, c, 100)
    assert np.array_equal(got, [-np.inf] * 4 + [0.0, 0.0])


def test_log_mix_psk_nan_in_gives_nan():
    y = np.array([np.nan, 1.0, np.nan, 30.0 + 1j, complex(np.nan, 1.0), np.inf])
    c = np.array([1.0, np.nan, 0.0, np.nan, 30.0, np.inf])
    for m in (2, 100):
        assert np.isnan(_log_mix_psk_quiet(y, c, m)).all()


def test_log_mix_psk_zero_center_is_log_m_minus_energy():
    y = np.array([0.0, 0.5 - 1.5j, 3.0 + 0.25j, 1e5 + 0j, 1e-160j])
    for m in PSK_POINTS:
        for scale in (1.0, 0.37, 2.0):
            got = _log_mix_psk_quiet(y / math.sqrt(scale), np.zeros(5), m)
            assert np.array_equal(got, math.log(m) + -np.abs(y / math.sqrt(scale)) ** 2)
