"""Spectral models: density shapes, autocorrelations, and validation."""

import math
import warnings

import numpy as np
import pytest
import mpmath
from scipy import integrate, special

from fadingrate.model import (
    ChannelParams,
    Jakes,
    RaisedCosine,
    Rectangular,
)


def test_channel_params_defaults_and_rho():
    p = ChannelParams()
    assert p.rho == 1.0
    p = ChannelParams(sigma_x2=4.0, sigma_h2=0.5, sigma_n2=2.0)
    assert p.rho == pytest.approx(1.0, rel=1e-15)


def test_channel_params_with_power():
    p = ChannelParams(f_d=0.2).with_power(9.0)
    assert p.sigma_x2 == 9.0 and p.f_d == 0.2


@pytest.mark.parametrize("bad", [
    dict(sigma_h2=0.0), dict(sigma_n2=-1.0), dict(sigma_x2=-0.1),
    dict(f_d=0.0), dict(f_d=0.5), dict(f_d=0.7),
    dict(sigma_x2=math.nan), dict(sigma_x2=math.inf),
    dict(sigma_h2=math.inf), dict(sigma_n2=math.inf),
])
def test_channel_params_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        ChannelParams(**bad)


def test_channel_params_refuses_overflowing_snr():
    # finite powers whose SNR rho overflows to inf are refused here, without
    # a warning, instead of failing later inside a bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rho = .* must be finite, got inf"):
            ChannelParams(f_d=0.1, sigma_x2=1e300, sigma_n2=1e-10)
        with pytest.raises(ValueError, match="rho = .* must be finite, got inf"):
            ChannelParams(sigma_n2=1e-10).with_power(1e300)


def test_rect_autocorr_is_sinc():
    m = Rectangular(0.1)
    assert m.autocorr(0) == pytest.approx(1.0, abs=1e-15)
    assert m.autocorr(1) == pytest.approx(0.93548928378863903, abs=1e-15)
    # the flat density of width 2 f_d has zeros at multiples of 1/(2 f_d)
    assert m.autocorr(5) == pytest.approx(0.0, abs=1e-15)


def test_rect_psd_height_and_support():
    m = Rectangular(0.2, sigma_h2=3.0)
    assert m.psd(0.0) == pytest.approx(3.0 / 0.4)
    assert m.psd(0.19) == m.psd(-0.19)
    assert m.psd(0.21) == 0.0
    with pytest.raises(ValueError):
        m.psd(0.6)


def test_jakes_autocorr_matches_bessel():
    """The dense-scatterer autocorrelation is the zeroth Bessel function;
    mpmath's arbitrary-precision J_0 is the independent oracle, out to lags
    where adaptive quadrature of the inverse transform lost two digits.
    The tolerance covers rounding 2 pi f_d l to double (about 1e-16 of an
    argument up to 3e5, times an amplitude near 1e-3)."""
    for f_d, sigma_h2 in ((0.05, 1.7), (0.11, 1.0), (0.2, 1.7), (0.45, 0.6)):
        m = Jakes(f_d, sigma_h2=sigma_h2)
        for lag in (0, 1, 3, 10, 16384, 54321, 100_000):
            x = 2 * mpmath.pi * mpmath.mpf(f_d) * lag
            expect = sigma_h2 * float(mpmath.besselj(0, x))
            assert m.autocorr(lag) == pytest.approx(expect, abs=1e-13)
            assert m.autocorr(-lag) == m.autocorr(lag)
    # the quadrature route returned 0.0321 here
    assert Jakes(0.11).autocorr(16384) == pytest.approx(0.00562, abs=5e-6)


def test_jakes_spectral_l2_diverges():
    with pytest.raises(ValueError):
        Jakes(0.1).spectral_l2()


@pytest.mark.parametrize("model", [
    Rectangular(0.1), Rectangular(0.45, sigma_h2=0.3),
    Jakes(0.2), RaisedCosine(0.1, 0.2), RaisedCosine(0.15, 1.0, sigma_h2=2.0),
])
def test_density_integrates_to_power(model):
    mass, _ = integrate.quad(model.psd, -0.5, 0.5, limit=300, points=[
        -model.support_edge, model.support_edge])
    assert mass == pytest.approx(model.sigma_h2, rel=1e-8)
    assert model.autocorr(0) == pytest.approx(model.sigma_h2, rel=1e-12)
    assert model.transform(lambda s: s) == pytest.approx(model.sigma_h2, rel=1e-8)


def test_raised_cosine_frozen_values():
    m = RaisedCosine(0.1, 0.2)
    assert m.autocorr(1) == pytest.approx(0.9340908528269529, abs=1e-13)
    assert m.autocorr(3) == pytest.approx(0.49779265434480136, abs=1e-13)
    assert m.autocorr(7) == pytest.approx(-0.20080732305968052, abs=1e-13)
    assert m.spectral_l2() == pytest.approx(4.75, rel=1e-10)


def test_raised_cosine_autocorr_matches_direct_transform():
    m = RaisedCosine(0.12, 0.6, sigma_h2=1.3)
    for lag in (1, 2, 5, 9):
        direct, _ = integrate.quad(
            lambda f: m.psd(f) * math.cos(2.0 * math.pi * f * lag),
            -m.support_edge, m.support_edge, limit=300,
        )
        assert m.autocorr(lag) == pytest.approx(direct, abs=1e-10)


def _scalar_autocorr(model, lag):
    # the one-lag-at-a-time formulas that the array autocorr replaced
    if isinstance(model, Rectangular):
        return model.sigma_h2 * float(np.sinc(2.0 * model.f_d * lag))
    if isinstance(model, Jakes):
        x = 2.0 * math.pi * model.f_d * abs(float(lag))
        return model.sigma_h2 * float(special.j0(x))
    u = 4.0 * model.beta_ro * model.f_d * abs(float(lag))
    taper = (math.pi / 2.0) * float(np.sinc((1.0 - u) / 2.0)) / (1.0 + u)
    return model.sigma_h2 * float(np.sinc(2.0 * model.f_d * lag)) * taper


@pytest.mark.parametrize("model", [
    Rectangular(0.1), Jakes(0.1), Jakes(0.01),
    RaisedCosine(0.1, 0.2), RaisedCosine(0.24, 0.05),
    # u = 4 beta_ro f_d |l| hits the removable point u = 1 at lag 10
    RaisedCosine(0.1, 0.25),
])
def test_array_autocorr_matches_scalar_formulas(model):
    lags = np.arange(-100, 20001)
    got = model.autocorr(lags)
    want = np.array([_scalar_autocorr(model, int(l)) for l in lags])
    assert got.shape == lags.shape and np.array_equal(got, want)
    for lag in (0, 10, -7, np.int64(3)):
        val = model.autocorr(lag)
        assert type(val) is float and val == _scalar_autocorr(model, int(lag))
    if isinstance(model, RaisedCosine) and model.beta_ro == 0.25:
        assert 4.0 * model.beta_ro * model.f_d * 10 == 1.0


def test_raised_cosine_support_and_validation():
    m = RaisedCosine(0.1, 0.2)
    assert m.support_edge == pytest.approx(0.12)
    assert m.psd(0.07) == pytest.approx(m.psd(0.0))  # inside the flat part
    assert m.psd(0.13) == 0.0
    with pytest.raises(ValueError):
        RaisedCosine(0.3, 0.8)  # roll-off would cross the half-rate edge
    with pytest.raises(ValueError):
        RaisedCosine(0.1, 0.0)
    with pytest.raises(ValueError):
        RaisedCosine(0.1, 1.5)
    with pytest.raises(ValueError):
        RaisedCosine(0.1, 0.2, sigma_h2=math.inf)


def test_psd_is_even():
    for m in (Rectangular(0.3), Jakes(0.25), RaisedCosine(0.2, 0.4)):
        for f in (0.05, 0.15, 0.21):
            assert m.psd(f) == pytest.approx(m.psd(-f), rel=1e-12)
