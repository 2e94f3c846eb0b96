"""Differential entropy rates of the channel output."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from fadingrate.entropy import (
    EntropyRate,
    _s_rule,
    entropy_gaps,
    h_y_lower,
    h_y_upper,
    h_y_upper_refined,
    h_yx_lower_rect,
    h_yx_upper,
    noise_entropy,
)
from fadingrate.model import ChannelParams, Jakes, Rectangular
from fadingrate.quadrature import g_logmoment, make_rng, szego_log_integral


def test_noise_entropy_closed_form():
    assert noise_entropy(1.0) == pytest.approx(math.log(math.pi * math.e), abs=1e-15)
    assert noise_entropy(2.0) - noise_entropy(1.0) == pytest.approx(math.log(2.0), abs=1e-15)


def test_h_y_lower_is_noise_plus_logmoment():
    p = ChannelParams(sigma_x2=3.0)
    assert h_y_lower(p).value == pytest.approx(noise_entropy(1.0) + g_logmoment(3.0), abs=1e-14)


def test_h_y_upper_alpha_handling():
    p = ChannelParams(sigma_x2=2.0)
    full = h_y_upper(p).value
    assert full == pytest.approx(math.log(math.pi * math.e * 3.0), abs=1e-14)
    assert h_y_upper(p, alpha=0.0).value == pytest.approx(noise_entropy(1.0), abs=1e-14)
    with pytest.raises(ValueError):
        h_y_upper(p, alpha=1.5)
    with pytest.raises(ValueError):
        h_y_upper(p, alpha=-0.1)


def test_ordering_lower_refined_upper():
    """The refined output-entropy value must sit between the analytic
    bracket at any SNR, up to its own reported quadrature error."""
    rng = make_rng(11)
    for _ in range(25):
        p = ChannelParams(
            sigma_x2=float(10.0 ** rng.uniform(-2, 4)),
            sigma_n2=float(10.0 ** rng.uniform(-1, 1)),
        )
        ref = h_y_upper_refined(p)
        slack = ref.err_bound + 1e-12
        assert h_y_lower(p).value <= ref.value + slack
        assert ref.value <= h_y_upper(p).value + slack


def test_refined_equals_noise_entropy_at_zero_snr():
    p = ChannelParams(sigma_x2=0.0, sigma_n2=0.7)
    ref = h_y_upper_refined(p)
    assert ref.value == pytest.approx(noise_entropy(0.7), abs=1e-14)
    assert ref.err_bound == 0.0


@pytest.mark.parametrize("sigma_n2", [1.0, 1e-3])
@pytest.mark.parametrize("rho", [1e-12, 1e-9, 1e-6])
def test_refined_within_its_error_at_low_snr(rho, sigma_n2):
    """Far below 0 dB the output is Gaussian to O(rho^2):
    h(y) = log(pi e sigma_n2) + log1p(rho) to below 1e-15.  The s-rule must
    form e^s - 1 with expm1: plain subtraction loses 1e-16/rho of the
    exponent, 4.3e-6 of the value at rho = 1e-12, with a quadrature warning."""
    p = ChannelParams(sigma_n2=sigma_n2, sigma_x2=rho * sigma_n2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = h_y_upper_refined(p)
    expect = noise_entropy(sigma_n2) + math.log1p(p.rho)
    assert abs(ref.value - expect) <= ref.err_bound


def _magnitude_density_mpmath(m, rho):
    # f(m) at sigma_n2 = 1 in 30 digits, on the log-variance substitution
    # f(m) = (2m/rho) int_0^inf exp(-(e^s - 1)/rho - m^2 e^{-s}) ds; its
    # exponent is concave in s, one bump at e^{2s} = rho m^2, and the
    # breakpoints bracket it; the part beyond log1p(60 rho) is below 1e-26
    with mpmath.workdps(30):
        m, rho = mpmath.mpf(m), mpmath.mpf(rho)
        s_hi = mpmath.log1p(60 * rho)
        peak = min(max(mpmath.log(rho * m * m) / 2, 0), s_hi)
        width = 1 / mpmath.sqrt(mpmath.exp(peak) / rho + m * m * mpmath.exp(-peak))
        points = sorted({mpmath.mpf(0), s_hi}
                        | {min(max(peak + k * width, 0), s_hi) for k in (-8, -2, 0, 2, 8)})
        val = mpmath.quad(
            lambda s: mpmath.exp(-mpmath.expm1(s) / rho - m * m * mpmath.exp(-s)), points)
        return float(2 * m / rho * val)


@pytest.mark.parametrize("rho", [0.01, 1.0, 1e4, 1e6])
def test_s_rule_density_matches_mpmath(rho):
    """The fixed s-rule holds 1e-13 relative wherever f(m) is at least
    1e-16 of its peak; in the far tail below that it loses relative digits
    on values that add nothing to h(y)."""
    mix, v = _s_rule(rho, 1.0)
    m = np.geomspace(1e-6, 10.0 * math.sqrt(1.0 + 60.0 * rho), 24)
    f = 2.0 * m * (np.exp(-np.outer(m * m, 1.0 / v)) @ mix)
    for m_k, f_k in zip(m, f):
        if f_k >= 1e-16 * f.max():
            assert f_k == pytest.approx(_magnitude_density_mpmath(m_k, rho), rel=1e-13, abs=0.0)


def test_refined_frozen_values():
    """Regression anchors; the unit-SNR value also sits inside an
    independently simulated Monte Carlo bracket for h(y)."""
    r1 = h_y_upper_refined(ChannelParams())
    assert r1.value == pytest.approx(2.821624254, abs=1e-7)
    assert 2.741077 < r1.value < 2.837877
    assert r1.err_bound < 1e-9
    r2 = h_y_upper_refined(ChannelParams(sigma_x2=1e6))
    assert r2.value == pytest.approx(15.771103035, abs=1e-6)


def test_refined_splits_euler_gap_at_high_snr():
    """The refined output entropy settles strictly inside the analytic
    bracket as SNR grows; the two residual gaps sum to the Euler constant."""
    p = ChannelParams(sigma_x2=1e6)
    ref = h_y_upper_refined(p).value
    below = h_y_upper(p).value - ref
    above = ref - h_y_lower(p).value
    assert above == pytest.approx(0.3880640176, abs=1e-6)
    assert below == pytest.approx(0.1891384090, abs=1e-6)
    assert above + below == pytest.approx(0.57721566, abs=1e-4)


def test_h_yx_upper_and_model_mismatch():
    p = ChannelParams(f_d=0.1, sigma_x2=2.0)
    val = h_yx_upper(p, Rectangular(0.1)).value
    expect = noise_entropy(1.0) + szego_log_integral(Rectangular(0.1), 2.0)
    assert val == pytest.approx(expect, abs=1e-14)
    with pytest.raises(ValueError):
        h_yx_upper(p, Rectangular(0.1, sigma_h2=2.0))


def test_h_yx_lower_rect_cm_matches_spectral_exactly():
    """The constant-modulus conditional-entropy floor and the spectral log
    integral are the same quantity through two code paths; they must agree
    to the last bit on the flat density."""
    rng = make_rng(12)
    for _ in range(100):
        p = ChannelParams(
            f_d=float(rng.uniform(0.01, 0.49)),
            sigma_x2=float(10.0 ** rng.uniform(-3, 3)),
        )
        via_floor = h_yx_lower_rect(p, "cm").value - noise_entropy(p.sigma_n2)
        via_szego = szego_log_integral(Rectangular(p.f_d), p.rho)
        assert abs(via_floor - via_szego) <= 1e-15


def test_h_yx_lower_rect_pg_below_cm():
    # Gaussian inputs fluctuate in magnitude, so their conditional-entropy
    # floor is strictly below the constant-modulus one at the same power
    p = ChannelParams(f_d=0.2, sigma_x2=5.0)
    assert h_yx_lower_rect(p, "pg").value < h_yx_lower_rect(p, "cm").value


def test_h_yx_lower_rect_fixed_power_tuple():
    p = ChannelParams(f_d=0.1)
    doubled = h_yx_lower_rect(p, ("cm", 2.0)).value
    plain = h_yx_lower_rect(p, "cm").value
    assert doubled > plain
    expect = noise_entropy(1.0) + szego_log_integral(Rectangular(0.1), 2.0)
    assert doubled == pytest.approx(expect, abs=1e-14)


def test_h_yx_lower_rect_sample_powers():
    p = ChannelParams(f_d=0.1)
    z = np.full(4096, 1.0)
    const = h_yx_lower_rect(p, z).value
    assert const == pytest.approx(h_yx_lower_rect(p, "cm").value, abs=1e-12)
    with pytest.raises(ValueError):
        h_yx_lower_rect(p, np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        h_yx_lower_rect(p, np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        h_yx_lower_rect(p, [1.0, math.nan])
    for power in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            h_yx_lower_rect(p, ("cm", power))


def test_entropy_gaps_nonnegative_and_monotone():
    for f_d in (0.05, 0.25, 0.45):
        prev = -1.0
        for db in range(-30, 71, 5):
            p = ChannelParams(f_d=f_d, sigma_x2=10.0 ** (db / 10.0))
            gy, gyx = entropy_gaps(p)
            assert gy >= 0.0 and gyx >= 0.0
            total = gy + gyx
            assert total >= prev - 1e-12
            prev = total


def test_entropy_rate_kind_tags():
    p = ChannelParams()
    assert h_y_lower(p).kind == "hy_lower"
    assert h_y_upper(p).kind == "hy_upper"
    assert isinstance(h_y_upper_refined(p), EntropyRate)
