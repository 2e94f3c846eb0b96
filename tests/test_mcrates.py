"""Monte Carlo constant-modulus rate bounds."""

import math

import numpy as np
import pytest

from fadingrate.mcrates import (
    coherent_mi_cm,
    rate_lower_cm,
    rate_lower_cm_timeshare,
    sethuraman_lower,
)
from fadingrate.model import ChannelParams, Rectangular
from fadingrate.quadrature import g_logmoment
from fadingrate.rates import PeakConstraint

N_SMALL = 20_000


def test_deterministic_for_fixed_seed():
    a = coherent_mi_cm(3.0, seed=7, n=N_SMALL)
    b = coherent_mi_cm(3.0, seed=7, n=N_SMALL)
    assert a.mean == b.mean and a.stderr == b.stderr
    c = coherent_mi_cm(3.0, seed=8, n=N_SMALL)
    assert c.mean != a.mean


def test_stderr_scales_with_sample_count():
    small = coherent_mi_cm(3.0, seed=0, n=N_SMALL)
    big = coherent_mi_cm(3.0, seed=0, n=16 * N_SMALL)
    ratio = small.stderr / big.stderr
    assert 3.0 < ratio < 5.5
    assert abs(small.mean - big.mean) < 4.0 * (small.stderr + big.stderr)


def test_zero_snr_is_exactly_zero():
    est = coherent_mi_cm(0.0, seed=0, n=N_SMALL)
    assert est.mean == 0.0
    assert est.stderr == 0.0


def test_frozen_unit_snr_estimate():
    est = coherent_mi_cm(1.0, m_points=100, n=1_000_000, seed=0)
    assert est.mean == pytest.approx(0.571642, abs=1e-5)
    assert est.stderr == pytest.approx(0.000811, abs=1e-5)


def test_estimates_pinned_to_the_bit():
    """Seed-fixed values of the three constant-modulus estimators, exact to
    17 digits.  The time-sharing searches compare objective values, so a
    kernel change that moves samples by rounding can move gamma_opt and the
    CSV bytes; it must show here (and per sample in the log-mixture kernel
    tests), not first in the figures."""
    model = Rectangular(0.05)
    ts = sethuraman_lower(ChannelParams(f_d=0.05, sigma_x2=0.25), model, timeshare=True,
                          peak=PeakConstraint(2.0), seed=11, n=2000)
    assert (ts.value, ts.stderr, ts.alpha_used) == (
        0.10832946129167798, 0.011306534400974443, 0.51236505616397143)
    cm = rate_lower_cm_timeshare(ChannelParams(f_d=0.05, sigma_x2=0.5), model,
                                 PeakConstraint(2.0), seed=11, n=2000)
    assert (cm.value, cm.stderr, cm.alpha_used) == (
        0.17459847365204775, 0.014764661531674184, 0.89757523075929602)
    mi = coherent_mi_cm(2.0, seed=11, n=2000)
    assert (mi.mean, mi.stderr) == (0.84683132012094886, 0.020642705835506637)


def test_sits_below_coherent_capacity():
    for rho in (0.5, 2.0, 10.0):
        est = coherent_mi_cm(rho, seed=1, n=N_SMALL)
        assert est.mean < g_logmoment(rho) + 4.0 * est.stderr


def test_constellation_size_validation():
    with pytest.raises(ValueError):
        coherent_mi_cm(1.0, m_points=1)
    with pytest.raises(ValueError):
        coherent_mi_cm(-1.0)


def test_stderr_tolerance_enforced():
    with pytest.raises(RuntimeError, match="did not converge"):
        coherent_mi_cm(1.0, n=N_SMALL, stderr_tol=1e-9)


def test_lower_cm_matches_manual_subtraction():
    p = ChannelParams(f_d=0.1, sigma_x2=2.0)
    model = Rectangular(0.1)
    b = rate_lower_cm(p, model, seed=3, n=N_SMALL)
    mi = coherent_mi_cm(2.0, seed=3, n=N_SMALL)
    from fadingrate.quadrature import szego_log_integral

    assert b.unclamped == pytest.approx(mi.mean - szego_log_integral(model, 2.0), abs=1e-12)
    assert b.stderr == mi.stderr


def test_lower_cm_clamps_when_constellation_saturates():
    # a 100-point phase grid tops out near log(100) nats while the spectral
    # penalty keeps growing, so fast fading at high SNR goes negative
    p = ChannelParams(f_d=0.49, sigma_x2=1e4)
    b = rate_lower_cm(p, Rectangular(0.49), seed=4, n=N_SMALL)
    assert b.value == 0.0 and b.clamped and b.unclamped < 0.0


def test_timeshare_beta1_reduces_to_plain():
    p = ChannelParams(f_d=0.1, sigma_x2=1.0)
    model = Rectangular(0.1)
    plain = rate_lower_cm(p, model, seed=5, n=N_SMALL)
    ts = rate_lower_cm_timeshare(p, model, PeakConstraint(1.0), seed=5, n=N_SMALL)
    assert ts.value == plain.value
    assert ts.alpha_used == 1.0
    assert ts.kind == "lower_cm_ts"


def test_timeshare_never_loses():
    # gamma = 1 is inside the search set, evaluated on the same samples
    p = ChannelParams(f_d=0.25, sigma_x2=0.5)
    model = Rectangular(0.25)
    plain = rate_lower_cm(p, model, seed=6, n=N_SMALL)
    ts = rate_lower_cm_timeshare(p, model, PeakConstraint(4.0), seed=6, n=N_SMALL)
    assert ts.value >= plain.value - 3.0 * (plain.stderr + ts.stderr)
    assert 0.0 < ts.alpha_used <= 1.0


def test_sethuraman_lower_vanishes_at_low_snr():
    p = ChannelParams(f_d=0.1, sigma_x2=1e-6)
    b = sethuraman_lower(p, Rectangular(0.1), seed=7, n=N_SMALL)
    assert not b.clamped  # reported raw, zero only up to sampling noise
    assert abs(b.value) <= 4.0 * b.stderr + 1e-5


def test_sethuraman_lower_below_coherent():
    p = ChannelParams(f_d=0.01, sigma_x2=10.0)
    b = sethuraman_lower(p, Rectangular(0.01), seed=8, n=N_SMALL)
    assert b.value <= g_logmoment(10.0) + 4.0 * b.stderr
    assert b.value > 0.0


def test_sethuraman_timeshare_requires_peak():
    p = ChannelParams(f_d=0.1, sigma_x2=1.0)
    with pytest.raises(ValueError):
        sethuraman_lower(p, Rectangular(0.1), timeshare=True)


def test_sethuraman_timeshare_not_worse():
    p = ChannelParams(f_d=0.1, sigma_x2=0.25)
    model = Rectangular(0.1)
    plain = sethuraman_lower(p, model, seed=9, n=N_SMALL)
    ts = sethuraman_lower(p, model, timeshare=True, peak=PeakConstraint(4.0), seed=9, n=N_SMALL)
    assert ts.kind == "sethuraman_lower_ts"
    assert ts.value >= plain.value - 3.0 * (plain.stderr + ts.stderr)


def test_sethuraman_stderr_tolerance():
    p = ChannelParams(f_d=0.1, sigma_x2=1.0)
    with pytest.raises(RuntimeError, match="did not converge"):
        sethuraman_lower(p, Rectangular(0.1), n=N_SMALL, stderr_tol=1e-9)


def test_model_power_mismatch_rejected():
    p = ChannelParams(f_d=0.1, sigma_x2=1.0)
    with pytest.raises(ValueError):
        rate_lower_cm(p, Rectangular(0.1, sigma_h2=3.0), n=N_SMALL)
