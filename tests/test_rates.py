"""Closed-form rate bounds, peak-power bounds, asymptotes, pilot bounds."""

import math

import mpmath
import numpy as np
import pytest

from fadingrate.model import ChannelParams, Jakes, RaisedCosine, Rectangular
from fadingrate.quadrature import (EULER_GAMMA, BoundValue, g_logmoment, make_rng,
                                   szego_log_integral)
from fadingrate.rates import (
    PeakConstraint,
    alpha_opt_conditions,
    coherent_capacity,
    iid_low_snr_conditions,
    lapidoth_asymptotes,
    prelog_estimate,
    rate_gap_pg_rect,
    rate_lower_pg,
    rate_upper_pg_rect,
    rate_upper_pred_peak,
    rate_upper_pred_pg,
    sd_max_spacing,
    sd_optimal_L,
    sd_rate_bounds,
    sethuraman_upper,
)


def _params(f_d, rho):
    return ChannelParams(f_d=f_d, sigma_x2=rho)


class TestGaussianInputBounds:
    def test_lower_spot_value(self):
        val = rate_lower_pg(_params(0.1, 1.0), Rectangular(0.1)).value
        assert val == pytest.approx(0.23799546847758307418, abs=1e-13)

    def test_upper_spot_value(self):
        val = rate_upper_pg_rect(_params(0.1, 1.0)).value
        assert val == pytest.approx(0.39447743117349738704, abs=1e-13)

    def test_lower_clamps_at_zero(self):
        # fast fading at modest SNR drives the raw bound negative
        b = rate_lower_pg(_params(0.49, 0.1), Rectangular(0.49))
        assert b.value == 0.0 and b.clamped and b.unclamped < 0.0

    def test_upper_caps_at_coherent(self):
        p = _params(0.49, 1e6)
        b = rate_upper_pg_rect(p)
        assert b.value <= coherent_capacity(p.rho).value + 1e-15

    def test_gap_identity(self):
        # the bound gap is exactly the sum of the two entropy-rate gaps
        for f_d, rho in ((0.1, 1.0), (0.25, 50.0), (0.4, 1e4)):
            p = _params(f_d, rho)
            gap = rate_gap_pg_rect(p)
            direct = rate_upper_pg_rect(p).unclamped - rate_lower_pg(p, Rectangular(f_d)).unclamped
            assert gap == pytest.approx(direct, abs=1e-11)

    def test_gap_envelope_and_limit(self):
        for f_d in (0.1, 0.25):
            cap = (1.0 + 2.0 * f_d) * EULER_GAMMA + 1e-9
            prev = -1.0
            for db in range(-40, 81, 4):
                gap = rate_gap_pg_rect(_params(f_d, 10.0 ** (db / 10.0)))
                assert 0.0 <= gap <= cap
                assert gap >= prev - 1e-12
                prev = gap
        assert rate_gap_pg_rect(_params(0.1, 1e8)) == pytest.approx(
            (1.0 + 0.2) * EULER_GAMMA, abs=1e-3
        )

    def test_model_power_mismatch(self):
        with pytest.raises(ValueError):
            rate_lower_pg(_params(0.1, 1.0), Rectangular(0.1, sigma_h2=2.0))


def _lower_pg_flat(p):
    return rate_lower_pg(p, Rectangular(p.f_d)).value


def _coherent(p):
    return coherent_capacity(p.rho).value


class TestPrelog:
    def test_lower_slope_matches_bandwidth_deficit(self):
        lower = prelog_estimate(_lower_pg_flat, ChannelParams(f_d=0.1))
        assert lower == pytest.approx(0.8, abs=0.02)
        upper = prelog_estimate(lambda p: rate_upper_pg_rect(p).value, ChannelParams(f_d=0.25))
        assert upper == pytest.approx(0.5, abs=0.02)

    def test_coherent_slope_is_one(self):
        assert prelog_estimate(_coherent, ChannelParams(f_d=0.1)) == pytest.approx(1.0, abs=0.02)

    def test_callable_bound(self):
        slope = prelog_estimate(lambda p: math.log1p(p.rho), ChannelParams(f_d=0.1))
        assert slope == pytest.approx(1.0, abs=0.02)


def _peak_flat(p, beta):
    return sethuraman_upper(p, Rectangular(p.f_d), PeakConstraint(beta))


class TestPeakBounds:
    def test_alpha_shrinks_for_fast_fading_at_high_snr(self):
        b = _peak_flat(_params(0.25, 100.0), 1.0)
        assert 0.0 < b.alpha_used < 1.0

    def test_alpha_one_under_sufficient_conditions(self):
        p = _params(0.1, 2.0)
        conds = alpha_opt_conditions(p, PeakConstraint(2.0))
        assert conds["cond1"]
        assert _peak_flat(p, 2.0).alpha_used == 1.0

    def test_cond2_low_snr(self):
        p = _params(0.05, 0.5)
        conds = alpha_opt_conditions(p, PeakConstraint(1.0))
        assert conds["cond2"]
        assert _peak_flat(p, 1.0).alpha_used == 1.0

    def test_sethuraman_flat_density_matches_closed_form(self):
        # flat density: the on-off bound with the spectral integral in closed
        # form, 2 f_d log(1 + rho beta / (2 f_d)), and the coherent cap
        rng = make_rng(31)
        for _ in range(25):
            f_d = float(rng.uniform(0.02, 0.49))
            p = _params(f_d, float(10.0 ** rng.uniform(-2, 3)))
            beta = float(rng.uniform(1.0, 4.0))
            info = 2.0 * f_d * math.log1p(p.rho * beta / (2.0 * f_d))
            alpha = max(0.0, min(1.0, beta / info - 1.0 / p.rho))
            expect = min(math.log1p(alpha * p.rho) - (alpha / beta) * info, g_logmoment(p.rho))
            b = _peak_flat(p, beta)
            assert b.value == expect
            assert b.alpha_used == alpha

    def test_beta1_prediction_and_spectral_coincide(self):
        rng = make_rng(32)
        peak = PeakConstraint(1.0)
        for _ in range(25):
            f_d = float(rng.uniform(0.02, 0.49))
            p = _params(f_d, float(10.0 ** rng.uniform(-2, 3)))
            model = Jakes(f_d) if rng.integers(0, 2) else Rectangular(f_d)
            a = rate_upper_pred_peak(p, model, peak).value
            b = sethuraman_upper(p, model, peak).value
            assert abs(a - b) <= 1e-12

    def test_zero_snr_bounds_vanish(self):
        p = ChannelParams(f_d=0.1, sigma_x2=0.0)
        peak = PeakConstraint(2.0)
        assert sethuraman_upper(p, Rectangular(0.1), peak).value == 0.0
        assert rate_upper_pred_peak(p, Rectangular(0.1), peak).value == 0.0

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            PeakConstraint(0.5)
        with pytest.raises(ValueError):
            PeakConstraint(math.inf)


class TestPredictionBounds:
    def test_pred_pg_between_lower_and_coherent(self):
        for f_d, rho in ((0.05, 10.0), (0.2, 100.0), (0.45, 3.0)):
            p = _params(f_d, rho)
            model = Rectangular(f_d)
            lo = rate_lower_pg(p, model).value
            up = rate_upper_pred_pg(p, model).value
            assert lo <= up + 1e-12
            assert up <= coherent_capacity(rho).value + 1e-12

    def test_pred_peak_below_spectral_peak(self):
        # the prediction route is never looser than the spectral route
        peak = PeakConstraint(2.0)
        for f_d in (0.001, 0.01, 0.1):
            model = Rectangular(f_d)
            for db in range(-10, 31, 5):
                p = _params(f_d, 10.0 ** (db / 10.0))
                a = rate_upper_pred_peak(p, model, peak).value
                b = sethuraman_upper(p, model, peak).value
                assert a <= b + 1e-12


class TestLapidothAsymptotes:
    def test_rect_eps2_closed_form(self):
        model = Rectangular(0.1)
        out = lapidoth_asymptotes(_params(0.1, 100.0), model)
        for delta2 in (0.01, 0.1, 1.0):
            direct = (
                math.exp(
                    0.2 * math.log(1.0 / 0.2 + delta2) + 0.8 * math.log(delta2)
                )
                - delta2
            )
            assert out["eps2_pred"](delta2) == pytest.approx(direct, rel=1e-12)

    def test_upper_none_at_low_snr(self):
        model = Rectangular(0.1)
        assert lapidoth_asymptotes(_params(0.1, 1.0), model)["upper"] is None
        assert lapidoth_asymptotes(_params(0.1, 1.01), model)["upper"] is not None

    def test_bracket_orders_at_high_snr(self):
        model = Rectangular(0.1)
        out = lapidoth_asymptotes(_params(0.1, 1e6), model)
        assert out["lower"] < out["upper"]

    def test_lower_matches_mpmath_at_low_snr(self):
        """At -40 dB the prediction error at noise level 4/rho is close to
        1; the old exp(int log(S/sigma_h2 + delta)) - delta form cancelled
        there and was 2.2e-9 relative off."""
        rho = 1e-4
        out = lapidoth_asymptotes(_params(0.1, rho), Rectangular(0.1))
        with mpmath.workdps(30):
            delta = 4 / mpmath.mpf(rho)
            e4 = delta * mpmath.expm1(mpmath.mpf("0.2") * mpmath.log1p(1 / (mpmath.mpf("0.2") * delta)))
            expect = float(-mpmath.log(e4 + 8 / (5 * mpmath.mpf(rho))) - mpmath.euler
                           + mpmath.log1p(-e4) - mpmath.log(5 * mpmath.e / 6))
        assert out["lower"] == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_eps2_validation(self):
        out = lapidoth_asymptotes(_params(0.1, 10.0), Rectangular(0.1))
        with pytest.raises(ValueError):
            out["eps2_pred"](0.0)


class TestSynchronizedDetection:
    def test_pilot_error_closed_form(self):
        # flat density: sigma2_pil = sigma_h2 / (1 + rho/(2 f_d L))
        p = _params(0.05, 10.0)
        out = sd_rate_bounds(p, Rectangular(0.05), 2)
        assert out["sigma2_pil"] == pytest.approx(1.0 / 51.0, abs=1e-15)
        assert out["sigma2_pil"] == pytest.approx(0.0196078431372549, abs=1e-13)

    def test_pilot_error_matches_mpmath_for_jakes(self):
        # after f = f_d sin t the Jakes integrand is smooth:
        # sigma2_pil = (2/pi) int_0^{pi/2} f_d cos t / (a/pi + f_d cos t) dt, a = rho/L
        p = _params(0.05, 100.0)
        out = sd_rate_bounds(p, Jakes(0.05), 4)
        with mpmath.workdps(30):
            fd, a = mpmath.mpf(0.05), mpmath.mpf(100.0) / 4
            expect = float(2 / mpmath.pi * mpmath.quad(
                lambda t: fd * mpmath.cos(t) / (a / mpmath.pi + fd * mpmath.cos(t)),
                [0, mpmath.pi / 2]))
        assert out["sigma2_pil"] == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_frozen_optimum(self):
        p = _params(0.05, 10.0)
        best_l, table = sd_optimal_L(p, Rectangular(0.05))
        assert best_l == 6
        assert table[6]["lower"] == pytest.approx(1.3556021632173882, abs=1e-12)
        assert set(table) == set(range(2, 10))

    def test_lower_not_above_upper(self):
        p = _params(0.02, 100.0)
        for L in (2, 5, 10, 24):
            out = sd_rate_bounds(p, Rectangular(0.02), L)
            assert out["lower"] <= out["upper"] + 1e-15
            assert out["upper"] <= coherent_capacity(p.rho).value + 1e-12

    def test_max_spacing(self):
        assert sd_max_spacing(0.05) == 9
        assert sd_max_spacing(0.1) == 4
        assert sd_max_spacing(0.25) == 1
        assert sd_max_spacing(0.45) == 1

    def test_spacing_validation(self):
        p = _params(0.05, 10.0)
        with pytest.raises(ValueError):
            sd_rate_bounds(p, Rectangular(0.05), 1)
        with pytest.raises(ValueError):
            sd_rate_bounds(p, Rectangular(0.05), 10)

    def test_no_admissible_spacing(self):
        best_l, table = sd_optimal_L(_params(0.4, 10.0), Rectangular(0.4))
        assert best_l is None and table == {}

    @pytest.mark.parametrize("make", [Rectangular, Jakes, lambda f_d: RaisedCosine(f_d, 0.2)],
                             ids=["rect", "jakes", "rc0.2"])
    @pytest.mark.parametrize("f_d", [0.002, 0.01, 0.1, 0.24])
    @pytest.mark.parametrize("snr_db", [-10.0, 10.0, 30.0])
    def test_table_is_bit_identical_to_one_transform_per_spacing(self, make, f_d, snr_db):
        """The one-array table gives each spacing the bits of sd_rate_bounds
        and of the per-spacing rule sum it replaced (f_d 0.002 spans more
        than one block of spacings; f_d 0.24 admits none)."""
        model = make(f_d)
        p = ChannelParams(f_d=f_d, sigma_x2=10.0 ** (snr_db / 10.0))
        rho, s_h2 = p.rho, model.sigma_h2
        best_l, table = sd_optimal_L(p, model)
        assert list(table) == list(range(2, sd_max_spacing(f_d) + 1))
        for L, entry in table.items():
            assert entry == sd_rate_bounds(p, model, L)
            assert entry["sigma2_pil"] == model.transform(
                lambda s: s / ((rho / L) * s / s_h2 + 1.0))
        assert best_l == (max(table, key=lambda L: table[L]["lower"]) if table else None)


class TestLowSnrConditions:
    def test_full_band_flat_is_memoryless(self):
        model = Rectangular(0.5 - 1e-12)
        out = iid_low_snr_conditions(model, PeakConstraint(1.0))
        assert out["memoryless"]

    def test_narrowband_is_not_memoryless(self):
        out = iid_low_snr_conditions(Rectangular(0.1), PeakConstraint(1.0))
        assert not out["memoryless"]

    def test_nonephemeral_threshold(self):
        # flat density: squared integral is sigma_h2^2/(2 f_d), so the
        # threshold sits exactly at f_d = 1/4
        assert iid_low_snr_conditions(Rectangular(0.2), PeakConstraint(1.0))["nonephemeral"]
        assert iid_low_snr_conditions(Rectangular(0.25), PeakConstraint(1.0))["nonephemeral"]
        assert not iid_low_snr_conditions(Rectangular(0.3), PeakConstraint(1.0))["nonephemeral"]
        assert not iid_low_snr_conditions(Rectangular(0.2), PeakConstraint(2.0))["nonephemeral"]

    def test_jakes_divergent_integral_propagates(self):
        with pytest.raises(ValueError):
            iid_low_snr_conditions(Jakes(0.2), PeakConstraint(1.0))


class TestScaffolding:
    def test_coherent_matches_logmoment(self):
        assert coherent_capacity(5.0).value == g_logmoment(5.0)
        with pytest.raises(ValueError):
            coherent_capacity(-1.0)

    def test_bound_value_alpha_validation(self):
        with pytest.raises(ValueError):
            BoundValue(value=1.0, alpha_used=1.5)

    def test_rho_is_left_associated_product(self):
        p = ChannelParams(sigma_x2=3.0, sigma_h2=2.0, sigma_n2=4.0)
        assert p.rho == 3.0 * 2.0 / 4.0
