"""Deterministic achievable-rate and capacity bounds.

Average-power bounds for proper Gaussian inputs, peak-power-constrained
upper bounds with their optimized on-fraction alpha, prediction-based
upper bounds, high-SNR asymptotes, pilot-aided synchronized-detection
bounds, and the low-SNR spectral conditions.  Monte Carlo lower bounds
live in mcrates.  All values are nats per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import entropy_gaps
from .model import ChannelParams, PsdModel, _check_model, _finite_integral
from .prediction import pred_error_cm_infinite
from .quadrature import (EULER_GAMMA, BoundValue, _finite_nonnegative, _szego_rect,
                         g_logmoment, szego_log_integral)

__all__ = [
    "PeakConstraint",
    "coherent_capacity",
    "rate_lower_pg",
    "rate_upper_pg_rect",
    "rate_gap_pg_rect",
    "prelog_estimate",
    "alpha_opt_conditions",
    "rate_upper_pred_pg",
    "rate_upper_pred_peak",
    "sethuraman_upper",
    "lapidoth_asymptotes",
    "sd_rate_bounds",
    "sd_optimal_L",
    "sd_max_spacing",
    "iid_low_snr_conditions",
]


@dataclass(frozen=True)
class PeakConstraint:
    """Nominal peak-to-average power ratio beta = P_peak / sigma_x2, finite and >= 1."""

    beta: float

    def __post_init__(self):
        if not 1.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and at least 1, got {self.beta}")


def coherent_capacity(rho) -> BoundValue:
    """Capacity with the fading known at the receiver: E[log(1 + rho |h|^2/sigma_h2)]."""
    return BoundValue(value=g_logmoment(_finite_nonnegative(rho, "rho")))


def rate_lower_pg(params: ChannelParams, model: PsdModel) -> BoundValue:
    """Achievable rate with i.i.d. proper Gaussian inputs:
    max{0, coherent capacity minus the spectral log integral at rho}."""
    _check_model(params, model)
    rho = params.rho
    raw = g_logmoment(rho) - szego_log_integral(model, rho)
    return BoundValue(value=max(0.0, raw), clamped=raw < 0.0, unclamped=raw)


def rate_upper_pg_rect(params: ChannelParams) -> BoundValue:
    """Upper bound on the PG-input achievable rate under the flat density:
    min{ log(1+rho) - 2 f_d g(rho/(2 f_d)), coherent capacity }."""
    rho = params.rho
    two_fd = 2.0 * params.f_d
    raw = math.log1p(rho) - two_fd * g_logmoment(rho / two_fd)
    return _capped(raw, rho)


def rate_gap_pg_rect(params: ChannelParams) -> float:
    """Gap between the unclamped PG upper and lower bounds (flat density):
    the sum of the two entropy-rate gaps, bounded by (1 + 2 f_d) gamma."""
    gap_y, gap_yx = entropy_gaps(params)
    return gap_y + gap_yx


def prelog_estimate(evaluate, params: ChannelParams) -> float:
    """High-SNR slope of a bound with respect to ln(rho).

    evaluate maps a ChannelParams to a rate in nats.  The slope comes from
    a least-squares fit on a 2 dB grid over 60-80 dB, where the O(1/rho)
    terms are negligible.
    """
    db = np.arange(60.0, 80.0 + 1e-9, 2.0)
    log_rho = db * (math.log(10.0) / 10.0)
    scale = params.sigma_n2 / params.sigma_h2
    vals = [evaluate(params.with_power(math.exp(lr) * scale)) for lr in log_rho]
    slope, _ = np.polyfit(log_rho, vals, 1)
    return float(slope)


def _capped(raw, rho, alpha=1.0) -> BoundValue:
    # upper bounds are capped by the coherent capacity g(rho)
    coh = g_logmoment(rho)
    return BoundValue(value=min(raw, coh), clamped=raw > coh, alpha_used=alpha, unclamped=raw)


def _peak_core(rho, info, beta) -> BoundValue:
    # shared evaluation of log(1 + alpha rho) - (alpha/beta) * info with the
    # maximizing on-fraction alpha = min{1, beta/info - 1/rho} projected
    # onto [0, 1]; the raw value is then capped by the coherent capacity
    if rho == 0.0:
        return BoundValue(value=0.0, unclamped=0.0)
    alpha = min(1.0, beta / info - 1.0 / rho)
    if alpha < 0.0:
        alpha = 0.0
    raw = math.log1p(alpha * rho) - (alpha / beta) * info
    return _capped(raw, rho, alpha)


def alpha_opt_conditions(params: ChannelParams, peak: PeakConstraint) -> dict:
    """Sufficient conditions under which the peak bound's maximizing
    on-fraction is exactly 1.

    cond1 covers rho >= 1: the spectral log integral at rho beta must not
    exceed beta/2 (an exponential-free restatement of the closed condition,
    evaluated on the same expression the bound itself uses so the
    implication holds in floating point).  cond2 covers rho <= 1:
    2 f_d <= beta / (rho + 2).
    """
    rho = params.rho
    beta = peak.beta
    cond1 = False
    if rho >= 1.0:
        info = _szego_rect(params.f_d, rho * beta)
        cond1 = info <= 0.5 * beta
    cond2 = rho <= 1.0 and 2.0 * params.f_d <= beta / (rho + 2.0)
    return {"cond1": cond1, "cond2": cond2}


def rate_upper_pred_pg(params: ChannelParams, model: PsdModel) -> BoundValue:
    """Prediction-based upper bound for PG inputs: log(1+rho) minus the
    coherent rate a receiver gets from the infinite-past prediction error,
    capped by the coherent capacity."""
    _check_model(params, model)
    rho = params.rho
    s2 = pred_error_cm_infinite(model, params.sigma_x2, params.sigma_n2)
    raw = math.log1p(rho) - g_logmoment(rho * s2 / model.sigma_h2)
    return _capped(raw, rho)


def rate_upper_pred_peak(params: ChannelParams, model: PsdModel, peak: PeakConstraint) -> BoundValue:
    """Prediction-based upper bound under a peak constraint: the on-off
    strategy evaluated against the one-step prediction error at full
    average power, for any compact-support density."""
    _check_model(params, model)
    rho = params.rho
    s2 = pred_error_cm_infinite(model, params.sigma_x2, params.sigma_n2)
    info = math.log1p(rho * peak.beta * s2 / model.sigma_h2)
    return _peak_core(rho, info, peak.beta)


def sethuraman_upper(params: ChannelParams, model: PsdModel, peak: PeakConstraint) -> BoundValue:
    """Peak-constrained capacity upper bound for a general compact-support
    density.

    The transmit strategy behind the bound is on-off: active a fraction
    alpha of the time at power beta sigma_x2.  alpha_used records the
    maximizing fraction.  Under the flat density the spectral integral is
    the closed form alpha_opt_conditions evaluates.
    """
    _check_model(params, model)
    rho = params.rho
    info = szego_log_integral(model, rho * peak.beta)
    return _peak_core(rho, info, peak.beta)


def lapidoth_asymptotes(params: ChannelParams, model: PsdModel) -> dict:
    """High-SNR capacity asymptotes under a peak power limit, with the peak
    SNR taken equal to rho.

    Returns {"upper", "lower", "eps2_pred"}.  upper is None when rho <= 1
    (the iterated logarithm is undefined there), lower is None when the
    prediction error at noise level 4/rho rounds to 1 (far below 0 dB);
    eps2_pred is the noisy one-step prediction error of the unit-power
    process as a function of the noise level delta2.
    """
    _check_model(params, model)
    s_h2 = model.sigma_h2

    def eps2_pred(delta2) -> float:
        return pred_error_cm_infinite(model, 1.0, delta2 * s_h2) / s_h2

    rho = params.rho
    if rho > 1.0:
        upper = (
            math.log(math.log(rho))
            - EULER_GAMMA
            - 1.0
            + math.log(1.0 / eps2_pred(1.0 / rho))
        )
    else:
        upper = None
    e4 = eps2_pred(4.0 / rho)
    if e4 >= 1.0:
        lower = None
    else:
        lower = (
            math.log(1.0 / (e4 + 8.0 / (5.0 * rho)))
            - EULER_GAMMA
            + math.log1p(-e4)
            - math.log(5.0 * math.e / 6.0)
        )
    return {"upper": upper, "lower": lower, "eps2_pred": eps2_pred}


def sd_max_spacing(f_d) -> int:
    """Largest pilot spacing that still samples the fading at Nyquist rate:
    the spacing must stay below 1/(2 f_d).  Returns 1 when even L=2 is
    inadmissible."""
    # the epsilon guards spacings like f_d = 0.05, where 1/(2 f_d) lands on
    # an integer only up to binary rounding
    return max(1, math.floor(1.0 / (2.0 * f_d) + 1e-9) - 1)


def sd_rate_bounds(params: ChannelParams, model: PsdModel, L: int) -> dict:
    """Rate bounds for pilot-based synchronized detection with spacing L.

    One pilot in every L symbols estimates the fading; the remaining
    (L-1)/L fraction carries data decoded against the pilot estimate.
    Returns {"lower", "upper", "sigma2_pil"} where sigma2_pil is the
    pilot-interpolation error variance.  Requires 2 <= L < 1/(2 f_d).
    """
    _check_model(params, model)
    L = int(L)
    if L < 2 or L > sd_max_spacing(params.f_d):
        raise ValueError(
            f"pilot spacing {L} violates 2 <= L < 1/(2 f_d) for f_d = {params.f_d}"
        )
    return _sd_table(params, model, [L])[L]


def sd_optimal_L(params: ChannelParams, model: PsdModel):
    """Exhaustive search for the pilot spacing maximizing the lower bound.

    Returns (best_L, table) where table maps each admissible L to its
    bounds dict; best_L is None when no spacing is admissible.
    """
    _check_model(params, model)
    table = _sd_table(params, model, range(2, sd_max_spacing(params.f_d) + 1))
    return max(table, key=lambda L: table[L]["lower"], default=None), table


# spacings per block of _sd_table: a block's (spacings x nodes) array stays
# near 200 kB however many spacings 1/(2 f_d) admits
_SD_BLOCK = 64


def _sd_table(params, model, spacings):
    # {L: sd_rate_bounds entry} over the spacings, in their order.  The pilot
    # error int S / ((rho/L) S/sigma_h2 + 1) df is bit for bit model.transform's:
    # the same elementwise operations, and each row's w @ row the same dot on
    # the same values; its refusal comes at the first spacing not finite.
    rho, s_h2 = params.rho, model.sigma_h2
    s, w = model.rule
    table = {}
    for start in range(0, len(spacings), _SD_BLOCK):
        block = spacings[start:start + _SD_BLOCK]
        with np.errstate(over="ignore"):
            rows = s / ((rho / np.array(block, dtype=float)[:, None]) * s / s_h2 + 1.0)
            sums = [float(w @ row) for row in rows]
        for L, total in zip(block, sums):
            sigma2_pil = _finite_integral(total)
            frac = (L - 1.0) / L
            rho_eff = rho * (1.0 - sigma2_pil / s_h2) / (1.0 + rho * sigma2_pil / s_h2)
            lower = frac * g_logmoment(rho_eff)
            extra = math.log1p(rho * sigma2_pil / s_h2) - g_logmoment(rho * sigma2_pil / s_h2)
            table[L] = {"lower": lower, "upper": lower + frac * extra, "sigma2_pil": sigma2_pil}
    return table


def iid_low_snr_conditions(model: PsdModel, peak: PeakConstraint) -> dict:
    """Spectral conditions under which i.i.d. inputs stay optimal at low SNR.

    memoryless: the squared-density integral equals sigma_h2^2 (flat over
    the full band); nonephemeral: no peak headroom (beta = 1) and the
    squared-density integral at least 2 sigma_h2^2.  A divergent squared
    integral (Jakes) propagates as an error.
    """
    lam = model.spectral_l2()
    s4 = model.sigma_h2**2
    return {
        "memoryless": abs(lam - s4) <= 1e-9 * s4,
        "nonephemeral": peak.beta == 1.0 and lam >= 2.0 * s4,
    }
