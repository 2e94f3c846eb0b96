"""Monte Carlo rate bounds for constant-modulus signaling.

The coherent mutual information of an m-point uniform-phase constellation
has no closed form; it is estimated by seeded Monte Carlo with the channel
magnitude drawn from its Rayleigh law.  The same estimator drives the
achievable-rate lower bounds, including their time-sharing variants, which
maximize over the boost factor gamma with common random numbers so the
search objective is smooth.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .entropy import noise_entropy
from .model import ChannelParams, PsdModel, _check_model
from .prediction import pred_error_cm_infinite
from .quadrature import (
    McEstimate, QuadratureConfig, _complex_normal, _log_mix_psk, _mean_stderr, make_rng,
    szego_log_integral,
)
from .rates import BoundValue, PeakConstraint

__all__ = [
    "coherent_mi_cm",
    "rate_lower_cm",
    "rate_lower_cm_timeshare",
    "sethuraman_lower",
]


def _points(m_points):
    m_points = int(m_points)
    if m_points < 2:
        raise ValueError("need at least 2 constellation points")
    return m_points


def _draw_base(seed, n, task_index=0):
    rng = make_rng(seed, task_index)
    z = rng.exponential(size=n)
    return z, _complex_normal(rng, n)


def _check_stderr(stderr, stderr_tol, n):
    if stderr_tol is not None and stderr > stderr_tol:
        raise RuntimeError(f"estimate did not converge: achieved stderr {stderr:.3e} "
                           f"exceeds tolerance {stderr_tol:.3e} at n = {n}")


def _cm_mi_samples(z, w, snr, m):
    # per-sample coherent mutual information of the unit-power m-PSK
    # constellation at SNR snr: channel magnitude sqrt(snr z), unit-variance
    # noise w, symbol fixed to 1 by symmetry
    h = np.sqrt(snr * z)
    return math.log(m) - np.abs(w) ** 2 - _log_mix_psk(h + w, h, m, 1.0)


def coherent_mi_cm(rho, m_points=100, seed=0, n=None, stderr_tol=None) -> McEstimate:
    """Mutual information of an m-point uniform-phase constant-modulus
    constellation over the coherent channel, in nats.

    Monte Carlo over the fading magnitude and noise; the estimate sits
    below both coherent capacity and log(m_points).  When stderr_tol is
    given, a larger achieved standard error raises instead of returning.
    """
    rho = float(rho)
    if rho < 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    m = _points(m_points)
    n = int(n) if n is not None else QuadratureConfig().mc_default_n
    z, w = _draw_base(seed, n)
    mean, stderr = _mean_stderr(_cm_mi_samples(z, w, rho, m))
    _check_stderr(stderr, stderr_tol, n)
    return McEstimate(mean=mean, stderr=stderr, n=n, seed=int(seed))


def _golden_max(fun, lo, hi, tol=1e-6):
    # golden-section maximization of a deterministic scalar function
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def _timeshared(samples, rate, beta, n):
    """Time-sharing estimate over the boost gamma in [1, beta].

    samples(gamma, count) gives the per-sample values of the first count
    common random numbers at boost gamma, and rate(gamma, mean) the rate
    over a 1/gamma duty cycle from their mean.  A coarse scan guards
    against non-unimodal objectives and golden section refines within its
    bracket, both on at most 10^4 samples; at beta = 1 there is no search.
    Returns (gamma_opt, raw, stderr): the rate from all n samples at
    gamma_opt and its standard error.
    """
    gamma_opt = 1.0
    if beta > 1.0:
        n_small = min(n, 10_000)

        def objective(gamma):
            return rate(gamma, float(np.mean(samples(gamma, n_small))))

        gammas = np.linspace(1.0, beta, 64)
        k = int(np.argmax([objective(g) for g in gammas]))
        lo = gammas[max(k - 1, 0)]
        hi = gammas[min(k + 1, len(gammas) - 1)]
        gamma_opt = _golden_max(objective, lo, hi)
    mean, stderr = _mean_stderr(samples(gamma_opt, n))
    return gamma_opt, rate(gamma_opt, mean), stderr / gamma_opt


def rate_lower_cm(params: ChannelParams, model: PsdModel, m_points=100,
                  seed=0, n=None) -> BoundValue:
    """Achievable rate with i.i.d. constant-modulus inputs: the coherent
    constellation information minus the spectral log integral, clamped at 0.
    This is the time-sharing bound without peak headroom (beta = 1)."""
    b = rate_lower_cm_timeshare(params, model, PeakConstraint(1.0), m_points, seed, n)
    return replace(b, kind="lower_cm")


def rate_lower_cm_timeshare(params: ChannelParams, model: PsdModel, peak: PeakConstraint,
                            m_points=100, seed=0, n=None) -> BoundValue:
    """Time-sharing variant of the constant-modulus lower bound: transmit a
    fraction 1/gamma of the time at power gamma sigma_x2, maximized over
    gamma in [1, beta] (common random numbers keep the search smooth).

    alpha_used records the duty cycle 1/gamma_opt.
    """
    _check_model(params, model)
    m = _points(m_points)
    n = int(n) if n is not None else QuadratureConfig().mc_default_n
    z, w = _draw_base(seed, n)
    rho = params.rho

    def samples(gamma, count):
        return _cm_mi_samples(z[:count], w[:count], gamma * rho, m)

    def rate(gamma, mean):
        return (mean - szego_log_integral(model, gamma * rho)) / gamma

    gamma_opt, raw, stderr = _timeshared(samples, rate, peak.beta, n)
    return BoundValue(
        value=max(0.0, raw),
        kind="lower_cm_ts",
        clamped=raw < 0.0,
        alpha_used=1.0 / gamma_opt,
        unclamped=raw,
        stderr=stderr,
    )


def _sd_entropy_samples(z, w, hat_var, amp, sigma_eff2, m):
    # per-sample -log p(y | h_hat) for the constant-modulus mixture: the
    # receiver knows the one-step prediction h_hat = sqrt(hat_var z) (real
    # by symmetry) and sees y = h_hat * amp + w sqrt(sigma_eff2)
    centers = np.sqrt(hat_var * z) * amp
    y = centers + w * math.sqrt(sigma_eff2)
    log_norm = math.log(math.pi * sigma_eff2)
    return math.log(m) + log_norm - _log_mix_psk(y, centers, m, sigma_eff2)


def sethuraman_lower(params: ChannelParams, model: PsdModel, cm_points=100,
                     timeshare=False, peak: PeakConstraint | None = None,
                     seed=0, n=None, stderr_tol=None) -> BoundValue:
    """Achievable-rate lower bound for constant-modulus inputs decoded
    against the infinite-past channel prediction.

    The conditional output entropy given the prediction is Monte Carlo
    estimated; the time-sharing variant boosts the power by gamma in
    [1, peak.beta] during a 1/gamma duty cycle and maximizes the rate.
    The raw value is reported without clamping (near rho = 0 it is zero
    only up to Monte Carlo noise).
    """
    _check_model(params, model)
    m = _points(cm_points)
    n = int(n) if n is not None else QuadratureConfig().mc_default_n
    if timeshare and peak is None:
        raise ValueError("time-sharing variant needs the peak constraint")
    z, w = _draw_base(seed, n)
    rho = params.rho
    sigma_h2 = params.sigma_h2
    sigma_n2 = params.sigma_n2

    def samples(gamma, count):
        # per-sample conditional output entropy at boost gamma
        power = gamma * params.sigma_x2
        s2 = pred_error_cm_infinite(model, power, sigma_n2)
        hat_var = max(sigma_h2 - s2, 0.0)
        sigma_eff2 = power * s2 + sigma_n2
        return _sd_entropy_samples(z[:count], w[:count], hat_var, math.sqrt(power),
                                   sigma_eff2, m)

    def rate(gamma, mean):
        # rate at boost gamma over a 1/gamma duty cycle
        c_l1 = mean - noise_entropy(sigma_n2) - szego_log_integral(model, gamma * rho)
        return c_l1 / gamma

    gamma_opt, raw, stderr = _timeshared(samples, rate, peak.beta if timeshare else 1.0, n)
    _check_stderr(stderr, stderr_tol, n)
    return BoundValue(
        value=raw,
        kind="sethuraman_lower_ts" if timeshare else "sethuraman_lower",
        alpha_used=1.0 / gamma_opt,
        unclamped=raw,
        stderr=stderr,
    )
