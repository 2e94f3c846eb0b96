"""Monte Carlo rate bounds for constant-modulus signaling.

The coherent mutual information of an m-point uniform-phase constellation
has no closed form; it is estimated by seeded Monte Carlo with the channel
magnitude drawn from its Rayleigh law.  The same cached estimator drives
both achievable-rate lower bounds: rate_lower_cm at the input SNR and
sethuraman_lower at the SNR of decoding against the channel prediction.
A peak constraint with beta > 1 turns on their time sharing, which
maximizes over the boost factor gamma in [1, beta] with common random
numbers so the search objective is smooth.
Overflow in an estimator raises FloatingPointError (an ArithmeticError)
instead of returning a non-finite value with a numpy warning.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import ChannelParams, PsdModel, _check_model
from .prediction import pred_error_cm_infinite
from .quadrature import (
    BoundValue, QuadratureConfig, _complex_normal, _finite_nonnegative, _log_mix_psk,
    _mean_stderr, make_rng, szego_log_integral,
)
from .rates import PeakConstraint

__all__ = ["coherent_mi_cm", "rate_lower_cm", "sethuraman_lower"]

# constellation size of the constant-modulus lower bounds
_M_POINTS = 100
# samples per block of an estimate; at 100 points the m-PSK kernel's window
# is 26 columns, so a block's window buffer stays near 850 kB
_PSK_BLOCK = 4096
# y = h + w rounds the noise w by up to the rounding unit 2^-53 |h| of the
# channel amplitude; an estimate is refused once that unit, at the largest
# amplitude of its samples, exceeds this share of the noise's standard
# deviation (lower_cm: past about 260 dB)
_NOISE_ROUNDING_SHARE = 2.0**-8


def _sample_count(n):
    # n, or the package default for None
    return int(n) if n is not None else QuadratureConfig().mc_default_n


# a grid's cells all draw from one (seed, n), so one base (24 n bytes) is
# kept; callers pass the resolved n, so n=None and the default n share it
@lru_cache(maxsize=1)
def _base(seed, n):
    # read-only (z, w): the fading powers and the noise from stream (seed, 0)
    rng = make_rng(seed, 0)
    z, w = rng.exponential(size=n), _complex_normal(rng, n)
    z.flags.writeable = w.flags.writeable = False
    return z, w


# figure 2's 294 lower_cm cells ask for 2 estimates, so each (mean, stderr)
# is taken once
@lru_cache(maxsize=256)
def _cm_estimate(seed, n, count, snr, m):
    # (mean, stderr) of the unit-power m-PSK coherent information at SNR snr
    # over the first count samples of base (seed, n): channel magnitude
    # sqrt(snr z), unit-variance noise w, symbol fixed to 1 by symmetry.
    # The samples fill one count-float array _PSK_BLOCK at a time, so every
    # other temporary is one block's, and _mean_stderr takes the whole
    # array: the bits do not depend on the block size.
    z, w = _base(seed, n)
    log_m = math.log(m)
    vals = np.empty(count)
    for lo in range(0, count, _PSK_BLOCK):
        hi = min(lo + _PSK_BLOCK, count)
        h = np.sqrt(snr * z[lo:hi])
        vals[lo:hi] = log_m - np.abs(w[lo:hi]) ** 2 - _log_mix_psk(h + w[lo:hi], h, m, 1.0)
    mean, stderr = _mean_stderr(vals)
    amp = math.sqrt(snr * z[:count].max())
    if amp * 2.0**-53 > _NOISE_ROUNDING_SHARE:
        raise ValueError(f"channel amplitude {amp:.3g} against unit noise: "
                         "the noise is lost to rounding")
    # a sample rounds terms of size log m (the kernel adds it, the line above
    # subtracts it), so no stderr below ulp(log m) is meant; at snr = 0 every
    # sample is exactly 0
    return mean, max(stderr, math.ulp(log_m)) if snr > 0.0 else stderr


@np.errstate(over="raise")
def coherent_mi_cm(rho, m_points=_M_POINTS, seed=0, n=None) -> BoundValue:
    """Mutual information of an m-point uniform-phase constant-modulus
    constellation over the coherent channel, in nats.

    Monte Carlo over the fading magnitude and noise; the estimate sits
    below both coherent capacity and log(m_points).
    """
    rho = _finite_nonnegative(rho, "rho")
    m = int(m_points)
    if m < 2:
        raise ValueError("need at least 2 constellation points")
    n = _sample_count(n)
    mean, stderr = _cm_estimate(seed, n, n, rho, m)
    return BoundValue(value=mean, stderr=stderr)


def _golden_max(fun, lo, hi, best):
    # golden-section maximization of a deterministic scalar function, to a
    # bracket of 1e-4, or until the bracket holds no two distinct interior
    # doubles (past 2^39 one ulp exceeds 1e-4); best = (value, point) is
    # the best point evaluated before, and the best of it and the last two
    # interior points wins
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > 1e-4 and a < c < d < b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return max(best, (fc, c), (fd, d), key=lambda t: t[0])[1]


# widest scan spacing at which a scan whose best point is an end of [1, beta]
# decides gamma: a probe 1e-4 inward then speaks for the gap to the next scan
# point (at beta = 1000, spacing 66.6, an rc:0.2 objective fell from gamma = 1
# and rose again before the first scan point)
_SCAN_DECIDES_SPACING = 1.0


def _timeshared(estimate, rate, beta, n):
    """Time-sharing estimate over the boost gamma in [1, beta].

    estimate(gamma, count) gives the cached (mean, stderr) of the first count
    common random numbers at boost gamma, and rate(gamma, mean) the rate over
    a 1/gamma duty cycle.  A 16-point scan guards against non-unimodal
    objectives and golden section refines within the bracket of its best
    point to 1e-4, both on min(n, 10^4) samples; at beta = 1 there is no
    search.  When the scan's best point is an end of [1, beta], the spacing
    (beta - 1) / 15 is at most _SCAN_DECIDES_SPACING and a probe 1e-4 inward
    is not better, that end is kept (Brent 1973): at beta = 2 a search takes
    16 + 1 estimates, 15 + 1 after the plain bound's (1, n).  The search's
    gamma then meets gamma = 1 on all n samples (the plain bound's estimate),
    keeping the search's on a tie, so the rate is never below the plain one.
    Returns (gamma_opt, raw, stderr): the rate from all n samples at
    gamma_opt and its standard error, which at n <= 10^4 omits the choice
    of gamma on those samples (the optimizer's curse).
    """
    gamma_opt = 1.0
    if beta > 1.0:
        n_small = min(n, 10_000)

        def objective(gamma):
            return rate(gamma, estimate(gamma, n_small)[0])

        # as Python floats, so gamma_opt and every result field are floats
        gammas = np.linspace(1.0, beta, 16).tolist()
        values = [objective(g) for g in gammas]
        k = int(np.argmax(values))
        gamma_opt = gammas[k]
        if not (k in (0, len(gammas) - 1)
                and (beta - 1.0) / (len(gammas) - 1) <= _SCAN_DECIDES_SPACING
                and objective(gamma_opt + (1e-4 if k == 0 else -1e-4)) <= values[k]):
            lo = gammas[max(k - 1, 0)]
            hi = gammas[min(k + 1, len(gammas) - 1)]
            gamma_opt = _golden_max(objective, lo, hi, (values[k], gamma_opt))
    mean, stderr = estimate(gamma_opt, n)
    raw = rate(gamma_opt, mean)
    if gamma_opt != 1.0:
        mean_1, stderr_1 = estimate(1.0, n)
        raw_1 = rate(1.0, mean_1)
        if raw_1 > raw:
            return 1.0, raw_1, stderr_1
    return gamma_opt, raw, stderr / gamma_opt


@np.errstate(over="raise")
def rate_lower_cm(params: ChannelParams, model: PsdModel, peak: PeakConstraint | None = None,
                  seed=0, n=None) -> BoundValue:
    """Achievable rate with i.i.d. constant-modulus inputs: the coherent
    constellation information minus the spectral log integral, clamped at 0.

    With a peak ratio beta > 1 the bound time-shares: it transmits a
    fraction 1/gamma of the time at power gamma sigma_x2, maximized over
    gamma in [1, beta] (common random numbers keep the search smooth).
    Without a peak constraint, or at beta = 1, there is no search.
    alpha_used records the duty cycle 1/gamma_opt.
    """
    _check_model(params, model)
    n = _sample_count(n)
    rho = params.rho

    def estimate(gamma, count):
        return _cm_estimate(seed, n, count, gamma * rho, _M_POINTS)

    def rate(gamma, mean):
        return (mean - szego_log_integral(model, gamma * rho)) / gamma

    gamma_opt, raw, stderr = _timeshared(estimate, rate, 1.0 if peak is None else peak.beta, n)
    return BoundValue(value=max(0.0, raw), clamped=raw < 0.0, alpha_used=1.0 / gamma_opt,
                      unclamped=raw, stderr=stderr)


@np.errstate(over="raise")
def sethuraman_lower(params: ChannelParams, model: PsdModel, peak: PeakConstraint | None = None,
                     seed=0, n=None, *, timeshare=False) -> BoundValue:
    """Achievable-rate lower bound for constant-modulus inputs decoded
    against the infinite-past channel prediction.

    Given the prediction and |x|^2 = P the output is the prediction times x
    plus CN(0, P s2 + sigma_n2), s2 the prediction error, and the
    Kolmogorov-Szego identity log((P s2 + sigma_n2) / sigma_n2) = the
    spectral log integral makes the bound the coherent m-PSK information at
    SNR P (sigma_h2 - s2) / (P s2 + sigma_n2): coherent_mi_cm's estimate.
    With a peak ratio beta > 1 the bound time-shares: it boosts the power
    by gamma in [1, beta] during a 1/gamma duty cycle and maximizes the
    rate, never below the plain one at the same seed and n; without a peak
    constraint, or at beta = 1, there is no search.  The raw
    value is reported without clamping: exactly 0 at sigma_x2 = 0, and near
    it zero up to Monte Carlo noise.  timeshare only labels the call:
    perfbench/spans.py reports timeshare=True as sethuraman_lower_ts.
    """
    _check_model(params, model)
    n = _sample_count(n)

    def estimate(gamma, count):
        power = gamma * params.sigma_x2
        s2 = pred_error_cm_infinite(model, power, params.sigma_n2)
        snr = power * max(params.sigma_h2 - s2, 0.0) / (power * s2 + params.sigma_n2)
        return _cm_estimate(seed, n, count, snr, _M_POINTS)

    def rate(gamma, mean):
        return mean / gamma

    gamma_opt, raw, stderr = _timeshared(estimate, rate, 1.0 if peak is None else peak.beta, n)
    return BoundValue(value=raw, alpha_used=1.0 / gamma_opt, unclamped=raw, stderr=stderr)
