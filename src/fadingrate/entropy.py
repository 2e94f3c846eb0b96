"""Differential entropy-rate bounds for the fading channel output.

Bounds on h'(y) and on the conditional rate h'(y|x) for independent
identically distributed inputs.  The proper-Gaussian-output upper bound
and the Exp(1)-mixture lower bound sandwich h'(y); the refined upper
bound integrates the exact marginal output density of a single output
sample.  Everything is in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .model import ChannelParams, PsdModel, _check_model
from .quadrature import EULER_GAMMA, g_logmoment, szego_log_integral

__all__ = [
    "EntropyRate",
    "h_y_lower",
    "h_y_upper",
    "h_y_upper_refined",
    "h_yx_upper",
    "h_yx_lower_rect",
    "entropy_gaps",
]

_LOG_PI_E = math.log(math.pi) + 1.0


@dataclass(frozen=True)
class EntropyRate:
    """An entropy-rate bound in nats per channel use.

    err_bound is populated only by the refined upper bound, where it
    carries the proven truncation + tail error of the numerical integral.
    """

    value: float
    kind: str
    err_bound: float | None = None


def noise_entropy(sigma_n2):
    """Differential entropy log(pi e sigma_n2) of the complex noise sample."""
    return _LOG_PI_E + math.log(sigma_n2)


def h_y_lower(params: ChannelParams) -> EntropyRate:
    """Lower bound on h'(y): entropy rate of the i.i.d. conditionally
    Gaussian process with the fading marginal, log(pi e sigma_n2) + g(rho)."""
    return EntropyRate(
        value=noise_entropy(params.sigma_n2) + g_logmoment(params.rho),
        kind="hy_lower",
    )


def h_y_upper(params: ChannelParams, alpha=1.0) -> EntropyRate:
    """Upper bound on h'(y): entropy of a proper Gaussian output sample at
    input power alpha * sigma_x2 (alpha in [0, 1])."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    power = alpha * params.sigma_x2 * params.sigma_h2 + params.sigma_n2
    return EntropyRate(value=_LOG_PI_E + math.log(power), kind="hy_upper")


def _magnitude_density(m, rho, sigma_n2, s_hi):
    # density of |y| for the proper-Gaussian-input output sample:
    # f(m) = E_z[(2m/v) exp(-m^2/v)], v = sigma_n2 (1 + rho z), z ~ Exp(1).
    # Substituting v = sigma_n2 e^s flattens both the small-z spike at high
    # SNR and the exponential tail:
    # f(m) = (2m/(rho sigma_n2)) int_0^{s_hi} exp(-(e^s - 1)/rho - m^2 e^{-s}/sigma_n2) ds
    def integrand(s):
        es = math.exp(s)
        return math.exp(-(es - 1.0) / rho - m * m / (sigma_n2 * es))

    val, _ = integrate.quad(integrand, 0.0, s_hi, epsabs=1e-15, epsrel=1e-13, limit=400)
    return 2.0 * m / (rho * sigma_n2) * val


def h_y_upper_refined(params: ChannelParams) -> EntropyRate:
    """Refined upper bound on h'(y): the exact marginal entropy h(y_k) for a
    proper Gaussian input.

    The magnitude density f(m) of the output sample is an exponential
    mixture of Rayleigh densities, evaluated by adaptive quadrature on a
    log-variance substitution that stays accurate at any SNR; the entropy
    integral runs over [0, M] with M doubled until the integrand is below
    1e-14 of its peak.  err_bound adds the analytic tail of the truncated
    integral to the achieved quadrature tolerance.
    """
    rho = params.rho
    sigma_n2 = params.sigma_n2
    if rho == 0.0:
        # output is pure complex Gaussian noise
        return EntropyRate(
            value=noise_entropy(sigma_n2), kind="hy_upper_refined", err_bound=0.0
        )
    # e^{-(e^s - 1)/rho} < 8.8e-27 beyond s_hi
    s_hi = math.log1p(60.0 * rho)
    v_max = sigma_n2 * (1.0 + 60.0 * rho)
    v_min = sigma_n2

    def neg_flogf(m):
        if m <= 0.0:
            return 0.0
        f = _magnitude_density(m, rho, sigma_n2, s_hi)
        return -f * math.log(f) if f > 0.0 else 0.0

    # peak estimate on a coarse grid, then double M until both the entropy
    # integrand and the density itself are provably negligible at M
    grid = np.linspace(0.0, 6.0 * math.sqrt(v_max), 64)[1:]
    peak = max(abs(neg_flogf(m)) for m in grid)
    m_top = 6.0 * math.sqrt(v_max)
    for _ in range(20):
        f_ub = (2.0 * m_top / sigma_n2) * (
            math.exp(-m_top * m_top / v_max) + math.exp(-60.0)
        )
        if abs(neg_flogf(m_top)) <= 1e-14 * peak and f_ub <= math.exp(-1.0):
            break
        m_top *= 2.0
    else:
        achieved = abs(neg_flogf(m_top)) / peak
        raise RuntimeError(
            f"entropy integrand did not decay below 1e-14 of its peak; "
            f"achieved relative magnitude {achieved:.3e} at m = {m_top:.3e}"
        )

    val, quad_err = integrate.quad(
        neg_flogf, 0.0, m_top, epsabs=1e-12, epsrel=1e-12, limit=500
    )

    # analytic tail: the truncated mass p = E_z[exp(-M^2/v)] and truncated
    # second moment q = E_z[(M^2 + v) exp(-M^2/v)] have closed Rayleigh-tail
    # forms inside the mixture; with f <= 1/e beyond M (checked above), the
    # maximum-entropy principle bounds the discarded entropy by
    # p log(1/p) + (p/2) log(2 pi e q / p)
    def tail_moment(extra):
        def integrand(s):
            es = math.exp(s)
            v = sigma_n2 * es
            return math.exp(-(es - 1.0) / rho - m_top * m_top / v) * extra(v)

        val_s, _ = integrate.quad(integrand, 0.0, s_hi, epsabs=1e-300, epsrel=1e-12, limit=400)
        return val_s / rho

    p_tail = tail_moment(lambda v: 1.0) + math.exp(-60.0)
    q_tail = tail_moment(lambda v: m_top * m_top + v) + math.exp(-60.0) * (
        m_top * m_top + sigma_n2 * (1.0 + 61.0 * rho)
    )
    tail = p_tail * math.log(1.0 / p_tail)
    tail += p_tail * max(0.0, 0.5 * math.log(2.0 * math.pi * math.e * q_tail / p_tail))

    closed = (
        math.log(2.0 * math.pi)
        - 0.5 * EULER_GAMMA
        + 0.5 * (math.log(sigma_n2) + g_logmoment(rho))
    )
    return EntropyRate(
        value=val + closed,
        kind="hy_upper_refined",
        err_bound=quad_err + tail,
    )


def h_yx_upper(params: ChannelParams, model: PsdModel) -> EntropyRate:
    """Upper bound on the conditional entropy rate h'(y|x) for i.d. inputs of
    power sigma_x2: the spectral log integral at SNR rho plus the noise floor."""
    _check_model(params, model)
    return EntropyRate(
        value=szego_log_integral(model, params.rho) + noise_entropy(params.sigma_n2),
        kind="hyx_upper",
    )


def h_yx_lower_rect(params: ChannelParams, input_dist="pg") -> EntropyRate:
    """Lower bound on h'(y|x) under the flat band-limited density.

    input_dist selects the i.d. input power law |x_k|^2:
      "pg"            proper Gaussian at power sigma_x2,
      "cm"            constant modulus at power sigma_x2,
      ("cm", p)       constant modulus at power p,
      array-like       samples of |x|^2 (empirical law).

    For constant-modulus inputs this bound meets h_yx_upper exactly.
    """
    fd = params.f_d
    floor = noise_entropy(params.sigma_n2)
    two_fd = 2.0 * fd
    if isinstance(input_dist, str) and input_dist == "pg":
        return EntropyRate(
            value=two_fd * g_logmoment(params.rho / two_fd) + floor,
            kind="hyx_lower_rect",
        )
    if isinstance(input_dist, str) and input_dist == "cm":
        input_dist = ("cm", params.sigma_x2)
    if isinstance(input_dist, tuple) and len(input_dist) == 2 and input_dist[0] == "cm":
        c = float(input_dist[1]) * params.sigma_h2 / params.sigma_n2
        return EntropyRate(
            value=two_fd * math.log1p(c / two_fd) + floor,
            kind="hyx_lower_rect",
        )
    z = np.asarray(input_dist, dtype=float)
    if z.ndim != 1 or z.size == 0 or np.any(z < 0):
        raise ValueError("power samples must be a nonempty 1-D nonnegative array")
    gain = params.sigma_h2 / (two_fd * params.sigma_n2)
    return EntropyRate(
        value=two_fd * float(np.mean(np.log1p(gain * z))) + floor,
        kind="hyx_lower_rect",
    )


def entropy_gaps(params: ChannelParams):
    """Gaps between the matched upper and lower entropy-rate bounds.

    Returns (gap_y, gap_yx): gap_y = log(1+rho) - g(rho) in [0, gamma];
    gap_yx = 2 f_d [log(1+rho/(2 f_d)) - g(rho/(2 f_d))] in [0, 2 f_d gamma].
    Both increase monotonically with rho toward their Euler-constant limits.
    """
    rho = params.rho
    two_fd = 2.0 * params.f_d
    gap_y = math.log1p(rho) - g_logmoment(rho)
    gap_yx = two_fd * (math.log1p(rho / two_fd) - g_logmoment(rho / two_fd))
    return gap_y, gap_yx
