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

from .model import ChannelParams, PsdModel, _check_model, _panel_rule
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
# uniform Gauss-Legendre panels of the refined entropy's s-rule
_S_PANELS = 48


@dataclass(frozen=True)
class EntropyRate:
    """An entropy-rate bound in nats per channel use.

    err_bound is populated only by the refined upper bound, where it is
    QUADPACK's error estimate for the entropy integral plus the analytic
    tail beyond its truncation point: an estimate, not a proven bound.
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


def _s_rule(rho, sigma_n2):
    """Weights mix_k and variances v_k with which the density of |y| for a
    proper Gaussian input is f(m) = (2m/sigma_n2) sum_k mix_k exp(-m^2/v_k)."""
    # f(m) = E_z[(2m/v) exp(-m^2/v)], v = sigma_n2 (1 + rho z), z ~ Exp(1).
    # Substituting v = sigma_n2 e^s flattens both the small-z spike at high
    # SNR and the exponential tail:
    # f(m) = (2m/(rho sigma_n2)) int_0^{s_hi} exp(-(e^s - 1)/rho - m^2 e^{-s}/sigma_n2) ds,
    # with e^{-(e^s - 1)/rho} < 8.8e-27 beyond s_hi
    s_hi = math.log1p(60.0 * rho)
    s, w = _panel_rule(np.linspace(0.0, s_hi, _S_PANELS + 1))
    # expm1: e^s - 1 loses 1e-16 / rho of the exponent at low SNR
    return w * np.exp(-np.expm1(s) / rho) / rho, sigma_n2 * np.exp(s)


def h_y_upper_refined(params: ChannelParams) -> EntropyRate:
    """Refined upper bound on h'(y): the exact marginal entropy h(y_k) for a
    proper Gaussian input.

    The magnitude density f(m) of the output sample is an exponential
    mixture of Rayleigh densities.  On the log-variance substitution
    v = sigma_n2 e^s it is a sum over one fixed Gauss-Legendre s-rule
    (48 uniform 16-node panels on [0, log1p(60 rho)]), which holds 1e-13
    relative against 30-digit mpmath wherever f is above 1e-16 of its
    peak.  The entropy integral of -f log f runs over [0, M] by adaptive
    quadrature, with M doubled until the integrand is below 1e-14 of its
    peak.  err_bound is QUADPACK's error estimate for that integral plus
    the analytic tail beyond M; the s-rule's own error is not included.
    """
    rho = params.rho
    sigma_n2 = params.sigma_n2
    if rho == 0.0:
        # output is pure complex Gaussian noise
        return EntropyRate(
            value=noise_entropy(sigma_n2), kind="hy_upper_refined", err_bound=0.0
        )
    v_max = sigma_n2 * (1.0 + 60.0 * rho)
    mix, v = _s_rule(rho, sigma_n2)

    def neg_flogf(m):
        if m <= 0.0:
            return 0.0
        f = 2.0 * m / sigma_n2 * float(mix @ np.exp(-m * m / v))
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

    from scipy import integrate  # only here: importing it costs about 0.3 s

    val, quad_err = integrate.quad(
        neg_flogf, 0.0, m_top, epsabs=1e-12, epsrel=1e-12, limit=500
    )

    # analytic tail: the truncated mass p = E_z[exp(-M^2/v)] and truncated
    # second moment q = E_z[(M^2 + v) exp(-M^2/v)] have closed Rayleigh-tail
    # forms inside the mixture, summed over the same s-rule; with f <= 1/e
    # beyond M (checked above), the maximum-entropy principle bounds the
    # discarded entropy by p log(1/p) + (p/2) log(2 pi e q / p)
    beyond = mix * np.exp(-m_top * m_top / v)
    p_tail = float(beyond.sum()) + math.exp(-60.0)
    q_tail = float(beyond @ (m_top * m_top + v)) + math.exp(-60.0) * (
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
        power = float(input_dist[1])
        if not 0.0 <= power < math.inf:
            raise ValueError(f"constant-modulus power must be finite and nonnegative, got {power}")
        c = power * params.sigma_h2 / params.sigma_n2
        return EntropyRate(
            value=two_fd * math.log1p(c / two_fd) + floor,
            kind="hyx_lower_rect",
        )
    z = np.asarray(input_dist, dtype=float)
    if z.ndim != 1 or z.size == 0 or not np.all((z >= 0) & (z < math.inf)):
        raise ValueError("power samples must be a nonempty 1-D nonnegative finite array")
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
