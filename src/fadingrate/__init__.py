"""Rate bounds for stationary Rayleigh flat-fading channels.

Analytic and Monte Carlo bounds on the achievable rate of a discrete-time
noncoherent Rayleigh flat-fading channel with a bandlimited Doppler
spectrum: proper-Gaussian-input bounds, peak-power-constrained bounds,
channel-prediction-based bounds, pilot-aided synchronized-detection
bounds, and the simulation machinery to cross-check all of them.  Rates
are in nats per channel use unless converted at the output layer.
"""

from .model import (
    ChannelParams,
    Jakes,
    PsdModel,
    RaisedCosine,
    Rectangular,
    Tabulated,
)
from .quadrature import (
    EULER_GAMMA,
    McEstimate,
    QuadratureConfig,
    g_logmoment,
    g_logmoment_gauss,
    make_rng,
    szego_log_integral,
)
from .entropy import (
    EntropyRate,
    entropy_gaps,
    h_y_lower,
    h_y_upper,
    h_y_upper_refined,
    h_yx_lower_rect,
    h_yx_upper,
    noise_entropy,
)
from .prediction import (
    PowerProfile,
    ToeplitzCov,
    circulant_eigs,
    convexity_check,
    pred_error_cm_infinite,
    pred_error_finite,
    pred_rational_exact,
    toeplitz_circulant_weak_norm,
)
from .rates import (
    BoundValue,
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
from .mcrates import (
    coherent_mi_cm,
    rate_lower_cm,
    rate_lower_cm_timeshare,
    sethuraman_lower,
)
from .simulate import (
    FadingRealization,
    empirical_coherent_mi,
    empirical_pred_error,
    gen_fading,
    gen_fading_batch,
    read_fading_dump,
    simulate_channel,
    write_fading_dump,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # channel and spectra
    "ChannelParams", "PsdModel", "Rectangular", "Jakes", "RaisedCosine", "Tabulated",
    # quadrature and randomness
    "QuadratureConfig", "McEstimate", "EULER_GAMMA", "make_rng",
    "g_logmoment", "g_logmoment_gauss", "szego_log_integral",
    # entropy rates
    "EntropyRate", "noise_entropy", "h_y_lower", "h_y_upper",
    "h_y_upper_refined", "h_yx_upper", "h_yx_lower_rect", "entropy_gaps",
    # prediction
    "ToeplitzCov", "PowerProfile", "pred_error_finite", "pred_error_cm_infinite",
    "circulant_eigs", "toeplitz_circulant_weak_norm", "pred_rational_exact",
    "convexity_check",
    # deterministic bounds
    "BoundValue", "PeakConstraint", "coherent_capacity", "rate_lower_pg",
    "rate_upper_pg_rect", "rate_gap_pg_rect", "prelog_estimate", "alpha_opt_conditions",
    "rate_upper_pred_pg", "rate_upper_pred_peak", "sethuraman_upper", "lapidoth_asymptotes",
    "sd_rate_bounds", "sd_optimal_L", "sd_max_spacing", "iid_low_snr_conditions",
    # Monte Carlo bounds
    "coherent_mi_cm", "rate_lower_cm", "rate_lower_cm_timeshare", "sethuraman_lower",
    # simulation
    "FadingRealization", "gen_fading", "gen_fading_batch",
    "simulate_channel", "empirical_pred_error", "empirical_coherent_mi",
    "write_fading_dump", "read_fading_dump",
    # verification
    "CheckResult", "run_suite",
]
