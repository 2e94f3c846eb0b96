"""Cold start: importing the package and its CLI leaves scipy.integrate
and scipy.linalg unloaded, and so do a Cholesky-synthesized batch and a
constant-power prediction; the
functions that import them on first use work when they are the first
thing called; and the package exports exactly its pinned set of public
names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fadingrate
from fadingrate.entropy import h_y_upper_refined
from fadingrate.model import ChannelParams, RaisedCosine
from fadingrate.prediction import PowerProfile, ToeplitzCov, pred_error_finite

_SRC = str(Path(fadingrate.__file__).resolve().parent.parent)


def _fresh(code):
    """stdout of `code` run in a new interpreter.  The pytest
    filterwarnings setting imports scipy.integrate into this one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_neither_integrate_nor_linalg():
    loaded = _fresh(
        "import sys, fadingrate, fadingrate.cli\n"
        "print(sorted({'scipy.integrate', 'scipy.optimize', 'scipy.linalg'} & set(sys.modules)))"
    )
    assert loaded == "[]"


def test_cholesky_batch_leaves_linalg_unloaded():
    # the Schur factorization is numpy only
    loaded = _fresh(
        "import sys\n"
        "from fadingrate.model import Rectangular\n"
        "from fadingrate.simulate import gen_fading_batch\n"
        "gen_fading_batch(Rectangular(0.1), 256, 4, seed=1, method='cholesky')\n"
        "print('scipy.linalg' in sys.modules)"
    )
    assert loaded == "False"


def test_refined_entropy_works_called_first():
    got = _fresh(
        "from fadingrate.entropy import h_y_upper_refined\n"
        "from fadingrate.model import ChannelParams\n"
        "r = h_y_upper_refined(ChannelParams(f_d=0.1, sigma_x2=10.0))\n"
        "print(repr((r.value, r.err_bound)))"
    )
    want = h_y_upper_refined(ChannelParams(f_d=0.1, sigma_x2=10.0))
    assert got == repr((want.value, want.err_bound))


def test_constant_power_prediction_leaves_linalg_unloaded():
    # a constant-power past is solved through the Schur columns, numpy only
    loaded = _fresh(
        "import sys\n"
        "from fadingrate.model import RaisedCosine\n"
        "from fadingrate.prediction import PowerProfile, ToeplitzCov, pred_error_finite\n"
        "cov = ToeplitzCov.from_model(RaisedCosine(0.1, 0.2), 33)\n"
        "pred_error_finite(cov, PowerProfile((1.0,) * 32), 0.5)\n"
        "print('scipy.linalg' in sys.modules)"
    )
    assert loaded == "False"


def test_finite_prediction_works_called_first():
    # unequal powers take the dense route, which imports scipy.linalg on use
    powers = tuple(1.0 + k / 32 for k in range(32))
    got = _fresh(
        "from fadingrate.model import RaisedCosine\n"
        "from fadingrate.prediction import PowerProfile, ToeplitzCov, pred_error_finite\n"
        "cov = ToeplitzCov.from_model(RaisedCosine(0.1, 0.2), 33)\n"
        f"print(repr(pred_error_finite(cov, PowerProfile({powers!r}), 0.5)))"
    )
    cov = ToeplitzCov.from_model(RaisedCosine(0.1, 0.2), 33)
    assert got == repr(pred_error_finite(cov, PowerProfile(powers), 0.5))


def test_constructor_refuses_non_psd_lags():
    got = _fresh(
        "from fadingrate.prediction import ToeplitzCov\n"
        "try:\n"
        "    ToeplitzCov((1.0, 1.5, 0.0))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    assert got == "covariance lags do not define a PSD Toeplitz matrix"
    with pytest.raises(ValueError, match="do not define a PSD"):
        ToeplitzCov((1.0, 1.5, 0.0))


# the package's public names, fixed here so that how __init__ gathers them
# can change without the exported set changing
PUBLIC_NAMES = {
    "__version__",
    # model
    "ChannelParams", "PsdModel", "Rectangular", "Jakes", "RaisedCosine",
    # quadrature
    "BoundValue", "QuadratureConfig", "EULER_GAMMA", "make_rng",
    "g_logmoment", "g_logmoment_gauss", "szego_log_integral",
    # entropy
    "noise_entropy", "h_y_lower", "h_y_upper",
    "h_y_upper_refined", "h_yx_upper", "h_yx_lower_rect", "entropy_gaps",
    # prediction
    "ToeplitzCov", "PowerProfile", "pred_error_finite", "pred_error_cm_infinite",
    "circulant_eigs", "toeplitz_circulant_weak_norm", "pred_rational_exact",
    "convexity_check",
    # rates
    "PeakConstraint", "coherent_capacity", "rate_lower_pg",
    "rate_upper_pg_rect", "rate_gap_pg_rect", "prelog_estimate", "alpha_opt_conditions",
    "rate_upper_pred_pg", "rate_upper_pred_peak", "sethuraman_upper", "lapidoth_asymptotes",
    "sd_rate_bounds", "sd_optimal_L", "sd_max_spacing", "iid_low_snr_conditions",
    # mcrates
    "coherent_mi_cm", "rate_lower_cm", "sethuraman_lower",
    # simulate
    "gen_fading_batch", "empirical_pred_error", "empirical_coherent_mi",
    "write_fading_dump", "read_fading_dump",
    # verify
    "CheckResult", "run_suite",
}


def test_public_names_are_exactly_the_pinned_set():
    assert len(PUBLIC_NAMES) == 53
    assert len(fadingrate.__all__) == len(set(fadingrate.__all__))
    assert set(fadingrate.__all__) == PUBLIC_NAMES
    for name in fadingrate.__all__:
        assert getattr(fadingrate, name) is not None, name
