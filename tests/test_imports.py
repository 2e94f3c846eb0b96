"""Cold start: importing the package and its CLI leaves scipy.integrate
and scipy.linalg unloaded, and the functions that import them on first
use work when they are the first thing called."""

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


def test_refined_entropy_works_called_first():
    got = _fresh(
        "from fadingrate.entropy import h_y_upper_refined\n"
        "from fadingrate.model import ChannelParams\n"
        "r = h_y_upper_refined(ChannelParams(f_d=0.1, sigma_x2=10.0))\n"
        "print(repr((r.value, r.err_bound)))"
    )
    want = h_y_upper_refined(ChannelParams(f_d=0.1, sigma_x2=10.0))
    assert got == repr((want.value, want.err_bound))


def test_finite_prediction_works_called_first():
    got = _fresh(
        "from fadingrate.model import RaisedCosine\n"
        "from fadingrate.prediction import PowerProfile, ToeplitzCov, pred_error_finite\n"
        "cov = ToeplitzCov.from_model(RaisedCosine(0.1, 0.2), 33)\n"
        "print(repr(pred_error_finite(cov, PowerProfile((1.0,) * 32), 0.5)))"
    )
    cov = ToeplitzCov.from_model(RaisedCosine(0.1, 0.2), 33)
    assert got == repr(pred_error_finite(cov, PowerProfile((1.0,) * 32), 0.5))


def test_validate_refuses_non_psd_lags_called_first():
    got = _fresh(
        "from fadingrate.prediction import ToeplitzCov\n"
        "try:\n"
        "    ToeplitzCov((1.0, 1.5, 0.0), 3).validate()\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    assert got == "covariance lags do not define a PSD Toeplitz matrix"
    with pytest.raises(ValueError, match="do not define a PSD"):
        ToeplitzCov((1.0, 1.5, 0.0), 3).validate()
