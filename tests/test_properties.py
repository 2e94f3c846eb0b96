"""Property tests of the bound orderings on the flat (rect), Jakes and
raised-cosine densities.

Each analytic property holds exactly in real arithmetic; the only slack is
the rounding of O(1) nat values, fixed at 1e-12 before any example was run.
A Monte Carlo lower bound holds against its upper bound in expectation; its
slack adds 4 standard errors of the estimate (MC_SLACK), and the sample
count (MC_N) and example count (MC_PROPERTY) were fixed with it.
"""

import contextlib
import io
import math

from hypothesis import given, settings, strategies as st

from fadingrate import cli
from fadingrate.mcrates import rate_lower_cm, sethuraman_lower
from fadingrate.model import ChannelParams, Jakes, RaisedCosine, Rectangular
from fadingrate.quadrature import szego_log_integral
from fadingrate.rates import (
    PeakConstraint,
    coherent_capacity,
    rate_lower_pg,
    rate_upper_pg_rect,
    rate_upper_pred_peak,
    rate_upper_pred_pg,
    sethuraman_upper,
)

TOL = 1e-12
FD = st.floats(0.005, 0.495)
SNR_DB = st.floats(-40.0, 80.0)
BETA = st.floats(1.0, 10.0)
PROPERTY = settings(max_examples=200, deadline=None)
MC_N = 400
MC_SLACK = 4.0
MC_PROPERTY = settings(max_examples=30, deadline=None)
SEED = st.integers(0, 2 ** 16)
RECT_BOUNDS = ["lower_pg", "upper_pg", "upper_pred_pg", "coherent", "upper_peak",
               "sethuraman_upper", "upper_pred_peak", "sd", "lapidoth"]


def _params(f_d, snr_db):
    return ChannelParams(f_d=f_d, sigma_x2=10.0 ** (snr_db / 10.0))


def _pg_bounds(f_d, snr_db):
    p = _params(f_d, snr_db)
    return (rate_lower_pg(p, Rectangular(f_d)).value, rate_upper_pg_rect(p).value,
            coherent_capacity(p.rho).value)


@PROPERTY
@given(FD, SNR_DB, st.floats(0.0, 20.0))
def test_pg_bounds_ordered_and_nondecreasing_in_snr(f_d, snr_db, step_db):
    lower, upper, coherent = _pg_bounds(f_d, snr_db)
    assert lower <= upper + TOL
    assert upper <= coherent + TOL
    lower2, upper2, _ = _pg_bounds(f_d, snr_db + step_db)
    assert lower <= lower2 + TOL
    assert upper <= upper2 + TOL


@PROPERTY
@given(FD, SNR_DB, BETA)
def test_prediction_peak_bound_below_spectral_peak_bound(f_d, snr_db, beta):
    p, model, peak = _params(f_d, snr_db), Rectangular(f_d), PeakConstraint(beta)
    assert rate_upper_pred_peak(p, model, peak).value <= sethuraman_upper(p, model, peak).value + TOL


@st.composite
def _shaped_models(draw):
    # Jakes, or a raised cosine whose roll-off ends below the half rate
    if draw(st.booleans()):
        return Jakes(draw(FD))
    beta_ro = draw(st.floats(0.0, 1.0, exclude_min=True))
    return RaisedCosine(draw(st.floats(0.005, 0.495 / (1.0 + beta_ro))), beta_ro)


@PROPERTY
@given(_shaped_models(), SNR_DB)
def test_flat_density_maximizes_szego(model, snr_db):
    """Among densities of equal power and support, the flat one maximizes
    the spectral log integral (concavity of the logarithm)."""
    c = 10.0 ** (snr_db / 10.0)
    flat = Rectangular(model.support_edge)
    assert szego_log_integral(model, c) <= szego_log_integral(flat, c) + TOL


@PROPERTY
@given(_shaped_models(), SNR_DB)
def test_shaped_pg_bounds_ordered(model, snr_db):
    p = _params(model.f_d, snr_db)
    upper = rate_upper_pred_pg(p, model).value
    assert rate_lower_pg(p, model).value <= upper + TOL
    assert upper <= coherent_capacity(p.rho).value + TOL


@PROPERTY
@given(_shaped_models(), SNR_DB, BETA)
def test_shaped_prediction_peak_bound_below_spectral_peak_bound(model, snr_db, beta):
    p, peak = _params(model.f_d, snr_db), PeakConstraint(beta)
    assert rate_upper_pred_peak(p, model, peak).value <= sethuraman_upper(p, model, peak).value + TOL


def _below(lower, upper):
    return lower.value <= upper.value + MC_SLACK * lower.stderr + TOL


@MC_PROPERTY
@given(FD, SNR_DB, SEED)
def test_lower_cm_below_coherent_capacity(f_d, snr_db, seed):
    p = _params(f_d, snr_db)
    lower = rate_lower_cm(p, Rectangular(f_d), seed=seed, n=MC_N)
    assert _below(lower, coherent_capacity(p.rho))


@MC_PROPERTY
@given(FD, SNR_DB, BETA, SEED)
def test_lower_cm_ts_below_peak_upper_bound(f_d, snr_db, beta, seed):
    p, model, peak = _params(f_d, snr_db), Rectangular(f_d), PeakConstraint(beta)
    lower = rate_lower_cm(p, model, peak, seed=seed, n=MC_N)
    assert _below(lower, sethuraman_upper(p, model, peak))


@MC_PROPERTY
@given(FD, SNR_DB, BETA, SEED)
def test_sethuraman_lower_below_sethuraman_upper(f_d, snr_db, beta, seed):
    p, model, peak = _params(f_d, snr_db), Rectangular(f_d), PeakConstraint(beta)
    lower = sethuraman_lower(p, model, seed=seed, n=MC_N)
    assert _below(lower, sethuraman_upper(p, model, peak))


def _sweep(f_d, snr_db, beta, units):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["sweep", "--psd", "rect", "--fd", repr(f_d), f"--snr-db={snr_db!r}",
                         "--beta", repr(beta), "--bounds", ",".join(RECT_BOUNDS),
                         "--units", units])
    assert code == 0
    header, row = out.getvalue().splitlines()[-2:]
    return header.split(","), row.split(",")


@settings(max_examples=50, deadline=None)
@given(FD, SNR_DB, BETA)
def test_bit_cells_are_nat_cells_over_ln2(f_d, snr_db, beta):
    header, nat = _sweep(f_d, snr_db, beta, "nat")
    _, bit = _sweep(f_d, snr_db, beta, "bit")
    is_rate = dict(col for name in RECT_BOUNDS for col in cli.BOUNDS[name].columns)
    for name, n_cell, b_cell in zip(header, nat, bit):
        if is_rate.get(name) and n_cell:
            assert float(b_cell) == float(n_cell) / math.log(2.0)
        else:
            assert b_cell == n_cell
