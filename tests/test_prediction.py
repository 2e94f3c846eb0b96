"""LMMSE prediction error: finite horizon, spectral limit, rational form."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import linalg

from fadingrate import prediction
from fadingrate.model import Jakes, RaisedCosine, Rectangular
from fadingrate.prediction import (
    PowerProfile,
    ToeplitzCov,
    circulant_eigs,
    convexity_check,
    pred_error_cm_infinite,
    pred_error_finite,
    pred_rational_exact,
    toeplitz_circulant_weak_norm,
)
from fadingrate.quadrature import make_rng, szego_log_integral


def _cov(model, n):
    return ToeplitzCov.from_model(model, n)


def test_two_step_closed_form():
    # single unit-power observation one step back: r0 - r1^2/(r1... ) reduces
    # to 1 - sinc^2(2 f_d)/2 at unit power and unit noise for the flat density
    cov = _cov(Rectangular(0.1), 2)
    val = pred_error_finite(cov, PowerProfile((1.0,)), 1.0)
    assert val == pytest.approx(0.56242989995830959146, abs=1e-13)
    r1 = Rectangular(0.1).autocorr(1)
    assert val == pytest.approx(1.0 - r1 * r1 / 2.0, abs=1e-13)


def test_empty_past_returns_full_variance():
    cov = _cov(Rectangular(0.2, sigma_h2=1.7), 1)
    assert pred_error_finite(cov, PowerProfile(()), 1.0) == 1.7


def test_monotone_in_power_and_horizon():
    model = Rectangular(0.15)
    prev = math.inf
    for p in (0.0, 0.5, 1.0, 4.0, 100.0):
        cur = pred_error_finite(_cov(model, 4), PowerProfile((p,) * 3), 1.0)
        assert cur <= prev + 1e-15
        prev = cur
    prev = math.inf
    for n in (2, 3, 5, 9, 17):
        cur = pred_error_finite(_cov(model, n), PowerProfile((1.0,) * (n - 1)), 1.0)
        assert cur <= prev + 1e-15
        prev = cur


def test_zero_power_rows_carry_no_information():
    model = Jakes(0.2)
    full = pred_error_finite(_cov(model, 3), PowerProfile((1.0, 0.0)), 1.0)
    short = pred_error_finite(_cov(model, 2), PowerProfile((1.0,)), 1.0)
    assert full == pytest.approx(short, abs=1e-14)


def test_result_stays_in_range():
    rng = make_rng(21)
    for _ in range(50):
        model = Rectangular(float(rng.uniform(0.02, 0.49)), sigma_h2=float(rng.uniform(0.3, 3.0)))
        n = int(rng.integers(2, 9))
        z = PowerProfile(tuple(rng.uniform(0.0, 20.0, size=n - 1)))
        val = pred_error_finite(_cov(model, n), z, float(rng.uniform(0.1, 2.0)))
        assert 0.0 <= val <= model.sigma_h2


def test_finite_validation_errors():
    cov = _cov(Rectangular(0.1), 3)
    with pytest.raises(ValueError):
        pred_error_finite(cov, PowerProfile((1.0,)), 1.0)  # profile too short
    with pytest.raises(ValueError):
        pred_error_finite(cov, PowerProfile((1.0, 1.0)), 0.0)
    with pytest.raises(ValueError):
        PowerProfile((1.0, -0.5))
    with pytest.raises(ValueError, match="PSD Toeplitz"):
        pred_error_finite(ToeplitzCov((1.0, 1.5, 0.0), 3), PowerProfile((1.0, 1.0)), 1.0)
    with pytest.raises(ValueError):
        ToeplitzCov((1.0, 0.5), 3)  # wrong lag count
    with pytest.raises(ValueError):
        ToeplitzCov((0.0, 0.0), 2)  # r(0) not positive


@pytest.mark.parametrize("model,n", [
    (Rectangular(0.1), 300), (Jakes(0.2), 64), (RaisedCosine(0.1, 0.2), 2048),
])
def test_finite_error_matches_dense_system(model, n):
    # the dense (s s^T) o R + sigma_n2 I system that the in-place solve
    # replaced, with random powers of which about a quarter are zero
    rng = make_rng(8, n)
    z = rng.uniform(0.0, 5.0, size=n - 1) * (rng.uniform(size=n - 1) > 0.25)
    assert 0 < np.count_nonzero(z == 0.0) < n - 1
    cov = _cov(model, n)
    r = np.asarray(cov.lags)
    s = np.sqrt(z)
    m = (s[:, None] * s[None, :]) * linalg.toeplitz(r[: n - 1]) + 0.7 * np.eye(n - 1)
    b = s * r[1:]
    w = linalg.cho_solve(linalg.cho_factor(m, lower=True), b)
    want = min(max(r[0] - float(b @ w), 0.0), r[0])
    assert pred_error_finite(cov, PowerProfile(tuple(z)), 0.7) == want


def test_finite_error_peak_memory():
    # the past system is 1024 x 1024 (8 MiB) and validate() factors the
    # 1025 x 1025 covariance; no solve may hold more than two such matrices
    cov = _cov(RaisedCosine(0.1, 0.2), 1025)
    z = PowerProfile((1.0,) * 1024)
    tracemalloc.start()
    try:
        pred_error_finite(cov, z, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1025**2 * 8


def test_infinite_horizon_flat_closed_form():
    # unit everything at f_d = 0.1: (1 + 1/(2 f_d))^{2 f_d} - 1 = 6^0.2 - 1
    val = pred_error_cm_infinite(Rectangular(0.1), 1.0, 1.0)
    assert val == pytest.approx(6.0 ** 0.2 - 1.0, abs=1e-13)
    assert val == pytest.approx(0.43096908110525550105, abs=1e-13)


def test_infinite_horizon_spectral_identity():
    """log(1 + power * err / noise) must reproduce the spectral log integral
    at the matched argument, for every density family."""
    rng = make_rng(22)
    for _ in range(50):
        kind = rng.integers(0, 3)
        f_d = float(rng.uniform(0.02, 0.45))
        s_h2 = float(rng.uniform(0.3, 3.0))
        if kind == 0:
            model = Rectangular(f_d, sigma_h2=s_h2)
        elif kind == 1:
            model = Jakes(f_d, sigma_h2=s_h2)
        else:
            f_d = float(rng.uniform(0.02, 0.3))
            ro_max = min(0.9, 0.5 / f_d - 1.0 - 1e-3)
            model = RaisedCosine(f_d, float(rng.uniform(0.05, ro_max)), sigma_h2=s_h2)
        power = float(10.0 ** rng.uniform(-2, 2))
        sigma_n2 = float(rng.uniform(0.2, 2.0))
        err = pred_error_cm_infinite(model, power, sigma_n2)
        lhs = math.log1p(power * err / sigma_n2)
        rhs = szego_log_integral(model, power * model.sigma_h2 / sigma_n2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_infinite_horizon_limits_and_errors():
    model = Rectangular(0.1, sigma_h2=2.5)
    assert pred_error_cm_infinite(model, 0.0, 1.0) == 2.5
    assert pred_error_cm_infinite(model, 1e12, 1.0) < 1e-6
    prev = math.inf
    for p in (0.01, 0.1, 1.0, 10.0, 1e4):
        cur = pred_error_cm_infinite(model, p, 1.0)
        assert cur < prev
        prev = cur
    with pytest.raises(ValueError):
        pred_error_cm_infinite(model, -1.0, 1.0)
    with pytest.raises(ValueError):
        pred_error_cm_infinite(model, 1.0, 0.0)


def test_circulant_eigs_sampling_and_wrapping():
    model = Jakes(0.2, sigma_h2=1.3)
    n = 16
    eigs = circulant_eigs(model, n)
    assert eigs.shape == (n,)
    for k in range(n):
        f = k / n
        if f > 0.5:
            f -= 1.0
        assert eigs[k] == model.psd(f)
    # evenness of the density shows up as eigs[k] == eigs[n-k]
    for k in range(1, n):
        assert eigs[k] == pytest.approx(eigs[n - k], abs=1e-15)
    with pytest.raises(ValueError):
        circulant_eigs(model, 1)


def test_weak_norm_frozen_and_decaying():
    model = RaisedCosine(0.1, 0.2)
    norms = {n: toeplitz_circulant_weak_norm(model, n) for n in (64, 256, 1024)}
    assert norms[64] == pytest.approx(0.36199731232276083, rel=1e-12)
    assert norms[256] == pytest.approx(0.18123032796055255, rel=1e-12)
    assert norms[1024] == pytest.approx(0.0906159804407089, rel=1e-12)
    assert norms[64] > norms[256] > norms[1024]


def test_rational_decomposition_matches_direct_sweep():
    rng = make_rng(23)
    model = Rectangular(0.12, sigma_h2=1.4)
    cov = _cov(model, 5)
    z = PowerProfile(tuple(rng.uniform(0.1, 3.0, size=4)))
    for i in range(4):
        s0, a, lam = pred_rational_exact(cov, z, 0.8, i)
        assert a >= 0.0
        for t in (0.0, 0.3, 1.0, 5.0, 40.0):
            zt = list(z.z)
            zt[i] = t
            direct = pred_error_finite(cov, PowerProfile(tuple(zt)), 0.8)
            assert s0 - a * t / (1.0 + lam * t) == pytest.approx(direct, abs=1e-10)


def test_rational_index_validation():
    cov = _cov(Rectangular(0.1), 3)
    z = PowerProfile((1.0, 1.0))
    with pytest.raises(ValueError):
        pred_rational_exact(cov, z, 1.0, 2)
    with pytest.raises(ValueError):
        pred_rational_exact(cov, z, 1.0, -1)
    with pytest.raises(ValueError):
        pred_rational_exact(cov, z, 0.0, 0)


@pytest.mark.parametrize("n,i", [(3, 0), (5, 2), (8, 6)])
def test_convexity_check_passes(n, i):
    rng = make_rng(24 + n)
    cov = _cov(Jakes(0.15), n)
    z = PowerProfile(tuple(rng.uniform(0.0, 4.0, size=n - 1)))
    assert convexity_check(cov, z, 2.0, 1.0, i)


def test_convexity_check_large_horizon_exact_path():
    # the exact rank-one decomposition serves every horizon, well past the
    # small systems it is checked on against a direct sweep
    for n in (20, 128):
        cov = _cov(Rectangular(0.1), n)
        z = PowerProfile((1.0,) * (n - 1))
        assert convexity_check(cov, z, 1.0, 1.0, 5)


def test_convexity_check_factors_once_per_grid_point(monkeypatch):
    # one validation, then one LMMSE factorization per grid power; the
    # rank-one decomposition reuses the validation
    calls = []
    factor = prediction._cholesky_in_place

    def counted(a, shift):
        calls.append(len(a))
        return factor(a, shift)

    monkeypatch.setattr(prediction, "_cholesky_in_place", counted)
    cov = _cov(Jakes(0.15), 8)
    z = PowerProfile(tuple(make_rng(32).uniform(0.0, 4.0, size=7)))
    assert convexity_check(cov, z, 2.0, 1.0, 3, trials=50)
    assert calls == [8] + [7] * 50


def test_rational_decomposition_peak_memory():
    # one (n-1) x (n-1) system factored once, without identity matrices
    cov = _cov(RaisedCosine(0.1, 0.2), 1025)
    z = PowerProfile((1.0,) * 1024)
    tracemalloc.start()
    try:
        pred_rational_exact(cov, z, 1.0, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1025**2 * 8


def test_convexity_check_validation():
    cov = _cov(Rectangular(0.1), 3)
    z = PowerProfile((1.0, 1.0))
    with pytest.raises(ValueError):
        convexity_check(cov, z, -1.0, 1.0, 0)
    with pytest.raises(ValueError):
        convexity_check(cov, z, 1.0, 1.0, 0, trials=2)
    with pytest.raises(ValueError):
        convexity_check(cov, z, 1.0, 1.0, 5)
