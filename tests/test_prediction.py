"""LMMSE prediction error: finite horizon, spectral limit, rational form."""

import math
import tracemalloc
import warnings

import mpmath
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
from fadingrate.simulate import empirical_pred_error


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
        ToeplitzCov((1.0, 1.5, 0.0))
    with pytest.raises(ValueError):
        ToeplitzCov((0.0, 0.0))  # r(0) not positive
    with pytest.raises(ValueError, match="need at least the lag value r"):
        ToeplitzCov(())


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


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_unequal_powers_peak_memory():
    # unequal powers take the dense route: its one 1024 x 1024 past system
    # (8 MiB), factored and solved in place without scipy's finiteness copies
    cov = _cov(RaisedCosine(0.1, 0.2), 1025)
    z = PowerProfile(tuple(make_rng(9).uniform(0.5, 2.0, size=1024)))
    assert _peak_bytes(lambda: pred_error_finite(cov, z, 1.0)) <= 1024**2 * 8 + 256 * 2**10


def test_constant_power_peak_memory():
    # a constant-power past streams the Schur columns: no 2047 x 2047 system
    cov = _cov(RaisedCosine(0.1, 0.2), 2048)
    z = PowerProfile((1.0,) * 2047)
    assert _peak_bytes(lambda: pred_error_finite(cov, z, 1.0)) <= 2**20


def _mp_constant_power_error(lags, p, sigma_n2):
    # r(0) - b^T T^{-1} b at 40 digits, T = p Toeplitz(lags[:-1]) + sigma_n2 I
    # and b = sqrt(p) lags[1:], taking the double lags as exact.  T x = b is
    # solved by Levinson's recursion for a general right-hand side (Golub &
    # Van Loan, Algorithm 4.7.3): O(n^2) and independent of the Schur route.
    with mpmath.workdps(40):
        r = [mpmath.mpf(v) for v in lags]
        p = mpmath.mpf(p)
        t0 = p * r[0] + sigma_n2
        t = [p * v / t0 for v in r[1:-1]]  # T / t0 has unit diagonal
        b = [mpmath.sqrt(p) * v for v in r[1:]]
        x, y = [b[0] / t0], [-t[0]] if t else []
        alpha, beta = (y[0] if y else 0), mpmath.mpf(1)
        for k in range(1, len(b)):
            beta *= 1 - alpha * alpha
            mu = (b[k] / t0 - mpmath.fdot(t[:k], x[::-1])) / beta
            x = [x[j] + mu * y[k - 1 - j] for j in range(k)] + [mu]
            if k < len(b) - 1:
                alpha = (-t[k] - mpmath.fdot(t[:k], y[::-1])) / beta
                y = [y[j] + alpha * y[k - 1 - j] for j in range(k)] + [alpha]
        return r[0] - mpmath.fdot(b, x)


@pytest.mark.parametrize("model", [
    Rectangular(0.01), Rectangular(0.1), Jakes(0.01), Jakes(0.1),
    RaisedCosine(0.01, 0.2), RaisedCosine(0.1, 0.2),
], ids=["rect-0.01", "rect-0.1", "jakes-0.01", "jakes-0.1", "rc0.2-0.01", "rc0.2-0.1"])
def test_constant_power_error_matches_mpmath(model):
    # the Schur route of a constant-power past at unit noise; above 40 dB
    # the error is a small difference r(0) - |y|^2, and the dense LAPACK
    # route was off by up to 1.1e-9 there
    for n in (16, 128):
        cov = _cov(model, n)
        for db in (-30, -20, -10, 0, 10, 20, 40, 50, 60):
            p = 10.0 ** (db / 10)
            got = pred_error_finite(cov, PowerProfile((p,) * (n - 1)), 1.0)
            want = _mp_constant_power_error(cov.lags, p, 1)
            rel = float(abs(got - want) / want)
            assert rel <= (1e-12 if db <= 20 else 2e-9), (n, db, rel)


def test_validate_peak_memory():
    # construction runs the Schur verdict, which keeps two generator vectors,
    # not the 32 MiB matrix
    assert _peak_bytes(lambda: _cov(RaisedCosine(0.1, 0.2), 2048)) <= 2**20


def test_non_finite_lags_refused_without_warning():
    for bad in (math.nan, math.inf, -math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^covariance lags must be finite$"):
                ToeplitzCov((1.0, bad, 0.0))
            with pytest.raises(ValueError, match="^covariance lags must be finite$"):
                ToeplitzCov((bad, 0.5, 0.0))


# every entry point that takes past powers, on a two-power past
_POWER_ENTRY_POINTS = {
    "pred_error_finite": lambda z: pred_error_finite(_cov(Rectangular(0.1), 3), z, 1.0),
    "pred_rational_exact": lambda z: pred_rational_exact(_cov(Rectangular(0.1), 3), z, 1.0, 0),
    "convexity_check": lambda z: convexity_check(_cov(Rectangular(0.1), 3), z, 1.0, 1.0, 0),
    "empirical_pred_error": lambda z: empirical_pred_error(Rectangular(0.1), z, 1.0, 10, 0),
}


@pytest.mark.parametrize("entry", list(_POWER_ENTRY_POINTS))
def test_non_finite_powers_refused_without_warning(entry):
    # unrefused, a NaN power makes pred_rational_exact return (nan, nan, nan)
    # and pred_error_finite fail inside scipy's finiteness check
    call = _POWER_ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(PowerProfile((1.0, 0.5)))
        for bad, text in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
            with pytest.raises(ValueError, match=rf"^powers must be finite, got \[{text}\]$"):
                call(PowerProfile((1.0, bad)))


def test_overflowing_past_refused_without_warning():
    # 1e308 times r(0) = 10 does not fit in double precision: the scaled past
    # system raises instead of warning and returning nan
    cov = _cov(Rectangular(0.1, sigma_h2=10), 3)
    z = PowerProfile((1.0, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            pred_error_finite(cov, z, 1.0)
        with pytest.raises(FloatingPointError):
            pred_rational_exact(cov, z, 1.0, 0)


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
    with pytest.raises(ValueError, match="power must be finite and nonnegative, got nan"):
        pred_error_cm_infinite(model, math.nan, 1.0)
    with pytest.raises(ValueError, match="sigma_n2 must be finite and positive, got inf"):
        pred_error_cm_infinite(model, 1.0, math.inf)


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


def _mp_rational(lags, z, sigma_n2, i):
    # (s0, phi, lam) at 50 digits from the non-symmetric system N0 = Z0 R + sigma_n2 I,
    # taking the double lags and powers as exact: s0 = r(0) - r.N0^{-1} Z0 r,
    # u = N0^{-1} e_i, phi = r.u (a = sigma_n2 phi^2) and lam = (R e_i).u; also
    # sum_j |r_j u_j|, the size of the terms that phi sums
    with mpmath.workdps(50):
        r = [mpmath.mpf(v) for v in lags]
        m = len(z)
        z0 = [mpmath.mpf(v) for v in z]
        z0[i] = mpmath.mpf(0)
        n0 = mpmath.matrix(m, m)
        for j in range(m):
            for k in range(m):
                n0[j, k] = z0[j] * r[abs(j - k)] + (sigma_n2 if j == k else 0)
        cross = mpmath.matrix(r[1:])
        w0 = mpmath.lu_solve(n0, mpmath.matrix([z0[j] * r[j + 1] for j in range(m)]))
        u = mpmath.lu_solve(n0, mpmath.matrix([int(j == i) for j in range(m)]))
        phi = mpmath.fdot(cross, u)
        lam = mpmath.fdot([r[abs(i - j)] for j in range(m)], u)
        scale = mpmath.fsum(abs(c * v) for c, v in zip(cross, u))
        return r[0] - mpmath.fdot(cross, w0), phi, lam, scale


def test_rational_decomposition_matches_mpmath():
    # 200 seeded instances on rect, Jakes and rc:0.2, n 2-12, about 20% zero
    # powers, against 50 digits: s0 and lam within 1e-12 relative, and
    # phi = sqrt(a / sigma_n2) within 1e-12 of the terms it sums, since phi
    # is a difference that can cancel (case 142 has a = 1.4e-7 from terms of
    # size 1, and there a is off by 1.4e-12 relative, 2.4e-12 by an LU solve)
    rng = make_rng(25)
    worst = 0.0
    for case in range(200):
        f_d = float(rng.uniform(0.02, 0.4))
        model = (Rectangular(f_d), Jakes(f_d), RaisedCosine(f_d, 0.2))[case % 3]
        n = int(rng.integers(2, 13))
        z = 10.0 ** rng.uniform(-1.5, 1.0, size=n - 1)
        z[rng.random(n - 1) < 0.2] = 0.0
        sigma_n2 = float(10.0 ** rng.uniform(-1, 1))
        i = int(rng.integers(0, n - 1))
        cov = _cov(model, n)
        got = pred_rational_exact(cov, PowerProfile(z), sigma_n2, i)
        s0, phi, lam, scale = _mp_rational(cov.lags, z, sigma_n2, i)
        errs = (abs(got[0] - s0) / s0, abs(math.sqrt(got[1] / sigma_n2) - abs(phi)) / scale,
                abs(got[2] - lam) / lam)
        worst = max(worst, *map(float, errs))
    assert worst <= 1e-12, worst


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
    # one Schur verdict when the covariance is built, then one LAPACK
    # factorization of the 7 x 7 LMMSE system for the rank-one decomposition
    # and one per grid power
    calls = []
    schur, cholesky = prediction._schur, linalg.cholesky

    def counted_schur(lags, shift):
        calls.append(("schur", len(lags)))
        return schur(lags, shift)

    def counted_cholesky(a, **kwargs):
        calls.append(("cholesky", len(a)))
        return cholesky(a, **kwargs)

    monkeypatch.setattr(prediction, "_schur", counted_schur)
    monkeypatch.setattr(linalg, "cholesky", counted_cholesky)
    cov = _cov(Jakes(0.15), 8)
    z = PowerProfile(tuple(make_rng(32).uniform(0.0, 4.0, size=7)))
    assert convexity_check(cov, z, 2.0, 1.0, 3)
    assert calls == [("schur", 8)] + [("cholesky", 7)] * 51


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
        convexity_check(cov, z, 1.0, 1.0, 5)
