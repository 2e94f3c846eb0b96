"""Verification suite: module invariants plus the acceptance checks.

Each check is one registration: @_check(name, expected, stream, full) on a
body that returns (passed, observed).  The registered callable check(seed=0)
times the body and returns a CheckResult, so the CLI and the test suite
share one registry.  Definition order is run order: the module invariants,
then the acceptance checks in criterion order, then the checks that only the
"full" level runs (the Monte Carlo bound ordering sweep, the long
prediction-convergence ladder, the periodogram of large traces, and a
ten-million-sample estimator check).  The "fast" level is everything before
those and finishes in seconds.

A check that draws random numbers draws all of them from its stream
make_rng(seed, stream), so every seed make_rng accepts is a valid suite seed.
Statistical checks compare against standard-error bands: mc_crosschecks'
prediction errors and sim_laws use 4 standard errors with one retry at four
times the samples, the coherent PG rate estimates 4 standard errors with no
retry, and peak_bound_ordering 3 standard errors with no retry.
periodogram_support has no band: it bounds the out-of-band mass at 2%.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .entropy import entropy_gaps, h_y_lower, h_y_upper, h_y_upper_refined, h_yx_lower_rect, noise_entropy
from .model import ChannelParams, Jakes, RaisedCosine, Rectangular
from .prediction import (
    PowerProfile,
    ToeplitzCov,
    convexity_check,
    pred_error_cm_infinite,
    pred_error_finite,
    toeplitz_circulant_weak_norm,
)
from .quadrature import EULER_GAMMA, g_logmoment, g_logmoment_gauss, make_rng, szego_log_integral
from .rates import (
    PeakConstraint,
    alpha_opt_conditions,
    coherent_capacity,
    prelog_estimate,
    rate_gap_pg_rect,
    rate_lower_pg,
    rate_upper_pg_rect,
    rate_upper_pred_peak,
    sd_max_spacing,
    sd_optimal_L,
    sethuraman_upper,
)
from .mcrates import sethuraman_lower
from .simulate import empirical_coherent_mi, empirical_pred_error, gen_fading_batch

__all__ = ["CheckResult", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: str
    expected: str
    runtime: float


# (name, check, runs at the full level only) per registered check, in run order
_REGISTRY = []


def _check(name, expected, stream=None, full=False):
    """Register body(rng) -> (passed, observed) as check(seed=0) -> CheckResult.
    rng is make_rng(seed, stream), or None for a check without a stream."""

    def register(body):
        @functools.wraps(body)
        def check(seed=0) -> CheckResult:
            t0 = time.perf_counter()
            passed, observed = body(None if stream is None else make_rng(seed, stream))
            return CheckResult(name, bool(passed), observed, expected, time.perf_counter() - t0)

        _REGISTRY.append((name, check, full))
        return check

    return register


def _db_to_power(db):
    return 10.0 ** (db / 10.0)


def _random_model(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return Rectangular(float(rng.uniform(0.005, 0.45)))
    if kind == 1:
        return Jakes(float(rng.uniform(0.005, 0.45)))
    return RaisedCosine(float(rng.uniform(0.005, 0.24)), float(rng.uniform(0.05, 1.0)))


def _sub_seed(rng):
    return int(rng.integers(0, 2**63))


# ----------------------------------------------------------------------
# module invariants


@_check("quadrature_routes", "routes agree; g(a) <= log(1+a); strictly increasing")
def check_quadrature_routes(rng):
    """The log-moment's E_1 and moment-series branches agree with the
    Gauss-Laguerre route, and sit on the right side of Jensen's inequality."""
    frozen = abs(g_logmoment(1.0) - 0.5963473623231940)
    # Laguerre truncation grows with the argument; stay where it converges
    route = max(abs(g_logmoment(a) - g_logmoment_gauss(a)) for a in (0.5, 3.0))
    route = max(route, abs(g_logmoment(10.0) - g_logmoment_gauss(10.0, order=180)) * 0.1)
    jensen = max(g_logmoment(a) - math.log1p(a) for a in 10.0 ** np.arange(-3, 6.5, 0.5))
    grid = [g_logmoment(a) for a in 10.0 ** np.arange(-3, 6.5, 0.5)]
    mono = min(np.diff(grid))
    ok = frozen <= 1e-13 and route <= 1e-9 and jensen <= 0.0 and mono > 0.0
    return ok, f"frozen dev {frozen:.1e}, route dev {route:.1e}, jensen excess {jensen:.1e}"


@_check("entropy_ordering",
        "lower <= refined <= upper (within reported error); CM path matches spectral")
def check_entropy_ordering(rng):
    """Refined output-entropy bound lies between the analytic lower and
    crude upper bounds, within its reported quadrature error."""
    worst = -math.inf
    for rho in (0.1, 1.0, 10.0, 1e3):
        params = ChannelParams(sigma_x2=rho)
        lo = h_y_lower(params).value
        ref = h_y_upper_refined(params)
        hi = h_y_upper(params).value
        slack = ref.err_bound + 1e-12
        worst = max(worst, lo - ref.value - slack, ref.value - hi - slack)
    cm_dev = 0.0
    for rho in (0.3, 2.0, 30.0):
        params = ChannelParams(f_d=0.2, sigma_x2=rho)
        via_entropy = h_yx_lower_rect(params, "cm").value - noise_entropy(params.sigma_n2)
        via_szego = szego_log_integral(Rectangular(0.2), rho)
        cm_dev = max(cm_dev, abs(via_entropy - via_szego))
    ok = worst <= 0.0 and cm_dev <= 1e-14
    return ok, f"max ordering violation {worst:.2e}, CM/spectral dev {cm_dev:.2e}"


@_check("infinite_pred_identity",
        "identity to 1e-12 over 50 random draws; weak norm decreasing", stream=12)
def check_infinite_pred_identity(rng):
    """log(1 + p s2/sigma_n2) reproduces the spectral log integral, and the
    Toeplitz-circulant weak norm decays with the trace length."""
    worst = 0.0
    for _ in range(50):
        model = _random_model(rng)
        power = float(10.0 ** rng.uniform(-2, 2))
        sigma_n2 = float(10.0 ** rng.uniform(-1, 1))
        s2 = pred_error_cm_infinite(model, power, sigma_n2)
        lhs = math.log1p(power * s2 / sigma_n2)
        rhs = szego_log_integral(model, power * model.sigma_h2 / sigma_n2)
        worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-30))
    norms = [toeplitz_circulant_weak_norm(RaisedCosine(0.1, 0.2), n) for n in (64, 256, 1024)]
    decaying = norms[0] > norms[1] > norms[2]
    ok = worst <= 1e-12 and decaying
    return ok, (f"worst rel dev {worst:.2e}; "
                f"weak norms {norms[0]:.3f} > {norms[1]:.3f} > {norms[2]:.3f}")


def _lag_stats(batch, lag):
    vals = (batch[:, lag:] * np.conj(batch[:, : batch.shape[1] - lag])).real.mean(axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


@_check("sim_laws", "sample lag covariances inside 4-stderr bands on both synthesis paths",
        stream=13)
def check_sim_laws(spawn):
    """Synthesized traces reproduce the analytic autocorrelation at small
    lags, and the spectral and Cholesky paths agree in law."""
    model = Rectangular(0.1)

    def run(count):
        # one batch of 256-sample traces per path, each from its own sub-seed
        emb_seed, chol_seed = (int(s) for s in spawn.integers(0, 2**63, size=2))
        emb = gen_fading_batch(model, 256, count, emb_seed)
        chol = gen_fading_batch(model, 256, count, chol_seed, "cholesky")
        worst = -math.inf
        for lag in (0, 1, 3, 5):
            target = model.autocorr(lag)
            for batch in (emb, chol):
                mean, se = _lag_stats(batch, lag)
                worst = max(worst, abs(mean - target) - 4.0 * se)
            m1, s1 = _lag_stats(emb, lag)
            m2, s2 = _lag_stats(chol, lag)
            worst = max(worst, abs(m1 - m2) - 4.0 * math.hypot(s1, s2))
        return worst

    worst = run(400)
    if worst > 0.0:
        worst = run(1600)
    return worst <= 0.0, f"worst band excess {worst:.2e}"


# ----------------------------------------------------------------------
# acceptance checks, in criterion order


@_check("gap_envelope", "gap in [0, (1+2f_d)*0.5772157], nondecreasing, limit dev <= 1e-3")
def check_gap_envelope(rng):
    """Upper-minus-lower PG gap: nonnegative, monotone in SNR, bounded by
    (1 + 2 f_d) gamma, and attaining that limit at very high SNR."""
    dbs = np.arange(-40.0, 80.0 + 0.5, 1.0)
    worst_neg = math.inf
    worst_excess = -math.inf
    worst_drop = math.inf
    worst_limit = -math.inf
    for f_d in (0.01, 0.1, 0.25, 0.49):
        cap = (1.0 + 2.0 * f_d) * 0.5772157 + 1e-9
        gaps = [rate_gap_pg_rect(ChannelParams(f_d=f_d, sigma_x2=_db_to_power(d))) for d in dbs]
        worst_neg = min(worst_neg, min(gaps))
        worst_excess = max(worst_excess, max(gaps) - cap)
        worst_drop = min(worst_drop, min(np.diff(gaps)))
        lim = rate_gap_pg_rect(ChannelParams(f_d=f_d, sigma_x2=1e8))
        worst_limit = max(worst_limit, abs(lim - (1.0 + 2.0 * f_d) * EULER_GAMMA))
    ok = worst_neg >= 0.0 and worst_excess <= 0.0 and worst_drop >= -1e-12 and worst_limit <= 1e-3
    return ok, (f"min gap {worst_neg:.3e}, excess over cap {worst_excess:.3e}, "
                f"min step {worst_drop:.3e}, limit dev {worst_limit:.3e}")


@_check("prelog_slopes", "|slope - (1 - 2 f_d)| and |coherent slope - 1| <= 0.02")
def check_prelog(rng):
    """High-SNR slopes: 1 - 2 f_d for the PG lower bound, 1 for coherent."""
    devs = []
    for f_d in (0.1, 0.25):
        model = Rectangular(f_d)
        slope = prelog_estimate(lambda p: rate_lower_pg(p, model).value, ChannelParams(f_d=f_d))
        devs.append(abs(slope - (1.0 - 2.0 * f_d)))
    coh = prelog_estimate(lambda p: coherent_capacity(p.rho).value, ChannelParams(f_d=0.1))
    devs.append(abs(coh - 1.0))
    worst = max(devs)
    return worst <= 0.02, f"worst slope deviation {worst:.4f}"


@_check("euler_limit", "|gap(rho=1e6) - 0.57721| <= 1e-4")
def check_euler_limit(rng):
    """The output-entropy gap approaches the Euler constant at high SNR."""
    gap_y, _ = entropy_gaps(ChannelParams(sigma_x2=1e6))
    dev = abs(gap_y - 0.57721)
    return dev <= 1e-4, f"gap {gap_y:.7f} (dev {dev:.2e})"


def _g_midpoint(a):
    """Million-panel midpoint-rule rendition of E[log(1 + a Z)], Z ~ Exp(1),
    on [0, 60], independent of g_logmoment's series and E_1 branches.
    The panels are summed 5 * 10^4 at a time, so no array is over 400 kB."""
    h = 60.0 / 1_000_000
    total = 0.0
    for lo in range(0, 1_000_000, 50_000):
        z = (np.arange(lo, lo + 50_000) + 0.5) * h
        total += float(np.sum(np.log1p(a * z) * np.exp(-z)))
    return total * h


@_check("spot_values", "both bounds within 1e-6 of independent quadrature and reference values")
def check_spot_values(rng):
    """Flat-density PG bounds at f_d = 0.1, rho = 1 against a from-scratch
    million-panel quadrature and their six-decimal reference values."""
    params = ChannelParams(f_d=0.1)
    lower = rate_lower_pg(params, Rectangular(0.1)).value
    upper = rate_upper_pg_rect(params).value
    lower_q = _g_midpoint(1.0) - 0.2 * math.log1p(5.0)
    upper_q = math.log1p(1.0) - 0.2 * _g_midpoint(5.0)
    devs = (
        abs(lower - lower_q),
        abs(upper - upper_q),
        abs(lower - 0.237995),
        abs(upper - 0.394478),
    )
    worst = max(devs)
    return worst <= 1e-6, (f"lower {lower:.9f} (quad dev {devs[0]:.2e}), "
                           f"upper {upper:.9f} (quad dev {devs[1]:.2e})")


@_check("pred_convergence", "rel gap <= 1% at N=64; flat closed form to 1e-12")
def check_pred_convergence(rng):
    """Finite-past prediction error at N = 64 is within 1% of the infinite-
    past value on a roll-off density; the flat-density closed form is exact."""
    model = RaisedCosine(0.1, 0.2)
    target = pred_error_cm_infinite(model, 1.0, 1.0)
    fin = pred_error_finite(ToeplitzCov.from_model(model, 64), PowerProfile(np.ones(63)), 1.0)
    rel = abs(fin - target) / target
    closed = 6.0**0.2 - 1.0
    rect_dev = abs(pred_error_cm_infinite(Rectangular(0.1), 1.0, 1.0) - closed)
    ok = rel <= 0.01 and rect_dev <= 1e-12
    return ok, f"rel gap {rel:.2e} at N=64, flat closed-form dev {rect_dev:.2e}"


@_check("beta1_coincidence",
        "peak upper bounds coincide at beta=1 within 1e-12 (50 random draws)", stream=6)
def check_beta1_coincidence(rng):
    """With no peak headroom (beta = 1) the prediction-based upper bound and
    the spectral peak-constrained upper bound agree to rounding."""
    peak = PeakConstraint(1.0)
    worst = 0.0
    for _ in range(50):
        model = _random_model(rng)
        params = ChannelParams(f_d=model.f_d, sigma_x2=float(10.0 ** rng.uniform(-2, 3)))
        a = rate_upper_pred_peak(params, model, peak).value
        b = sethuraman_upper(params, model, peak).value
        worst = max(worst, abs(a - b))
    return worst <= 1e-12, f"worst |diff| {worst:.2e}"


@_check("alpha_opt_conditions", "alpha_used == 1.0 exactly whenever cond1 or cond2 holds",
        stream=8)
def check_alpha_opt(rng):
    """Whenever either sufficient condition holds, the optimized on-fraction
    equals one exactly (10^4 random parameter draws)."""
    hits = violations = 0
    for _ in range(10_000):
        params = ChannelParams(
            f_d=float(rng.uniform(0.005, 0.495)),
            sigma_x2=float(10.0 ** rng.uniform(-3, 3)),
        )
        peak = PeakConstraint(float(rng.uniform(1.0, 10.0)))
        conds = alpha_opt_conditions(params, peak)
        if conds["cond1"] or conds["cond2"]:
            hits += 1
            if sethuraman_upper(params, Rectangular(params.f_d), peak).alpha_used != 1.0:
                violations += 1
    ok = violations == 0 and hits > 0
    return ok, f"{hits} draws satisfied a condition, {violations} violations"


@_check("prediction_convexity", "curvature >= -1e-9, rational fit within 1e-8, nonneg coupling",
        stream=9)
def check_prediction_convexity(rng):
    """Randomized convexity audit of the prediction error as a function of a
    single past transmit power (500 instances)."""
    bad = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        model = Rectangular(float(rng.uniform(0.02, 0.45)))
        cov = ToeplitzCov.from_model(model, n)
        z = 10.0 ** rng.uniform(-1.5, 1.0, size=n - 1)
        z[rng.random(n - 1) < 0.15] = 0.0
        x_power = float(10.0 ** rng.uniform(-2, 1))
        sigma_n2 = float(10.0 ** rng.uniform(-1, 1))
        i = int(rng.integers(0, n - 1))
        if not convexity_check(cov, PowerProfile(z), x_power, sigma_n2, i):
            bad += 1
    return bad == 0, f"{bad} of 500 instances failed"


@_check("mc_crosschecks", "analytic values inside 4-stderr bands", stream=10)
def check_mc_crosschecks(rng):
    """Simulated prediction error matches the analytic value on 20 random
    instances, and the simulated coherent PG rate matches E[log(1+Z)]."""
    fails = []
    for idx in range(20):
        n = int(rng.integers(2, 7))
        if rng.random() < 0.5:
            model = Rectangular(float(rng.uniform(0.02, 0.45)))
        else:
            model = RaisedCosine(float(rng.uniform(0.02, 0.2)), float(rng.uniform(0.1, 0.9)))
        cov = ToeplitzCov.from_model(model, n)
        z = 10.0 ** rng.uniform(-1, 1, size=n - 1)
        z[rng.random(n - 1) < 0.2] = 0.0
        sigma_n2 = float(10.0 ** rng.uniform(-1, 1))
        profile = PowerProfile(z)
        exact = pred_error_finite(cov, profile, sigma_n2)
        sub = _sub_seed(rng)
        est = empirical_pred_error(model, profile, sigma_n2, 1500, sub)
        if abs(est.value - exact) > 4.0 * est.stderr:
            est = empirical_pred_error(model, profile, sigma_n2, 6000, sub + 1)
            if abs(est.value - exact) > 4.0 * est.stderr:
                fails.append(idx)
    mi = empirical_coherent_mi(1.0, 1_000_000, _sub_seed(rng))
    mi_dev = abs(mi.value - 0.596347)
    ok = not fails and mi_dev <= 4.0 * mi.stderr
    return ok, f"pred failures {fails or 'none'}; PG rate dev {mi_dev:.2e} vs 4se {4*mi.stderr:.2e}"


@_check("sd_bounds", "closed form to 1e-12; lower <= upper <= coherent; spacing is the argmax")
def check_sd_bounds(rng):
    """Pilot-aided bounds: interpolation-error closed form on the flat
    density, ordering lower <= upper <= coherent at every admissible
    spacing, and the reported spacing maximizes the lower bound."""
    worst_pil = 0.0
    worst_order = -math.inf
    argmax_bad = 0
    for db in (0.0, 6.0, 12.0):
        rho = _db_to_power(db)
        coh = coherent_capacity(rho).value
        for f_d in np.arange(0.005, 0.4951, 0.005):
            f_d = float(round(f_d, 3))
            params = ChannelParams(f_d=f_d, sigma_x2=rho)
            model = Rectangular(f_d)
            best_l, table = sd_optimal_L(params, model)
            if best_l is None:
                if sd_max_spacing(f_d) >= 2:
                    argmax_bad += 1
                continue
            for ell, entry in table.items():
                closed = 1.0 / (1.0 + rho / (2.0 * f_d * ell))
                worst_pil = max(worst_pil, abs(entry["sigma2_pil"] - closed))
                worst_order = max(
                    worst_order,
                    entry["lower"] - entry["upper"],
                    entry["upper"] - coh,
                )
            if table[best_l]["lower"] < max(e["lower"] for e in table.values()):
                argmax_bad += 1
    ok = worst_pil <= 1e-12 and worst_order <= 1e-12 and argmax_bad == 0
    return ok, (f"max pil dev {worst_pil:.2e}, max ordering violation {worst_order:.2e}, "
                f"argmax errors {argmax_bad}")


# ----------------------------------------------------------------------
# full level only


@_check("peak_bound_ordering", "pred upper <= spectral upper; MC lower <= pred upper + 3 stderr",
        stream=7, full=True)
def check_peak_bound_ordering(rng):
    """Ordering sweep at beta = 2: the prediction-based upper bound never
    exceeds the spectral upper bound, and the no-time-sharing constant-
    modulus Monte Carlo lower bound stays below it (3 stderr slack)."""
    peak = PeakConstraint(2.0)
    worst_pair = -math.inf
    worst_low = -math.inf
    for f_d in (0.001, 0.01, 0.1):
        model = Rectangular(f_d)
        for db in range(-10, 31, 5):
            params = ChannelParams(f_d=f_d, sigma_x2=_db_to_power(float(db)))
            pred = rate_upper_pred_peak(params, model, peak).value
            seth = sethuraman_upper(params, model, peak).value
            worst_pair = max(worst_pair, pred - seth)
            low = sethuraman_lower(params, model, seed=_sub_seed(rng), n=100_000)
            worst_low = max(worst_low, low.value - pred - 3.0 * low.stderr)
    ok = worst_pair <= 1e-12 and worst_low <= 0.0
    return ok, f"max(pred - spectral) {worst_pair:.2e}, max(lower - pred - 3se) {worst_low:.2e}"


@_check("pred_convergence_deep", "nonincreasing through N=2048, final <= 0.2%", full=True)
def check_pred_convergence_deep(rng):
    """Long-horizon ladder: the finite-past error keeps tightening through
    N = 2048 and lands within 0.2% of the infinite-past value."""
    model = RaisedCosine(0.1, 0.2)
    target = pred_error_cm_infinite(model, 1.0, 1.0)
    rels = []
    for n in (256, 512, 1024, 2048):
        cov = ToeplitzCov.from_model(model, n)
        fin = pred_error_finite(cov, PowerProfile(np.ones(n - 1)), 1.0)
        rels.append(abs(fin - target) / target)
    ok = rels[-1] <= 0.002 and all(b <= a + 1e-12 for a, b in zip(rels, rels[1:]))
    return ok, "rel gaps " + ", ".join(f"{r:.2e}" for r in rels)


@_check("periodogram_support", "< 2% of periodogram mass outside the support band",
        stream=14, full=True)
def check_periodogram(spawn):
    """Averaged periodogram of synthesized roll-off fading leaves < 2% of
    its mass outside the support band."""
    model = RaisedCosine(0.1, 0.2)
    n = 2048
    inband = np.abs(np.fft.fftfreq(n)) <= model.support_edge + 1.0 / n
    acc = np.zeros(n)
    # 1000 traces as ten batches of 100, each from its own sub-seed: one
    # 1000-row batch would hold 31 MiB of traces and as much again in FFTs
    for s in spawn.integers(0, 2**63, size=10):
        batch = gen_fading_batch(model, n, 100, int(s))
        acc += (np.abs(np.fft.fft(batch, axis=1)) ** 2).sum(axis=0)
    out_frac = float(acc[~inband].sum() / acc.sum())
    return out_frac < 0.02, f"out-of-band mass {out_frac:.4%}"


@_check("mc_pg_ten_million", "inside the 4-stderr band", stream=11, full=True)
def check_mc_pg_ten_million(rng):
    """Ten-million-sample coherent PG rate estimate against the analytic
    log-moment at unit SNR."""
    est = empirical_coherent_mi(1.0, 10_000_000, _sub_seed(rng))
    dev = abs(est.value - g_logmoment(1.0))
    return dev <= 4.0 * est.stderr, f"dev {dev:.2e} vs 4se {4*est.stderr:.2e}"


FULL_CHECKS = tuple(check for _, check, _ in _REGISTRY)
FAST_CHECKS = tuple(check for _, check, full in _REGISTRY if not full)


def run_suite(level="fast", seed=0):
    """Run every check at the given level in registry order; returns
    (results, all_passed)."""
    if level not in ("fast", "full"):
        raise ValueError(f"unknown level {level!r}")
    results = [check(seed=seed) for check in (FULL_CHECKS if level == "full" else FAST_CHECKS)]
    return results, all(r.passed for r in results)
