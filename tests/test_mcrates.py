"""Monte Carlo constant-modulus rate bounds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fadingrate import mcrates
from fadingrate.mcrates import coherent_mi_cm, rate_lower_cm, sethuraman_lower
from fadingrate.entropy import noise_entropy
from fadingrate.model import ChannelParams, Jakes, RaisedCosine, Rectangular
from fadingrate.prediction import pred_error_cm_infinite
from fadingrate.quadrature import (
    QuadratureConfig, _log_mix_psk, _mean_stderr, g_logmoment, szego_log_integral,
)
from fadingrate.rates import PeakConstraint

N_SMALL = 20_000


def test_deterministic_for_fixed_seed():
    a = coherent_mi_cm(3.0, seed=7, n=N_SMALL)
    b = coherent_mi_cm(3.0, seed=7, n=N_SMALL)
    assert a.value == b.value and a.stderr == b.stderr
    c = coherent_mi_cm(3.0, seed=8, n=N_SMALL)
    assert c.value != a.value


def test_stderr_scales_with_sample_count():
    small = coherent_mi_cm(3.0, seed=0, n=N_SMALL)
    big = coherent_mi_cm(3.0, seed=0, n=16 * N_SMALL)
    ratio = small.stderr / big.stderr
    assert 3.0 < ratio < 5.5
    assert abs(small.value - big.value) < 4.0 * (small.stderr + big.stderr)


def test_zero_snr_is_exactly_zero():
    est = coherent_mi_cm(0.0, seed=0, n=N_SMALL)
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_frozen_unit_snr_estimate():
    est = coherent_mi_cm(1.0, m_points=100, n=1_000_000, seed=0)
    assert est.value == pytest.approx(0.571642, abs=1e-5)
    assert est.stderr == pytest.approx(0.000811, abs=1e-5)


def test_estimates_pinned_to_the_bit():
    """Seed-fixed values of the three constant-modulus estimators, exact to
    17 digits.  The time-sharing searches compare objective values, so a
    kernel change that moves samples by rounding can move gamma_opt and the
    CSV bytes; it must show here (and per sample in the log-mixture kernel
    tests), not first in the figures."""
    model = Rectangular(0.05)
    ts = sethuraman_lower(ChannelParams(f_d=0.05, sigma_x2=0.25), model, PeakConstraint(2.0),
                          seed=11, n=2000)
    assert (ts.value, ts.stderr, ts.alpha_used) == (
        0.10284586754982263, 0.0065091445116697341, 0.5)
    cm = rate_lower_cm(ChannelParams(f_d=0.05, sigma_x2=0.5), model, PeakConstraint(2.0),
                       seed=11, n=2000)
    assert (cm.value, cm.stderr, cm.alpha_used) == (
        0.17459847364856518, 0.014764543555009295, 0.89756564294500685)
    mi = coherent_mi_cm(2.0, seed=11, n=2000)
    assert (mi.value, mi.stderr) == (0.84683132012094897, 0.020642705835506637)


def test_block_edges_keep_the_bits():
    """At n = 10 001 an estimate is two full blocks of mcrates._PSK_BLOCK
    samples and a partial one (the time-sharing search's 10^4 too), each
    with rows on both sides of the kernel's cut at 20 dB.  The values were
    taken with the samples computed as one array, 17 digits."""
    assert mcrates._PSK_BLOCK == 4096
    n, model, peak = 10_001, RaisedCosine(0.05, 0.2), PeakConstraint(2.0)
    high, low = ChannelParams(f_d=0.05, sigma_x2=100.0), ChannelParams(f_d=0.05, sigma_x2=0.5)
    mi = coherent_mi_cm(300.0, seed=3, n=n)
    assert (mi.value, mi.stderr) == (3.3281516824488269, 0.0095578414894962032)
    got = [(b.value, b.stderr, b.alpha_used) for b in (
        rate_lower_cm(high, model, seed=3, n=n),
        rate_lower_cm(low, model, peak, seed=3, n=n),
        sethuraman_lower(high, model, seed=3, n=n),
        sethuraman_lower(low, model, peak, seed=3, n=n))]
    assert got == [
        (2.0000722875932504, 0.0096737861714094285, 1.0),
        (0.17100806038193020, 0.0067671150284932136, 0.96632473715605771),
        (2.3785110950438035, 0.0097344354334045636, 1.0),
        (0.20393583909466881, 0.0052530334240614819, 0.90528556920832659)]


def _traced_peak(fun):
    # tracemalloc's peak over fun(), in bytes
    tracemalloc.start()
    try:
        fun()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_estimate_peak_memory():
    """The base (z and w, 24 n bytes) is drawn through one n-float buffer;
    an estimate on a cached base holds its n samples and np.var's n-float
    temporary, every other array being one block's."""
    n, model = 10**6, Rectangular(0.05)
    p = ChannelParams(f_d=0.05, sigma_x2=2.0**0.5)
    mcrates._base.cache_clear()
    try:
        assert _traced_peak(lambda: mcrates._base(4, n)) <= 32 * n + 2**20
        assert _traced_peak(lambda: rate_lower_cm(p, model, seed=4, n=n)) <= 16 * n + 2 * 2**20
        assert _traced_peak(lambda: sethuraman_lower(p, model, seed=4, n=n)) <= 16 * n + 2 * 2**20
    finally:
        mcrates._base.cache_clear()


def test_sits_below_coherent_capacity():
    for rho in (0.5, 2.0, 10.0):
        est = coherent_mi_cm(rho, seed=1, n=N_SMALL)
        assert est.value < g_logmoment(rho) + 4.0 * est.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_constellation_size_validation():
    """m_points and n are integers of at least 2: n = 0 used to overflow
    with two numpy warnings, n = 1 to return a stderr of 8.9e-16 from one
    sample, and n = 2.7 or m_points = 2.9 to be cut to 2."""
    with pytest.raises(ValueError):
        coherent_mi_cm(1.0, m_points=1)
    with pytest.raises(ValueError, match="integer m_points"):
        coherent_mi_cm(1.0, m_points=2.9, n=N_SMALL)
    for n in (0, 1, 2.7, -5, True, 2.0):
        with pytest.raises(ValueError, match="integer sample count"):
            coherent_mi_cm(1.0, n=n)
    p, model = ChannelParams(f_d=0.1, sigma_x2=1.0), Rectangular(0.1)
    for bound in (rate_lower_cm, sethuraman_lower):
        for peak in (None, PeakConstraint(2.0)):
            with pytest.raises(ValueError, match="integer sample count"):
                bound(p, model, peak, n=1)
    assert coherent_mi_cm(1.0, m_points=np.int64(4), n=np.int64(2)).stderr > 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        coherent_mi_cm(-1.0)
    for rho in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            coherent_mi_cm(rho, n=N_SMALL)


def test_overflow_raises_before_numpy_warns():
    """A finite SNR whose samples overflow raises, under pytest's
    RuntimeWarning-as-error, as an ArithmeticError and not a warning; the
    parent returned NaN from coherent_mi_cm and warned in every bound."""
    with pytest.raises(ArithmeticError, match="overflow"):
        coherent_mi_cm(1e308, n=100)
    p = ChannelParams(f_d=0.1, sigma_x2=1e308)
    model = Rectangular(0.1)
    for peak in (None, PeakConstraint(2.0)):
        with pytest.raises(ArithmeticError, match="overflow"):
            rate_lower_cm(p, model, peak, n=100)
    with pytest.raises(ArithmeticError, match="overflow"):
        sethuraman_lower(p, model, PeakConstraint(2.0), n=100)


def test_non_finite_estimate_raises():
    """Overflow inside the m-PSK kernel's own errstate left samples NaN,
    and plain sethuraman_lower returned a NaN value and stderr silently;
    a non-finite mean or variance now raises.  At this power the NaN came
    from the rect Szego term's overflow, which is now refused at its source."""
    p = ChannelParams(f_d=0.1, sigma_x2=1e308)
    with pytest.raises(OverflowError, match="spectral integral overflows double precision"):
        sethuraman_lower(p, Rectangular(0.1), n=100)
    for samples in (np.array([1.0, math.inf]), [np.ones(3), np.array([math.nan])]):
        with pytest.raises(FloatingPointError, match="overflow"):
            _mean_stderr(samples)


def test_one_read_only_base_per_seed_and_resolved_n():
    """n=None and the default n share one base; a new (seed, n) replaces it."""
    p = ChannelParams(f_d=0.1, sigma_x2=1.0)
    model = Rectangular(0.1)
    mcrates._base.cache_clear()
    mcrates._cm_estimate.cache_clear()
    sethuraman_lower(p, model, seed=3)
    mcrates._cm_estimate.cache_clear()
    b = sethuraman_lower(p, model, seed=3, n=QuadratureConfig().mc_default_n)
    assert mcrates._base.cache_info()[:2] == (1, 1)
    z, w = mcrates._base(3, QuadratureConfig().mc_default_n)
    assert not z.flags.writeable and not w.flags.writeable
    sethuraman_lower(p, model, seed=4, n=400)
    assert mcrates._base.cache_info().currsize == 1
    # the cache keeps the library's (seed, n) semantics
    mcrates._base.cache_clear()
    mcrates._cm_estimate.cache_clear()
    assert sethuraman_lower(p, model, seed=3) == b


def test_lower_cm_matches_manual_subtraction():
    p = ChannelParams(f_d=0.1, sigma_x2=2.0)
    model = Rectangular(0.1)
    b = rate_lower_cm(p, model, seed=3, n=N_SMALL)
    mi = coherent_mi_cm(2.0, seed=3, n=N_SMALL)
    from fadingrate.quadrature import szego_log_integral

    assert b.unclamped == pytest.approx(mi.value - szego_log_integral(model, 2.0), abs=1e-12)
    assert b.stderr == mi.stderr


def test_lower_cm_clamps_when_constellation_saturates():
    # a 100-point phase grid tops out near log(100) nats while the spectral
    # penalty keeps growing, so fast fading at high SNR goes negative
    p = ChannelParams(f_d=0.49, sigma_x2=1e4)
    b = rate_lower_cm(p, Rectangular(0.49), seed=4, n=N_SMALL)
    assert b.value == 0.0 and b.clamped and b.unclamped < 0.0


def test_timeshare_beta1_reduces_to_plain():
    p = ChannelParams(f_d=0.1, sigma_x2=1.0)
    model = Rectangular(0.1)
    plain = rate_lower_cm(p, model, seed=5, n=N_SMALL)
    ts = rate_lower_cm(p, model, PeakConstraint(1.0), seed=5, n=N_SMALL)
    assert ts.value == plain.value
    assert ts.alpha_used == 1.0


def test_timeshare_never_loses():
    # gamma = 1 is inside the search set, evaluated on the same samples
    p = ChannelParams(f_d=0.25, sigma_x2=0.5)
    model = Rectangular(0.25)
    plain = rate_lower_cm(p, model, seed=6, n=N_SMALL)
    ts = rate_lower_cm(p, model, PeakConstraint(4.0), seed=6, n=N_SMALL)
    assert ts.value >= plain.value - 3.0 * (plain.stderr + ts.stderr)
    assert 0.0 < ts.alpha_used <= 1.0


MODELS = {"rect": Rectangular, "rc:0.2": lambda f_d: RaisedCosine(f_d, 0.2), "jakes": Jakes}


def _case(psd, f_d, snr_db, beta):
    return (ChannelParams(f_d=f_d, sigma_x2=10.0 ** (snr_db / 10.0)), MODELS[psd](f_d),
            PeakConstraint(beta))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([0.001, 0.01, 0.1, 0.3]), st.floats(-10.0, 40.0), st.floats(0.0, 12.0),
       st.sampled_from(sorted(MODELS)), st.integers(0, 2 ** 16), st.sampled_from([400, 20_000]))
@example(0.1, 30.0, 9.0, "rect", 0, 400)
@example(0.001, -10.0, math.log10(2.0), "rect", 2, 20_000)
def test_timeshare_never_below_plain_on_same_samples(f_d, snr_db, log10_beta, psd, seed, n):
    """The search's gamma meets gamma = 1 on all n samples, the plain
    bound's own estimate, so each time-shared value is at least its plain
    one, exactly, at every n.  The first example lost the whole rate to an
    unevaluated bracket midpoint; in the second the gamma chosen on 10^4
    samples was worse than gamma = 1 on all 20000 (by 9.2e-4 nats for
    sethuraman_lower and 9.6e-5 for lower_cm) and was kept."""
    p, model, peak = _case(psd, f_d, snr_db, 10.0 ** log10_beta)
    plain = rate_lower_cm(p, model, seed=seed, n=n)
    ts = rate_lower_cm(p, model, peak, seed=seed, n=n)
    assert ts.unclamped >= plain.unclamped
    plain = sethuraman_lower(p, model, seed=seed, n=n)
    ts = sethuraman_lower(p, model, peak, seed=seed, n=n)
    assert ts.unclamped >= plain.unclamped


def test_timeshare_search_size(monkeypatch):
    """At figure 4's beta = 2 each scan's best is an end of [1, beta] and
    the probe 1e-4 inward is not better, so one time-shared estimate makes
    the 16-point scan and the probe, one kernel call each; at n = 400 the
    final estimate is the scan's own.  Right after its plain call the scan's
    gamma = 1 point is the plain estimate, so it takes 16.  With the
    shortcut off, the same rows take golden section to 1e-4 on a bracket at
    most 2/15 wide (at most 18 evaluations), and at most one final estimate.
    The rows are ones where both bounds' scans decide (at rect -10 dB
    sethuraman_lower's does not)."""
    calls = []
    kernel = mcrates._log_mix_psk
    monkeypatch.setattr(mcrates, "_log_mix_psk", lambda *a: calls.append(a) or kernel(*a))
    for spacing in (mcrates._SCAN_DECIDES_SPACING, 0.0):
        monkeypatch.setattr(mcrates, "_SCAN_DECIDES_SPACING", spacing)
        for psd, snr_db in [("rect", -5.0), ("rc:0.2", 10.0), ("jakes", 30.0)]:
            p, model, peak = _case(psd, 0.01, snr_db, 2.0)
            for bound in (rate_lower_cm, sethuraman_lower):
                for plain_first in (False, True):
                    mcrates._cm_estimate.cache_clear()
                    if plain_first:
                        bound(p, model, seed=1, n=400)
                    calls.clear()
                    bound(p, model, peak, seed=1, n=400)
                    if spacing:
                        assert len(calls) == 16 + 1 - plain_first
                    else:
                        assert 16 + 1 - plain_first < len(calls) <= 16 + 18 + 1 - plain_first



def _timeshared_golden(snr, penalty, peak, seed, n):
    # the search before the scan could decide: golden section after every scan
    beta = 1.0 if peak is None else peak.beta

    def estimate(gamma, count):
        return mcrates._cm_estimate(seed, n, count, snr(gamma), mcrates._M_POINTS)

    def rate(gamma, mean):
        return (mean - penalty(gamma)) / gamma

    gamma_opt = 1.0
    if beta > 1.0:
        n_small = min(n, 10_000)

        def objective(gamma):
            return rate(gamma, estimate(gamma, n_small)[0])

        gammas = np.linspace(1.0, beta, 16)
        values = [objective(g) for g in gammas]
        k = int(np.argmax(values))
        lo = gammas[max(k - 1, 0)]
        hi = gammas[min(k + 1, len(gammas) - 1)]
        gamma_opt = mcrates._golden_max(objective, lo, hi, (values[k], gammas[k]))
    mean, stderr = estimate(gamma_opt, n)
    return gamma_opt, rate(gamma_opt, mean), stderr / gamma_opt


def test_timeshare_shortcut_matches_golden_search(monkeypatch):
    """A scan that decides gamma returns what golden section after it
    returned, bit for bit, on both bounds over every density, f_d 0.01 and
    0.3, -10..30 dB and beta 2, 16 (the widest shortcut spacing) and 1000
    (golden section by the spacing rule), and the rc:0.2 cell at beta =
    1000 whose objective falls from gamma = 1 and rises again before the
    first scan point: a probe there would keep gamma = 1, not 2.41."""
    golden = []
    golden_max = mcrates._golden_max
    monkeypatch.setattr(mcrates, "_golden_max", lambda *a: golden.append(a) or golden_max(*a))
    cases = [(_case(psd, f_d, snr_db, beta), bound, 2, 400)
             for psd in sorted(MODELS) for f_d in (0.01, 0.3) for snr_db in (-10.0, 10.0, 30.0)
             for beta in (2.0, 16.0, 1000.0) for bound in (rate_lower_cm, sethuraman_lower)]
    cases.append((_case("rc:0.2", 0.2, -5.0, 1000.0), rate_lower_cm, 3, 4000))
    got = [bound(*args, seed=seed, n=n) for args, bound, seed, n in cases]
    # the grid takes both paths: some searches keep a scan end, the rest run golden section
    assert 0 < len(golden) < len(cases)
    assert got[-1].alpha_used == 1.0 / 2.414696946174621
    monkeypatch.setattr(mcrates, "_timeshared", _timeshared_golden)
    want = [bound(*args, seed=seed, n=n) for args, bound, seed, n in cases]
    for g, w in zip(got, want):
        assert (g.value, g.alpha_used, g.stderr) == (w.value, w.alpha_used, w.stderr)


def test_timeshare_search_finds_grid_maximum(monkeypatch):
    """The 16-point scan stands in for unimodality: at the returned gamma
    the search objective is at least its maximum on a 1025-point grid over
    [1, beta], up to rounding."""
    searches = []
    timeshared = mcrates._timeshared

    def spy(snr, penalty, peak, seed, n):
        out = timeshared(snr, penalty, peak, seed, n)
        searches.append((snr, penalty, peak.beta, seed, n, out[0]))
        return out

    monkeypatch.setattr(mcrates, "_timeshared", spy)
    for psd, f_d, snr_db, beta, seed in [("rect", 0.1, 0.0, 1.5, 2), ("rc:0.2", 0.01, 10.0, 2.0, 3),
                                         ("jakes", 0.1, 20.0, 4.0, 4),
                                         ("jakes", 0.001, -10.0, 8.0, 5)]:
        p, model, peak = _case(psd, f_d, snr_db, beta)
        rate_lower_cm(p, model, peak, seed=seed, n=400)
        sethuraman_lower(p, model, peak, seed=seed, n=400)
    assert len(searches) == 8
    for snr, penalty, beta, seed, n, gamma_opt in searches:
        def objective(gamma):
            mean = mcrates._cm_estimate(seed, n, min(n, 10_000), snr(gamma), mcrates._M_POINTS)[0]
            return (mean - penalty(gamma)) / gamma

        best = max(objective(g) for g in np.linspace(1.0, beta, 1025))
        assert objective(gamma_opt) >= best - 1e-9 * abs(best)


def test_golden_section_stops_where_doubles_run_out():
    """Past 2^39 one ulp exceeds the 1e-4 bracket: a search there used to
    cycle between two adjacent doubles forever (the CLI hung on
    sweep --psd rect --fd 0.3 --snr-db 30 --beta 1e12 --bounds lower_cm_ts
    --mc-n 400 --seed 1).  It now stops and returns the best point it
    evaluated."""
    calls = []

    def falling(gamma):
        calls.append(gamma)
        assert len(calls) < 500, "golden section does not stop"
        return -gamma

    gamma = mcrates._golden_max(falling, 933333333333.4, 1e12, (-math.inf, 1e12))
    assert gamma == min(calls)
    p, model, peak = _case("rc:0.2", 0.3, 23.25, 1e12)
    assert rate_lower_cm(p, model, peak, seed=0, n=400).alpha_used == pytest.approx(1e-12)


def test_sethuraman_lower_vanishes_at_low_snr():
    p = ChannelParams(f_d=0.1, sigma_x2=1e-6)
    b = sethuraman_lower(p, Rectangular(0.1), seed=7, n=N_SMALL)
    assert not b.clamped  # reported raw, zero only up to sampling noise
    assert abs(b.value) <= 4.0 * b.stderr + 1e-5


def _sd_entropy_bound(params, model, seed, n):
    # (mean, stderr) of sethuraman_lower in its entropy form: the conditional
    # output entropy h(y | h_hat) estimated on base (seed, n), minus the noise
    # entropy and the Szego term
    z, w = mcrates._base(seed, n)
    power, sigma_n2 = params.sigma_x2, params.sigma_n2
    s2 = pred_error_cm_infinite(model, power, sigma_n2)
    sigma_eff2 = power * s2 + sigma_n2
    centers = np.sqrt(max(params.sigma_h2 - s2, 0.0) * z) * math.sqrt(power)
    y = centers + w * math.sqrt(sigma_eff2)
    log_norm = math.log(100) + math.log(math.pi * sigma_eff2)
    # the kernel is at unit noise: rows and centers in units of sqrt(sigma_eff2)
    unit = math.sqrt(sigma_eff2)
    vals = np.concatenate([log_norm - _log_mix_psk(y[lo:lo + 4096] / unit,
                                                   centers[lo:lo + 4096] / unit, 100)
                           for lo in range(0, n, 4096)])
    mean, stderr = _mean_stderr(vals)
    return mean - noise_entropy(sigma_n2) - szego_log_integral(model, params.rho), stderr


def test_sethuraman_lower_is_the_coherent_information_at_the_prediction_snr():
    """Given h_hat the output's entropy is log(pi e sigma_eff2) plus the m-PSK
    information at the prediction's SNR, and the Szego identity takes
    log(sigma_eff2 / sigma_n2) out exactly; so on the same base the entropy
    form differs from sethuraman_lower by the sample mean of |w|^2 - 1, the
    sampling noise of a variate whose mean is exactly 1.  Without it the
    stderr is 6.0x smaller at rect 0.1, -10 dB (3.16e-3 -> 5.25e-4)."""
    for psd, f_d in (("rect", 0.1), ("jakes", 0.01), ("rc:0.2", 0.1)):
        for snr_db in (-10.0, 10.0, 30.0):
            p, model, _ = _case(psd, f_d, snr_db, 1.0)
            for seed, n in ((3, 10**5), (0, 400)):
                old, _ = _sd_entropy_bound(p, model, seed, n)
                new = sethuraman_lower(p, model, seed=seed, n=n).value
                _, w = mcrates._base(seed, n)
                shift = float(np.mean(np.abs(w) ** 2)) - 1.0
                assert old - new == pytest.approx(shift, abs=1e-13), (psd, snr_db, seed)
    p, model, _ = _case("rect", 0.1, -10.0, 1.0)
    _, old_stderr = _sd_entropy_bound(p, model, 3, 10**5)
    assert sethuraman_lower(p, model, seed=3, n=10**5).stderr <= old_stderr / 4.0
    for peak in (None, PeakConstraint(2.0)):
        zero = sethuraman_lower(ChannelParams(f_d=0.1, sigma_x2=0.0), model, peak, seed=3, n=400)
        assert (zero.value, zero.stderr) == (0.0, 0.0)


def test_stderr_covers_the_rounding_of_the_samples():
    """Each sample rounds terms of size log m, so at an SNR whose information
    is below ulp(log m) the plain stderr claimed digits the samples lack:
    coherent_mi_cm(1e-32) printed -9.71e-17 +- 1.09e-18, -89 stderr.  The
    stderr is now at least ulp(log m) for snr > 0."""
    for rho in (1e-31, 1e-32, 1e-33):
        est = coherent_mi_cm(rho, seed=0, n=10**5)
        assert abs(est.value) <= 4.0 * est.stderr, rho
    for snr_db in (-140.0, -160.0, -180.0):
        p, model, _ = _case("rect", 0.1, snr_db, 1.0)
        est = sethuraman_lower(p, model, seed=0, n=10**5)
        assert abs(est.value) <= 4.0 * est.stderr, snr_db


def test_results_are_python_floats():
    """The search's gamma comes from np.linspace and golden section; every
    field is a float at beta 1 and 2 alike."""
    p, model = ChannelParams(f_d=0.1, sigma_x2=1.0), Rectangular(0.1)
    for bound in (rate_lower_cm, sethuraman_lower):
        for beta in (1.0, 2.0):
            b = bound(p, model, PeakConstraint(beta), seed=2, n=400)
            for field in (b.value, b.stderr, b.alpha_used, b.unclamped):
                assert type(field) is float, (bound.__name__, beta)


def test_sethuraman_lower_below_coherent():
    p = ChannelParams(f_d=0.01, sigma_x2=10.0)
    b = sethuraman_lower(p, Rectangular(0.01), seed=8, n=N_SMALL)
    assert b.value <= g_logmoment(10.0) + 4.0 * b.stderr
    assert b.value > 0.0


def test_sethuraman_timeshare_not_worse():
    p = ChannelParams(f_d=0.1, sigma_x2=0.25)
    model = Rectangular(0.1)
    plain = sethuraman_lower(p, model, seed=9, n=N_SMALL)
    ts = sethuraman_lower(p, model, PeakConstraint(4.0), seed=9, n=N_SMALL)
    assert ts.value >= plain.value - 3.0 * (plain.stderr + ts.stderr)


def test_model_power_mismatch_rejected():
    p = ChannelParams(f_d=0.1, sigma_x2=1.0)
    with pytest.raises(ValueError):
        rate_lower_cm(p, Rectangular(0.1, sigma_h2=3.0), n=N_SMALL)
