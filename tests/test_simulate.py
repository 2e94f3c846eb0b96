"""Simulation oracle: trace synthesis, channel runs, empirical estimates."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import linalg

from fadingrate.model import ChannelParams, Jakes, RaisedCosine, Rectangular
from fadingrate.prediction import PowerProfile, ToeplitzCov, pred_error_finite
from fadingrate.quadrature import McEstimate, _complex_normal, g_logmoment, make_rng
from fadingrate import simulate
from fadingrate.cli import main
from fadingrate.mcrates import coherent_mi_cm
from fadingrate.simulate import (
    FadingRealization,
    _color,
    _embedding_spectrum,
    _fading_cholesky_factor,
    empirical_coherent_mi,
    empirical_pred_error,
    gen_fading,
    gen_fading_batch,
    read_fading_dump,
    simulate_channel,
    write_fading_dump,
)


def _lag_cov(batch, lag):
    # sample E[h_{k+lag} conj(h_k)] averaged over realizations and offsets;
    # the per-realization means feed the standard error of the estimate
    prods = (batch[:, lag:] * np.conj(batch[:, : batch.shape[1] - lag])).real
    per_real = prods.mean(axis=1)
    mean = float(per_real.mean())
    stderr = math.sqrt(float(per_real.var()) / len(per_real))
    return mean, stderr


@pytest.mark.parametrize("method", ["embedding", "cholesky"])
def test_same_seed_reproduces_bitwise(method):
    model = Rectangular(0.15)
    a = gen_fading(model, 128, 5, method=method)
    b = gen_fading(model, 128, 5, method=method)
    assert np.array_equal(a.h, b.h)
    c = gen_fading(model, 128, 6, method=method)
    assert not np.array_equal(a.h, c.h)
    assert a.seed == 5 and a.model == model


@pytest.mark.parametrize("method", ["embedding", "cholesky"])
def test_batch_row_zero_matches_single(method):
    # the slowly decaying Jakes autocorrelation needs a large circulant
    # embedding, so the short-trace case runs through the direct factor.
    # Realization k depends only on stream (seed, k): row k of a batch is
    # bit for bit the last row of a (k+1)-row batch, and row 0 the single
    # trace, so no batched synthesis may round rows differently.
    model = Rectangular(0.25) if method == "embedding" else Jakes(0.2)
    batch = gen_fading_batch(model, 64, 64, seed=9, method=method)
    single = gen_fading(model, 64, 9, method=method)
    assert batch.shape == (64, 64)
    assert np.array_equal(batch[0], single.h)
    for k in range(64):
        last = gen_fading_batch(model, 64, k + 1, seed=9, method=method)[-1]
        assert np.array_equal(batch[k], last)


def _jittered_factor(model, n):
    # the dense factorization the in-place one replaced
    cov = ToeplitzCov.from_model(model, n)
    return linalg.cholesky(cov.matrix() + 1e-12 * model.sigma_h2 * np.eye(n), lower=True)


@pytest.mark.parametrize("model,n", [
    (Rectangular(0.1), 2048), (Jakes(0.2, sigma_h2=1.5), 300), (RaisedCosine(0.1, 0.2), 64),
])
def test_cholesky_factor_matches_jittered_matrix(model, n):
    assert np.array_equal(_fading_cholesky_factor(model, n), _jittered_factor(model, n))


@pytest.mark.parametrize("method,model,n", [
    ("embedding", RaisedCosine(0.1, 0.2), 1024),
    ("embedding", Rectangular(0.25), 100),
    ("cholesky", Jakes(0.2), 200),
])
def test_batch_matches_stacked_row_draws(method, model, n):
    # the batch is filled row by row in place; each row must be bit for bit
    # the trace the per-row draw gives on its own, stacked
    count, seed = 7, 31
    if method == "embedding":
        lam, m = _embedding_spectrum(model, n)
        draw = lambda rng: (np.fft.ifft(np.sqrt(lam) * _complex_normal(rng, m)) * math.sqrt(m))[:n]
    else:
        chol = _jittered_factor(model, n)
        draw = lambda rng: _color(chol, _complex_normal(rng, n))
    want = np.stack([draw(make_rng(seed, i)) for i in range(count)])
    assert np.array_equal(gen_fading_batch(model, n, count, seed, method=method), want)


def test_batch_peak_memory(monkeypatch):
    # 64 traces of 1024 samples are 1 MiB of complex128; the embedding has
    # m = 8192, so keeping each row's full m-point transform alive until the
    # end would hold 8 MiB more.  Each worker thread holds its own draw
    # buffers and one transform, about 0.4 MiB at this m.
    model = RaisedCosine(0.1, 0.2)
    assert _embedding_spectrum(model, 1024)[1] == 8192
    for workers in (None, 2):
        if workers is not None:
            monkeypatch.setattr(simulate, "_usable_cpus", lambda: workers)
        tracemalloc.start()
        try:
            gen_fading_batch(model, 1024, 64, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, workers


@pytest.mark.parametrize("model,n", [
    (Rectangular(0.25), 256), (RaisedCosine(0.1, 0.2), 256), (Jakes(0.2, sigma_h2=1.5), 512),
], ids=["rect", "rc", "jakes"])
@pytest.mark.parametrize("count", [1, 2, 7])
def test_batch_bit_identical_for_any_worker_count(model, n, count, monkeypatch):
    # rows are split across threads, each drawing from its own stream; the
    # counts of 1 and 2 rows give some workers no rows at all.  A short
    # switch interval interleaves the workers as finely as it can.
    batches = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(simulate, "_usable_cpus", lambda: workers)
            batches.append(gen_fading_batch(model, n, count, seed=13))
    finally:
        sys.setswitchinterval(interval)
    assert batches[0].shape == (count, n)
    for batch in batches[1:]:
        assert batch.tobytes() == batches[0].tobytes()


class _RowFailure(Exception):
    pass


def test_worker_exception_reaches_caller(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError, match="seed and task_index must be nonnegative"):
        gen_fading_batch(Rectangular(0.25), 64, 8, seed=-1)
    assert main(["simulate", "--psd", "rect", "--fd", "0.1", "--n", "64", "--realizations",
                 "8", "--seed", "-1", "--out", str(tmp_path / "x.bin")]) == 2
    assert capsys.readouterr().err == "error: seed and task_index must be nonnegative\n"
    # the very exception a worker raised, not a wrapper around it
    failure = _RowFailure("row 5")

    def rng(seed, i):
        if i == 5:
            raise failure
        return make_rng(seed, i)

    monkeypatch.setattr(simulate, "make_rng", rng)
    with pytest.raises(_RowFailure) as info:
        gen_fading_batch(Rectangular(0.25), 64, 8, seed=0)
    assert info.value is failure


@pytest.mark.parametrize("size", [0, 1, 512, 100_000])
def test_complex_normal_matches_reference_formula(size):
    # the in-place draw against the expression it replaced, bit for bit,
    # allocating its own buffers and writing over stale caller buffers
    for seed in range(3):
        rng = make_rng(seed, 7)
        want = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)
        assert _complex_normal(make_rng(seed, 7), size).tobytes() == want.tobytes()
        out, work = np.full(size, np.nan + 0j), np.full((2, size), np.nan)
        got = _complex_normal(make_rng(seed, 7), size, out=out, work=work)
        assert got is out and got.tobytes() == want.tobytes()


def test_cholesky_coloring_matches_complex_product():
    # the real factor applied to the real and imaginary parts separately is
    # the complex product chol @ w up to rounding
    chol = _fading_cholesky_factor(Rectangular(0.1), 2048)
    w = _complex_normal(make_rng(4), 2048)
    want = chol.astype(complex) @ w
    got = _color(chol, w)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "model,n",
    [
        (Rectangular(0.15), 256),
        (Jakes(0.2, sigma_h2=1.5), 512),
        (RaisedCosine(0.1, 0.2), 256),
        # no embedding size is nonnegative here; the best one floors 0.24% of the trace
        (Jakes(0.1), 4096),
    ],
    ids=["rect", "jakes", "rc", "jakes-floored-embedding"],
)
def test_traces_obey_autocorrelation(model, n):
    for attempt, n_real in enumerate((400, 1600)):
        batch = gen_fading_batch(model, n, n_real, seed=17)
        ok = True
        for lag in (0, 1, 3):
            mean, stderr = _lag_cov(batch, lag)
            if abs(mean - model.autocorr(lag)) > 4.0 * stderr:
                ok = False
        if ok:
            return
    pytest.fail("sample autocovariance outside 4 sigma at 1600 realizations")


def test_cholesky_and_embedding_agree_in_law():
    model = Rectangular(0.1)
    a = gen_fading_batch(model, 512, 400, seed=3, method="embedding")
    b = gen_fading_batch(model, 512, 400, seed=1003, method="cholesky")
    for lag in range(6):
        ma, sa = _lag_cov(a, lag)
        mb, sb = _lag_cov(b, lag)
        assert abs(ma - mb) <= 4.0 * math.hypot(sa, sb)


def test_generation_validation():
    model = Rectangular(0.1)
    with pytest.raises(ValueError):
        gen_fading(model, 1, 0)
    with pytest.raises(ValueError):
        gen_fading(model, 4096, 0, method="cholesky")
    with pytest.raises(ValueError):
        gen_fading(model, 64, 0, method="spectral")
    with pytest.raises(ValueError):
        gen_fading_batch(model, 64, 0, seed=0)
    with pytest.raises(ValueError, match="negative mass"):
        gen_fading(Jakes(0.1), 512, 0)  # best embedding floors 1.87% of the trace


def test_channel_run_noiseless_is_exact():
    real = gen_fading(Rectangular(0.1), 32, 0)
    x = np.exp(1j * np.linspace(0.0, 3.0, 32))
    y = simulate_channel(real, x, 0.0, seed=1)
    assert np.array_equal(y, real.h * x)


def test_channel_run_noise_power():
    real = FadingRealization(h=np.zeros(200_000, dtype=complex), model=Rectangular(0.1), seed=0)
    y = simulate_channel(real, np.zeros(200_000), 2.0, seed=4)
    assert float(np.mean(np.abs(y) ** 2)) == pytest.approx(2.0, rel=0.02)


def test_channel_run_validation():
    real = gen_fading(Rectangular(0.1), 32, 0)
    with pytest.raises(ValueError):
        simulate_channel(real, np.ones(16), 1.0, seed=0)
    with pytest.raises(ValueError):
        simulate_channel(real, np.ones(32), -1.0, seed=0)


def test_empirical_prediction_matches_analytic():
    model = Rectangular(0.1)
    z = PowerProfile((1.0, 1.0, 1.0))
    analytic = pred_error_finite(ToeplitzCov.from_model(model, 4), z, 1.0)
    for attempt, n_real in enumerate((1500, 6000)):
        est = empirical_pred_error(model, z, 1.0, n_real, seed=23 + attempt)
        if abs(est.mean - analytic) <= 4.0 * est.stderr:
            return
    pytest.fail("empirical prediction error outside 4 sigma after retry")


def test_empirical_prediction_empty_past():
    model = Rectangular(0.2, sigma_h2=1.3)
    est = empirical_pred_error(model, PowerProfile(()), 1.0, 2000, seed=2)
    assert abs(est.mean - 1.3) <= 4.0 * est.stderr


def test_empirical_prediction_validation():
    model = Rectangular(0.1)
    with pytest.raises(ValueError):
        empirical_pred_error(model, PowerProfile((1.0,)), 0.0, 100, seed=0)
    with pytest.raises(ValueError):
        empirical_pred_error(model, PowerProfile((1.0,)), 1.0, 1, seed=0)
    with pytest.raises(ValueError):
        empirical_pred_error(model, PowerProfile((1.0,) * 2100), 1.0, 10, seed=0)


def test_empirical_pg_determinism_and_error_scaling():
    small = empirical_coherent_mi(1.0, "pg", 20_000, seed=3)
    small2 = empirical_coherent_mi(1.0, "pg", 20_000, seed=3)
    big = empirical_coherent_mi(1.0, "pg", 320_000, seed=4)
    assert small.mean == small2.mean and small.stderr == small2.stderr
    assert isinstance(small, McEstimate) and small.n == 20_000 and small.seed == 3
    assert big.stderr < small.stderr / 3.0  # 16x samples -> ~4x smaller
    assert abs(small.mean - g_logmoment(1.0)) < 4.0 * small.stderr


def test_empirical_pg_capacity():
    est = empirical_coherent_mi(1.0, "pg", 1_000_000, seed=0)
    assert abs(est.mean - g_logmoment(1.0)) <= 4.0 * est.stderr
    assert est.mean == pytest.approx(0.596347, abs=4.0 * est.stderr)


def test_empirical_cm_agrees_with_reduced_estimator():
    # the fully drawn estimator (random symbol, complex fading) and the
    # symmetry-reduced one must estimate the same number
    a = empirical_coherent_mi(2.0, ("cm", 16), 50_000, seed=5)
    b = coherent_mi_cm(2.0, m_points=16, n=50_000, seed=6)
    assert abs(a.mean - b.mean) <= 4.0 * math.hypot(a.stderr, b.stderr)


def test_empirical_mi_validation():
    with pytest.raises(ValueError):
        empirical_coherent_mi(1.0, "pg", 100, seed=0)
    with pytest.raises(ValueError):
        empirical_coherent_mi(-1.0, "pg", 20_000, seed=0)
    with pytest.raises(ValueError):
        empirical_coherent_mi(1.0, ("cm", 1), 20_000, seed=0)
    with pytest.raises(ValueError):
        empirical_coherent_mi(1.0, "qam", 20_000, seed=0)


def test_dump_round_trip(tmp_path):
    model = Rectangular(0.1)
    batch = gen_fading_batch(model, 64, 3, seed=11)
    path = tmp_path / "trace.fade"
    write_fading_dump(path, batch, model, 11)
    back, meta = read_fading_dump(path)
    assert back.shape == (3, 64)
    assert meta == {"version": 1, "n": 64, "f_d": 0.1, "seed": 11}
    # storage is complex64: single precision relative accuracy
    assert np.max(np.abs(back - batch)) <= 1e-6 * np.max(np.abs(batch))


def test_dump_single_trace_promotes_to_matrix(tmp_path):
    model = Rectangular(0.2)
    real = gen_fading(model, 32, 4)
    path = tmp_path / "one.fade"
    write_fading_dump(path, real.h, model, 4)
    back, meta = read_fading_dump(path)
    assert back.shape == (1, 32)
    assert meta["f_d"] == 0.2


def test_dump_rejects_corruption(tmp_path):
    model = Rectangular(0.1)
    path = tmp_path / "trace.fade"
    write_fading_dump(path, gen_fading_batch(model, 16, 2, seed=0, method="cholesky"), model, 0)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.fade"
    bad_magic.write_bytes(b"JUNK" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="bad magic"):
        read_fading_dump(bad_magic)

    bad_version = tmp_path / "version.fade"
    tampered = bytearray(raw)
    tampered[4] = 99
    bad_version.write_bytes(bytes(tampered))
    with pytest.raises(ValueError, match="version"):
        read_fading_dump(bad_version)

    truncated = tmp_path / "short.fade"
    truncated.write_bytes(bytes(raw[:-5]))
    with pytest.raises(ValueError, match="truncated"):
        read_fading_dump(truncated)

    no_header = tmp_path / "header.fade"
    no_header.write_bytes(bytes(raw[:20]))
    with pytest.raises(ValueError, match="truncated"):
        read_fading_dump(no_header)

    zero_length = tmp_path / "zero.fade"
    tampered = bytearray(raw)
    tampered[8:16] = bytes(8)  # N, the trace length
    zero_length.write_bytes(bytes(tampered))
    with pytest.raises(ValueError, match="N = 0"):
        read_fading_dump(zero_length)

