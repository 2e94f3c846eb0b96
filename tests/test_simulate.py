"""Simulation oracle: trace synthesis and empirical estimates."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import linalg, special

from fadingrate.model import ChannelParams, Jakes, RaisedCosine, Rectangular
from fadingrate.prediction import PowerProfile, ToeplitzCov, _schur, pred_error_finite
from fadingrate.quadrature import McEstimate, _complex_normal, g_logmoment, make_rng
from fadingrate import simulate
from fadingrate.cli import main
from fadingrate.mcrates import coherent_mi_cm
from fadingrate.simulate import (
    _embedding_spectrum,
    _schur_color,
    empirical_coherent_mi,
    empirical_pred_error,
    gen_fading_batch,
    read_fading_dump,
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
    a = gen_fading_batch(model, 128, 1, 5, method=method)[0]
    b = gen_fading_batch(model, 128, 1, 5, method=method)[0]
    assert np.array_equal(a, b)
    c = gen_fading_batch(model, 128, 1, 6, method=method)[0]
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("method", ["embedding", "cholesky"])
def test_batch_row_zero_matches_single(method):
    # the slowly decaying Jakes autocorrelation needs a large circulant
    # embedding, so the short-trace case runs through the direct factor.
    # Realization k depends only on stream (seed, k): row k of a batch is
    # bit for bit the last row of a (k+1)-row batch, row 0 the one-row
    # batch, so no batched synthesis may round rows differently.
    model = Rectangular(0.25) if method == "embedding" else Jakes(0.2)
    batch = gen_fading_batch(model, 64, 64, seed=9, method=method)
    assert batch.shape == (64, 64)
    for k in range(64):
        last = gen_fading_batch(model, 64, k + 1, seed=9, method=method)[-1]
        assert np.array_equal(batch[k], last)


def _schur_factor(lags, shift):
    # the dense lower factor of Toeplitz(lags) + shift I from the Schur
    # columns, which the synthesis never forms
    n = len(lags)
    chol = np.zeros((n, n))
    for k, col in enumerate(_schur(lags, shift)):
        chol[k:, k] = col
    return chol


# rect, Jakes and rc:0.2 at f_d 0.1 and 0.01, n 512 and 2048, and the earlier
# cases (rect f_d 0.1, n 2048 is on the grid), each with the factor's jitter
# 1e-12 r(0) and ToeplitzCov's PSD tolerance 1e-10 r(0)
_FACTOR_CASES = [
    pytest.param(make(f_d), n, id=f"{name}-{f_d}-{n}")
    for name, make in [("rect", Rectangular), ("jakes", Jakes),
                       ("rc0.2", lambda f_d: RaisedCosine(f_d, 0.2))]
    for f_d in (0.1, 0.01) for n in (512, 2048)
] + [pytest.param(Jakes(0.2, sigma_h2=1.5), 300, id="jakes1.5-0.2-300"),
     pytest.param(RaisedCosine(0.1, 0.2), 64, id="rc0.2-0.1-64")]


@pytest.mark.parametrize("jitter", [1e-12, 1e-10])
@pytest.mark.parametrize("model,n", _FACTOR_CASES)
def test_cholesky_factor_matches_jittered_matrix(model, n, jitter):
    # two valid factors of these near-singular covariances differ entrywise
    # by up to about 4e-4, so the Schur factor is checked by its residual;
    # its verdict must be LAPACK's on the dense jittered matrix
    lags = ToeplitzCov.from_model(model, n).lags
    dense = linalg.toeplitz(lags) + jitter * lags[0] * np.eye(n)
    linalg.cholesky(dense, lower=True)  # LAPACK accepts every case, so Schur must too
    chol = _schur_factor(lags, jitter * lags[0])
    assert np.max(np.abs(chol @ chol.T - dense)) <= 1e-13 * lags[0]


@pytest.mark.parametrize("method,model,n", [
    ("embedding", RaisedCosine(0.1, 0.2), 1024),
    ("embedding", Rectangular(0.25), 100),
    ("cholesky", Jakes(0.2), 200),
])
def test_batch_matches_stacked_row_draws(method, model, n):
    # embedding rows are filled in place, each bit for bit the trace the
    # per-row draw gives on its own, stacked.  Cholesky rows are coloured
    # block by block of Schur columns, so they match the dense factor's
    # product with the stacked draws up to rounding.
    count, seed = 7, 31
    got = gen_fading_batch(model, n, count, seed, method=method)
    if method == "embedding":
        lam, m = _embedding_spectrum(model, n)
        draw = lambda rng: (np.fft.ifft(np.sqrt(lam) * _complex_normal(rng, m)) * math.sqrt(m))[:n]
        want = np.stack([draw(make_rng(seed, i)) for i in range(count)])
        assert np.array_equal(got, want)
    else:
        lags = ToeplitzCov.from_model(model, n).lags
        chol = _schur_factor(lags, 1e-12 * model.sigma_h2)
        w = np.stack([_complex_normal(make_rng(seed, i), n) for i in range(count)])
        want = w @ chol.T.astype(complex)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


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


def test_cholesky_batch_keeps_no_factor():
    # the n = 2048 factor is 32 MiB; nothing of it may stay alive in a
    # cache once the batch is dropped
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        batch = gen_fading_batch(Rectangular(0.1), 2048, 2, seed=0, method="cholesky")
        del batch
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(after - before) <= 2**20


def test_cholesky_batch_peak_memory():
    # 64 traces of 2048 samples are 2 MiB of complex128; the draws, the
    # coloured rows, one 128-column block of the factor and its product
    # are about that each.  The dense factor alone would be 32 MiB.
    tracemalloc.start()
    try:
        gen_fading_batch(Rectangular(0.1), 2048, 64, seed=0, method="cholesky")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_caller_thread_fills_one_share(monkeypatch):
    # with three usable CPUs the calling thread draws rows 0, 3, 6, ... and
    # pool threads the other two shares
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    drawn = {}

    def rng(seed, i):
        drawn[i] = threading.get_ident()
        return make_rng(seed, i)

    monkeypatch.setattr(simulate, "make_rng", rng)
    gen_fading_batch(Rectangular(0.25), 64, 9, seed=0)
    shares = [{drawn[i] for i in range(w, 9, 3)} for w in range(3)]
    assert all(len(share) == 1 for share in shares)
    assert shares[0] == {threading.get_ident()}
    assert threading.get_ident() not in shares[1] | shares[2]


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
    # the blocked colouring of the real and imaginary parts, as two rows, is
    # the complex product chol @ w with the dense factor up to rounding
    lags = ToeplitzCov.from_model(Rectangular(0.1), 2048).lags
    chol = _schur_factor(lags, 1e-12 * lags[0])
    w = _complex_normal(make_rng(4), 2048)
    want = chol.astype(complex) @ w
    re, im = _schur_color(lags, 1e-12 * lags[0], np.stack([w.real, w.imag]))
    got = re + 1j * im
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
    with pytest.raises(ValueError, match="n must be at least 2"):
        gen_fading_batch(model, 1, 1, seed=0)
    with pytest.raises(ValueError, match="n <= 2048"):
        gen_fading_batch(model, 4096, 1, seed=0, method="cholesky")
    with pytest.raises(ValueError, match="unknown method"):
        gen_fading_batch(model, 64, 1, seed=0, method="spectral")
    with pytest.raises(ValueError, match="count must be positive"):
        gen_fading_batch(model, 64, 0, seed=0)
    with pytest.raises(ValueError, match="negative mass"):
        gen_fading_batch(Jakes(0.1), 512, 1, seed=0)  # best embedding floors 1.87% of the trace


def test_empirical_prediction_matches_analytic():
    model = Rectangular(0.1)
    z = PowerProfile((1.0, 1.0, 1.0))
    analytic = pred_error_finite(ToeplitzCov.from_model(model, 4), z, 1.0)
    for attempt, n_real in enumerate((1500, 6000)):
        est = empirical_pred_error(model, z, 1.0, n_real, seed=23 + attempt)
        if abs(est.mean - analytic) <= 4.0 * est.stderr:
            return
    pytest.fail("empirical prediction error outside 4 sigma after retry")


def test_empirical_prediction_draws_batch_rows_and_one_noise_stream():
    # the traces are Cholesky batch rows (seed, i), the noise stream
    # (seed, count) row after row; the weights here come from a dense solve
    model, sigma_n2, count, seed = RaisedCosine(0.1, 0.2), 0.7, 50, 3
    z = np.array([0.5, 0.0, 2.0])
    est = empirical_pred_error(model, PowerProfile(z), sigma_n2, count, seed)
    lags = np.asarray(ToeplitzCov.from_model(model, 4).lags)
    s = np.sqrt(z)
    weights = np.linalg.solve(s[:, None] * linalg.toeplitz(lags[:3]) * s + sigma_n2 * np.eye(3),
                              s * lags[1:])
    h = gen_fading_batch(model, 4, count, seed, method="cholesky")
    noise = _complex_normal(make_rng(seed, count), 3 * count).reshape(count, 3)
    y = s * h[:, 2::-1] + math.sqrt(sigma_n2) * noise
    errs = np.abs(h[:, 3] - y @ weights) ** 2
    assert est.n == count and est.seed == seed
    assert est.mean == pytest.approx(errs.mean(), rel=1e-12)


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
    small = empirical_coherent_mi(1.0, 20_000, seed=3)
    small2 = empirical_coherent_mi(1.0, 20_000, seed=3)
    big = empirical_coherent_mi(1.0, 320_000, seed=4)
    assert small.mean == small2.mean and small.stderr == small2.stderr
    assert isinstance(small, McEstimate) and small.n == 20_000 and small.seed == 3
    assert big.stderr < small.stderr / 3.0  # 16x samples -> ~4x smaller
    assert abs(small.mean - g_logmoment(1.0)) < 4.0 * small.stderr


def test_empirical_pg_capacity():
    est = empirical_coherent_mi(1.0, 1_000_000, seed=0)
    assert abs(est.mean - g_logmoment(1.0)) <= 4.0 * est.stderr
    assert est.mean == pytest.approx(0.596347, abs=4.0 * est.stderr)


def _drawn_coherent_mi_cm(rho, m_points, n, seed):
    # coherent MI of uniform m-PSK with the sent symbol, the complex fading
    # and the noise all drawn fresh, and the mixture summed over every point
    rng = make_rng(seed, 0)
    xs = np.exp(2j * math.pi * np.arange(m_points) / m_points)
    centers = math.sqrt(rho) * _complex_normal(rng, n)
    w = _complex_normal(rng, n)
    y = centers * xs[rng.integers(0, m_points, size=n)] + w
    d2 = np.abs(y[:, None] - centers[:, None] * xs[None, :]) ** 2
    vals = math.log(m_points) - np.abs(w) ** 2 - special.logsumexp(-d2, axis=1)
    return float(vals.mean()), float(vals.std()) / math.sqrt(n)


def test_empirical_cm_agrees_with_reduced_estimator():
    # the fully drawn estimator (random symbol, complex fading) and the
    # symmetry-reduced one must estimate the same number
    a_mean, a_stderr = _drawn_coherent_mi_cm(2.0, 16, 50_000, seed=5)
    b = coherent_mi_cm(2.0, m_points=16, n=50_000, seed=6)
    assert abs(a_mean - b.mean) <= 4.0 * math.hypot(a_stderr, b.stderr)


def test_empirical_mi_validation():
    with pytest.raises(ValueError):
        empirical_coherent_mi(1.0, 100, seed=0)
    with pytest.raises(ValueError):
        empirical_coherent_mi(-1.0, 20_000, seed=0)


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
    trace = gen_fading_batch(model, 32, 1, seed=4)[0]
    path = tmp_path / "one.fade"
    write_fading_dump(path, trace, model, 4)
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

