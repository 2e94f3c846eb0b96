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
from fadingrate.quadrature import _NORMAL_CHUNK, BoundValue, _complex_normal, g_logmoment, make_rng
from fadingrate import simulate
from fadingrate.cli import main
from fadingrate.mcrates import coherent_mi_cm
from fadingrate.simulate import (
    _embedding_spectrum,
    _fading_blocks,
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
    # m = 4036 = 4 x 1009: the in-place inverse FFT on a plan with a large prime factor
    ("embedding", Rectangular(0.1), 1009),
    ("cholesky", Jakes(0.2), 200),
])
def test_batch_matches_stacked_row_draws(method, model, n):
    # embedding rows are filled in place, each bit for bit the trace the
    # per-row draw gives on its own through an out-of-place inverse FFT,
    # stacked.  Cholesky rows are coloured block by block of Schur columns,
    # so they match the dense factor's product with the stacked draws up to
    # rounding.
    count, seed = 7, 31
    got = gen_fading_batch(model, n, count, seed, method=method)
    if method == "embedding":
        lam, m, _ = _embedding_spectrum(model, n)
        assert m == {1024: 4096, 100: 800, 1009: 4036}[n]
        draw = lambda rng: (np.fft.ifft(np.sqrt(lam) * _complex_normal(rng, m)) * math.sqrt(m))[:n]
        want = np.stack([draw(make_rng(seed, i)) for i in range(count)])
        assert np.array_equal(got, want)
    else:
        lags = ToeplitzCov.from_model(model, n).lags
        chol = _schur_factor(lags, 1e-12 * model.sigma_h2)
        w = np.stack([_complex_normal(make_rng(seed, i), n) for i in range(count)])
        want = w @ chol.T.astype(complex)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _all_lags_spectra(model, n):
    # the earlier set-up as a reference: all lags 0..4n in one autocorr
    # call, then each size's floored spectrum and share, {m: (lam, share)}
    r = model.autocorr(np.arange(4 * n + 1))
    spectra = {}
    for m in (2 * n, 4 * n, 8 * n):
        half = m // 2
        lam = np.fft.fft(np.concatenate([r[: half + 1], r[half - 1 : 0 : -1]])).real.copy()
        share = -lam[lam < 0.0].sum() / (m * r[0]) if lam.min() < 0.0 else 0.0
        spectra[m] = np.maximum(lam, 0.0), share
    return spectra


# (model, n, the size kept): rc reaches a share of 2^-24 at the first size
# that does (rc:0.2 n 4096 at 2n, 2.2e-9, where 8n floors 3.1e-11), except
# rc:0.2 n 256, which keeps its smallest share (1.5e-7 at 8n) like every
# rect and Jakes case; Jakes n 512 floors 1.87% at best and is refused.
# rect n 40000 evaluates its 160001 lags in several autocorr blocks.
_SIZE_CASES = [
    (Rectangular(0.1), 4096, 16384), (Rectangular(0.1), 1009, 4036),
    (Rectangular(0.25), 100, 800), (Rectangular(0.1), 40000, 320000),
    (Jakes(0.1), 1024, 8192), (Jakes(0.1), 4096, 8192), (Jakes(0.3), 1000, 8000),
    (Jakes(0.1), 512, None),
    (RaisedCosine(0.1, 0.2), 256, 2048), (RaisedCosine(0.1, 0.2), 1024, 4096),
    (RaisedCosine(0.1, 0.2), 4096, 8192), (RaisedCosine(0.24, 0.05), 2048, 4096),
    (RaisedCosine(0.1, 1.0), 4096, 8192),
]


@pytest.mark.parametrize("model,n,kept", _SIZE_CASES)
def test_embedding_size_rule(model, n, kept):
    # the first of 2n, 4n, 8n whose share is at most 2^-24, else the
    # smallest share, refused above 1%; the spectrum kept is bit for bit
    # the all-lags one at that size
    spectra = _all_lags_spectra(model, n)
    shares = {m: share for m, (_, share) in spectra.items()}
    first = next((m for m, share in shares.items() if share <= 2.0**-24), None)
    best = min(shares, key=shares.get)
    if kept is None:
        assert first is None and shares[best] > 0.01
        with pytest.raises(ValueError, match=r"^circulant embedding spectrum has negative mass "
                           r"1\.87% of the trace at its best size 1024 \(> 1%\)$"):
            _embedding_spectrum(model, n)
        return
    assert kept == (first or best)
    lam, m, share = _embedding_spectrum(model, n)
    assert (m, share) == (kept, shares[kept])
    assert np.array_equal(lam, spectra[kept][0])


@pytest.mark.parametrize("model,n", [(model, n) for model, n, kept in _SIZE_CASES if kept])
def test_floored_spectrum_moves_covariance_by_its_share(model, n):
    # the floor adds share r(0) to the variance and at most that to any
    # other covariance entry of the circulant
    lam, m, share = _embedding_spectrum(model, n)
    r = model.autocorr(np.arange(n))
    assert share > 0.0
    assert np.max(np.abs(np.fft.ifft(lam)[:n] - r)) <= share * r[0] + 1e-14 * r[0]


def test_batch_peak_memory(monkeypatch):
    # 64 traces of 1024 samples are 1 MiB of complex128; the embedding has
    # m = 4096, so keeping each row's full m-point transform alive until the
    # end would hold 4 MiB more, and a second copy of the batch 1 MiB.  Each
    # worker thread holds its own draw buffers, 64 KiB complex and 32 KiB
    # real, and numpy's 64 KiB cast buffer for z *= amp: about 1.3 MiB in all.
    model = RaisedCosine(0.1, 0.2)
    assert _embedding_spectrum(model, 1024)[1] == 4096
    for workers in (None, 2):
        if workers is not None:
            monkeypatch.setattr(simulate, "_usable_cpus", lambda: workers)
        tracemalloc.start()
        try:
            gen_fading_batch(model, 1024, 64, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, workers


def test_embedding_fill_peak_memory(monkeypatch):
    # one thread drawing one-row blocks at m = 16384, traced after the first
    # block (which also pays one-time costs): its draw buffers are 256 KiB
    # complex and 128 KiB real, 0.38 MiB.  The amplitude scales z's real and
    # imaginary parts in place, and the inverse FFT runs in place: a complex
    # cast buffer for z *= amp (+0.125 MiB) or the transform's own output
    # (+0.25 MiB) fails the bound.
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
    blocks, m, _ = _fading_blocks(Rectangular(0.1), 4096, 5, 0, "embedding", rows=1)
    assert m == 16384
    next(blocks)
    tracemalloc.start()
    try:
        for _ in blocks:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.44 * 2**20


@pytest.mark.parametrize("method,psd,n", [("embedding", "rect", 4096), ("cholesky", "rect", 256)])
def test_streamed_dump_matches_one_batch(method, psd, n, tmp_path, monkeypatch, capsys):
    # simulate streams its dump block by block, refilling one buffer through
    # one worker pool: at n 4096 an embedding block is 32 rows; Cholesky
    # blocks are cut to 32 rows here so several of them stay cheap.  Each
    # dump has the bytes of the whole batch written at once, for any block
    # split and CPU count, with the workers interleaved as finely as can be.
    monkeypatch.setattr(simulate, "_CHOLESKY_ROWS", 32)
    model = Rectangular(0.1)
    argv = ["simulate", "--psd", psd, "--fd", "0.1", "--n", str(n), "--seed", "3",
            "--method", method, "--out", str(tmp_path / "cli.bin")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for count in (1, 31, 32, 33, 100):
            want = tmp_path / "batch.bin"
            write_fading_dump(want, gen_fading_batch(model, n, count, 3, method), model, 3)
            for workers in (1, 2, 3):
                monkeypatch.setattr(simulate, "_usable_cpus", lambda: workers)
                assert main(argv + ["--realizations", str(count)]) == 0
                got = (tmp_path / "cli.bin").read_bytes()
                assert got == want.read_bytes(), (count, workers)
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()


def test_streamed_dump_peak_memory(tmp_path, monkeypatch, capsys):
    # 256 traces of 4096 samples are a 16 MiB complex128 batch; streamed,
    # simulate holds one 32-row block (2 MiB), the m = 8192 draw buffers
    # (0.3 MiB) while it fills and one 1 MiB complex64 write while it
    # writes, about 3.1 MiB: a second block would break the bound
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
    tracemalloc.start()
    try:
        code = main(["simulate", "--psd", "rc:0.2", "--fd", "0.1", "--n", "4096",
                     "--realizations", "256", "--out", str(tmp_path / "x.bin")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.endswith("(embedding, m 8192, floored share 2.21e-09)\n")
    assert peak <= 4 * 2**20


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
    # coloured rows and the one 128-column block of the factor are about
    # that each, a product over 4 traces a sixteenth of it.  The dense
    # factor alone would be 32 MiB.
    tracemalloc.start()
    try:
        gen_fading_batch(Rectangular(0.1), 2048, 64, seed=0, method="cholesky")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_schur_color_peak_memory():
    # a 256-trace block at n 2048 is 8 MiB of draws and as much coloured;
    # one 128-column block of the factor (2 MiB) is refilled for every
    # block and each product spans at most 4 traces (128 KiB), so the peak
    # is about 2.3 MiB, not a product the size of x
    lags = Rectangular(0.1).autocorr(np.arange(2048))
    x = np.random.default_rng(0).standard_normal((256, 2, 2048))
    out = np.empty_like(x)
    tracemalloc.start()
    try:
        _schur_color(lags, 1e-12 * lags[0], x, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def _schur_color_reference(lags, shift, x):
    # the colouring with a fresh zeroed block per 128 Schur columns and
    # products over 16 traces at a time
    n = x.shape[-1]
    out = np.zeros_like(x)
    cols = _schur(lags, shift)
    for k0 in range(0, n, 128):
        k1 = min(k0 + 128, n)
        block = np.zeros((k1 - k0, n - k0))
        for j, col in zip(range(k1 - k0), cols):
            block[j, j:] = col
        for t in range(0, len(x), 16):
            out[t : t + 16, ..., k0:] += x[t : t + 16, ..., k0:k1] @ block
    return out


def test_schur_color_matches_reference_loop():
    # 37 traces end in a partial group of 4 (and of 16), n 300 in a partial
    # block of Schur columns; every trace is its own gemm, so the reused
    # block and the smaller groups move no bit
    lags = Jakes(0.2).autocorr(np.arange(300))
    x = np.random.default_rng(5).standard_normal((37, 2, 300))
    want = _schur_color_reference(lags, 1e-12 * lags[0], x)
    assert _schur_color(lags, 1e-12 * lags[0], x).tobytes() == want.tobytes()


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


@pytest.mark.parametrize("size", [0, 1, 512, 65535, 65536, 65537, 3 * 65536 + 5, 100_000])
def test_complex_normal_matches_reference_formula(size):
    # the chunked in-place draw against the expression it replaced, bit for
    # bit, allocating its own buffers and writing over stale caller buffers
    # of one chunk; sizes on each side of a chunk boundary
    for seed in range(3):
        rng = make_rng(seed, 7)
        want = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)
        assert _complex_normal(make_rng(seed, 7), size).tobytes() == want.tobytes()
        out, work = np.full(size, np.nan + 0j), np.full(_NORMAL_CHUNK, np.nan)
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
        if abs(est.value - analytic) <= 4.0 * est.stderr:
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
    assert est.value == pytest.approx(errs.mean(), rel=1e-12)


def test_empirical_prediction_empty_past():
    model = Rectangular(0.2, sigma_h2=1.3)
    est = empirical_pred_error(model, PowerProfile(()), 1.0, 2000, seed=2)
    assert abs(est.value - 1.3) <= 4.0 * est.stderr


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
    assert small.value == small2.value and small.stderr == small2.stderr
    assert isinstance(small, BoundValue)
    assert big.stderr < small.stderr / 3.0  # 16x samples -> ~4x smaller
    assert abs(small.value - g_logmoment(1.0)) < 4.0 * small.stderr


def test_empirical_pg_capacity():
    est = empirical_coherent_mi(1.0, 1_000_000, seed=0)
    assert abs(est.value - g_logmoment(1.0)) <= 4.0 * est.stderr
    assert est.value == pytest.approx(0.596347, abs=4.0 * est.stderr)


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
    assert abs(a_mean - b.value) <= 4.0 * math.hypot(a_stderr, b.stderr)


def test_empirical_mi_validation():
    with pytest.raises(ValueError):
        empirical_coherent_mi(1.0, 100, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        empirical_coherent_mi(-1.0, 20_000, seed=0)
    for rho in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            empirical_coherent_mi(rho, 20_000, seed=0)
    # a finite rho whose samples overflow raises rather than returning inf
    with pytest.raises(ArithmeticError, match="overflow"):
        empirical_coherent_mi(1e308, 10_000, seed=0)


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


@pytest.mark.parametrize("realizations,match", [
    (iter([]), "iterator is empty"),
    (np.zeros(0), r"N >= 1, got \(1, 0\)"),
    (np.zeros((3, 0)), r"N >= 1, got \(3, 0\)"),
    (np.zeros((2, 3, 4)), r"N >= 1, got \(2, 3, 4\)"),
], ids=["no-blocks", "empty-trace", "zero-length-traces", "3-d"])
def test_dump_refuses_what_it_cannot_read_back(realizations, match, tmp_path):
    path = tmp_path / "bad.fade"
    with pytest.raises(ValueError, match=match):
        write_fading_dump(path, realizations, Rectangular(0.1), 0)
    assert not path.exists()


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

