"""Monte Carlo oracle: synthesize stationary fading and re-estimate
analytic quantities empirically.

gen_fading_batch is the one public entry point that draws fading traces, by
circulant embedding of the Toeplitz autocorrelation (exact to rounding when
the embedded spectrum is nonnegative; a floored share s of its trace moves
each covariance entry by at most s r(0), which the `simulate` dump rounds
away once s <= 2^-24) or, as an independent oracle for moderate lengths,
by colouring with the Schur columns of the lags.  It is the one-block case
of the row blocks that `simulate` streams into its dump, so the dump holds
one block in memory, not the batch.  Each batch builds its embedding
spectrum once and keeps none, and no batch stores the Cholesky factor.
Every estimator is seeded through the counter-based generator, with
realization i drawing from stream (seed, i) so results do not depend on
scheduling.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterator
from itertools import repeat

import numpy as np

from .model import PsdModel
from .prediction import PowerProfile, ToeplitzCov, _check_noise, _lmmse, _schur
from .quadrature import (
    _NORMAL_CHUNK, BoundValue, _complex_normal, _finite_nonnegative, _mean_stderr, make_rng,
)

__all__ = [
    "gen_fading_batch",
    "empirical_pred_error",
    "empirical_coherent_mi",
    "write_fading_dump",
    "read_fading_dump",
]

_DUMP_MAGIC = b"FADE"
_DUMP_VERSION = 1
_DUMP_HEADER = struct.Struct("<4sIQdQ")  # magic, version, N, f_d, seed
_DUMP_CHUNK = 1 << 20  # bytes of complex64 per write, and per streamed embedding block
# traces per streamed Cholesky block: each block reruns the Schur recursion,
# which took 12 ms at n 2048 against 0.56 ms to colour one trace (2 vCPUs),
# so a block of 1024 spends about 2% of its time on it
_CHOLESKY_ROWS = 1024
_MI_BLOCK = 1 << 17  # draws per block of empirical_coherent_mi: 1 MiB of float64


# Flooring a negative mass of share s of the trace m r(0) moves every
# covariance entry by at most s r(0) and the variance by exactly s r(0); at
# or below the complex64 dump's rounding unit 2^-24 that is under the
# rounding of the dump itself, so the first size that gets there is kept
_FLOOR_SHARE = 2.0**-24
_LAG_BLOCK = 1 << 16  # lags per autocorr call of the embedding set-up


def _embedding_spectrum(model: PsdModel, n: int):
    """(lam, m, share): eigenvalues lam of the circulant embedding of size m
    of the length-n Toeplitz covariance, and the share of the trace m r(0)
    floored in them (0 when exact).  Sizes m = 2n, 4n, 8n are tried in
    order, and the first whose negative mass is at most _FLOOR_SHARE of
    the trace is kept, that mass floored: the floor then moves each
    covariance entry by at most share r(0).  If no size gets there, the
    one with the smallest share is kept and floored, provided the share is
    at most 1%.  Each size evaluates only the lags 0..m/2 it needs, into
    one (4n + 1)-float array, _LAG_BLOCK lags per autocorr call.  Each
    size's even sequence is transformed in place in one complex m-array;
    only the best size so far is kept, as a float copy: no complex m-point
    array outlives its size."""
    r, done = np.empty(4 * n + 1), 0
    best = None
    for m in (2 * n, 4 * n, 8 * n):
        half = m // 2
        for k in range(done, half + 1, _LAG_BLOCK):
            k1 = min(k + _LAG_BLOCK, half + 1)
            r[k:k1] = model.autocorr(np.arange(k, k1))
        done = half + 1
        seq = np.zeros(m, dtype=complex)  # the even sequence, transformed in place
        seq.real[: half + 1], seq.real[half + 1 :] = r[: half + 1], r[half - 1 : 0 : -1]
        lam = np.fft.fft(seq, out=seq).real.copy()
        del seq  # before the next size allocates one twice as long
        if lam.min() >= 0.0:
            return lam, m, 0.0
        share = -lam[lam < 0.0].sum() / (m * r[0])
        if share <= _FLOOR_SHARE:
            return np.maximum(lam, 0.0, out=lam), m, share
        if best is None or share < best[2]:
            best = np.maximum(lam, 0.0, out=lam), m, share
    if best[2] > 0.01:
        raise ValueError(
            "circulant embedding spectrum has negative mass "
            f"{best[2]:.2%} of the trace at its best size {best[1]} (> 1%)"
        )
    return best


_COLOR_BLOCK = 128  # Schur columns per matrix product of the Cholesky colouring
_COLOR_TRACES = 4  # leading indices per matrix product, each its own gemm


def _schur_color(lags, shift, x, out=None):
    """x @ L^T for real x shaped (rows, n) or (traces, rows, n), L the lower
    Cholesky factor of Toeplitz(lags) + shift I: each row r becomes L r,
    summed into `out` (x's shape, any strides; a new array by default) from
    zero.  L is never stored: each block of _COLOR_BLOCK Schur columns is
    refilled into one buffer and is one matrix product per leading index,
    taken over _COLOR_TRACES leading indices at a time, so a product's
    result is at most _COLOR_TRACES x rows x n, not the size of x.  Pass
    two or more rows: numpy sends a one-row product through gemv, which
    rounds differently from gemm."""
    n = x.shape[-1]
    if out is None:
        out = np.empty_like(x)
    out[...] = 0.0
    cols = _schur(lags, shift)
    traces = ([slice(t, t + _COLOR_TRACES) for t in range(0, len(x), _COLOR_TRACES)]
              if x.ndim > 2 else [Ellipsis])
    buf = np.empty((min(_COLOR_BLOCK, n), n))
    for k0 in range(0, n, _COLOR_BLOCK):
        k1 = min(k0 + _COLOR_BLOCK, n)
        block = buf[: k1 - k0, : n - k0]  # rows k0..k1-1 of L^T, from column k0 on
        for j, col in zip(range(k1 - k0), cols):
            block[j, :j] = 0.0
            block[j, j:] = col
        for t in traces:
            out[t][..., k0:] += x[t][..., k0:k1] @ block
    return out


def _usable_cpus():
    """CPUs this process may run on: the embedding's worker-thread cap."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_blocks(fill, n, count, rows, workers):
    """Consecutive blocks of `rows` (the last maybe fewer) of the (count, n)
    complex batch, each filled by fill(block, first, part) for the rows
    `part` of the block starting at trace `first`.  One buffer is refilled
    for every block, so a block is used up before the next is asked for.
    A block's rows go round-robin to the calling thread and a pool of
    workers - 1 threads that serves every block."""
    from concurrent.futures import ThreadPoolExecutor

    buf = np.empty((min(rows, count), n), dtype=complex)
    workers = min(len(buf), workers)
    # the caller fills share 0 itself, so one thread (and malloc arena)
    # fewer; a one-worker pool is never given a task and starts no thread.
    # Reading every result raises a worker's exception here.
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        for first in range(0, count, rows):
            block = buf[: count - first]
            shares = [range(w, len(block), workers) for w in range(workers)]
            rest = pool.map(fill, repeat(block), repeat(first), shares[1:])
            fill(block, first, shares[0])
            list(rest)
            yield block


def _fading_blocks(model: PsdModel, n: int, count: int, seed, method, rows=None):
    """(blocks, m, share) for a batch of `count` traces shaped (count, n),
    trace i drawn from stream (seed, i): blocks yields its consecutive row
    blocks, `rows` traces each (the last maybe fewer), and m, share are the
    embedding size and its floored share of the trace (None and 0 for
    "cholesky").  The set-up, and with it every refusal, happens here,
    before the first block.  By default an embedding block is _DUMP_CHUNK
    bytes of complex64 and a Cholesky block _CHOLESKY_ROWS traces."""
    if count < 1:
        raise ValueError("count must be positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    if method == "embedding":
        lam, m, share = _embedding_spectrum(model, n)
        amp, scale = np.sqrt(lam), math.sqrt(m)

        def fill(block, first, part):
            # numpy's generator fills and FFTs release the GIL; each thread
            # draws into its own buffers and writes only its rows
            z, work = np.empty(m, dtype=complex), np.empty(min(m, _NORMAL_CHUNK))
            for j in part:
                _complex_normal(make_rng(seed, first + j), m, out=z, work=work)
                # in place on each part: z *= amp would cast amp to complex
                # through a ufunc buffer of min(m, 8192) values per trace
                z.real *= amp
                z.imag *= amp
                # only the first n of the m circulant samples are kept and scaled
                np.fft.ifft(z, out=z)
                np.multiply(z[:n], scale, out=block[j])

        rows, workers = rows or max(1, _DUMP_CHUNK // (8 * n)), _usable_cpus()
    elif method == "cholesky":
        if n > 2048:
            raise ValueError("cholesky path supports n <= 2048")
        lags, shift, m, share = model.autocorr(np.arange(n)), 1e-12 * model.sigma_h2, None, 0.0

        def fill(block, first, part):
            # a product over all rows at once would round a row differently
            # as the batch size changes, so each trace is its own (2, n) x[j]
            z, work, x = np.empty(n, dtype=complex), np.empty(n), np.empty((len(block), 2, n))
            for j in part:
                _complex_normal(make_rng(seed, first + j), n, out=z, work=work)
                x[j, 0], x[j, 1] = z.real, z.imag
            # block's real and imaginary parts, as a (rows, 2, n) view
            _schur_color(lags, shift, x, out=block.view(float).reshape(-1, n, 2).transpose(0, 2, 1))

        rows, workers = rows or _CHOLESKY_ROWS, 1
    else:
        raise ValueError(f"unknown method {method!r}")
    return _row_blocks(fill, n, count, rows, workers), m, share


def gen_fading_batch(model: PsdModel, n: int, count: int, seed, method="embedding") -> np.ndarray:
    """Stack of `count` independent traces shaped (count, n); trace i draws
    from stream (seed, i).  It is the one-block case of the blocks that
    `simulate` streams into its dump, with the same bytes.

    method "embedding" synthesizes through the circulant spectrum, its rows
    split across the calling thread and one worker thread per further
    usable CPU: each row depends only on its own stream, so the batch is bit
    for bit the same for any thread count.  "cholesky" (n <= 2048), an
    independent oracle for the embedding path, colours with the Schur factor
    of the covariance + 1e-12 sigma_h2 I and never forms it: each trace's
    real and imaginary parts are one two-row BLAS product per block of
    Schur columns, so a trace is bit for bit the same in any batch.
    Memory: the embedding path holds the batch, the real m-point spectrum
    amplitude, m its embedding size, and per thread one complex m-point
    array (inverse transformed in place) and a draw buffer of at most 2^16
    floats.  Its set-up peaks at the largest size it tries: one complex
    m-array transformed in place, two more inside numpy's FFT and the
    float spectrum it keeps, which at the --n cap sets simulate's peak, 508
    MiB RSS for rect and 524 MiB for Jakes at n 2^20 (both try m = 8n).
    The Cholesky path holds the batch, its real draws (as much again), one
    128 x n block of the factor and a product over at most 4 traces (about
    6.4 MiB at n 2048 x 64).
    """
    return next(_fading_blocks(model, n, count, seed, method, rows=count)[0])


def empirical_pred_error(model: PsdModel, z: PowerProfile, sigma_n2,
                         n_realizations, seed) -> BoundValue:
    """Empirical one-step prediction error: the analytic LMMSE weights are
    applied to simulated observation vectors, and the squared prediction
    residual is averaged over realizations.

    Realization i's fading is the first horizon = len(z.z) + 1 samples of
    row i of gen_fading_batch(model, max(horizon, 2), n_realizations, seed,
    "cholesky"), stream (seed, i); all observation noise comes from the one
    stream (seed, n_realizations), realization by realization.  Memory:
    three arrays of n_realizations x horizon complex values (traces, noise,
    one temporary) and the horizon x horizon LMMSE system while its weights
    are solved.  The mean must agree with pred_error_finite.
    """
    sigma_n2 = _check_noise(sigma_n2)
    n_realizations = int(n_realizations)
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations")
    horizon = len(z.z) + 1
    if horizon > 2048:
        raise ValueError("horizon must be at most 2048")
    s = np.sqrt(np.asarray(z.z))
    weights = _lmmse(ToeplitzCov.from_model(model, horizon), s, sigma_n2)[1][:, 0]
    h = gen_fading_batch(model, max(horizon, 2), n_realizations, seed, "cholesky")[:, :horizon]
    noise = _complex_normal(make_rng(seed, n_realizations), n_realizations * (horizon - 1))
    noise = (noise * math.sqrt(sigma_n2)).reshape(n_realizations, horizon - 1)
    # column k of h[:, -2::-1] is k+1 steps before the target h[:, -1]
    errs = np.abs(h[:, -1] - (s * h[:, -2::-1] + noise) @ weights) ** 2
    mean, stderr = _mean_stderr(errs)
    return BoundValue(value=mean, stderr=stderr)


@np.errstate(over="raise")
def empirical_coherent_mi(rho, n, seed) -> BoundValue:
    """Coherent mutual information E log(1 + rho |h|^2/sigma_h2) of the
    proper Gaussian input, by direct simulation of the fading magnitude:
    stream (seed, 0) is drawn _MI_BLOCK samples at a time, so memory stays
    at a few blocks for any n.  A rho whose samples overflow raises
    FloatingPointError."""
    rho = _finite_nonnegative(rho, "rho")
    n = int(n)
    if n < 10_000:
        raise ValueError("need at least 1e4 samples")
    rng = make_rng(seed, 0)
    blocks = (np.log1p(rho * rng.exponential(size=min(_MI_BLOCK, n - i)))
              for i in range(0, n, _MI_BLOCK))
    mean, stderr = _mean_stderr(blocks)
    return BoundValue(value=mean, stderr=stderr)


def write_fading_dump(path, realizations, model: PsdModel, seed):
    """Write realizations (array shaped (count, N), a single trace, or an
    iterator of (rows, N) blocks such as `simulate` streams) as
    little-endian interleaved complex64 after a 32-byte header carrying the
    magic "FADE", format version, trace length N, f_d, and the seed.  Rows
    are converted about 1 MiB at a time, never as one full copy; the file
    is opened once the first block is at hand.  No blocks, traces of length
    0 and arrays of more than two dimensions cannot be read back, so they
    raise ValueError before the file is opened."""
    blocks = (realizations if isinstance(realizations, Iterator)
              else iter([np.atleast_2d(np.asarray(realizations))]))
    h = next(blocks, None)
    if h is None:
        raise ValueError("no traces to write: the block iterator is empty")
    if h.ndim != 2 or h.shape[1] == 0:
        raise ValueError(f"traces must be shaped (count, N) with N >= 1, got {h.shape}")
    n = h.shape[1]
    rows = max(1, _DUMP_CHUNK // (8 * n))  # complex64 rows per write
    with open(path, "wb") as fh:
        fh.write(_DUMP_HEADER.pack(_DUMP_MAGIC, _DUMP_VERSION, n, model.f_d, int(seed)))
        while h is not None:
            for i in range(0, len(h), rows):
                h[i : i + rows].astype(np.complex64).tofile(fh)
            h = next(blocks, None)


def read_fading_dump(path):
    """Read a fading dump; returns (realizations, meta) where realizations
    is shaped (count, N) — count inferred from the file size — and meta
    holds the header fields."""
    with open(path, "rb") as fh:
        header = fh.read(_DUMP_HEADER.size)
        if len(header) < _DUMP_HEADER.size:
            raise ValueError("truncated fading dump: no complete header")
        magic, version, n, f_d, seed = _DUMP_HEADER.unpack(header)
        if magic != _DUMP_MAGIC:
            raise ValueError(f"not a fading dump: bad magic {magic!r}")
        if version != _DUMP_VERSION:
            raise ValueError(f"unsupported dump version {version}")
        if n == 0:
            raise ValueError("fading dump header gives trace length N = 0")
        payload = fh.read()
    itemsize = np.dtype(np.complex64).itemsize
    if len(payload) % (itemsize * n):
        raise ValueError("truncated fading dump")
    flat = np.frombuffer(payload, dtype=np.complex64)
    meta = {"version": version, "n": int(n), "f_d": float(f_d), "seed": int(seed)}
    return flat.reshape(-1, int(n)), meta
