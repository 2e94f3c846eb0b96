"""Monte Carlo oracle: synthesize stationary fading and re-estimate
analytic quantities empirically.

gen_fading_batch is the one entry point that draws fading traces, by
circulant embedding of the Toeplitz autocorrelation (exact to rounding when
the embedded spectrum is nonnegative) or, as an independent oracle for
moderate lengths, by colouring with the Schur columns of the lags.  Each
batch builds its embedding spectrum once and keeps none, and no batch
stores the Cholesky factor.  Every estimator is seeded through the
counter-based generator, with realization i drawing from stream (seed, i)
so results do not depend on scheduling.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .model import PsdModel
from .prediction import PowerProfile, ToeplitzCov, _check_noise, _lmmse, _schur
from .quadrature import McEstimate, _complex_normal, _mean_stderr, make_rng

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
_DUMP_CHUNK = 1 << 20  # bytes of complex64 per write


def _embedding_spectrum(model: PsdModel, n: int):
    """Eigenvalues of the circulant embedding of the length-n Toeplitz
    covariance, doubling the embedding until the spectrum is nonnegative
    (cap 8n).  Otherwise the size whose negative mass is the smallest share
    of the trace m r(0) is kept and its negative mass floored, provided
    that share is at most 1%."""
    r = model.autocorr(np.arange(4 * n + 1))
    candidates = []
    for m in (2 * n, 4 * n, 8 * n):
        half = m // 2
        c = np.concatenate([r[: half + 1], r[half - 1 : 0 : -1]])
        lam = np.fft.fft(c).real
        if lam.min() >= 0.0:
            return lam, m
        candidates.append((-lam[lam < 0.0].sum() / (m * r[0]), m, lam))
    share, m, lam = min(candidates, key=lambda cand: cand[0])
    if share > 0.01:
        raise ValueError(
            "circulant embedding spectrum has negative mass "
            f"{share:.2%} of the trace at its best size {m} (> 1%)"
        )
    return np.maximum(lam, 0.0), m


_COLOR_BLOCK = 128  # Schur columns per matrix product of the Cholesky colouring


def _schur_color(lags, shift, x):
    """x @ L^T for real x shaped (..., rows, n), L the lower Cholesky factor
    of Toeplitz(lags) + shift I: each row r becomes L r.  L is never
    stored: each block of _COLOR_BLOCK Schur columns is one matrix product
    per leading index.  Pass two or more rows: numpy sends a one-row
    product through gemv, which rounds differently from gemm."""
    n = x.shape[-1]
    out = np.zeros_like(x)
    cols = _schur(lags, shift)
    for k0 in range(0, n, _COLOR_BLOCK):
        k1 = min(k0 + _COLOR_BLOCK, n)
        block = np.zeros((k1 - k0, n - k0))  # rows k0..k1-1 of L^T, from column k0 on
        for j, col in zip(range(k1 - k0), cols):
            block[j, j:] = col
        out[..., k0:] += x[..., k0:k1] @ block
    return out


def _usable_cpus():
    """CPUs this process may run on: the embedding's worker-thread cap."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def gen_fading_batch(model: PsdModel, n: int, count: int, seed, method="embedding") -> np.ndarray:
    """Stack of `count` independent traces shaped (count, n); trace i draws
    from stream (seed, i).

    method "embedding" synthesizes through the circulant spectrum, its rows
    split across the calling thread and one worker thread per further
    usable CPU: each row depends only on its own stream, so the batch is bit
    for bit the same for any thread count.  "cholesky" (n <= 2048), an
    independent oracle for the embedding path, colours with the Schur factor
    of the covariance + 1e-12 sigma_h2 I and never forms it: each trace's
    real and imaginary parts are one two-row BLAS product per block of
    Schur columns, so a trace is bit for bit the same in any batch.  It
    holds about three count x n complex arrays and one 128 x n block at
    once (about 8 MiB at n 2048 x 64).
    """
    if count < 1:
        raise ValueError("count must be positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    if method == "embedding":
        lam, m = _embedding_spectrum(model, n)
        amp, scale = np.sqrt(lam), math.sqrt(m)
        batch = np.empty((count, n), dtype=complex)

        def fill(rows):
            # numpy's generator fills and FFTs release the GIL; each thread
            # draws into its own buffers and writes only its rows
            z, work = np.empty(m, dtype=complex), np.empty((2, m))
            for i in rows:
                _complex_normal(make_rng(seed, i), m, out=z, work=work)
                z *= amp
                # only the first n of the m circulant samples are kept and scaled
                np.multiply(np.fft.ifft(z)[:n], scale, out=batch[i])

        workers = min(count, _usable_cpus())
        shares = [range(w, count, workers) for w in range(workers)]
        if workers == 1:
            fill(shares[0])
        else:
            from concurrent.futures import ThreadPoolExecutor

            # rows round-robin; the caller fills share 0 itself, so one
            # thread (and malloc arena) fewer.  Reading every result raises
            # a worker's exception here.
            with ThreadPoolExecutor(max_workers=workers - 1) as pool:
                rest = pool.map(fill, shares[1:])
                fill(shares[0])
                list(rest)
        return batch
    if method == "cholesky":
        if n > 2048:
            raise ValueError("cholesky path supports n <= 2048")
        # a product over all rows at once would round a row differently as
        # the batch size changes
        x = np.empty((count, 2, n))
        z, work = np.empty(n, dtype=complex), np.empty((2, n))
        for i in range(count):
            _complex_normal(make_rng(seed, i), n, out=z, work=work)
            x[i, 0], x[i, 1] = z.real, z.imag
        out = _schur_color(model.autocorr(np.arange(n)), 1e-12 * model.sigma_h2, x)
        batch = np.empty((count, n), dtype=complex)
        batch.real, batch.imag = out[:, 0], out[:, 1]
        return batch
    raise ValueError(f"unknown method {method!r}")


def empirical_pred_error(model: PsdModel, z: PowerProfile, sigma_n2,
                         n_realizations, seed) -> McEstimate:
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
    return McEstimate(mean=mean, stderr=stderr, n=n_realizations, seed=int(seed))


def empirical_coherent_mi(rho, n, seed) -> McEstimate:
    """Coherent mutual information E log(1 + rho |h|^2/sigma_h2) of the
    proper Gaussian input, by direct simulation of the fading magnitude."""
    rho = float(rho)
    if rho < 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    n = int(n)
    if n < 10_000:
        raise ValueError("need at least 1e4 samples")
    vals = np.log1p(rho * make_rng(seed, 0).exponential(size=n))
    mean, stderr = _mean_stderr(vals)
    return McEstimate(mean=mean, stderr=stderr, n=n, seed=int(seed))


def write_fading_dump(path, realizations, model: PsdModel, seed):
    """Write realizations (array shaped (count, N) or a single trace) as
    little-endian interleaved complex64 after a 32-byte header carrying the
    magic "FADE", format version, trace length N, f_d, and the seed.  Rows
    are converted about 1 MiB at a time, never as one full copy."""
    h = np.atleast_2d(np.asarray(realizations))
    n = h.shape[1]
    rows = max(1, _DUMP_CHUNK // (8 * n))  # complex64 rows per write
    with open(path, "wb") as fh:
        fh.write(_DUMP_HEADER.pack(_DUMP_MAGIC, _DUMP_VERSION, n, model.f_d, int(seed)))
        for i in range(0, len(h), rows):
            h[i : i + rows].astype(np.complex64).tofile(fh)


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
