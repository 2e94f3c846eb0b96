"""Monte Carlo oracle: synthesize stationary fading and re-estimate
analytic quantities empirically.

gen_fading_batch is the one entry point that draws fading traces, by
circulant embedding of the Toeplitz autocorrelation (exact to rounding when
the embedded spectrum is nonnegative) or, as an independent oracle for
moderate lengths, with the Schur factor of the lags.  Each batch builds its
spectrum or factor once and keeps neither.  Every estimator is seeded
through the counter-based generator, with realization i drawing from
stream (seed, i) so results do not depend on scheduling.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .model import PsdModel
from .prediction import PowerProfile, ToeplitzCov, _lmmse, _schur
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


def _fading_cholesky_factor(model: PsdModel, n: int):
    # the lower factor, filled row by row into its transpose: Fortran-ordered
    chol_t = np.zeros((n, n))
    for k, col in enumerate(_schur(ToeplitzCov.from_model(model, n).lags, 1e-12 * model.sigma_h2)):
        chol_t[k, k:] = col
    return chol_t.T


def _color(chol, w):
    # chol @ w for the real factor chol, as two real products: a complex
    # product would cast the whole factor to complex on every call.  One
    # vector at a time, so realization i depends only on its own stream.
    return chol @ w.real + 1j * (chol @ w.imag)


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
    split across threads on every usable CPU: each row depends only on its
    own stream, so the batch is bit for bit the same for any thread count.
    "cholesky" (n <= 2048) colours rows serially with the Schur factor of
    the covariance + 1e-12 sigma_h2 I (no LAPACK, so also the same for any
    thread count): an independent oracle for the embedding path.
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
            # numpy's generator fills and FFTs release the GIL; each worker
            # draws into its own buffers and writes only its rows
            z, work = np.empty(m, dtype=complex), np.empty((2, m))
            for i in rows:
                _complex_normal(make_rng(seed, i), m, out=z, work=work)
                z *= amp
                # only the first n of the m circulant samples are kept and scaled
                np.multiply(np.fft.ifft(z)[:n], scale, out=batch[i])

        workers = min(count, _usable_cpus())
        if workers == 1:
            fill(range(count))
        else:
            from concurrent.futures import ThreadPoolExecutor

            # rows round-robin; reading every result raises a worker's exception here
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(fill, [range(w, count, workers) for w in range(workers)]))
        return batch
    if method == "cholesky":
        if n > 2048:
            raise ValueError("cholesky path supports n <= 2048")
        chol = _fading_cholesky_factor(model, n)
        batch = np.empty((count, n), dtype=complex)
        for i in range(count):
            batch[i] = _color(chol, _complex_normal(make_rng(seed, i), n))
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
    one temporary), and the horizon x horizon factor while the traces are
    drawn.  The mean must agree with pred_error_finite.
    """
    sigma_n2 = float(sigma_n2)
    if not sigma_n2 > 0:
        raise ValueError("sigma_n2 must be positive")
    n_realizations = int(n_realizations)
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations")
    horizon = len(z.z) + 1
    if horizon > 2048:
        raise ValueError("horizon must be at most 2048")
    s, _, weights = _lmmse(ToeplitzCov.from_model(model, horizon), z, sigma_n2)
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
    magic "FADE", format version, trace length N, f_d, and the seed."""
    h = np.atleast_2d(np.asarray(realizations))
    n = h.shape[1]
    with open(path, "wb") as fh:
        fh.write(_DUMP_HEADER.pack(_DUMP_MAGIC, _DUMP_VERSION, n, model.f_d, int(seed)))
        h.astype(np.complex64).tofile(fh)


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
