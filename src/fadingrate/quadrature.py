"""Numerical workhorses: the exponential log-moment, Szego-type spectral
log integrals, and the seeded draws, mean/stderr reduction and log-mixture
kernel that every Monte Carlo estimate in the package shares.

``g_logmoment(a)`` evaluates E[log(1 + a Z)] for Z ~ Exp(1), the function
every Gaussian-input rate expression in the package reduces to.  It is
computed through the scaled exponential integral e^x E_1(x) with x = 1/a,
switching between a power series, the convergent series for E_1, and a
continued fraction so that accuracy is uniform over the whole domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .model import Rectangular

__all__ = [
    "EULER_GAMMA",
    "QuadratureConfig",
    "McEstimate",
    "make_rng",
    "g_logmoment",
    "g_logmoment_gauss",
    "szego_log_integral",
]

EULER_GAMMA = 0.5772156649015329
_FLOAT_MAX = np.finfo(float).max


@dataclass(frozen=True)
class QuadratureConfig:
    """Sample count Monte Carlo estimators fall back to when the caller does
    not pass one."""

    mc_default_n: int = 100_000

    def __post_init__(self):
        if self.mc_default_n < 1:
            raise ValueError("mc_default_n must be positive")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error and reproducibility info."""

    mean: float
    stderr: float
    n: int
    seed: int


def make_rng(seed, task_index=0):
    """Deterministic counter-based generator for (seed, task) pairs.

    Distinct task indices give statistically independent streams for the
    same user seed, so sweep points can be seeded reproducibly without
    coordinating a global stream.
    """
    seed = int(seed)
    task_index = int(task_index)
    if seed < 0 or task_index < 0:
        raise ValueError("seed and task_index must be nonnegative")
    key = np.array([seed, task_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _complex_normal(rng, size):
    # unit-variance proper complex Gaussian draws: size real parts, then
    # size imaginary parts from the stream
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)


def _exp1_scaled_cf(x):
    # e^x E_1(x) as the continued fraction 1/(x+1- 1^2/(x+3- 2^2/(x+5- ...))),
    # modified Lentz iteration; excellent for x >= 1.
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    for k in range(1, 500):
        a = 1.0 if k == 1 else -((k - 1.0) ** 2)
        b = x + 2.0 * k - 1.0
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return f


def _exp1_series(x):
    # E_1(x) = -gamma - log x + sum_{k>=1} (-1)^{k+1} x^k / (k k!), for x < 1
    total = -EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, 200):
        term *= -x / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def g_logmoment(a):
    """E[log(1 + a Z)] for Z ~ Exp(1); equals e^(1/a) E_1(1/a) for a > 0.

    Accepts finite a >= 0 and is accurate from the linear small-a regime
    through the log(a) - gamma growth at large a.
    """
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"argument must be finite, got {a}")
    if a < 0:
        raise ValueError(f"argument must be nonnegative, got {a}")
    if a == 0.0:
        return 0.0
    return _g_logmoment(a)


# the analytic bounds call g at the same few SNR products over and over:
# in one pass of the benchmark's analytic workload 20 863 of 33 520 calls
# repeat an argument, and 4096 entries keep 99.7% of those hits
@lru_cache(maxsize=4096)
def _g_logmoment(a):
    # g_logmoment for a checked finite a > 0
    if a <= 1e-4:
        # alternating moments: a - a^2 + 2a^3 - 6a^4 + 24a^5 - 120a^6 + ...;
        # the dropped 120a^6 is at most 1.2e-18 relative here
        return a * (1.0 + a * (-1.0 + a * (2.0 + a * (-6.0 + 24.0 * a))))
    x = 1.0 / a
    if x >= 1.0:
        return _exp1_scaled_cf(x)
    return math.exp(x) * _exp1_series(x)


@lru_cache(maxsize=8)
def _laggauss(order):
    nodes, weights = np.polynomial.laguerre.laggauss(order)
    if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
        raise ValueError(f"Gauss-Laguerre rule of order {order} is not representable")
    return nodes, weights


def g_logmoment_gauss(a, order=96):
    """Gauss-Laguerre evaluation of E[log(1 + a Z)]; cross-check route.

    Exact-weight quadrature in z, accurate to machine precision for
    moderate a; at very large a the integrand's log kink costs a few
    digits, so the primary route is g_logmoment.
    """
    a = float(a)
    if a < 0:
        raise ValueError(f"argument must be nonnegative, got {a}")
    nodes, weights = _laggauss(int(order))
    return float(np.dot(weights, np.log1p(a * nodes)))


def _szego_rect(f_d, c):
    # closed form for the flat density: 2 f_d log(1 + c/(2 f_d))
    return 2.0 * f_d * math.log1p(c / (2.0 * f_d))


def szego_log_integral(model, c):
    """Spectral log integral int log(1 + c S_h(f)/sigma_h2) df over one period.

    The normalization S_h/sigma_h2 makes the result depend only on the
    spectral shape; c carries the SNR-like scaling.  Nonnegative, zero at
    c = 0, and maximized over equal-support shapes by the flat density.
    """
    c = float(c)
    if c < 0:
        raise ValueError(f"c must be nonnegative, got {c}")
    if c == 0.0:
        return 0.0
    if isinstance(model, Rectangular):
        return _szego_rect(model.f_d, c)
    s2 = model.sigma_h2
    return model.transform(lambda s: np.log1p(c * s / s2))


def _mean_stderr(vals):
    # sample mean and its standard error sqrt(biased variance / n); every
    # Monte Carlo estimate in the package reduces its samples here
    mean = float(np.mean(vals))
    var = float(np.var(vals))
    return mean, math.sqrt(var / len(vals))


# rows per block of the direct log-mixture kernel: (rows x points) work
# buffers.  At 100 points a block of 512 rows keeps the three buffers near
# 1.3 MB, in cache; 16384-row blocks (41 MB) made 10^5-sample estimates
# about a fifth slower.  256 and 1024 rows time the same.
_CHUNK = 512


def _log_mix(y, centers, xs, scale):
    """Per row i, log sum_j exp(-|y_i - centers_i xs_j|^2 / scale), summed
    over every point.

    The split-max log-sum-exp (Blanchard, Higham & Higham 2021), with the
    operations of scipy.special.logsumexp in its order, so every value is
    bit for bit what logsumexp(-d2 / scale, axis=1) gives: the row maxima
    are taken out of the sum and counted, the rest are summed after the
    shift.  Runs in place on one set of buffers, one block of _CHUNK rows
    at a time.  A row whose distances all overflow gives -inf, a NaN
    distance gives NaN.
    """
    # the complex product of logsumexp's operands, with the cast done once
    centers = np.asarray(centers, dtype=complex)
    n, m = len(y), len(xs)
    out = np.empty(n)
    rows = min(n, _CHUNK)
    cbuf, buf, mask = (np.empty((rows, m), dtype=complex), np.empty((rows, m)),
                       np.empty((rows, m), dtype=bool))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            k = stop - start
            c, a, top = cbuf[:k], buf[:k], mask[:k]
            np.multiply(centers[start:stop, None], xs[None, :], out=c)
            np.subtract(y[start:stop, None], c, out=c)
            np.abs(c, out=a)
            np.square(a, out=a)
            np.divide(a, -scale, out=a)
            a_max = a.max(axis=1)
            np.equal(a, a_max[:, None], out=top)
            np.subtract(a, a_max[:, None], out=a)
            np.exp(a, out=a)
            a[top] = 0.0
            s = a.sum(axis=1)
            ties = np.count_nonzero(top, axis=1).astype(float)
            # logsumexp skips s = 0 here; 0 / ties is 0 as every finite row has a tie
            s /= ties
            out[start:stop] = np.log1p(s) + np.log(ties) + a_max
    return out


# rows per block of the m-PSK kernel; at 100 points its window is 26
# columns, so a block's window buffer stays near 850 kB
_PSK_BLOCK = 4096
# exponent gap below the nearest phase beyond which the m-PSK window stops:
# e^-40 = 4e-18 of the peak term for the first phase left out
_PSK_GAP = 40.0


@lru_cache(maxsize=16)
def _psk_window(m):
    """(cut, cos_k, sin_k) of the m-PSK log-mixture kernel for m phases.

    cut is the largest kappa found, by bisection on [0, m^2], at which
    2 I_m(kappa) / I_0(kappa) < 1e-16: up to it the Jacobi-Anger series
    is its first term to rounding (the ratio grows with kappa).  Above it
    the kernel sums the nearest phase and the window of offsets k = +-1 ..
    +-J around it, J the least for which every phase outside sits at least
    _PSK_GAP below the nearest one in the exponent at kappa = cut (the gap
    grows with kappa), or all m - 1 other phases where 2J + 1 would reach
    m.  cos_k and sin_k are cos(k pi / m) and sin(k pi / m) over those k.
    """
    lo, hi = 0.0, float(m * m)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * special.ive(m, mid) < 1e-16 * special.i0e(mid):
            lo = mid
        else:
            hi = mid
    cut = lo
    # phi is within pi / m of the nearest phase, so every phase beyond offset
    # j lies 2 kappa (sin^2(pi (j + 1/2) / m) - sin^2(pi / (2 m))) or more below it
    j = 1
    while 2 * j + 1 < m and 2.0 * cut * (math.sin(math.pi * (j + 0.5) / m) ** 2
                                         - math.sin(0.5 * math.pi / m) ** 2) < _PSK_GAP:
        j += 1
    k = np.arange(-j, j + 1) if 2 * j + 1 < m else np.arange(m) - (m - 1) // 2
    k = k[k != 0]
    cos_k, sin_k = np.cos(k * math.pi / m), np.sin(k * math.pi / m)
    # every call shares them
    cos_k.flags.writeable = sin_k.flags.writeable = False
    return cut, cos_k, sin_k


def _log_mix_psk(y, centers, m, scale):
    """Per row i, log sum_j exp(-|y_i - centers_i x_j|^2 / scale) over the
    m-PSK phases x_j = e^(2 pi i j / m), without the sum over all m.

    With kappa = 2 |y| |c| / scale and phi = arg(y conj(c)), each distance is
    |y - c x_j|^2 / scale = (|y| - |c|)^2 / scale + 2 kappa sin^2((phi - 2 pi j / m) / 2),
    so a row is -(|y| - |c|)^2 / scale plus the log of a sum over phases
    (Abramowitz & Stegun 9.6):
    - kappa up to the cut of _psk_window: log m + log i0e(kappa), the first
      term of the Jacobi-Anger series m [I_0 + 2 sum_k I_km cos(k m phi)] e^-kappa;
    - above it: a log-sum-exp over the window of phases nearest phi, each
      exponent in the sin^2 form (cos - 1 loses digits at large kappa),
      shifted by the nearest one.
    Within 1e-13 of 40-digit mpmath plus 2e-15 times the value's
    sensitivity to the inputs' moduli and phase (test_quadrature).

    Rows run in blocks of _PSK_BLOCK.  A row whose distances all overflow
    gives -inf, a NaN input gives NaN, and centers_i = 0 gives
    log m - |y_i|^2 / scale.
    """
    cut, cos_k, sin_k = _psk_window(m)
    step = 2.0 * math.pi / m
    log_m = math.log(m)
    out = np.empty(len(y))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, len(y), _PSK_BLOCK):
            yb = y[start:start + _PSK_BLOCK]
            cb = centers[start:start + _PSK_BLOCK]
            ay, ac = np.abs(yb), np.abs(cb)
            d = ay - ac
            d2 = d * d / scale
            kappa = 2.0 * ay * ac / scale
            row = -d2
            small = kappa <= cut
            row[small] += log_m + np.log(special.i0e(kappa[small]))
            big = np.flatnonzero(~small)
            if big.size:
                phi = np.angle(yb[big]) - np.angle(cb[big])
                half = 0.5 * (phi - step * np.rint(phi / step))
                # t_k = sqrt(2 kappa) sin((phi - 2 pi (j0 + k) / m) / 2), j0 the
                # nearest phase, through the angle sum; |t_0| is the smallest
                root = 2.0 * np.sqrt(ay[big]) * np.sqrt(ac[big] / scale)
                t0 = root * np.sin(half)
                t = np.multiply.outer(t0, cos_k)
                t -= np.multiply.outer(root * np.cos(half), sin_k)
                np.square(t, out=t)
                t0 *= t0
                # an overflowing t_0^2 leaves every term at 0, not inf - inf
                np.subtract(np.minimum(t0, _FLOAT_MAX)[:, None], t, out=t)
                np.exp(t, out=t)
                row[big] += np.log1p(t.sum(axis=1)) - t0
            # |y - c x_j| >= ||y| - |c||, so the row is -inf with d^2
            row[d2 == math.inf] = -math.inf
            out[start:start + _PSK_BLOCK] = row
    return out
