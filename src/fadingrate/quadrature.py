"""Numerical workhorses: the exponential log-moment, Szego-type spectral
log integrals, the seeded draws and mean/stderr reduction every Monte Carlo
estimate shares, and the constant-modulus bounds' m-PSK log-mixture kernel.

``g_logmoment(a)`` evaluates E[log(1 + a Z)] for Z ~ Exp(1), the function
every Gaussian-input rate expression in the package reduces to.  It is
computed through the scaled exponential integral e^x E_1(x) with x = 1/a:
the asymptotic moment series for a <= 1/600, scipy's E_1 above it, within
1.2e-15 relative of 40-digit mpmath over 1e-8 <= a <= 1e8.
``szego_log_integral`` is the closed form for the flat density and the
model's node/weight rule, memoized per (model, c), for the shaped ones.
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
_SQRT_HALF = 1.0 / math.sqrt(2.0)
# g_logmoment's switch from the moment series to scipy's E_1
_G_MOMENTS_UP_TO = 1.0 / 600.0


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


def _complex_normal(rng, size, out=None, work=None):
    # unit-variance proper complex Gaussian draws: size real parts, then
    # size imaginary parts from the stream.  A caller drawing repeatedly
    # passes out (complex, size) and work (float, (2, size)) to reuse them.
    # Bit for bit (a + 1j*b)/sqrt(2): numpy divides a complex array by a
    # real scalar by multiplying with its reciprocal.
    if out is None:
        out = np.empty(size, dtype=complex)
    if work is None:
        work = np.empty((2, size))
    rng.standard_normal(out=work)
    out.real = work[0]
    out.imag = work[1]
    out *= _SQRT_HALF
    return out


def _finite_nonnegative(x, name):
    # float(x), refused with ValueError unless finite and >= 0
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    if x < 0:
        raise ValueError(f"{name} must be nonnegative, got {x}")
    return x


def g_logmoment(a):
    """E[log(1 + a Z)] for Z ~ Exp(1); equals e^(1/a) E_1(1/a) for a > 0.

    Accepts finite a >= 0 and is accurate from the linear small-a regime
    through the log(a) - gamma growth at large a.
    """
    a = _finite_nonnegative(a, "argument")
    if a == 0.0:
        return 0.0
    return _g_logmoment(a)


# the analytic bounds call g at the same few SNR products over and over:
# in one pass of the benchmark's analytic workload 20 863 of 33 520 calls
# repeat an argument, and 4096 entries keep 99.7% of those hits
@lru_cache(maxsize=4096)
def _g_logmoment(a):
    # g_logmoment for a checked finite a > 0
    if a <= _G_MOMENTS_UP_TO:
        # asymptotic moment series of e^x E_1(x) at x = 1/a (Abramowitz &
        # Stegun 5.1.51), sum_{k=0..8} (-1)^k k! a^(k+1); the first dropped
        # term, 9! a^10, is at most 4e-20 of the value here
        return a * (1.0 + a * (-1.0 + a * (2.0 + a * (-6.0 + a * (24.0 + a * (
            -120.0 + a * (720.0 + a * (-5040.0 + a * 40320.0))))))))
    # x < 600 keeps E_1(x) >= 4e-264 a normal double
    x = 1.0 / a
    return math.exp(x) * float(special.exp1(x))


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
    a = _finite_nonnegative(a, "argument")
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
    c = _finite_nonnegative(c, "c")
    if c == 0.0:
        return 0.0
    if isinstance(model, Rectangular):
        return _szego_rect(model.f_d, c)
    return _szego_shaped(model, c)


# one sweep row asks for the same integral in several bounds: in one pass of
# the benchmark's analytic workload 3 264 of 7 520 Jakes and raised-cosine
# calls repeat a (model, c), and no job needs over 2 128 entries
@lru_cache(maxsize=4096)
def _szego_shaped(model, c):
    # szego_log_integral for a Jakes or raised-cosine model and checked finite c > 0
    s2 = model.sigma_h2
    return model.transform(lambda s: np.log1p(c * s / s2))


def _mean_stderr(vals):
    # sample mean and its standard error sqrt(biased variance / n); every
    # Monte Carlo estimate in the package reduces its samples here
    mean = float(np.mean(vals))
    var = float(np.var(vals))
    return mean, math.sqrt(var / len(vals))


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
