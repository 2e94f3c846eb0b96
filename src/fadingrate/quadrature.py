"""Numerical workhorses: the exponential log-moment, Szego-type spectral
log integrals, the seeded draws and mean/stderr reduction every Monte Carlo
estimate shares, the constant-modulus bounds' m-PSK log-mixture kernel, and
BoundValue, the one record every rate bound, entropy-rate bound and Monte
Carlo estimate in the package returns.

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
from functools import lru_cache, partial

import numpy as np
from scipy import special

from .model import Rectangular, _finite_integral

__all__ = [
    "EULER_GAMMA",
    "BoundValue",
    "QuadratureConfig",
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
class BoundValue:
    """A rate bound, an entropy-rate bound or a Monte Carlo estimate, in nats.

    clamped records whether the nonnegativity / coherent-capacity clamp
    actually changed the value; unclamped retains the raw bound for gap
    arithmetic.  alpha_used is the average-power fraction the bound was
    evaluated at (1 unless a peak constraint made a smaller value optimal).
    stderr is the standard error of a Monte Carlo value; err_bound is the
    refined entropy bound's error estimate (an estimate, not a proven bound).
    """

    value: float
    clamped: bool = False
    alpha_used: float = 1.0
    unclamped: float | None = None
    stderr: float | None = None
    err_bound: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.alpha_used <= 1.0:
            raise ValueError(f"alpha_used must lie in [0, 1], got {self.alpha_used}")


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


_NORMAL_CHUNK = 1 << 16  # floats per draw of _complex_normal: 512 KiB


def _complex_normal(rng, size, out=None, work=None):
    # unit-variance proper complex Gaussian draws: size real parts, then
    # size imaginary parts from the stream, drawn len(work) at a time into
    # a float buffer of min(size, _NORMAL_CHUNK) by default; the generator
    # gives the same stream in chunks as in one call.  A caller drawing
    # repeatedly passes out (complex, size) and work (float, any nonzero
    # length) to reuse them.  Bit for bit (a + 1j*b)/sqrt(2): numpy divides
    # a complex array by a real scalar by multiplying with its reciprocal.
    if out is None:
        out = np.empty(size, dtype=complex)
    if work is None:
        work = np.empty(max(min(size, _NORMAL_CHUNK), 1))
    for part in (out.real, out.imag):
        for k in range(0, size, len(work)):
            part[k : k + len(work)] = rng.standard_normal(out=work[: size - k])
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
    # closed form for the flat density: 2 f_d log(1 + c/(2 f_d)), refused
    # with the rule sums' OverflowError once c/(2 f_d) overflows, where
    # log1p would pass the inf on
    return _finite_integral(2.0 * f_d * math.log1p(c / (2.0 * f_d)))


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


@np.errstate(invalid="ignore")
def _mean_stderr(vals):
    # sample mean and its standard error sqrt(biased variance / n); every
    # Monte Carlo estimate in the package reduces its samples here.  vals
    # is one array or an iterable of sample blocks, whose means and biased
    # variances are merged pairwise (Chan, Golub & LeVeque 1979); an array,
    # or a first block, is taken as it is, so one block keeps its bits.  A
    # non-finite mean or variance raises FloatingPointError, with no warning.
    n = 0
    for block in [vals] if isinstance(vals, np.ndarray) else vals:
        k, b_mean, b_var = len(block), float(np.mean(block)), float(np.var(block))
        if n == 0:
            mean, var = b_mean, b_var
        else:
            w, delta = k / (n + k), b_mean - mean
            mean += w * delta
            var = (1.0 - w) * var + w * b_var + w * (1.0 - w) * delta * delta
        n += k
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise FloatingPointError(f"overflow: Monte Carlo mean {mean}, variance {var}")
    return mean, math.sqrt(var / n)


# exponent gap below the nearest phase beyond which the m-PSK window stops:
# e^-40 = 4e-18 of the peak term for the first phase left out
_PSK_GAP = 40.0
# window exponents below this give a term of exactly 0 in the m-PSK kernel
_PSK_EXP_FLOOR = -700.0
# pieces per unit of v = log1p(kappa) and their degree in the m-PSK
# kernel's interpolant of log i0e(kappa) / v
_PSK_PIECES, _PSK_DEGREE = 192, 4


def _psk_log_i0e_table(cut):
    # (per, coefs) of the interpolant on [0, cut]: the pieces are 1/per wide
    # in v over a span a hair past v(cut), so that kappa = cut lands inside
    # the last one; each interpolates q(v) = log i0e(kappa) / v at the d + 1
    # Chebyshev points of the first kind, and coefs[k] holds every piece's
    # coefficient of u^(d - k), u in [0, 1] the position within the piece
    d = _PSK_DEGREE
    span = math.log1p(cut) * (1.0 + 1e-12)
    pieces = max(1, math.ceil(_PSK_PIECES * span))
    per = pieces / span
    theta = (np.arange(d + 1) + 0.5) * (math.pi / (d + 1))
    v = (np.arange(pieces)[:, None] + 0.5 * (1.0 + np.cos(theta))) / per
    q = np.log(special.i0e(np.expm1(v))) / v
    # Chebyshev coefficients first: straight to monomials the nearly equal
    # node values would cancel in coefficients far larger than they are
    cheb = (q[:, :, None] * np.cos(np.multiply.outer(theta, np.arange(d + 1)))).sum(axis=1)
    cheb *= 2.0 / (d + 1)
    cheb[:, 0] *= 0.5
    # mono[k, p]: the coefficient of u^p in T_k(2 u - 1)
    mono = np.zeros((d + 1, d + 1))
    mono[0, 0] = 1.0
    mono[1, :2] = -1.0, 2.0
    for k in range(1, d):
        mono[k + 1] = -2.0 * mono[k] - mono[k - 1]
        mono[k + 1, 1:] += 4.0 * mono[k, :-1]
    coefs = (cheb[:, :, None] * mono).sum(axis=1).T[::-1].copy()
    coefs.flags.writeable = False
    return per, coefs


def _psk_log_i0e(per, coefs, kappa):
    # log i0e(kappa) for 0 <= kappa <= cut as v q(v), one Horner pass; v = 0
    # at kappa = 0 gives exactly 0, a NaN stays NaN, and rows above the cut
    # read a clipped piece and are the caller's to overwrite
    v = np.log1p(kappa)
    u = v * per
    i = u.astype(np.intp)
    u -= i
    acc = coefs[0].take(i, mode="clip")
    for c in coefs[1:]:
        acc *= u
        acc += c.take(i, mode="clip")
    acc *= v
    return acc


@lru_cache(maxsize=16)
def _psk_window(m):
    """(cut, cos_k, sin_k, log_i0e) of the m-PSK log-mixture kernel for m
    phases.

    cut is the largest kappa found, by bisection on [0, m^2] until the
    midpoint is an end, at which 2 I_m(kappa) / I_0(kappa) < 1e-16: up to
    it the Jacobi-Anger series is its first term to rounding (the ratio
    grows with kappa).  log_i0e(kappa) is log i0e(kappa) on [0, cut], from
    a piecewise interpolant built here once.  Above the cut the kernel
    sums the nearest phase and the window of offsets k = +-1 .. +-J around
    it, J the least for which every phase outside sits at least _PSK_GAP
    below the nearest one in the exponent at kappa = cut (the gap grows
    with kappa), or all m - 1 other phases where 2J + 1 would reach m.
    cos_k and sin_k are cos(k pi / m) and sin(k pi / m) over those k.
    """
    lo, hi = 0.0, float(m * m)
    mid = 0.5 * hi
    while lo < mid < hi:
        if 2.0 * special.ive(m, mid) < 1e-16 * special.i0e(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
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
    return cut, cos_k, sin_k, partial(_psk_log_i0e, *_psk_log_i0e_table(cut))


def _log_mix_psk(y, h, m):
    """Per row i, log sum_j exp(-|y_i - h_i x_j|^2) over the m-PSK phases
    x_j = e^(2 pi i j / m) for real h_i >= 0, without the sum over all m.

    With kappa = 2 |y| h and phi = arg y, each distance is
    |y - h x_j|^2 = (|y| - h)^2 + 2 kappa sin^2((phi - 2 pi j / m) / 2),
    so a row is -(|y| - h)^2 plus the log of a sum over phases
    (Abramowitz & Stegun 9.6):
    - kappa up to the cut of _psk_window: log m + log i0e(kappa), the first
      term of the Jacobi-Anger series m [I_0 + 2 sum_k I_km cos(k m phi)] e^-kappa;
    - above it: a log-sum-exp over the window of phases nearest phi, each
      exponent in the sin^2 form (cos - 1 loses digits at large kappa),
      shifted by the nearest one.  A term whose exponent is below
      _PSK_EXP_FLOOR = -700 is taken as exactly 0, not through an exp that
      underflows at 4-130 ns an element against about 1 ns elsewhere (most
      of the window from kappa about 2000).  That can move a row only where every window term is
      near e^-700 or below (kappa above about 350 / sin^2(pi / m), 3.5e5
      at m = 100), and then by at most 2J e^-700, about 2.6e-303 absolute.
    Within 1e-13 of 40-digit mpmath plus 2e-15 times the value's
    sensitivity to the inputs' moduli and phase (test_quadrature).

    log i0e(kappa) is v q(v) with v = log1p(kappa) and q piecewise quartic
    in v, _PSK_PIECES pieces per unit of v, each interpolating log(scipy's
    i0e) / v at its five Chebyshev points: within 1e-14 of 40-digit
    log I_0(kappa) - kappa over [0, cut] for every m of the tests
    (test_quadrature; 2.2e-15 at m = 100), five gathers and a Horner pass
    for a block instead of one scipy i0e per row.  The form kappa g(kappa),
    g = log i0e / kappa, turns the rounding of v into a relative error of
    g, up to 1.2e-14 at m = 1000; q is flat in v, so v q(v) keeps 4.4e-15.

    A row whose distances all overflow gives -inf, a NaN input gives NaN,
    and h_i = 0 gives log m - |y_i|^2.  The window buffer is rows x (2J)
    floats, so callers pass a block of rows at a time.
    """
    cut, cos_k, sin_k, log_i0e = _psk_window(m)
    step = 2.0 * math.pi / m
    with np.errstate(over="ignore", invalid="ignore"):
        ay = np.abs(y)
        d = ay - h
        d2 = d * d
        kappa = 2.0 * ay * h
        # the series' first term on every row, then the window rows redone
        row = log_i0e(kappa)
        row += math.log(m)
        big = np.flatnonzero(~(kappa <= cut))
        if big.size:
            phi = np.angle(y[big])
            half = 0.5 * (phi - step * np.rint(phi / step))
            # t_k = sqrt(2 kappa) sin((phi - 2 pi (j0 + k) / m) / 2), j0 the
            # nearest phase, through the angle sum; |t_0| is the smallest
            root = 2.0 * np.sqrt(ay[big]) * np.sqrt(h[big])
            t0 = root * np.sin(half)
            t = np.multiply.outer(t0, cos_k)
            t -= np.multiply.outer(root * np.cos(half), sin_k)
            np.square(t, out=t)
            t0 *= t0
            # an overflowing t_0^2 leaves every term at 0, not inf - inf
            np.subtract(np.minimum(t0, _FLOAT_MAX)[:, None], t, out=t)
            # exp is slow where it underflows: those terms are set to 0
            low = t < _PSK_EXP_FLOOR
            np.maximum(t, _PSK_EXP_FLOOR, out=t)
            np.exp(t, out=t)
            np.copyto(t, 0.0, where=low)
            row[big] = np.log1p(t.sum(axis=1)) - t0
        row -= d2
        # |y - h x_j| >= ||y| - h|, so the row is -inf with d^2
        row[d2 == math.inf] = -math.inf
    return row
