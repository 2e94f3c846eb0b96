"""One-step LMMSE prediction of the fading process from noisy observations.

A ToeplitzCov passes the Schur PSD verdict when it is built.  The
finite-horizon error variance is the Toeplitz quadratic form evaluated in
its power-conjugated shape, which stays regular when individual past
powers vanish; one in-place Cholesky (_lmmse) solves every past system
that is not constant-power, the exact rank-one decomposition in a single
past power included.  The infinite-horizon constant-power error has the
spectral closed form, and a circulant surrogate rounds out the toolbox
that the convexity checks and the prediction-based rate bounds build on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PsdModel
from .quadrature import szego_log_integral

__all__ = [
    "ToeplitzCov",
    "PowerProfile",
    "pred_error_finite",
    "pred_error_cm_infinite",
    "circulant_eigs",
    "toeplitz_circulant_weak_norm",
    "pred_rational_exact",
    "convexity_check",
]


@dataclass(frozen=True)
class ToeplitzCov:
    """Autocorrelation lags r_h(0..n-1) defining a Hermitian Toeplitz
    covariance of the fading vector (h_1, ..., h_n).

    Valid once built: the lags must be finite with r(0) > 0, and the
    Toeplitz matrix positive semidefinite (tolerance 1e-10 r(0)) by the
    Schur recursion, which forms no matrix and keeps O(n) memory."""

    lags: tuple

    def __post_init__(self):
        lags = tuple(float(x) for x in self.lags)
        if not lags:
            raise ValueError("need at least the lag value r(0)")
        if not all(map(math.isfinite, lags)):
            raise ValueError("covariance lags must be finite")
        if not lags[0] > 0:
            raise ValueError("r(0) must be positive")
        try:
            for _ in _schur(lags, 1e-10 * lags[0]):
                pass
        except np.linalg.LinAlgError:
            raise ValueError("covariance lags do not define a PSD Toeplitz matrix")
        object.__setattr__(self, "lags", lags)

    @property
    def n(self) -> int:
        return len(self.lags)

    @classmethod
    def from_model(cls, model: PsdModel, n: int) -> "ToeplitzCov":
        return cls(tuple(model.autocorr(np.arange(n)).tolist()))


@dataclass(frozen=True)
class PowerProfile:
    """Finite past transmit powers z_k >= 0; z[k] is the power k+1 steps back."""

    z: tuple

    def __post_init__(self):
        z = tuple(float(x) for x in self.z)
        if not all(map(math.isfinite, z)):
            raise ValueError(f"powers must be finite, got {[v for v in z if not math.isfinite(v)]}")
        if any(v < 0 for v in z):
            raise ValueError("powers must be nonnegative")
        object.__setattr__(self, "z", z)


def _schur(lags, shift):
    """Yield the columns L[k:, k] of the lower Cholesky factor of
    Toeplitz(lags) + shift I (r(0) + shift > 0) by the Schur algorithm on
    the displacement generators a, b (Kailath & Sayed 1995), weakly stable
    for positive-definite Toeplitz matrices (Bojanczyk, Brent, de Hoog &
    Sweet 1995).  O(n) memory and no BLAS, so the bits do not depend on the
    thread count.  Raises np.linalg.LinAlgError unless positive definite."""
    t = np.array(lags, dtype=float)
    t[0] += shift
    a = t / math.sqrt(t[0])
    b = np.concatenate(([0.0], a[1:]))
    yield a
    for _ in range(1, len(t)):
        a, b = a[:-1], b[1:]  # rows k..n-1 of a shifted down and of b
        rho = b[0] / a[0]
        if not (a[0] > 0 and abs(rho) < 1):
            raise np.linalg.LinAlgError("Toeplitz matrix is not positive definite")
        c = math.sqrt((1.0 - rho) * (1.0 + rho))
        a = (a - rho * b) / c  # the hyperbolic rotation that zeroes b_k, mixed form
        b = c * b - rho * a
        yield a


def _lmmse(cov: ToeplitzCov, s, sigma_n2, *cols):
    """The one-step LMMSE system of the past for the power roots s = sqrt(z):
    with S = diag(s) and M = S R S + sigma_n2 I, returns B = S [r(1..), *cols]
    and M^{-1} B by one in-place Cholesky factor of M.  Column 0 gives b = S r
    and the weights w = M^{-1} b: the prediction from the past observations
    y is w @ y, and its error variance r(0) - b @ w.  Lags, powers and noise
    are finite by their checks and an overflow raises FloatingPointError, so
    scipy's finiteness scans (an n x n copy) are skipped."""
    from scipy import linalg
    r = np.asarray(cov.lags)
    m = linalg.toeplitz(r[:-1])
    with np.errstate(over="raise"):
        for i, s_i in enumerate(s):
            m[i] *= s_i * s  # (s_i s_j) R_ij row by row: no n x n outer product
        rhs = s[:, None] * np.column_stack((r[1:], *cols))
        m.flat[:: len(m) + 1] += sigma_n2  # symmetric: m.T is m in Fortran order, factored in place
    chol = linalg.cholesky(m.T, lower=True, overwrite_a=True, check_finite=False)
    return rhs, linalg.cho_solve((chol, True), rhs, check_finite=False)


def _check_noise(sigma_n2) -> float:
    sigma_n2 = float(sigma_n2)
    if not 0.0 < sigma_n2 < math.inf:
        raise ValueError(f"sigma_n2 must be finite and positive, got {sigma_n2}")
    return sigma_n2


def _check_past(cov: ToeplitzCov, z: PowerProfile, sigma_n2) -> float:
    sigma_n2 = _check_noise(sigma_n2)
    if len(z.z) != cov.n - 1:
        raise ValueError(f"power profile must have length {cov.n - 1}, got {len(z.z)}")
    return sigma_n2


def pred_error_finite(cov: ToeplitzCov, z: PowerProfile, sigma_n2) -> float:
    """LMMSE error variance of h_0 given y_{-k} = h_{-k} x_{-k} + n_{-k},
    |x_{-k}|^2 = z[k-1], for k = 1..n-1.

    Evaluates r(0) - b^H (S R S + sigma_n2 I)^{-1} b with S = diag(sqrt(z))
    and b = S r, so zero powers are perfectly regular (their rows simply
    carry no information).  Result clamped to [0, r(0)].  A constant-power
    past p is the Toeplitz system p R + sigma_n2 I, solved through its
    Schur columns in O(n) memory without scipy; any other profile factors
    the dense (n-1) x (n-1) system with LAPACK.
    """
    sigma_n2 = _check_past(cov, z, sigma_n2)
    r0 = cov.lags[0]
    if len(set(z.z)) == 1:
        # b^H (p R + sigma_n2 I)^{-1} b = |y|^2 with L y = b, L the Schur
        # factor, by forward substitution one column at a time
        p = z.z[0]
        r = np.asarray(cov.lags)
        y = math.sqrt(p) * r[1:]
        with np.errstate(over="raise"):  # p R + sigma_n2 I must fit in double precision
            for k, col in enumerate(_schur(p * r[:-1], sigma_n2)):
                y[k] /= col[0]
                y[k + 1 :] -= y[k] * col[1:]
        val = r0 - float(y @ y)
    else:
        b, w = _lmmse(cov, np.sqrt(np.asarray(z.z)), sigma_n2)
        val = r0 - float(b[:, 0] @ w[:, 0])
    return min(max(val, 0.0), r0)


def pred_error_cm_infinite(model: PsdModel, power, sigma_n2) -> float:
    """Prediction error variance from an infinite constant-power past:
    (sigma_n2/power) [exp(int log(1 + power S_h/sigma_n2) df) - 1].

    Decreasing in power; tends to sigma_h2 as power -> 0 and, for
    band-limited densities, to 0 as power -> infinity.
    """
    power = float(power)
    if not 0.0 <= power < math.inf:
        raise ValueError(f"power must be finite and nonnegative, got {power}")
    sigma_n2 = _check_noise(sigma_n2)
    if power == 0.0:
        return model.sigma_h2
    c = power * model.sigma_h2 / sigma_n2
    return sigma_n2 / power * math.expm1(szego_log_integral(model, c))


def circulant_eigs(model: PsdModel, n: int) -> np.ndarray:
    """Eigenvalues of the circulant surrogate covariance: the density
    sampled at frequencies k/n (wrapped to (-1/2, 1/2]), times the power."""
    if n < 2:
        raise ValueError("n must be at least 2")
    eigs = np.empty(n)
    for k in range(n):
        f = k / n
        if f > 0.5:
            f -= 1.0
        eigs[k] = model.psd(f)
    return eigs


def toeplitz_circulant_weak_norm(model: PsdModel, n: int) -> float:
    """Weak (normalized Frobenius) norm of the difference between the exact
    Toeplitz covariance and its circulant surrogate at size n.

    Vanishes as n grows whenever the autocorrelation is absolutely
    summable, which is what makes the two matrix families asymptotically
    equivalent.
    """
    eigs = circulant_eigs(model, n)
    c = np.fft.ifft(eigs).real  # first circulant column; real by symmetry
    r = model.autocorr(np.arange(n))
    d0 = r[0] - c[0]
    dl = r[1:] - c[1:]
    weights = n - np.arange(1, n)
    total = n * d0 * d0 + 2.0 * float(weights @ (dl * dl))
    return math.sqrt(total / n)


def pred_rational_exact(cov: ToeplitzCov, z: PowerProfile, sigma_n2, i: int):
    """Exact rank-one decomposition of the finite prediction error in the
    i-th past power: sigma2(t) = s0 - a t / (1 + lam t) with a >= 0.

    Returns (s0, a, lam) where t replaces z[i] and all other powers stay
    fixed.  A Sherman-Morrison step on Z R + sigma_n2 I, rank-one in t, whose
    row i at t = 0 is sigma_n2 e_i^T: with S0 = diag(sqrt(z)) but S0_ii = 0,
    M0 = S0 R S0 + sigma_n2 I, b0 = S0 r, c = S0 R e_i, w0 = M0^{-1} b0 and
    v = M0^{-1} c, s0 = r(0) - b0.w0, a = sigma_n2 phi^2 with
    phi = (r(i+1) - b0.v)/sigma_n2, and lam = (r(0) - c.v)/sigma_n2.
    """
    sigma_n2 = _check_past(cov, z, sigma_n2)
    if not 0 <= i < cov.n - 1:
        raise ValueError(f"index {i} outside the past horizon")
    r = np.asarray(cov.lags)
    s = np.sqrt(np.asarray(z.z))
    s[i] = 0.0
    rhs, x = _lmmse(cov, s, sigma_n2, r[abs(np.arange(cov.n - 1) - i)])  # column i of R
    (b0, c), (w0, v) = rhs.T, x.T
    r0 = cov.lags[0]
    phi = (cov.lags[i + 1] - float(b0 @ v)) / sigma_n2
    lam = (r0 - float(c @ v)) / sigma_n2
    return r0 - float(b0 @ w0), sigma_n2 * phi * phi, lam


def convexity_check(cov: ToeplitzCov, z: PowerProfile, x_power, sigma_n2, i: int) -> bool:
    """Verify the single-power structure of the prediction error.

    Sweeps z[i] over a 50-point grid and checks that
    K(t) = log(1 + (x_power/sigma_n2) sigma2(t)) has nonnegative second
    differences (tolerance -1e-9), that the rational form
    sigma2(t) = s0 - a t/(1 + lam t) reproduces every grid value within
    1e-8, with (s0, a, lam) from the exact rank-one decomposition
    pred_rational_exact at every horizon (a = sigma_n2 phi^2 >= 0 there).
    Returns False on any violation.
    """
    x_power = float(x_power)
    if x_power < 0:
        raise ValueError("x_power must be nonnegative")
    s0, a, lam = pred_rational_exact(cov, z, sigma_n2, i)  # checks the past and i
    sigma_n2 = float(sigma_n2)
    zz = np.asarray(z.z, dtype=float)
    t_max = 10.0 * max(x_power, zz.max(), 0.1)
    t_grid = np.linspace(0.0, t_max, 50)

    def sigma2(t):
        zt = zz.copy()
        zt[i] = t
        return pred_error_finite(cov, PowerProfile(tuple(zt)), sigma_n2)

    s_vals = np.array([sigma2(t) for t in t_grid])
    k_vals = np.log1p((x_power / sigma_n2) * s_vals)
    if np.any(np.diff(k_vals, 2) < -1e-9):
        return False

    pred = s0 - a * t_grid / (1.0 + lam * t_grid)
    return bool(np.max(np.abs(pred - s_vals)) <= 1e-8)
