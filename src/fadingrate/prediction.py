"""One-step LMMSE prediction of the fading process from noisy observations.

The finite-horizon error variance is the Toeplitz quadratic form evaluated
in its power-conjugated shape, which stays regular when individual past
powers vanish.  The infinite-horizon constant-power error has the spectral
closed form; a circulant surrogate and an exact rank-one decomposition in a
single past power round out the toolbox that the convexity checks and the
prediction-based rate bounds build on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

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
    covariance of the fading vector (h_1, ..., h_n)."""

    lags: tuple
    n: int

    def __post_init__(self):
        lags = tuple(float(x) for x in self.lags)
        if len(lags) != self.n or self.n < 1:
            raise ValueError("need exactly n lag values r(0..n-1)")
        if not lags[0] > 0:
            raise ValueError("r(0) must be positive")
        object.__setattr__(self, "lags", lags)

    @classmethod
    def from_model(cls, model: PsdModel, n: int) -> "ToeplitzCov":
        return cls(tuple(model.autocorr(np.arange(n)).tolist()), n)

    def matrix(self) -> np.ndarray:
        return linalg.toeplitz(np.asarray(self.lags))

    def validate(self):
        """Raise if the Toeplitz matrix is not positive semidefinite
        (tolerance 1e-10 r(0), checked by jittered Cholesky)."""
        try:
            _cholesky_in_place(self.matrix(), 1e-10 * self.lags[0])
        except linalg.LinAlgError:
            raise ValueError("covariance lags do not define a PSD Toeplitz matrix")


@dataclass(frozen=True)
class PowerProfile:
    """Past transmit powers z_k >= 0; z[k] is the power k+1 steps back."""

    z: tuple

    def __post_init__(self):
        z = tuple(float(x) for x in self.z)
        if any(v < 0 for v in z):
            raise ValueError("powers must be nonnegative")
        object.__setattr__(self, "z", z)


def _cholesky_in_place(a, shift):
    """Lower Cholesky factor of a + shift I for a symmetric C-ordered a,
    formed in a's memory: a.T is the same matrix in Fortran order, which
    LAPACK factors without a copy.  Raises linalg.LinAlgError when
    a + shift I is not positive definite."""
    a.flat[:: len(a) + 1] += shift
    return linalg.cholesky(a.T, lower=True, overwrite_a=True)


def _past_system(cov: ToeplitzCov):
    r = np.asarray(cov.lags)
    return r[0], linalg.toeplitz(r[: cov.n - 1]), r[1:]


def _lmmse(cov: ToeplitzCov, z: PowerProfile, sigma_n2):
    """The one-step LMMSE system of the past: returns (s, b, w) with
    s = sqrt(z), b = S r and the weights w = (S R S + sigma_n2 I)^{-1} b,
    S = diag(s).  The prediction from the past observations y is w @ y and
    its error variance r(0) - b @ w."""
    _, m, r_cross = _past_system(cov)
    s = np.sqrt(np.asarray(z.z))
    for i, s_i in enumerate(s):
        m[i] *= s_i * s  # (s_i s_j) R_ij row by row: no n x n outer product
    b = s * r_cross
    return s, b, linalg.cho_solve((_cholesky_in_place(m, sigma_n2), True), b)


def pred_error_finite(cov: ToeplitzCov, z: PowerProfile, sigma_n2) -> float:
    """LMMSE error variance of h_0 given y_{-k} = h_{-k} x_{-k} + n_{-k},
    |x_{-k}|^2 = z[k-1], for k = 1..n-1.

    Evaluates r(0) - b^H (S R S + sigma_n2 I)^{-1} b with S = diag(sqrt(z))
    and b = S r, so zero powers are perfectly regular (their rows simply
    carry no information).  Result clamped to [0, r(0)].
    """
    sigma_n2 = float(sigma_n2)
    if not sigma_n2 > 0:
        raise ValueError("sigma_n2 must be positive")
    if len(z.z) != cov.n - 1:
        raise ValueError(f"power profile must have length {cov.n - 1}, got {len(z.z)}")
    cov.validate()
    r0 = cov.lags[0]
    _, b, w = _lmmse(cov, z, sigma_n2)
    val = r0 - float(b @ w)
    return min(max(val, 0.0), r0)


def pred_error_cm_infinite(model: PsdModel, power, sigma_n2) -> float:
    """Prediction error variance from an infinite constant-power past:
    (sigma_n2/power) [exp(int log(1 + power S_h/sigma_n2) df) - 1].

    Decreasing in power; tends to sigma_h2 as power -> 0 and, for
    band-limited densities, to 0 as power -> infinity.
    """
    power = float(power)
    sigma_n2 = float(sigma_n2)
    if power < 0:
        raise ValueError("power must be nonnegative")
    if not sigma_n2 > 0:
        raise ValueError("sigma_n2 must be positive")
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
    fixed.  Derived by a Sherman-Morrison step on the regularized system
    (Z R + sigma_n2 I), which is rank-one in t.
    """
    sigma_n2 = float(sigma_n2)
    if not sigma_n2 > 0:
        raise ValueError("sigma_n2 must be positive")
    if len(z.z) != cov.n - 1:
        raise ValueError(f"power profile must have length {cov.n - 1}, got {len(z.z)}")
    if not 0 <= i < cov.n - 1:
        raise ValueError(f"index {i} outside the past horizon")
    cov.validate()
    r0, big_r, r_cross = _past_system(cov)
    z0 = np.asarray(z.z, dtype=float).copy()
    z0[i] = 0.0
    n0 = z0[:, None] * big_r + sigma_n2 * np.eye(cov.n - 1)  # Z0 R + sigma_n2 I
    u = np.linalg.solve(n0, np.eye(cov.n - 1)[:, i])
    w0 = np.linalg.solve(n0, z0 * r_cross)
    phi = float(r_cross @ u)
    lam = float(big_r[i] @ u)
    s0 = r0 - float(r_cross @ w0)
    a = sigma_n2 * phi * phi
    return s0, a, lam


def convexity_check(cov: ToeplitzCov, z: PowerProfile, x_power, sigma_n2, i: int, trials: int = 50) -> bool:
    """Verify the single-power structure of the prediction error.

    Sweeps z[i] over a `trials`-point grid and checks that
    K(t) = log(1 + (x_power/sigma_n2) sigma2(t)) has nonnegative second
    differences (tolerance -1e-9), that the rational form
    sigma2(t) = s0 - a t/(1 + lam t) reproduces every grid value within
    1e-8, and that a >= 0, with (s0, a, lam) from the exact rank-one
    decomposition pred_rational_exact at every horizon.
    Raises if the covariance is not PSD; returns False on any violation.
    """
    x_power = float(x_power)
    if x_power < 0:
        raise ValueError("x_power must be nonnegative")
    if trials < 3:
        raise ValueError("need at least 3 grid points")
    if not 0 <= i < cov.n - 1:
        raise ValueError(f"index {i} outside the past horizon")
    cov.validate()
    zz = np.asarray(z.z, dtype=float)
    t_max = 10.0 * max(x_power, zz.max() if zz.size else 0.0, 0.1)
    t_grid = np.linspace(0.0, t_max, trials)

    def sigma2(t):
        zt = zz.copy()
        zt[i] = t
        return pred_error_finite(cov, PowerProfile(tuple(zt)), sigma_n2)

    s_vals = np.array([sigma2(t) for t in t_grid])
    k_vals = np.log1p((x_power / sigma_n2) * s_vals)
    if np.any(np.diff(k_vals, 2) < -1e-9):
        return False

    s0, a, lam = pred_rational_exact(cov, z, sigma_n2, i)
    if a < 0 and a > -1e-14:
        a = 0.0
    if a < 0:
        return False
    pred = s0 - a * t_grid / (1.0 + lam * t_grid)
    return bool(np.max(np.abs(pred - s_vals)) <= 1e-8)
