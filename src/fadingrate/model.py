"""Channel parameterization and fading spectral models.

The channel is a stationary Rayleigh flat-fading link y_k = h_k x_k + n_k
whose zero-mean proper Gaussian fading process is described by a symmetric,
compactly supported power spectral density S_h(f) on the normalized
frequency interval [-1/2, 1/2].  Bandlimitation to |f| <= f_d < 1/2 puts
the process in the nonregular regime: the one-step prediction error
vanishes as the observation SNR grows.

Autocorrelation functions r_h(l) are the inverse Fourier transforms of the
densities and carry the total power r_h(0) = sigma_h2.  All rates derived
from these models elsewhere in the package are in nats per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import special

__all__ = [
    "ChannelParams",
    "PsdModel",
    "Rectangular",
    "Jakes",
    "RaisedCosine",
]

# Graded Gauss-Legendre rule on u in [0, pi/2], singular at u = 0: panels of
# _PANEL_ORDER nodes, each 1/_PANEL_RATIO the width of the next, down to a
# panel [0, edge] with edge below _PANEL_FLOOR (25 panels, 400 nodes).  An
# ungraded rule loses up to 1e-6 relative where the log transition of
# log1p(c S) sits deep inside the edge layer (c near 1e-8 or 1e10).
_PANEL_ORDER = 16
_PANEL_RATIO = 4.0
_PANEL_FLOOR = 1e-14


def _check_freq(f):
    f = float(f)
    if not -0.5 <= f <= 0.5:
        raise ValueError(f"frequency {f} outside [-1/2, 1/2]")
    return abs(f)


def _check_power(sigma_h2):
    if not 0 < sigma_h2 < math.inf:
        raise ValueError(f"sigma_h2 must be positive and finite, got {sigma_h2}")


def _check_doppler(f_d):
    if not 0.0 < f_d < 0.5:
        raise ValueError(f"f_d must lie in (0, 0.5), got {f_d}")


@dataclass(frozen=True)
class ChannelParams:
    """Operating point of the fading channel.

    Attributes
    ----------
    sigma_h2 : float
        Fading power E|h_k|^2 (> 0, finite).
    sigma_n2 : float
        Additive noise power (> 0, finite).
    sigma_x2 : float
        Maximum average input power (>= 0, finite; zero is the noise-only edge
        case used by limit checks).
    f_d : float
        Normalized maximum Doppler frequency, 0 < f_d < 1/2.
    """

    sigma_h2: float = 1.0
    sigma_n2: float = 1.0
    sigma_x2: float = 1.0
    f_d: float = 0.1

    def __post_init__(self):
        if not (0 < self.sigma_h2 < math.inf and 0 < self.sigma_n2 < math.inf):
            raise ValueError("sigma_h2 and sigma_n2 must be positive and finite")
        if not 0 <= self.sigma_x2 < math.inf:
            raise ValueError("sigma_x2 must be nonnegative and finite")
        if not math.isfinite(self.rho):
            raise ValueError(f"SNR rho = sigma_x2 sigma_h2 / sigma_n2 must be finite, got {self.rho}")
        _check_doppler(self.f_d)

    @property
    def rho(self) -> float:
        """Average SNR sigma_x2 * sigma_h2 / sigma_n2 (recomputed, never stored)."""
        return self.sigma_x2 * self.sigma_h2 / self.sigma_n2

    def with_power(self, sigma_x2) -> "ChannelParams":
        """Same channel with a different average input power."""
        return ChannelParams(self.sigma_h2, self.sigma_n2, sigma_x2, self.f_d)


def _check_model(params: ChannelParams, model: PsdModel):
    if not math.isclose(model.sigma_h2, params.sigma_h2, rel_tol=1e-9):
        raise ValueError(
            f"model power {model.sigma_h2} does not match channel sigma_h2 {params.sigma_h2}"
        )
    if not math.isclose(model.f_d, params.f_d, rel_tol=1e-9):
        raise ValueError(f"model Doppler {model.f_d} does not match channel f_d {params.f_d}")


def _finite_integral(val):
    # the refusal of every rule sum w @ phi(S)
    if not math.isfinite(val):
        raise OverflowError("spectral integral overflows double precision")
    return val


def _lag_values(lag, r):
    # a scalar lag gives a float, an array of lags an array
    return float(r) if np.ndim(lag) == 0 else r


@lru_cache(maxsize=1)
def _leggauss():
    return np.polynomial.legendre.leggauss(_PANEL_ORDER)


def _panel_rule(edges):
    # _PANEL_ORDER Gauss-Legendre nodes and weights on each panel
    # [edges[k], edges[k+1]]
    x, w = _leggauss()
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (hi + lo) + half * x).ravel(), (half * w).ravel()


@lru_cache(maxsize=1)
def _graded_rule():
    """Nodes and weights on [0, pi/2], graded toward the singular end u = 0."""
    edges = [math.pi / 2.0]
    while edges[-1] >= _PANEL_FLOOR:
        edges.append(edges[-1] / _PANEL_RATIO)
    return _panel_rule(np.array([0.0] + edges[::-1]))


class PsdModel:
    """Base class for symmetric compact-support spectral densities.

    Subclasses provide point evaluation ``psd``, the autocorrelation
    ``autocorr`` (a float at a scalar lag, an array over an array of lags)
    and the node/weight ``rule`` (S_k, w_k) with
    int phi(S_h(f)) df = sum_k w_k phi(S_k) over one frequency period.
    ``transform`` applies the rule and is the single integration entry
    point that the Szego-type functionals build on.
    """

    sigma_h2: float
    f_d: float

    @property
    def support_edge(self) -> float:
        """Largest |f| carrying power."""
        return self.f_d

    def psd(self, f):
        raise NotImplementedError

    def autocorr(self, lag):
        raise NotImplementedError

    def _band_rule(self):
        """Nodes and weights covering |f| <= support_edge."""
        raise NotImplementedError

    @cached_property
    def rule(self):
        """Density values S_k and weights w_k of the model's quadrature rule:
        the band nodes plus one zero node of weight 1 - 2 support_edge.  A
        density that overflows (Jakes below f_d about 1e-295) leaves an inf
        node, which transform refuses."""
        with np.errstate(over="ignore", divide="ignore"):
            s, w = self._band_rule()
        return np.append(s, 0.0), np.append(w, 1.0 - 2.0 * self.support_edge)

    def transform(self, phi):
        """int phi(S_h(f)) df over one period as w @ phi(S); phi maps an
        array of density values elementwise.  Raises OverflowError when the
        sum is not finite (phi overflowed at a node near a singular edge)."""
        s, w = self.rule
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite_integral(float(w @ phi(s)))

    def spectral_l2(self):
        """Integral of the squared density over one period."""
        return self.transform(lambda s: s * s)


@dataclass(frozen=True)
class Rectangular(PsdModel):
    """Flat density sigma_h2/(2 f_d) on |f| <= f_d, zero elsewhere."""

    f_d: float
    sigma_h2: float = 1.0

    def __post_init__(self):
        _check_doppler(self.f_d)
        _check_power(self.sigma_h2)

    def psd(self, f):
        fa = _check_freq(f)
        return self.sigma_h2 / (2.0 * self.f_d) if fa <= self.f_d else 0.0

    def autocorr(self, lag):
        r = self.sigma_h2 * np.sinc(2.0 * self.f_d * np.asarray(lag, dtype=float))
        return _lag_values(lag, r)

    def _band_rule(self):
        return np.array([self.sigma_h2 / (2.0 * self.f_d)]), np.array([2.0 * self.f_d])


@dataclass(frozen=True)
class Jakes(PsdModel):
    """Dense-scatterer density sigma_h2 / (pi sqrt(f_d^2 - f^2)) on |f| < f_d.

    The inverse-square-root band-edge singularities are integrable.  The
    quadrature rule substitutes f = f_d cos(u), which removes the
    singularity from the measure, and grades its nodes toward the edge;
    point evaluation clamps |f| at f_d - 1e-12 so queries at the edge stay
    finite.
    """

    f_d: float
    sigma_h2: float = 1.0

    def __post_init__(self):
        _check_doppler(self.f_d)
        _check_power(self.sigma_h2)

    def _edge(self):
        pad = 1e-12 if self.f_d > 2e-12 else 0.5 * self.f_d
        return self.f_d - pad

    def psd(self, f):
        fa = _check_freq(f)
        if fa > self.f_d:
            return 0.0
        fa = min(fa, self._edge())
        return self.sigma_h2 / (math.pi * math.sqrt(self.f_d**2 - fa**2))

    def autocorr(self, lag):
        # the inverse transform of the density is the Bessel function
        # r(l) = sigma_h2 J_0(2 pi f_d l)
        x = 2.0 * math.pi * self.f_d * np.abs(np.asarray(lag, dtype=float))
        return _lag_values(lag, self.sigma_h2 * special.j0(x))

    def _band_rule(self):
        # f = f_d cos(u) turns the density into sigma_h2 / (pi f_d sin u) and
        # df into f_d sin(u) du; the band edge f = f_d sits at u = 0
        u, w = _graded_rule()
        sin_u = np.sin(u)
        return self.sigma_h2 / (math.pi * self.f_d * sin_u), 2.0 * self.f_d * sin_u * w

    def spectral_l2(self):
        raise ValueError(
            "spectral_l2 diverges for the Jakes density: the squared "
            "inverse-square-root band edges are not integrable"
        )


@dataclass(frozen=True)
class RaisedCosine(PsdModel):
    """Raised-cosine density: flat up to (1-beta_ro) f_d, sinusoidal roll-off
    until (1+beta_ro) f_d, zero beyond.

    Approximates the rectangular density as beta_ro -> 0 while keeping the
    autocorrelation absolutely summable for any beta_ro > 0, which is what
    the prediction-horizon convergence checks rely on.
    """

    f_d: float
    beta_ro: float
    sigma_h2: float = 1.0

    def __post_init__(self):
        _check_doppler(self.f_d)
        _check_power(self.sigma_h2)
        if not 0.0 < self.beta_ro <= 1.0:
            raise ValueError(f"beta_ro must lie in (0, 1], got {self.beta_ro}")
        if (1.0 + self.beta_ro) * self.f_d >= 0.5:
            raise ValueError(
                "roll-off exceeds the frequency period: need (1+beta_ro)*f_d < 0.5"
            )

    @property
    def support_edge(self):
        return (1.0 + self.beta_ro) * self.f_d

    def psd(self, f):
        fa = _check_freq(f)
        lo = (1.0 - self.beta_ro) * self.f_d
        hi = (1.0 + self.beta_ro) * self.f_d
        if fa <= lo:
            return self.sigma_h2 / (2.0 * self.f_d)
        if fa <= hi:
            s = math.sin(math.pi * (fa - self.f_d) / (2.0 * self.beta_ro * self.f_d))
            return self.sigma_h2 / (4.0 * self.f_d) * (1.0 - s)
        return 0.0

    def autocorr(self, lag):
        # closed form sinc(2 f_d l) * cos(2 pi beta_ro f_d l) / (1 - (4 beta_ro f_d l)^2),
        # rewritten with u = 4 beta_ro f_d |l| as (pi/2) sinc((1-u)/2) / (1+u)
        # so the removable singularity at u = 1 never divides by zero.
        lags = np.asarray(lag, dtype=float)
        u = 4.0 * self.beta_ro * self.f_d * np.abs(lags)
        taper = (math.pi / 2.0) * np.sinc((1.0 - u) / 2.0) / (1.0 + u)
        return _lag_values(lag, self.sigma_h2 * np.sinc(2.0 * self.f_d * lags) * taper)

    def _band_rule(self):
        # on the roll-off S = h sin^2(u) with h the flat height and
        # f = (1+beta_ro) f_d - (4 beta_ro f_d / pi) u, so u = 0 is the outer
        # edge, where log(S) is singular
        h = self.sigma_h2 / (2.0 * self.f_d)
        u, w = _graded_rule()
        flat = 2.0 * ((1.0 - self.beta_ro) * self.f_d)
        roll = 8.0 * self.beta_ro * self.f_d / math.pi
        return np.append(h, h * np.sin(u) ** 2), np.append(flat, roll * w)
