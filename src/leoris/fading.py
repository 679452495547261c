"""Generalized two-parameter fading envelopes, normalized to unit mean
power, with matching exact samplers.

The family covers Rayleigh (kappa=0, mu=1), Rice (kappa=k, mu=1),
Nakagami-m (kappa=0, mu=m) and the one-sided Gaussian (kappa=0, mu=0.5)
as special cases. The squared envelope is a scaled noncentral chi-square
with 2*mu degrees of freedom and noncentrality 2*kappa*mu, which is what
both the density and the sampler are built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtr as _chdtr, chndtr as _chndtr, ive as _ive

from .errors import DomainError
from .specfun import kummer_1f1

__all__ = [
    "KappaMuParams",
    "envelope_moment",
    "envelope_pdf",
    "envelope_cdf",
    "sample_envelope",
]


@dataclass(frozen=True)
class KappaMuParams:
    """Dominant-to-scattered power ratio and cluster count of one link.

    The envelope is always normalized so E[|h|^2] = 1.
    """

    kappa: float
    mu: float

    def __post_init__(self) -> None:
        if self.kappa < 0:
            raise DomainError(f"kappa must be >= 0, got {self.kappa}")
        if not self.mu > 0:
            raise DomainError(f"mu must be > 0, got {self.mu}")


def envelope_moment(t: float, p: KappaMuParams) -> float:
    """E[|h|^t] of the unit-power envelope.

    Gamma-ratio prefactor assembled in log space; t = 2 returns exactly 1
    up to the confluent-series tolerance.
    """
    if not t > 0:
        raise DomainError(f"moment order must be > 0, got {t}")
    k, m = p.kappa, p.mu
    log_pref = math.lgamma(m + t / 2.0) - math.lgamma(m) - k * m \
        - (t / 2.0) * math.log((1.0 + k) * m)
    return math.exp(log_pref) * kummer_1f1(m + t / 2.0, m, k * m)


def envelope_pdf(x, p: KappaMuParams):
    """Density of the unit-power envelope on x >= 0."""
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr < 0):
        raise DomainError("envelope value must be >= 0")
    k, m = p.kappa, p.mu
    out = np.zeros_like(arr)
    pos = arr > 0
    xp = arr[pos]
    if k == 0.0:
        # Nakagami-m with unit power
        out[pos] = (2.0 * m ** m / math.gamma(m)) * xp ** (2.0 * m - 1.0) \
            * np.exp(-m * xp * xp)
        coeff0 = 2.0 * m ** m / math.gamma(m)
    else:
        b = 2.0 * m * math.sqrt(k * (1.0 + k))
        # exponent is -mu*(sqrt(kappa) - sqrt(1+kappa)*x)^2 once the
        # scaled Bessel's e^{|bx|} is folded in
        expo = -m * (math.sqrt(k) - math.sqrt(1.0 + k) * xp) ** 2
        out[pos] = (2.0 * m * (1.0 + k) ** ((m + 1.0) / 2.0)
                    / (k ** ((m - 1.0) / 2.0))) * xp ** m \
            * np.exp(expo) * _ive(m - 1.0, b * xp)
        coeff0 = (2.0 * m * (1.0 + k) ** ((m + 1.0) / 2.0) / k ** ((m - 1.0) / 2.0)
                  * math.exp(-m * k) * (b / 2.0) ** (m - 1.0) / math.gamma(m))
    # x -> 0 limit: f ~ coeff0 * x^(2 mu - 1)
    zero = ~pos
    if np.any(zero):
        out[zero] = coeff0 * np.power(arr[zero], 2.0 * m - 1.0)
    return float(out[0]) if scalar else out


def envelope_cdf(x, p: KappaMuParams):
    """Distribution of the unit-power envelope, via the noncentral
    chi-square law of the squared envelope."""
    arr = np.asarray(x, dtype=float)
    k, m = p.kappa, p.mu
    q = 2.0 * m * (1.0 + k) * np.square(np.clip(arr, 0.0, None))
    if k == 0.0:
        val = _chdtr(2.0 * m, q)
    else:
        val = _chndtr(q, 2.0 * m, 2.0 * k * m)
    return val if np.ndim(x) else float(val)


def sample_envelope(p: KappaMuParams, rng: np.random.Generator,
                    size: int | tuple[int, ...] | None = None):
    """Exact draws of the unit-power envelope.

    The squared envelope is chi-square (2*mu degrees of freedom,
    noncentrality 2*kappa*mu) scaled to unit mean; for non-integer 2*mu
    the Poisson-mixture definition of the noncentral chi-square applies
    and numpy implements it directly.
    """
    k, m = p.kappa, p.mu
    shape = () if size is None else size
    if k == 0.0:
        w = rng.chisquare(2.0 * m, shape)
    else:
        w = rng.noncentral_chisquare(2.0 * m, 2.0 * k * m, shape)
    env = np.sqrt(w / (2.0 * m * (1.0 + k)))
    return float(env) if size is None else env
