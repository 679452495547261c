"""First- and second-order statistics of the combined channel response,
and the two-moment Gamma model built from them.

The combined response is a sum of per-RIS terms (each a coherently
aligned sum over reflecting elements, damped by both hop distances) plus
an optional direct satellite-user path. Means and variances follow from
independence of fading and positions; the Gamma shape/scale pair is the
moment fit used by the coverage and capacity expressions.

Each path's moments split into a link factor (element count, fading
laws, satellite hop) and a geometry factor (the RIS-distance moment).
Link factors do not depend on the RIS region or the user-hop exponent,
so they go into a dict that the RISs of one fit share, and that a caller
may share across fits, as a sweep does across its points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, DomainError
from .fading import KappaMuParams, envelope_moment
from .geometry import Constellation, CylinderGeometry, ris_distance_moment, sat_distance_moment

__all__ = [
    "GammaApprox",
    "RisLink",
    "DirectPath",
    "LinkConfig",
    "mean_abs_A",
    "var_abs_A",
    "gamma_approx",
    "abs_A_pdf",
    "snr_pdf",
]


@dataclass(frozen=True)
class GammaApprox:
    """Shape/scale of the Gamma model of the combined response magnitude."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if not self.beta > 0:
            raise DomainError(f"beta must be > 0, got {self.beta}")

    @property
    def mean(self) -> float:
        return self.alpha * self.beta

    @property
    def variance(self) -> float:
        return self.alpha * self.beta ** 2

    @classmethod
    def from_moments(cls, mean: float, variance: float) -> "GammaApprox":
        if not mean > 0 or not variance > 0:
            raise ComputationError(
                f"Gamma fit needs positive moments, got mean={mean}, variance={variance}"
            )
        return cls(alpha=mean * mean / variance, beta=variance / mean)


@dataclass(frozen=True)
class RisLink:
    """One RIS: element count, per-hop fading, per-hop path-loss exponents."""

    elements: int
    sat_fading: KappaMuParams
    user_fading: KappaMuParams
    sat_exponent: float
    user_exponent: float

    def __post_init__(self) -> None:
        if self.elements < 1:
            raise DomainError(f"elements must be >= 1, got {self.elements}")


@dataclass(frozen=True)
class DirectPath:
    enabled: bool = True
    fading: KappaMuParams = field(default_factory=lambda: KappaMuParams(0.0, 1.0))
    exponent: float = 2.0


@dataclass(frozen=True)
class LinkConfig:
    """Everything about the signal paths: the RIS list, the direct path,
    and the transmit SNR (symbol energy over noise power, linear)."""

    ris: tuple[RisLink, ...]
    direct: DirectPath = field(default_factory=DirectPath)
    transmit_snr: float = 1.0

    def __post_init__(self) -> None:
        if not self.transmit_snr > 0:
            raise DomainError(f"transmit_snr must be > 0, got {self.transmit_snr}")


def _link_factor(memo: dict, elements: int, fadings: tuple, exponent: float,
                 con: Constellation) -> tuple[float, float]:
    """(L m1 E[d_sat^-eta/2], (L + (L^2 - L) m1^2) E[d_sat^-eta]) of one
    path, m1 the product of its hops' first envelope moments (the direct
    path: L = 1, one hop), from ``memo`` or added to it under every field
    it reads; RIS and direct paths share the satellite-hop entry."""
    key = (elements, fadings, exponent, con)
    factor = memo.get(key)
    if factor is None:
        hop = memo.get((exponent, con))
        if hop is None:
            hop = memo[exponent, con] = (sat_distance_moment(1, exponent, con),
                                         sat_distance_moment(2, exponent, con))
        L, m1 = elements, math.prod(envelope_moment(1.0, f) for f in fadings)
        factor = memo[key] = L * m1 * hop[0], (L + (L * L - L) * m1 * m1) * hop[1]
    return factor


def _path_moments(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation,
                  with_second: bool, memo: dict):
    """(mean, second moment) of each path's magnitude, RIS paths first and
    the direct path last; the second moment is None unless asked for,
    since it may diverge where the mean is finite.

    Second moments use the unit-power normalization
    E[|q|^2] = E[|g|^2] = E[|u|^2] = 1, so the element-sum second moment
    reduces to L + (L^2 - L) * (first-moment product)^2.

    A RIS path's moment is its link factor (always finite), from the
    caller's ``memo`` dict, times the RIS-distance moment at its own
    user-hop exponent.
    """
    for link in cfg.ris:
        first, second = _link_factor(memo, link.elements, (link.sat_fading, link.user_fading),
                                     link.sat_exponent, con)
        mean = first * ris_distance_moment(1, link.user_exponent, geom)
        if not with_second:
            yield mean, None
            continue
        yield mean, second * ris_distance_moment(2, link.user_exponent, geom)
    if cfg.direct.enabled:
        mean, second = _link_factor(memo, 1, (cfg.direct.fading,), cfg.direct.exponent, con)
        yield mean, second if with_second else None


def _variance(paths) -> float:
    total = 0.0
    for mean, second in paths:
        total += second - mean ** 2
    if not total > 0.0 or not math.isfinite(total):
        raise ComputationError(
            f"variance of the combined response came out non-positive ({total}); "
            "check for a degenerate configuration or catastrophic cancellation"
        )
    return total


def mean_abs_A(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> float:
    """Mean magnitude of the combined channel response."""
    return sum(mean for mean, _ in _path_moments(cfg, geom, con, with_second=False, memo={}))


def var_abs_A(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> float:
    """Variance of the combined channel response magnitude."""
    return _variance(_path_moments(cfg, geom, con, with_second=True, memo={}))


def gamma_approx(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation, *,
                 memo: dict | None = None) -> GammaApprox:
    """Two-moment Gamma fit of the combined response magnitude. Fits that
    are given the same ``memo`` dict share their link factors."""
    paths = list(_path_moments(cfg, geom, con, with_second=True,
                               memo={} if memo is None else memo))
    mean = sum(m for m, _ in paths)
    if not mean > 0.0:
        raise ComputationError(
            "mean of the combined response is not positive; the configuration "
            "has no active signal path"
        )
    return GammaApprox.from_moments(mean, _variance(paths))


def _density(x, what: str, log_density, at_zero):
    """exp(log_density(x)) where x > 0 and at_zero() where x = 0, for a
    scalar or array x >= 0; NaN raises like a negative value."""
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(arr >= 0):
        raise DomainError(f"{what} must be >= 0 and not NaN")
    pos = arr > 0
    out = np.full_like(arr, 0.0 if pos.all() else at_zero())
    out[pos] = np.exp(log_density(arr[pos]))
    return float(out[0]) if scalar else out


def abs_A_pdf(x, ga: GammaApprox):
    """Gamma density of the combined response magnitude."""
    a, b = ga.alpha, ga.beta
    return _density(
        x, "magnitude",
        lambda xp: (a - 1.0) * np.log(xp) - xp / b - a * math.log(b) - math.lgamma(a),
        lambda: 0.0 if a > 1.0 else 1.0 / b if a == 1.0 else math.inf)


def snr_pdf(x, ga: GammaApprox, rho0: float):
    """Density of the received SNR under the Gamma model.

    Equals abs_A_pdf(sqrt(x / rho0)) / (2 sqrt(rho0 x)) by change of
    variables; written directly to avoid the removable 0/0 at x = 0.
    """
    if not rho0 > 0:
        raise DomainError(f"rho0 must be > 0, got {rho0}")
    a, b = ga.alpha, ga.beta
    log_pref = -math.log(2.0) - a * math.log(b) - math.lgamma(a) - (a / 2.0) * math.log(rho0)
    return _density(
        x, "SNR",
        lambda xp: log_pref + (a - 2.0) / 2.0 * np.log(xp) - np.sqrt(xp / (b * b * rho0)),
        lambda: 0.0 if a > 2.0 else math.exp(log_pref) if a == 2.0 else math.inf)
