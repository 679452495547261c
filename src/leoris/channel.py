"""First- and second-order statistics of the combined channel response,
and the two-moment Gamma model built from them.

The combined response is a sum of per-RIS terms (each a coherently
aligned sum over reflecting elements, damped by both hop distances) plus
an optional direct satellite-user path. Means and variances follow from
independence of fading and positions; the Gamma shape/scale pair is the
moment fit used by the coverage and capacity expressions.

Each path's moments split into a link factor (element count, fading
laws, satellite-hop exponent and constellation) and a geometry factor
(the RIS-distance moment). Link factors do not depend on the RIS region
or the user-hop exponent, so they are kept in bounded memos that every
RIS of one fit, and every fit inside one ``_shared_link_factors`` block
(a sweep), share. The memos are emptied when the fit, or the block,
ends, so no fit sees entries another call left behind.
"""

from __future__ import annotations

import contextlib
import functools
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


@functools.lru_cache(maxsize=1024)
def _sat_hop_factor(exponent: float, con: Constellation) -> tuple[float, float]:
    """Orders 1 and 2 of the satellite-distance moment, shared by the RIS
    and direct link factors."""
    return sat_distance_moment(1, exponent, con), sat_distance_moment(2, exponent, con)


@functools.lru_cache(maxsize=1024)
def _ris_link_factor(elements: int, sat_fading: KappaMuParams, user_fading: KappaMuParams,
                     sat_exponent: float, con: Constellation) -> tuple[float, float]:
    """(L m1 E[d_sat^-eta/2], (L + (L^2 - L) m1^2) E[d_sat^-eta]) of one RIS,
    with m1 the product of both hops' first envelope moments: everything
    in its path moments except the RIS-distance factor."""
    L = elements
    m1 = envelope_moment(1.0, sat_fading) * envelope_moment(1.0, user_fading)
    s1, s2 = _sat_hop_factor(sat_exponent, con)
    return L * m1 * s1, (L + (L * L - L) * m1 * m1) * s2


@functools.lru_cache(maxsize=1024)
def _direct_link_factor(fading: KappaMuParams, exponent: float, con: Constellation):
    """(mean, second moment) of the direct path's magnitude."""
    s1, s2 = _sat_hop_factor(exponent, con)
    return envelope_moment(1.0, fading) * s1, s2


_LINK_MEMOS = (_sat_hop_factor, _ris_link_factor, _direct_link_factor)
_open_blocks = 0


@contextlib.contextmanager
def _shared_link_factors():
    """Keep the link-factor memos across every fit made inside the block;
    the outermost block empties them when it exits. The count of open
    blocks is not locked: fits are made on one thread."""
    global _open_blocks
    _open_blocks += 1
    try:
        yield
    finally:
        _open_blocks -= 1
        if not _open_blocks:
            for memo in _LINK_MEMOS:
                memo.cache_clear()


def _path_moments(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation,
                  with_second: bool):
    """(mean, second moment) of each path's magnitude, RIS paths first and
    the direct path last; the second moment is None unless asked for,
    since it may diverge where the mean is finite.

    Second moments use the unit-power normalization
    E[|q|^2] = E[|g|^2] = E[|u|^2] = 1, so the element-sum second moment
    reduces to L + (L^2 - L) * (first-moment product)^2.

    A RIS path's moment is its link factor (elements, fading laws,
    satellite hop; always finite) times its geometry factor, the
    RIS-distance moment at the RIS's own user-hop exponent. Link factors
    come from bounded memos, so RISs with equal links share one
    evaluation, and so do the fits of one ``_shared_link_factors`` block;
    outside such a block the memos are emptied when the paths run out.
    """
    with _shared_link_factors():
        for link in cfg.ris:
            first, second = _ris_link_factor(link.elements, link.sat_fading, link.user_fading,
                                             link.sat_exponent, con)
            mean = first * ris_distance_moment(1, link.user_exponent, geom)
            if not with_second:
                yield mean, None
                continue
            yield mean, second * ris_distance_moment(2, link.user_exponent, geom)
        if cfg.direct.enabled:
            mean, second = _direct_link_factor(cfg.direct.fading, cfg.direct.exponent, con)
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
    return sum(mean for mean, _ in _path_moments(cfg, geom, con, with_second=False))


def var_abs_A(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> float:
    """Variance of the combined channel response magnitude."""
    return _variance(_path_moments(cfg, geom, con, with_second=True))


def gamma_approx(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> GammaApprox:
    """Two-moment Gamma fit of the combined response magnitude."""
    paths = list(_path_moments(cfg, geom, con, with_second=True))
    mean = sum(m for m, _ in paths)
    if not mean > 0.0:
        raise ComputationError(
            "mean of the combined response is not positive; the configuration "
            "has no active signal path"
        )
    return GammaApprox.from_moments(mean, _variance(paths))


def abs_A_pdf(x, ga: GammaApprox):
    """Gamma density of the combined response magnitude."""
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr < 0):
        raise DomainError("magnitude must be >= 0")
    a, b = ga.alpha, ga.beta
    out = np.zeros_like(arr)
    pos = arr > 0
    xp = arr[pos]
    out[pos] = np.exp((a - 1.0) * np.log(xp) - xp / b - a * math.log(b) - math.lgamma(a))
    zero = ~pos
    if np.any(zero):
        if a > 1.0:
            out[zero] = 0.0
        elif a == 1.0:
            out[zero] = 1.0 / b
        else:
            out[zero] = np.inf
    return float(out[0]) if scalar else out


def snr_pdf(x, ga: GammaApprox, rho0: float):
    """Density of the received SNR under the Gamma model.

    Equals abs_A_pdf(sqrt(x / rho0)) / (2 sqrt(rho0 x)) by change of
    variables; written directly to avoid the removable 0/0 at x = 0.
    """
    if not rho0 > 0:
        raise DomainError(f"rho0 must be > 0, got {rho0}")
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr < 0):
        raise DomainError("SNR must be >= 0")
    a, b = ga.alpha, ga.beta
    out = np.zeros_like(arr)
    pos = arr > 0
    xp = arr[pos]
    log_pref = -math.log(2.0) - a * math.log(b) - math.lgamma(a) - (a / 2.0) * math.log(rho0)
    out[pos] = np.exp(log_pref + (a - 2.0) / 2.0 * np.log(xp)
                      - np.sqrt(xp / (b * b * rho0)))
    zero = ~pos
    if np.any(zero):
        if a > 2.0:
            out[zero] = 0.0
        elif a == 2.0:
            out[zero] = math.exp(log_pref)
        else:
            out[zero] = np.inf
    return float(out[0]) if scalar else out
