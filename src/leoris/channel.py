"""First- and second-order statistics of the combined channel response,
and the two-moment Gamma model built from them.

The combined response is a sum of per-RIS terms (each a coherently
aligned sum over reflecting elements, damped by both hop distances) plus
an optional direct satellite-user path. Means and variances follow from
independence of fading and positions; the Gamma shape/scale pair is the
moment fit used by the coverage and capacity expressions.

Each path's moments split into a link factor (element count, fading
laws, satellite hop) and a geometry factor (the RIS-distance moment).
Fits are made in batches (gamma_fits), as a sweep fits all its points:
link factors do not depend on the RIS region or the user-hop exponent,
so each distinct one is computed once per batch, and every geometry
factor of the batch comes from one array evaluation of the RIS-distance
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ComputationError, DomainError, LeorisError
from .fading import KappaMuParams, envelope_moment
from .geometry import (
    Constellation,
    CylinderGeometry,
    _checked_ris_moment,
    _ris_moment,
    _ris_moment_order,
    sat_distance_moment,
)

__all__ = [
    "GammaApprox",
    "RisLink",
    "DirectPath",
    "LinkConfig",
    "mean_abs_A",
    "var_abs_A",
    "gamma_approx",
    "gamma_fits",
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


# one kernel call covers at most this many paths; it bounds a batch's
# arrays for grids of large RIS counts
_CHUNK_PATHS = 1 << 16


def _link_factor(factors: dict, elements: int, fadings: tuple, exponent: float,
                 con: Constellation) -> tuple[float, float]:
    """(L m1 E[d_sat^-eta/2], (L + (L^2 - L) m1^2) E[d_sat^-eta]) of one
    path, m1 the product of its hops' first envelope moments (the direct
    path: L = 1, one hop), from ``factors`` or added to it; RIS and direct
    paths share the satellite-hop entry. One dict serves one constellation."""
    key = (elements, fadings, exponent)
    factor = factors.get(key)
    if factor is None:
        hop = factors.get(exponent)
        if hop is None:
            hop = factors[exponent] = (sat_distance_moment(1, exponent, con),
                                       sat_distance_moment(2, exponent, con))
        L, m1 = elements, math.prod(envelope_moment(1.0, f) for f in fadings)
        factor = factors[key] = L * m1 * hop[0], (L + (L * L - L) * m1 * m1) * hop[1]
    return factor


def _path_links(cfg: LinkConfig):
    """(elements, fading laws, satellite-hop exponent) of each path, RIS
    paths first and the direct path last."""
    for link in cfg.ris:
        yield link.elements, (link.sat_fading, link.user_fading), link.sat_exponent
    if cfg.direct.enabled:
        yield 1, (cfg.direct.fading,), cfg.direct.exponent


def _link_rows(cfg: LinkConfig, con: Constellation, factors: dict) -> np.ndarray:
    """One row per path of ``cfg``: its two link factors, then its user-hop
    exponent and 1 for a RIS path, or 0 and 0 for the direct path. A link
    factor that raises reads NaN; _raise_first_error raises it again in
    path order."""
    rows = []
    for i, spec in enumerate(_path_links(cfg)):
        try:
            first, second = _link_factor(factors, *spec, con)
        except LeorisError:
            first = second = math.nan
        ris = i < len(cfg.ris)
        rows.append((first, second, cfg.ris[i].user_exponent if ris else 0.0, float(ris)))
    return np.array(rows, dtype=float).reshape(-1, 4)


def _raise_first_error(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation,
                       factors: dict, moments: list[np.ndarray]) -> None:
    """Raise the first error of the fit of (cfg, geom), walking its paths
    in order: a path's link factor, then its RIS-distance moment at each
    order; ``moments[t - 1]`` holds the kernel's values at order t, in
    path order."""
    for i, spec in enumerate(_path_links(cfg)):
        _link_factor(factors, *spec, con)
        if i < len(cfg.ris):
            for t, values in enumerate(moments, start=1):
                s = _ris_moment_order(t, cfg.ris[i].user_exponent)
                _checked_ris_moment(s, geom, float(values[i]))


def _batch_paths(pairs: Sequence[tuple[LinkConfig, CylinderGeometry]], con: Constellation,
                 orders: tuple[int, ...]):
    """For each (links, geometry) pair in order, the list of its paths'
    (mean, second moment) of the magnitude, RIS paths first and the direct
    path last; the second moment is None unless order 2 is asked for,
    since it may diverge where the mean is finite.

    Second moments use the unit-power normalization
    E[|q|^2] = E[|g|^2] = E[|u|^2] = 1, so the element-sum second moment
    reduces to L + (L^2 - L) * (first-moment product)^2.

    A RIS path's moment is its link factor (always finite) times the
    RIS-distance moment at its own user-hop exponent. Link factors are
    computed once per distinct (elements, fading laws, satellite-hop
    exponent) and kept for the whole batch. The RIS-distance moments of
    up to _CHUNK_PATHS paths come from one kernel call over their
    distinct (s, R0, H, c). A pair with a failing path raises, when its
    turn comes, what ris_distance_moment or the link factor raises for
    its first failing path.
    """
    factors: dict = {}
    widest = 1 + max((len(cfg.ris) for cfg, _ in pairs), default=0)
    step = max(1, _CHUNK_PATHS // widest)
    for start in range(0, len(pairs), step):
        yield from _chunk_paths(pairs[start:start + step], con, orders, factors)


def _chunk_paths(pairs, con: Constellation, orders: tuple[int, ...], factors: dict):
    """_batch_paths for pairs whose RIS-distance moments share one kernel call."""
    # rows by links identity: the pairs keep every links object alive
    rows = {}
    for cfg, _ in pairs:
        if id(cfg) not in rows:
            rows[id(cfg)] = _link_rows(cfg, con, factors)
    per_pair = [rows[id(cfg)] for cfg, _ in pairs]
    sizes = np.array([len(r) for r in per_pair], dtype=np.intp)
    first, second, eps, ris = np.concatenate(per_pair).reshape(-1, 4).T
    regions = np.array([(g.base_radius, g.height, g.inner_radius) for _, g in pairs])
    R0, H, c = np.repeat(regions.reshape(-1, 3), sizes, axis=0).T
    ris = ris == 1.0
    valid = ris & (eps >= 0.0)
    keys = np.concatenate([np.column_stack((t * eps[valid] / 2.0, R0[valid], H[valid], c[valid]))
                           for t in orders])
    # each key row as one 32-byte record, so one sort finds the distinct ones
    distinct, where = np.unique(keys.view(np.dtype((np.void, keys.itemsize * 4))).ravel(),
                                return_inverse=True)
    columns = distinct.view(float).reshape(-1, 4).T.copy()
    values = _ris_moment(*columns)[where].reshape(len(orders), -1)
    # per order and path: the RIS-distance moment, 1 on the direct path,
    # NaN for a RIS exponent the moment's check rejects
    moments = np.tile(np.where(ris, np.nan, 1.0), (len(orders), 1))
    moments[:, valid] = values
    failed = ~np.isfinite(first) | ~np.isfinite(moments).all(axis=0)
    owner = np.repeat(np.arange(len(pairs)), sizes)
    bad = np.bincount(owner[failed], minlength=len(pairs)) > 0
    means = (first * moments[0]).tolist()
    seconds = (second * moments[1]).tolist() if len(orders) > 1 else [None] * len(means)
    end = 0
    for (cfg, geom), size, raises in zip(pairs, sizes.tolist(), bad.tolist()):
        start, end = end, end + size
        if raises:
            _raise_first_error(cfg, geom, con, factors, list(moments[:, start:end]))
        yield list(zip(means[start:end], seconds[start:end]))


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
    (paths,) = _batch_paths([(cfg, geom)], con, (1,))
    return sum(mean for mean, _ in paths)


def var_abs_A(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> float:
    """Variance of the combined channel response magnitude."""
    (paths,) = _batch_paths([(cfg, geom)], con, (1, 2))
    return _variance(paths)


def gamma_fits(pairs: Sequence[tuple[LinkConfig, CylinderGeometry]],
               con: Constellation) -> list[GammaApprox]:
    """Two-moment Gamma fits of the combined response magnitude, one per
    (links, geometry) pair, all under one constellation.

    The batch shares its link factors and evaluates its RIS-distance
    moments in array passes (see _batch_paths), so a sweep fits all its
    points in one call. Each fit is checked in pair order: the first pair
    that cannot be fitted raises what gamma_approx raises for it alone.
    """
    fits = []
    for paths in _batch_paths(pairs, con, (1, 2)):
        mean = sum(m for m, _ in paths)
        if not mean > 0.0:
            raise ComputationError(
                "mean of the combined response is not positive; the configuration "
                "has no active signal path"
            )
        fits.append(GammaApprox.from_moments(mean, _variance(paths)))
    return fits


def gamma_approx(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> GammaApprox:
    """Two-moment Gamma fit of the combined response magnitude."""
    return gamma_fits([(cfg, geom)], con)[0]


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
