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
kernel. The batch is then held as (pair x path) columns of link factors
and moments; each pair's mean and variance is summed column by column
in path order, so every fit has the bits of a walk over its paths, and
the first pair that cannot be fitted raises in pair and path order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import ComputationError, DomainError
from .fading import KappaMuParams, envelope_moment
from .geometry import (
    Constellation,
    CylinderGeometry,
    _checked_ris_moment,
    _moment_exponent,
    _ris_moment,
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
        if not 0 < self.alpha < math.inf:
            raise DomainError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0 < self.beta < math.inf:
            raise DomainError(f"beta must be finite and > 0, got {self.beta}")

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


def _check_exponent(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and >= 0, got {value}")


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
        _check_exponent("sat_exponent", self.sat_exponent)
        _check_exponent("user_exponent", self.user_exponent)


@dataclass(frozen=True)
class DirectPath:
    enabled: bool = True
    fading: KappaMuParams = field(default_factory=lambda: KappaMuParams(0.0, 1.0))
    exponent: float = 2.0

    def __post_init__(self) -> None:
        _check_exponent("exponent", self.exponent)


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


def _batch_moments(pairs: Sequence[tuple[LinkConfig, CylinderGeometry]], con: Constellation,
                   orders: tuple[int, ...]):
    """Arrays of the (mean, variance) of the magnitude for the (links,
    geometry) pairs in order, one chunk of pairs at a time, each summed
    over its pair's paths in order (RIS paths first, the direct path
    last); the variance is None unless order 2 is asked for, since it may
    diverge where the mean is finite.

    Second moments use the unit-power normalization
    E[|q|^2] = E[|g|^2] = E[|u|^2] = 1, so the element-sum second moment
    reduces to L + (L^2 - L) * (first-moment product)^2.

    A RIS path's moment is its link factor (always finite) times the
    RIS-distance moment at its own user-hop exponent. Link factors are
    computed once per distinct (elements, fading laws, satellite-hop
    exponent) and kept for the whole batch. The RIS-distance moments of
    up to _CHUNK_PATHS paths come from one kernel call over their
    distinct (s, R0, H, c); the kernel reads NaN exactly where
    ris_distance_moment raises, so a finite moment is a valid one.

    Errors keep pair and path order: a chunk yields the pairs before its
    first failing one and raises that pair's error when resumed, so a
    consumer that checks each yielded pair first raises the batch's first
    error. A links object's link factors are taken when its first pair
    comes up; a pair's non-finite RIS-distance moment raises, in path
    order, what ris_distance_moment raises for it.
    """
    factors: dict = {}
    widest = 1 + max((len(cfg.ris) for cfg, _ in pairs), default=0)
    step = max(1, _CHUNK_PATHS // widest)
    for start in range(0, len(pairs), step):
        yield from _chunk_moments(pairs[start:start + step], con, orders, factors)


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``keys`` and the index of each row among them."""
    order = np.lexsort(keys.T)
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    where = np.empty(len(keys), dtype=np.intp)
    where[order] = np.cumsum(new) - 1
    return ordered[new], where


def _chunk_moments(pairs, con: Constellation, orders: tuple[int, ...], factors: dict):
    """_batch_moments for pairs whose RIS-distance moments share one kernel
    call, as columns over (pair x path) padded with zero link factors."""
    # link factors by links identity (the pairs keep every links object
    # alive), in the order the pairs first use them
    index, links, which, failure = {}, [], [], None
    for p, (cfg, _) in enumerate(pairs):
        i = index.get(id(cfg))
        if i is None:
            try:
                paths = [_link_factor(factors, *spec, con) for spec in _path_links(cfg)]
            except Exception as exc:  # re-raised after the pairs before it, in pair order
                pairs, failure = pairs[:p], exc
                break
            i = index[id(cfg)] = len(links)
            links.append((cfg, paths))
        which.append(i)
    # per links object, padded to the widest: its paths' link factors and
    # its RIS paths' user-hop exponents
    width = max((len(paths) for _, paths in links), default=0)
    pad = [(0.0, 0.0)] * width
    factor_table = np.array([paths + pad[len(paths):] for _, paths in links])
    factor_table = factor_table.reshape(len(links), width, 2)
    eps = np.array([[r.user_exponent for r in cfg.ris] + [0.0] * (width - len(cfg.ris))
                    for cfg, _ in links]).reshape(len(links), width)
    which = np.array(which, dtype=np.intp)
    # RIS paths in pair and path order, and the kernel key of each at each order
    ris = np.arange(width) < np.array([len(cfg.ris) for cfg, _ in links], dtype=int)[which, None]
    pair_of, path_of = np.nonzero(ris)
    regions = np.array([(g.base_radius, g.height, g.inner_radius) for _, g in pairs])
    R0, H, c = regions.reshape(-1, 3)[pair_of].T
    user_eps = eps[which[pair_of], path_of]
    distinct, where = _distinct_rows(
        np.concatenate([np.column_stack((t * user_eps / 2.0, R0, H, c)) for t in orders]))
    ris_moments = _ris_moment(*distinct.T.copy())[where].reshape(len(orders), -1)
    # the kernel's moments are normal floats or NaN
    failed = np.isnan(ris_moments).any(axis=0)
    stop = int(pair_of[failed.argmax()]) if failed.any() else len(pairs)
    moments = np.ones((len(orders), len(pairs), width))
    moments[:, ris] = ris_moments
    factor = factor_table[which[:stop]]
    with np.errstate(over="ignore", invalid="ignore"):
        m = factor[..., 0] * moments[0, :stop]
        mean = np.zeros(stop)
        for column in m.T:
            mean += column
        variance = None
        if len(orders) > 1:
            # squared as a Python float squares (libm pow, which may round
            # differently from m * m); inf where that overflows
            square = m * m
            finite = np.isfinite(square)
            square[finite] = np.fromiter(map(pow, m[finite].tolist(), repeat(2)),
                                         dtype=float, count=int(finite.sum()))
            variance = np.zeros(stop)
            for column in (factor[..., 1] * moments[1, :stop] - square).T:
                variance += column
    yield mean, variance
    if stop < len(pairs):
        cell = failed.argmax()
        cfg, geom = pairs[stop]
        for t, value in zip(orders, ris_moments[:, cell].tolist()):
            _checked_ris_moment(_moment_exponent(t, cfg.ris[path_of[cell]].user_exponent),
                                geom, value)
    if failure is not None:
        raise failure


def _checked_variance(variance: float) -> float:
    if not variance > 0.0 or not math.isfinite(variance):
        raise ComputationError(
            f"variance of the combined response came out non-positive ({variance}); "
            "check for a degenerate configuration or catastrophic cancellation"
        )
    return variance


def mean_abs_A(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> float:
    """Mean magnitude of the combined channel response."""
    ((mean, _),) = _batch_moments([(cfg, geom)], con, (1,))
    return float(mean[0])


def var_abs_A(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> float:
    """Variance of the combined channel response magnitude."""
    ((_, variance),) = _batch_moments([(cfg, geom)], con, (1, 2))
    return _checked_variance(float(variance[0]))


def gamma_fits(pairs: Sequence[tuple[LinkConfig, CylinderGeometry]],
               con: Constellation) -> list[GammaApprox]:
    """Two-moment Gamma fits of the combined response magnitude, one per
    (links, geometry) pair, all under one constellation.

    The batch shares its link factors and evaluates its RIS-distance
    moments in array passes (see _batch_moments), so a sweep fits all its
    points in one call. Each fit is checked in pair order: the first pair
    that cannot be fitted raises what gamma_approx raises for it alone.
    """
    fits = []
    for means, variances in _batch_moments(pairs, con, (1, 2)):
        for mean, variance in zip(means.tolist(), variances.tolist()):
            if not mean > 0.0:
                raise ComputationError(
                    "mean of the combined response is not positive; the configuration "
                    "has no active signal path"
                )
            fits.append(GammaApprox.from_moments(mean, _checked_variance(variance)))
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
