"""First- and second-order statistics of the combined channel response,
and the two-moment Gamma model built from them.

The combined response is a sum of per-RIS terms (each a coherently
aligned sum over reflecting elements, damped by both hop distances) plus
an optional direct satellite-user path. Means and variances follow from
independence of fading and positions; the Gamma shape/scale pair is the
moment fit used by the coverage and capacity expressions, whose densities
are evaluated in logarithms (errors.density).

Each path's moments split into a link factor (element count, fading
laws, satellite hop) and a geometry factor (the RIS-distance moment).
Fits are made in batches (gamma_fits), as a sweep fits all its points:
link factors do not depend on the RIS region or the user-hop exponent,
so each distinct one is computed once per batch, and every geometry
factor of the batch, each RIS path at each order, comes from one
elementwise evaluation of the RIS-distance kernel. The batch is held as
(pair x path) columns summed in path order, so every fit has the bits
of a walk over its paths. A pair whose link factor raised or whose
RIS-distance moment is not finite comes out NaN; the first pair that is
NaN or cannot be fitted then raises, in pair order, what it raises alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import ComputationError, DomainError, checked_integer, density, pointwise
from .fading import KappaMuParams, envelope_moment
from .geometry import (
    Constellation,
    CylinderGeometry,
    _ris_moment,
    ris_distance_moment,
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
        object.__setattr__(self, "elements", checked_integer("elements", self.elements))
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


def _path_links(cfg: LinkConfig) -> list[tuple]:
    """(elements, fading laws, satellite-hop exponent) of each path, RIS
    paths first and the direct path last."""
    paths = [(link.elements, (link.sat_fading, link.user_fading), link.sat_exponent)
             for link in cfg.ris]
    if cfg.direct.enabled:
        paths.append((1, (cfg.direct.fading,), cfg.direct.exponent))
    return paths


def _chunk_moments(pairs, con: Constellation, orders: tuple[int, ...],
                   factors: dict) -> np.ndarray:
    """Rows of the magnitude's mean and, if order 2 is asked for, its
    variance over pairs whose RIS-distance moments share one kernel call,
    summed over (pair x path) columns padded with zero link factors; NaN
    for a pair whose link factors raised or whose RIS-distance moment is
    not finite (the kernel reads NaN exactly where ris_distance_moment raises)."""
    # link factors by links identity (the pairs keep every links object
    # alive), in the order the pairs first use them
    index, links, which = {}, [], []
    for cfg, _ in pairs:
        i = index.get(id(cfg))
        if i is None:
            specs = _path_links(cfg)
            try:
                paths = [_link_factor(factors, *spec, con) for spec in specs]
            except (ArithmeticError, ValueError):  # as are the package's errors
                paths = [(math.nan, math.nan)] * len(specs)  # raised again in pair order
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
    # RIS paths in pair and path order; the kernel takes each at each order
    ris = np.arange(width) < np.array([len(cfg.ris) for cfg, _ in links], dtype=int)[which, None]
    pair_of, path_of = np.nonzero(ris)
    regions = np.array([(g.base_radius, g.height, g.inner_radius) for _, g in pairs])
    R0, H, c = regions.reshape(-1, 3)[pair_of].T
    s = np.multiply.outer(orders, eps[which[pair_of], path_of]) / 2.0
    moments = np.ones((len(orders), len(pairs), width))
    moments[:, ris] = _ris_moment(s, R0, H, c)
    factor = factor_table[which]
    with np.errstate(over="ignore", invalid="ignore"):
        m = factor[..., 0] * moments[0]
        mean = np.zeros(len(pairs))
        for column in m.T:
            mean += column
        if len(orders) == 1:
            return mean[None]
        # squared as a Python float squares (libm pow, which may round
        # differently from m * m); inf where that overflows
        square = m * m
        finite = np.isfinite(square)
        square[finite] = np.fromiter(map(pow, m[finite].tolist(), repeat(2)),
                                     dtype=float, count=int(finite.sum()))
        variance = np.zeros(len(pairs))
        for column in (factor[..., 1] * moments[1] - square).T:
            variance += column
    return np.array([mean, variance])


def _checked_moments(pairs: Sequence[tuple[LinkConfig, CylinderGeometry]],
                     con: Constellation, orders: tuple[int, ...], fit) -> list:
    """fit(mean) of the magnitude for each (links, geometry) pair in order,
    or fit(mean, variance) if order 2 is asked for (it may diverge where
    the mean is finite), each summed over the pair's paths in order (RIS
    paths first, the direct path last). Second moments use the unit-power
    normalization E[|q|^2] = E[|g|^2] = E[|u|^2] = 1, so the element-sum
    second moment reduces to L + (L^2 - L) * (first-moment product)^2.

    A RIS path's moment is its link factor times the RIS-distance moment
    at its own user-hop exponent. Link factors are computed once per
    distinct (elements, fading laws, satellite-hop exponent) per batch;
    the RIS-distance moments of up to _CHUNK_PATHS paths, at every order,
    come from one kernel call.

    A pair whose moments come out NaN first raises what they raise alone:
    its link factors in path order, then its RIS-distance moments by path
    and order. Then fit checks it, so the first pair that cannot be
    computed or fitted raises its own error.
    """
    factors: dict = {}
    widest = 1 + max((len(cfg.ris) for cfg, _ in pairs), default=0)
    step = max(1, _CHUNK_PATHS // widest)
    fits = []
    for start in range(0, len(pairs), step):
        chunk = pairs[start:start + step]
        columns = _chunk_moments(chunk, con, orders, factors)
        for (cfg, geom), moments in zip(chunk, columns.T.tolist()):
            if any(map(math.isnan, moments)):
                for spec in _path_links(cfg):
                    _link_factor({}, *spec, con)
                for link in cfg.ris:
                    for t in orders:
                        ris_distance_moment(t, link.user_exponent, geom)
            fits.append(fit(*moments))
    return fits


def _checked_variance(variance: float) -> float:
    if not variance > 0.0 or not math.isfinite(variance):
        raise ComputationError(
            f"variance of the combined response came out non-positive ({variance}); "
            "check for a degenerate configuration or catastrophic cancellation"
        )
    return variance


def _gamma_fit(mean: float, variance: float) -> GammaApprox:
    if not mean > 0.0:
        raise ComputationError(
            "mean of the combined response is not positive; the configuration "
            "has no active signal path"
        )
    return GammaApprox.from_moments(mean, _checked_variance(variance))


def mean_abs_A(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> float:
    """Mean magnitude of the combined channel response."""
    return _checked_moments([(cfg, geom)], con, (1,), float)[0]


def var_abs_A(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> float:
    """Variance of the combined channel response magnitude."""
    return _checked_moments([(cfg, geom)], con, (1, 2),
                            lambda _, variance: _checked_variance(variance))[0]


def gamma_fits(pairs: Sequence[tuple[LinkConfig, CylinderGeometry]],
               con: Constellation) -> list[GammaApprox]:
    """Two-moment Gamma fits of the combined response magnitude, one per
    (links, geometry) pair, all under one constellation.

    The batch shares its link factors and evaluates its RIS-distance
    moments in array passes (see _checked_moments), so a sweep fits all
    its points in one call. The first pair that cannot be fitted raises
    what gamma_approx raises for it alone.
    """
    return _checked_moments(pairs, con, (1, 2), _gamma_fit)


def gamma_approx(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> GammaApprox:
    """Two-moment Gamma fit of the combined response magnitude."""
    return gamma_fits([(cfg, geom)], con)[0]


@pointwise("magnitude")
def abs_A_pdf(x, ga: GammaApprox):
    """Gamma density of the combined response magnitude."""
    a, b = ga.alpha, ga.beta
    log_coeff = -a * math.log(b) - math.lgamma(a)
    return density(x, lambda xp: (a - 1.0) * np.log(xp) - xp / b + log_coeff, log_coeff, a - 1.0)


@pointwise("SNR")
def snr_pdf(x, ga: GammaApprox, rho0: float):
    """Density of the received SNR under the Gamma model.

    Equals abs_A_pdf(sqrt(x / rho0)) / (2 sqrt(rho0 x)) by change of
    variables; written directly to avoid the removable 0/0 at x = 0.
    """
    if not rho0 > 0:
        raise DomainError(f"rho0 must be > 0, got {rho0}")
    a, b = ga.alpha, ga.beta
    log_pref = -math.log(2.0) - a * math.log(b) - math.lgamma(a) - (a / 2.0) * math.log(rho0)
    return density(x, lambda xp: log_pref + (a - 2.0) / 2.0 * np.log(xp)
                   - np.sqrt(xp / (b * b * rho0)), log_pref, (a - 2.0) / 2.0)
