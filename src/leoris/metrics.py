"""Coverage probability and ergodic capacity of the Gamma-modeled link.

Coverage is an incomplete-Gamma tail. Capacity has a closed form in
generalized hypergeometric functions whose individual terms are singular
at every positive integer shape (the singularities cancel jointly);
near-integer shapes are handled by symmetric perturbation, cross-checked
against the quadrature oracle, and the oracle wins on disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from scipy.integrate import quad as _quad
from scipy.special import gammaincinv as _gammaincinv, gammainccinv as _gammainccinv

from .channel import GammaApprox
from .errors import ConvergenceError, DomainError
from .specfun import (
    AccuracyBudget,
    DEFAULT_BUDGET,
    digamma,
    generalized_pfq,
    ln_gamma,
    reg_lower_inc_gamma,
)

__all__ = [
    "CoverageQuery",
    "CapacityResult",
    "coverage_probability",
    "ergodic_capacity",
    "capacity_quadrature",
]

_LN2 = math.log(2.0)
_POLE_WINDOW = 1e-4
# Gamma mass left outside the quadrature range on each side
_QUANTILE_TAIL = 1e-30


@dataclass(frozen=True)
class CoverageQuery:
    """Linear SNR threshold and linear transmit SNR."""

    rho_th: float
    rho0: float

    def __post_init__(self) -> None:
        if self.rho_th < 0:
            raise DomainError(f"rho_th must be >= 0, got {self.rho_th}")
        if not self.rho0 > 0:
            raise DomainError(f"rho0 must be > 0, got {self.rho0}")


class CapacityResult(NamedTuple):
    """Capacity in bits/s/Hz plus a flag marking quadrature fallback."""

    bits: float
    fallback: bool

    def __float__(self) -> float:
        return self.bits


def coverage_probability(q: CoverageQuery, ga: GammaApprox) -> float:
    """P(SNR > rho_th) = upper regularized Gamma tail at
    sqrt(rho_th / rho0) / beta."""
    if q.rho_th == 0.0:
        return 1.0
    arg = math.sqrt(q.rho_th / q.rho0) / ga.beta
    return min(1.0, max(0.0, 1.0 - reg_lower_inc_gamma(ga.alpha, arg)))


def _capacity_closed_nats(alpha: float, z: float, budget: AccuracyBudget) -> float:
    """Closed-form E[ln(1 + y^2/z)] for y ~ Gamma(alpha, 1), z > 0.

    Raises ConvergenceError when a power term would overflow or the
    hypergeometric series cancel catastrophically.
    """
    arg = -0.25 * z
    lz = math.log(z)
    lga = ln_gamma(alpha)
    half = math.pi * alpha / 2.0

    e1 = 0.5 * alpha * lz - lga
    if e1 > 700.0:
        raise ConvergenceError("capacity closed form overflows; use quadrature")
    t1 = (math.pi / alpha) / math.sin(half) * math.exp(e1) \
        * generalized_pfq([alpha / 2.0], [0.5, 1.0 + alpha / 2.0], arg, budget)

    t2 = z / ((alpha - 1.0) * (alpha - 2.0)) \
        * generalized_pfq([1.0, 1.0], [2.0, 1.5 - alpha / 2.0, 2.0 - alpha / 2.0],
                          arg, budget)

    t3 = -(lz - 2.0 * digamma(alpha))

    e4 = 0.5 * (1.0 + alpha) * lz - lga
    if e4 > 700.0:
        raise ConvergenceError("capacity closed form overflows; use quadrature")
    t4 = -math.pi / (1.0 + alpha) / math.cos(half) * math.exp(e4) \
        * generalized_pfq([0.5 + alpha / 2.0], [1.5, 1.5 + alpha / 2.0], arg, budget)

    total = t1 + t2 + t3 + t4
    scale = max(abs(t1), abs(t2), abs(t3), abs(t4))
    if not math.isfinite(total) or (scale > 0 and abs(total) * 1e9 < scale):
        raise ConvergenceError("capacity closed form cancelled catastrophically")
    return total


def capacity_quadrature(ga: GammaApprox, rho0: float) -> float:
    """Numerical E[log2(1 + rho)] under the Gamma SNR model.

    Integrates in the magnitude variable where the law is a unit-scale
    Gamma, between its 1e-30 and 1 - 1e-30 quantiles and split at the
    mode, so the bulk (about sqrt(alpha) wide at distance alpha from the
    origin) is found at every shape. The sub-unit-shape case substitutes
    away the endpoint singularity first.
    """
    if not rho0 > 0:
        raise DomainError(f"rho0 must be > 0, got {rho0}")
    a = ga.alpha
    c = ga.beta * ga.beta * rho0
    lga = ln_gamma(a)
    hi = float(_gammainccinv(a, _QUANTILE_TAIL))

    def integrand(y: float) -> float:
        return math.log1p(c * y * y) * math.exp((a - 1.0) * math.log(y) - y - lga)

    def integrate(f, lo: float, up: float) -> float:
        val, _ = _quad(f, lo, up, epsabs=1e-11, epsrel=1e-11, limit=300)
        return val

    if a >= 1.0:
        mode = a - 1.0
        lo = min(float(_gammaincinv(a, _QUANTILE_TAIL)), mode)
        val = integrate(integrand, lo, mode) + integrate(integrand, mode, hi)
    else:
        # y = u^(1/a) flattens the y^(a-1) endpoint singularity on [0,1]
        def head(u: float) -> float:
            y = u ** (1.0 / a)
            return math.log1p(c * y * y) * math.exp(-y - lga) / a

        val = integrate(head, 0.0, 1.0) + integrate(integrand, 1.0, hi)
    return val / _LN2


def ergodic_capacity(ga: GammaApprox, rho0: float,
                     budget: AccuracyBudget = DEFAULT_BUDGET) -> CapacityResult:
    """Ergodic capacity in bits/s/Hz.

    Closed form when the shape is away from the joint poles at positive
    integers; within 1e-4 of one, the form is averaged at alpha +- 1e-4
    and validated against quadrature (which wins on > 1e-3 relative
    disagreement). Any overflow or cancellation failure also falls back
    to quadrature, flagged in the result.
    """
    if not rho0 > 0:
        raise DomainError(f"rho0 must be > 0, got {rho0}")
    alpha = ga.alpha
    z = 1.0 / (ga.beta * ga.beta * rho0)
    nearest = round(alpha)
    if nearest >= 1 and abs(alpha - nearest) < _POLE_WINDOW:
        try:
            hi = _capacity_closed_nats(alpha + _POLE_WINDOW, z, budget)
            lo = _capacity_closed_nats(alpha - _POLE_WINDOW, z, budget)
            value = 0.5 * (hi + lo) / _LN2
        except ConvergenceError:
            return CapacityResult(capacity_quadrature(ga, rho0), True)
        oracle = capacity_quadrature(ga, rho0)
        tol = 1e-3 * max(abs(oracle), 1e-12)
        if abs(value - oracle) > tol:
            return CapacityResult(oracle, True)
        return CapacityResult(value, False)
    try:
        value = _capacity_closed_nats(alpha, z, budget) / _LN2
    except ConvergenceError:
        return CapacityResult(capacity_quadrature(ga, rho0), True)
    if value < 0.0:
        # the closed form only goes negative through roundoff near zero capacity
        return CapacityResult(capacity_quadrature(ga, rho0), True)
    return CapacityResult(value, False)
