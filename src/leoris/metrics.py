"""Coverage probability and ergodic capacity of the Gamma-modeled link.

Coverage is an incomplete-Gamma tail. Capacity has a closed form in
generalized hypergeometric functions whose individual terms are singular
at every positive integer shape (the singularities cancel jointly);
near-integer shapes are handled by symmetric perturbation, cross-checked
against the quadrature oracle, and the oracle wins on disagreement.
The oracle imports scipy.integrate on its first call, so importing the
package loads only scipy.special from scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from scipy.special import (
    digamma as _digamma,
    gammaincc as _gammaincc,
    gammainccinv as _gammainccinv,
    gammaincinv as _gammaincinv,
)

from .channel import GammaApprox
from .errors import ConvergenceError, DomainError

__all__ = [
    "CoverageQuery",
    "CapacityResult",
    "coverage_probability",
    "ergodic_capacity",
    "capacity_quadrature",
]

_LN2 = math.log(2.0)
_POLE_WINDOW = 1e-4
_EPS = sys.float_info.epsilon
# largest rounding-error bound the closed form may carry, relative to its value
_CLOSED_FORM_RTOL = 1e-7
# Gamma mass left outside the quadrature range on each side
_QUANTILE_TAIL = 1e-30
# hypergeometric series: stop once 3 terms in a row fall below this share
# of the partial sum, give up after this many terms
_SERIES_RTOL = 1e-12
_SERIES_MAX_TERMS = 10_000


@dataclass(frozen=True)
class CoverageQuery:
    """Linear SNR threshold and linear transmit SNR."""

    rho_th: float
    rho0: float

    def __post_init__(self) -> None:
        if not self.rho_th >= 0:
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
    return float(_gammaincc(ga.alpha, arg))


def _pfq_series(num: tuple[float, ...], den: tuple[float, ...],
                x: float) -> tuple[float, float]:
    """Generalized hypergeometric series pFq(num; den; x).

    Returns the sum and the largest term magnitude; the sum's rounding
    error is about machine epsilon times that peak. Raises
    ConvergenceError when the term budget runs out or when
    alternating-term cancellation has destroyed more than ~10 digits.

    Small terms count toward the stop only from the first step at which
    every q + k is positive: until then a denominator near zero can make
    the terms grow again after a run of small ones.
    """
    term = 1.0
    total = 1.0
    peak = 1.0
    below = 0
    settled = max([0, *(math.floor(-q) + 1 for q in den)])
    for k in range(_SERIES_MAX_TERMS):
        ratio = x / (k + 1.0)
        for p in num:
            ratio *= p + k
        for q in den:
            ratio /= q + k
        term *= ratio
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        if mag < _SERIES_RTOL * abs(total) and k >= settled:
            below += 1
            if below >= 3:
                if abs(total) * 1e10 < peak:
                    raise ConvergenceError(
                        "hypergeometric series lost too much precision to "
                        f"cancellation (peak term {peak:.3e}, sum {total:.3e})"
                    )
                return total, peak
        else:
            below = 0
    raise ConvergenceError(
        f"hypergeometric series did not converge within {_SERIES_MAX_TERMS} terms"
    )


def _capacity_closed_nats(alpha: float, z: float) -> float:
    """Closed-form E[ln(1 + y^2/z)] for y ~ Gamma(alpha, 1), z > 0.

    Each hypergeometric series carries a rounding error of about machine
    epsilon times its largest term, which grows quickly with z. Raises
    ConvergenceError at the form's poles (integer shapes), when a power
    term would overflow, or when the summed rounding-error bound exceeds
    1e-7 of the result.
    """
    if alpha == round(alpha):
        raise ConvergenceError(f"capacity closed form has a pole at shape {alpha}")
    arg = -0.25 * z
    lz = math.log(z)
    lga = math.lgamma(alpha)
    half = math.pi * alpha / 2.0
    e1 = 0.5 * alpha * lz - lga
    e4 = 0.5 * (1.0 + alpha) * lz - lga
    if max(e1, e4) > 700.0:
        raise ConvergenceError("capacity closed form overflows; use quadrature")

    def term(pref: float, num: tuple, den: tuple) -> tuple[float, float]:
        """pref * pFq(num; den; -z/4) and its rounding-error scale."""
        value, peak = _pfq_series(num, den, arg)
        return pref * value, abs(pref) * peak

    t1, r1 = term((math.pi / alpha) / math.sin(half) * math.exp(e1),
                  (alpha / 2.0,), (0.5, 1.0 + alpha / 2.0))
    t2, r2 = term(z / ((alpha - 1.0) * (alpha - 2.0)),
                  (1.0, 1.0), (2.0, 1.5 - alpha / 2.0, 2.0 - alpha / 2.0))
    t3 = -(lz - 2.0 * float(_digamma(alpha)))
    t4, r4 = term(-math.pi / (1.0 + alpha) / math.cos(half) * math.exp(e4),
                  (0.5 + alpha / 2.0,), (1.5, 1.5 + alpha / 2.0))
    total = t1 + t2 + t3 + t4
    error = _EPS * (r1 + r2 + abs(t3) + r4)
    if not math.isfinite(total) or error > _CLOSED_FORM_RTOL * abs(total):
        raise ConvergenceError("capacity closed form lost too many digits to cancellation")
    return total


def capacity_quadrature(ga: GammaApprox, rho0: float) -> float:
    """Numerical E[log2(1 + rho)] under the Gamma SNR model.

    Integrates in the magnitude variable where the law is a unit-scale
    Gamma, between its 1e-30 and 1 - 1e-30 quantiles and split at the
    mode, so the bulk (about sqrt(alpha) wide at distance alpha from the
    origin) is found at every shape. The sub-unit-shape case substitutes
    away the endpoint singularity first.
    """
    # scipy.integrate loads scipy.optimize, linalg and sparse with it, so
    # it is imported on the first quadrature, not with the package
    from scipy.integrate import quad

    if not rho0 > 0:
        raise DomainError(f"rho0 must be > 0, got {rho0}")
    a = ga.alpha
    c = ga.beta * ga.beta * rho0
    lga = math.lgamma(a)
    hi = float(_gammainccinv(a, _QUANTILE_TAIL))

    def integrand(y: float) -> float:
        return math.log1p(c * y * y) * math.exp((a - 1.0) * math.log(y) - y - lga)

    def integrate(f, lo: float, up: float) -> float:
        val, _ = quad(f, lo, up, epsabs=1e-11, epsrel=1e-11, limit=300)
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
    # the integrand is nonnegative; quad's roundoff can leave a tiny
    # negative sum where the capacity is near zero
    return max(val, 0.0) / _LN2


def ergodic_capacity(ga: GammaApprox, rho0: float) -> CapacityResult:
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
            hi = _capacity_closed_nats(alpha + _POLE_WINDOW, z)
            lo = _capacity_closed_nats(alpha - _POLE_WINDOW, z)
            value = 0.5 * (hi + lo) / _LN2
        except ConvergenceError:
            return CapacityResult(capacity_quadrature(ga, rho0), True)
        oracle = capacity_quadrature(ga, rho0)
        tol = 1e-3 * max(abs(oracle), 1e-12)
        if abs(value - oracle) > tol:
            return CapacityResult(oracle, True)
        return CapacityResult(value, False)
    try:
        value = _capacity_closed_nats(alpha, z) / _LN2
    except ConvergenceError:
        return CapacityResult(capacity_quadrature(ga, rho0), True)
    if value < 0.0:
        # the closed form only goes negative through roundoff near zero capacity
        return CapacityResult(capacity_quadrature(ga, rho0), True)
    return CapacityResult(value, False)
