"""Coverage probability and ergodic capacity of the Gamma-modeled link.

Coverage is an incomplete-Gamma tail. Capacity has a closed form in
generalized hypergeometric functions whose individual terms are singular
at every positive integer shape (the singularities cancel jointly);
near-integer shapes take the quadrature oracle's value, flagged as a
fallback.

Both metrics are array passes over a batch of points, as a sweep
evaluates all its points: coverage is one incomplete-Gamma call, and
capacity sums each of its three series for the whole batch in one array
kernel, then runs the quadrature oracle only on the points it flags.
The single-point functions are batches of one.
The oracle imports scipy.integrate on its first call, so importing the
package loads only scipy.special from scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import (
    digamma as _digamma,
    gammaincc as _gammaincc,
    gammainccinv as _gammainccinv,
    gammaincinv as _gammaincinv,
)

from .channel import GammaApprox
from .errors import ComputationError, ConvergenceError, DomainError

__all__ = [
    "CoverageQuery",
    "CapacityResult",
    "coverage_probability",
    "coverage_probabilities",
    "ergodic_capacity",
    "ergodic_capacities",
    "capacity_quadrature",
]

_LN2 = math.log(2.0)
_POLE_WINDOW = 1e-4
_EPS = sys.float_info.epsilon
# largest rounding-error bound the closed form may carry, relative to its value
_CLOSED_FORM_RTOL = 1e-7
# Gamma mass left outside the quadrature range on each side
_QUANTILE_TAIL = 1e-30
# largest shape the quadrature evaluates. Its log density cancels terms of
# size alpha ln(alpha): against a 40-digit mpmath quadrature over
# beta = 1/alpha and rho0 from 3e-12 to 3e6, its worst relative error is
# 3.5e-8 for shapes up to 1e7, then 1.6e-7 at 1e8, 4e-4 at 1e11 and 1.7e-2
# at 1e13. The closed form gives up on every shape above about 2e4, whose
# series outrun their term budget, so no capacity is evaluated above it
_MAX_QUADRATURE_SHAPE = 1e7
# hypergeometric series: stop once 3 terms in a row fall below this share
# of the partial sum, give up after this many terms
_SERIES_RTOL = 1e-12
_SERIES_MAX_TERMS = 10_000
# terms of the series kernel's first chunk, and the most terms it holds
# in memory at once across the batch
_FIRST_CHUNK = 16
_CHUNK_ELEMENTS = 1 << 16
# how a series of the kernel ended
_SUMMED, _OUT_OF_TERMS, _CANCELLED = 0, 1, 2


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


def _shapes_scales(models: Sequence[GammaApprox]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([ga.alpha for ga in models], dtype=float),
            np.array([ga.beta for ga in models], dtype=float))


def _positive_snrs(rho0: Sequence[float]) -> np.ndarray:
    rho0 = np.asarray(rho0, dtype=float)
    bad = np.flatnonzero(~(rho0 > 0))
    if bad.size:
        raise DomainError(f"rho0 must be > 0, got {rho0[bad[0]]}")
    return rho0


def coverage_probabilities(models: Sequence[GammaApprox], rho_th: Sequence[float],
                           rho0: Sequence[float]) -> np.ndarray:
    """P(SNR > rho_th[i]) under models[i] at transmit SNR rho0[i]: the upper
    regularized Gamma tail at sqrt(rho_th / rho0) / beta, one call for the
    batch; a zero threshold reads 1. Raises ComputationError where the
    tail does not evaluate (scipy's gammaincc reads NaN at shapes near
    1e306)."""
    alpha, beta = _shapes_scales(models)
    rho_th = np.asarray(rho_th, dtype=float)
    bad = np.flatnonzero(~(rho_th >= 0))
    if bad.size:
        raise DomainError(f"rho_th must be >= 0, got {rho_th[bad[0]]}")
    rho0 = _positive_snrs(rho0)
    with np.errstate(over="ignore"):
        covered = _gammaincc(alpha, np.sqrt(rho_th / rho0) / beta)
    covered[rho_th == 0.0] = 1.0
    bad = np.flatnonzero(np.isnan(covered))
    if bad.size:
        i = bad[0]
        raise ComputationError(
            f"coverage: the Gamma tail does not evaluate for {models[i]} at "
            f"rho_th {float(rho_th[i])!r}, rho0 {float(rho0[i])!r}")
    return covered


def coverage_probability(q: CoverageQuery, ga: GammaApprox) -> float:
    """P(SNR > rho_th) = upper regularized Gamma tail at
    sqrt(rho_th / rho0) / beta."""
    return float(coverage_probabilities([ga], [q.rho_th], [q.rho0])[0])


def _pfq_batch(num: np.ndarray, den: np.ndarray,
               x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generalized hypergeometric series pFq(num[i]; den[i]; x[i]) for every
    row i of num (n, p), den (n, q) and x (n,).

    Returns each sum, its largest term magnitude (the sum's rounding error
    is about machine epsilon times that peak) and how it ended: _SUMMED,
    _OUT_OF_TERMS when the term budget runs out, or _CANCELLED when
    alternating-term cancellation has destroyed more than ~10 digits.

    A series stops once 3 terms in a row fall below _SERIES_RTOL of the
    partial sum. Small terms count toward the stop only from the first
    step at which every q + k is positive: until then a denominator near
    zero can make the terms grow again after a run of small ones.

    The series advance together in chunks of terms that double in length;
    a series that stops leaves the working arrays, so the batch costs
    about the sum of its series' lengths. Within a chunk each term and
    partial sum is one running product or sum along the row, in the order
    of a term-by-term loop, so every sum is what that loop returns. A sum
    that turns NaN can no longer stop and ends at once as _OUT_OF_TERMS.
    """
    n = x.size
    total, peak = np.ones(n), np.ones(n)
    status = np.full(n, _OUT_OF_TERMS, dtype=np.int8)
    settled = np.max(np.floor(-den) + 1.0, axis=1, initial=0.0)
    # working state of the series still running, by their row in the batch
    rows = np.arange(n)
    term, run_sum, run_peak = np.ones(n), np.ones(n), np.ones(n)
    below = np.zeros(n, dtype=np.int8)  # small terms in a row so far, < 3
    budget, k0, size = _SERIES_MAX_TERMS, 0, _FIRST_CHUNK
    with np.errstate(all="ignore"):
        while rows.size and k0 < budget:
            width = max(1, min(size, budget - k0, _CHUNK_ELEMENTS // rows.size))
            k = np.arange(k0, k0 + width)
            ratio = x[rows, None] / (k + 1.0)
            for j in range(num.shape[1]):
                ratio *= num[rows, j, None] + k
            for j in range(den.shape[1]):
                ratio /= den[rows, j, None] + k
            ratio[:, 0] *= term
            terms = np.multiply.accumulate(ratio, axis=1)
            sums = terms.copy()
            sums[:, 0] += run_sum
            np.add.accumulate(sums, axis=1, out=sums)
            mags = np.abs(terms)
            peaks = mags.copy()
            peaks[:, 0] = np.fmax(peaks[:, 0], run_peak)
            np.fmax.accumulate(peaks, axis=1, out=peaks)
            small = np.empty((rows.size, width + 2), dtype=bool)
            small[:, 0], small[:, 1] = below >= 2, below >= 1
            small[:, 2:] = (mags < _SERIES_RTOL * np.abs(sums)) & (k >= settled[rows, None])
            stops = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
            stopped = stops.any(axis=1)
            at = stops.argmax(axis=1)[stopped]
            done = rows[stopped]
            total[done] = sums[stopped, at]
            peak[done] = peaks[stopped, at]
            status[done] = np.where(np.abs(total[done]) * 1e10 < peak[done],
                                    _CANCELLED, _SUMMED)
            keep = ~stopped & ~np.isnan(sums[:, -1])
            rows = rows[keep]
            term, run_sum, run_peak = terms[keep, -1], sums[keep, -1], peaks[keep, -1]
            below = np.where(small[keep, -1], np.where(small[keep, -2], 2, 1), 0)
            k0 += width
            size *= 2
    return total, peak, status


def _pfq_series(num: tuple[float, ...], den: tuple[float, ...],
                x: float) -> tuple[float, float]:
    """Generalized hypergeometric series pFq(num; den; x): the series
    kernel on a batch of one.

    Returns the sum and the largest term magnitude. Raises
    ConvergenceError when the term budget runs out or when
    alternating-term cancellation has destroyed more than ~10 digits.
    """
    total, peak, status = _pfq_batch(np.array([num], dtype=float),
                                     np.array([den], dtype=float), np.array([x]))
    if status[0] == _OUT_OF_TERMS:
        raise ConvergenceError(
            f"hypergeometric series did not converge within {_SERIES_MAX_TERMS} terms")
    if status[0] == _CANCELLED:
        raise ConvergenceError(
            "hypergeometric series lost too much precision to "
            f"cancellation (peak term {peak[0]:.3e}, sum {total[0]:.3e})")
    return float(total[0]), float(peak[0])


def _each(fn, x: np.ndarray) -> np.ndarray:
    """fn at every element of x, by the scalar ``math`` routine."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _capacity_closed_nats(alpha: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form E[ln(1 + y^2/z)] for y ~ Gamma(alpha, 1), z > 0, at each
    (alpha[i], z[i]); returns the values and a mask of the valid ones.

    Each hypergeometric series carries a rounding error of about machine
    epsilon times its largest term, which grows quickly with z. A value
    is not valid at the form's poles (integer shapes), when a power term
    would overflow, when a series fails, or when its summed rounding-error
    bound exceeds 1e-7 of it. Logarithms, log-gamma, sines, cosines and
    exponentials come from ``math``, element by element; the arithmetic
    between them is IEEE in numpy as in Python floats, so each value is
    the scalar formula's to the bit. Each series runs on the points still
    valid.
    """
    nats = np.full(alpha.size, np.nan)
    valid = np.zeros(alpha.size, dtype=bool)
    lz = _each(math.log, z)
    lga = _each(math.lgamma, alpha)
    e1 = 0.5 * alpha * lz - lga
    e4 = 0.5 * (1.0 + alpha) * lz - lga
    live = np.flatnonzero((alpha != np.rint(alpha)) & ~(np.maximum(e1, e4) > 700.0))
    a, lz = alpha[live], lz[live]
    half = np.pi * a / 2.0
    a2, ones = a / 2.0, np.ones(live.size)
    arg = -0.25 * z[live]
    ok = np.ones(live.size, dtype=bool)
    terms, errors = [], []
    with np.errstate(all="ignore"):
        # (prefactor, numerator and denominator parameters) of each series
        series = (
            ((np.pi / a) / _each(math.sin, half) * _each(math.exp, e1[live]),
             (a2,), (0.5 * ones, 1.0 + a2)),
            (z[live] / ((a - 1.0) * (a - 2.0)),
             (ones, ones), (2.0 * ones, 1.5 - a2, 2.0 - a2)),
            (-np.pi / (1.0 + a) / _each(math.cos, half) * _each(math.exp, e4[live]),
             (0.5 + a2,), (1.5 * ones, 1.5 + a2)),
        )
        for pref, num, den in series:
            on = np.flatnonzero(ok)
            value, peak = np.zeros(live.size), np.zeros(live.size)
            value[on], peak[on], status = _pfq_batch(
                np.column_stack(num)[on], np.column_stack(den)[on], arg[on])
            ok[on] = status == _SUMMED
            terms.append(pref * value)
            errors.append(np.abs(pref) * peak)
        t1, t2, t4 = terms
        t3 = -(lz - 2.0 * _digamma(a))
        total = t1 + t2 + t3 + t4
        error = _EPS * (errors[0] + errors[1] + np.abs(t3) + errors[2])
        ok &= np.isfinite(total) & ~(error > _CLOSED_FORM_RTOL * np.abs(total))
    nats[live] = total
    valid[live] = ok
    return nats, valid


def _gain_out_of_range(ga: GammaApprox, rho0: float) -> ComputationError:
    return ComputationError(
        f"capacity: beta^2 rho0 leaves the float range for {ga} at rho0 {rho0!r}")


def capacity_quadrature(ga: GammaApprox, rho0: float) -> float:
    """Numerical E[log2(1 + rho)] under the Gamma SNR model.

    Integrates in the magnitude variable where the law is a unit-scale
    Gamma, between its 1e-30 and 1 - 1e-30 quantiles and split at the
    mode, so the bulk (about sqrt(alpha) wide at distance alpha from the
    origin) is found at every shape. The sub-unit-shape case substitutes
    away the endpoint singularity first. Shapes above 1e7, where the log
    density loses its digits, raise ComputationError.
    """
    # scipy.integrate loads scipy.optimize, linalg and sparse with it, so
    # it is imported on the first quadrature, not with the package
    from scipy.integrate import quad

    if not rho0 > 0:
        raise DomainError(f"rho0 must be > 0, got {rho0}")
    a = ga.alpha
    if a > _MAX_QUADRATURE_SHAPE:
        raise ComputationError(
            f"capacity: the quadrature is not evaluated for shapes above "
            f"{_MAX_QUADRATURE_SHAPE:g}, where its log density loses its digits: {ga}")
    c = ga.beta * ga.beta * rho0
    if not 0.0 < c < math.inf:
        raise _gain_out_of_range(ga, rho0)
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


def ergodic_capacities(models: Sequence[GammaApprox],
                       rho0: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Ergodic capacity in bits/s/Hz under models[i] at transmit SNR
    rho0[i], and a mask of the points that took the quadrature oracle's
    value.

    Closed form when the shape is away from the joint poles at positive
    integers; within 1e-4 of one, and wherever the form overflows,
    cancels or goes negative, the quadrature oracle's value. Raises
    ComputationError where beta^2 rho0 leaves the float range, and where
    the quadrature runs at a shape above 1e7.
    """
    alpha, beta = _shapes_scales(models)
    rho0 = _positive_snrs(rho0)
    with np.errstate(over="ignore"):
        gain = beta * beta * rho0
        bad = np.flatnonzero(~((gain > 0.0) & (gain < math.inf)))
        if bad.size:
            raise _gain_out_of_range(models[bad[0]], float(rho0[bad[0]]))
        # a subnormal gain gives z = inf, where the closed form overflows
        z = 1.0 / gain
    nearest = np.rint(alpha)
    fallback = (nearest >= 1) & (np.abs(alpha - nearest) < _POLE_WINDOW)
    closed = np.flatnonzero(~fallback)
    bits = np.empty(alpha.size)
    nats, valid = _capacity_closed_nats(alpha[closed], z[closed])
    bits[closed] = nats / _LN2
    # the closed form only goes negative through roundoff near zero capacity
    fallback[closed] = ~valid | (bits[closed] < 0.0)
    for i in np.flatnonzero(fallback):
        bits[i] = capacity_quadrature(models[i], float(rho0[i]))
    return bits, fallback


def ergodic_capacity(ga: GammaApprox, rho0: float) -> CapacityResult:
    """Ergodic capacity in bits/s/Hz.

    Closed form when the shape is away from the joint poles at positive
    integers; within 1e-4 of one, and wherever the form overflows or
    cancels, the quadrature oracle's value, flagged in the result.
    """
    bits, fallback = ergodic_capacities([ga], [rho0])
    return CapacityResult(float(bits[0]), bool(fallback[0]))
