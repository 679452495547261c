"""Coverage probability and ergodic capacity of the Gamma-modeled link.

Coverage is an incomplete-Gamma tail. Capacity has a closed form in
generalized hypergeometric functions whose individual terms are singular
at every positive integer shape (the singularities cancel jointly); near
them, and where the form overflows or cancels, a ray-rule integral with
no pole takes over, flagged as a fallback.

Both metrics are array passes over a batch of points, as a sweep
evaluates all its points: coverage is one incomplete-Gamma call, and
capacity sums each of its three series for the whole batch in one array
kernel, then runs the ray rule once on the points it flags. The
single-point functions are batches of one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import digamma as _digamma, gammaincc as _gammaincc

from .channel import GammaApprox
from .errors import ComputationError, DomainError

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
# below this shape the closed form's rounding-error estimate misses its loss
_CLOSED_FORM_MIN_SHAPE = 1e-3
_EPS = sys.float_info.epsilon
# largest rounding-error bound the closed form may carry, relative to its value
_CLOSED_FORM_RTOL = 1e-7
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
# the capacity's ray rule: u = ln r runs from r = 1e-16 / max(alpha b, 1) to
# r = 60, where e^(-r / sqrt 2) < 4e-19, over two windows at most 45 wide at
# either end, each of 24 Gauss-Legendre panels of 16 nodes (one window's on [0, 1])
_RAY_FLOOR, _RAY_TOP, _RAY_WINDOW = math.log(1e-16), math.log(60.0), 45.0
_RAY_NODES, _RAY_WEIGHTS = np.polynomial.legendre.leggauss(16)
_RAY_NODES = (np.arange(24)[:, None] + 0.5 * (_RAY_NODES + 1.0)).ravel() / 24.0
_RAY_WEIGHTS = np.tile(_RAY_WEIGHTS / 48.0, 48)
_EIGHTH_TURN = complex(math.sqrt(0.5), math.sqrt(0.5))
# Taylor coefficients of (log1p(z) - z) / z^2 and (expm1(w) - w) / w^2,
# summed below |z| = 0.1 and |w| = 0.5 to within 1e-17 of their sums
_LOG1P_TAIL = [(-1.0) ** (k + 1) / (k + 2) for k in range(16)]
_EXPM1_TAIL = [1.0 / math.factorial(k + 2) for k in range(14)]


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
    """Capacity in bits/s/Hz plus a flag marking the ray rule's value."""

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


def _capacity_ray_nats(alpha: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E[ln(1 + b^2 y^2)] for y ~ Gamma(alpha, 1) at each (alpha[i], b[i] > 0):
    2 Re int_0^inf e^-t (1 - (1 + i b t)^-alpha) dt / t (Hamdi, IEEE Trans.
    Commun., 2010), with no pole at any shape, on the ray t = r e^(-i pi/4),
    where both factors decay without oscillating. With z = b r e^(i pi/4),
    1 - (1 + z)^-alpha = -expm1(w), w = -alpha log1p(z). Where alpha b < 1
    its first-order term alpha z, whose integral i alpha b has no real part,
    is subtracted. Below the rule the integrand's real part is Re(alpha z)
    to 1e-32, adding 1e-16 cos(pi/4); between its windows it has a closed
    form. Each value sums its own nodes only, whatever the rest of the batch."""
    polyval = np.polynomial.polynomial.polyval
    nats = np.empty(alpha.size)
    step = max(1, _CHUNK_ELEMENTS // _RAY_WEIGHTS.size)
    for i in range(0, alpha.size, step):
        a, log_b = alpha[i:i + step, None], np.log(b[i:i + step, None])
        log_ab = np.log(a) + log_b
        sub = log_ab < 0.0
        lo = _RAY_FLOOR - np.maximum(log_ab, 0.0)
        half = np.minimum(0.5 * (_RAY_TOP - lo), _RAY_WINDOW)
        u = np.concatenate((lo + half * _RAY_NODES, _RAY_TOP - half * (1.0 - _RAY_NODES)), axis=1)
        with np.errstate(all="ignore"):
            s = np.exp(u + log_b)  # |z|
            # alpha z, from ln alpha + ln b: normal where z is not
            v = np.exp(u + log_ab) * _EIGHTH_TURN
            x = s * math.sqrt(0.5)
            q = x / (1.0 + x)
            log1p_z = np.log1p(x) + 0.5 * np.log1p(q * q) + 1j * np.arctan2(x, 1.0 + x)
            # alpha (log1p(z) - z) where |z| < 0.1
            tail = v * (s * _EIGHTH_TURN) * polyval(s * _EIGHTH_TURN, _LOG1P_TAIL)
            w = -np.where(s < 0.1, v + tail, a * log1p_z)
            # exp(w) is 0 below -800, where w's imaginary part may be infinite
            expm1_w = np.expm1(np.where(w.real > -800.0, w, w.real))
            rest = (np.where(s < 0.1, tail, a * log1p_z - v)
                    - np.where(np.abs(w) < 0.5, w * w * polyval(w, _EXPM1_TAIL), expm1_w - w))
            g = (np.exp(-np.exp(u) * _EIGHTH_TURN.conjugate())
                 * np.where(sub, rest, -expm1_w)).real
            # between the windows e^-t is 1, so the real part is 1 - Re z^-alpha (1 - alpha / z
            # + ...), whose integral to z^(-alpha-2) is within 1e-14 of the whole where |z| > e^6
            # there; elsewhere alpha > 8.6 and the real part is 1 to e^-52
            gap, lz = _RAY_TOP - lo - 2.0 * half, lo + half + log_b + 0.25j * np.pi
            ag = a * gap
            part = (np.where(ag < 0.5, ag * ag * polyval(-ag, _EXPM1_TAIL), ag + np.expm1(-ag))
                    + np.expm1(-ag) * np.expm1(-a * lz).real) / a
            for k, coeff in ((1, -a), (2, 0.5 * a * (a + 1.0))):
                part += (coeff * np.exp(-(a + k) * lz) * np.expm1(-(a + k) * gap)).real / (a + k)
            gap = np.where(lz.real > 6.0, part, gap)
        total = (g * _RAY_WEIGHTS).sum(axis=1, keepdims=True) * half + gap
        nats[i:i + step] = 2.0 * (total + np.where(sub, 0.0, 1e-16 * math.sqrt(0.5)))[:, 0]
    # rounding can leave a tiny negative sum only where the value is subnormal
    return np.maximum(nats, 0.0)


def _capacity_inputs(models: Sequence[GammaApprox], rho0: Sequence[float]):
    """Shapes, gains b = beta sqrt(rho0) and squared gains beta^2 rho0 of
    a batch; raises where b is not a positive float, which the ray rule
    needs. The squared gain may leave the floats."""
    (alpha, beta), rho0 = _shapes_scales(models), _positive_snrs(rho0)
    with np.errstate(over="ignore", under="ignore"):
        b = beta * np.sqrt(rho0)
        gain = beta * beta * rho0
    bad = np.flatnonzero(~(b > 0.0) | ~(b < math.inf))
    if bad.size:
        raise ComputationError(f"capacity: beta sqrt(rho0) leaves the float range for "
                               f"{models[bad[0]]} at rho0 {float(rho0[bad[0]])!r}")
    return alpha, b, gain


def capacity_quadrature(ga: GammaApprox, rho0: float) -> float:
    """E[log2(1 + rho)] under the Gamma SNR model by the ray rule, at any
    shape: the value ergodic_capacity takes where it flags a fallback."""
    alpha, b, _ = _capacity_inputs([ga], [rho0])
    return float(_capacity_ray_nats(alpha, b)[0]) / _LN2


def ergodic_capacities(models: Sequence[GammaApprox],
                       rho0: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Ergodic capacity in bits/s/Hz under models[i] at transmit SNR
    rho0[i], and a mask of the points that took the ray rule's value.

    Closed form away from the joint poles at positive integer shapes and
    from shapes below 1e-3; within 1e-4 of a pole, below that shape, where
    beta^2 rho0 leaves the floats, and wherever the form overflows,
    cancels or goes negative, the ray rule's value, from one call for all
    such points. Raises ComputationError where beta sqrt(rho0) leaves the
    float range."""
    alpha, b, gain = _capacity_inputs(models, rho0)
    nearest = np.rint(alpha)
    fallback = (((nearest >= 1) & (np.abs(alpha - nearest) < _POLE_WINDOW))
                | (alpha < _CLOSED_FORM_MIN_SHAPE) | ~(gain > 0.0) | ~(gain < math.inf))
    closed = np.flatnonzero(~fallback)
    bits = np.empty(alpha.size)
    with np.errstate(over="ignore"):
        # a subnormal gain gives z = inf, where the closed form overflows
        z = 1.0 / gain[closed]
    nats, valid = _capacity_closed_nats(alpha[closed], z)
    bits[closed] = nats / _LN2
    # the closed form only goes negative through roundoff near zero capacity
    fallback[closed] = ~valid | (bits[closed] < 0.0)
    bits[fallback] = _capacity_ray_nats(alpha[fallback], b[fallback]) / _LN2
    return bits, fallback


def ergodic_capacity(ga: GammaApprox, rho0: float) -> CapacityResult:
    """Ergodic capacity in bits/s/Hz at one point, flagged where it is the
    ray rule's value, as ergodic_capacities."""
    bits, fallback = ergodic_capacities([ga], [rho0])
    return CapacityResult(float(bits[0]), bool(fallback[0]))
