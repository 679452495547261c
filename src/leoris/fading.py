"""Generalized two-parameter fading envelopes, normalized to unit mean
power, with matching exact samplers.

The family covers Rayleigh (kappa=0, mu=1), Rice (kappa=k, mu=1),
Nakagami-m (kappa=0, mu=m) and the one-sided Gaussian (kappa=0, mu=0.5)
as special cases. The power W = 2*mu*(1 + kappa)*|h|^2 is noncentral
chi-square with 2*mu degrees of freedom and noncentrality 2*kappa*mu, which
is what the density (in logarithms), the distribution and the samplers of
W and of the envelope build on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtr as _chdtr, chndtr as _chndtr, ive as _ive

from .errors import ComputationError, ConvergenceError, DomainError, density, pointwise

__all__ = [
    "KappaMuParams",
    "envelope_moment",
    "envelope_pdf",
    "envelope_cdf",
    "sample_envelope",
    "sample_power",
]


@dataclass(frozen=True)
class KappaMuParams:
    """Dominant-to-scattered power ratio and cluster count of one link.

    The envelope is always normalized so E[|h|^2] = 1.
    """

    kappa: float
    mu: float

    def __post_init__(self) -> None:
        if not 0 <= self.kappa < math.inf:
            raise DomainError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not 0 < self.mu < math.inf:
            raise DomainError(f"mu must be finite and > 0, got {self.mu}")

    @property
    def power_scale(self) -> float:
        """2 mu (1 + kappa), the mean of the power W = 2 mu (1 + kappa) |h|^2."""
        return 2.0 * self.mu * (1.0 + self.kappa)


# B_2k / (2k (2k - 1)), k = 1..7: Stirling series of ln Gamma
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0)
# the mixture sum stops once the terms left, bounded by a geometric
# series, fall below this share of the sum
_TAIL = 1e-17
_MAX_TERMS = 100_000
# exp() of a log density below this rounds to 0, times any factor <= 1
_LOG_UNDERFLOW = math.log(np.nextafter(0.0, 1.0)) - 1.0
# a factor that underflowed to 0 (below the smallest normal float) can hide
# a density above underflow only where the rest of its log is above this
_LOG_HIDDEN = _LOG_UNDERFLOW - math.log(np.finfo(float).tiny)
# elements per slice of a power draw's normals (128 KiB of scratch)
_SLICE = 16_384


def _log_gamma_ratio(a: float, s: float) -> float:
    """ln(Gamma(a + s) / (Gamma(a) a^s)) for a > 0, s > 0.

    Below a = 10 the lgamma difference is accurate; above, the difference
    of two Stirling series, with the leading terms folded into log1p, keeps
    the accuracy that lgamma differences lose in proportion to a ln a.
    """
    if a < 10.0:
        return math.lgamma(a + s) - math.lgamma(a) - s * math.log(a)
    series = sum(c * ((a + s) ** (1 - 2 * k) - a ** (1 - 2 * k))
                 for k, c in enumerate(_STIRLING, 1))
    return (a + s - 0.5) * math.log1p(s / a) - s + series


def _square_excess(x: np.ndarray) -> np.ndarray:
    """y - ln(1 + y), y = x^2 - 1, for x > 0. Near x = 1 the difference
    cancels, so where |u| < 0.2, u = y / (2 + y), it is the atanh series
    2 u^2 (1 / (1 - u) - u (1/3 + u^2/5 + ... + u^22/25)), to 1e-17."""
    y = (x - 1.0) * (x + 1.0)
    out = y - 2.0 * np.log(x)
    near = (y > -1.0 / 3.0) & (y < 0.5)
    u = y[near] / (y[near] + 2.0)
    tail = np.polynomial.polynomial.polyval(u * u, 1.0 / np.arange(3.0, 27.0, 2.0))
    out[near] = 2.0 * u * u * (1.0 / (1.0 - u) - u * tail)
    return out


def envelope_moment(t: float, p: KappaMuParams) -> float:
    """E[|h|^t] of the unit-power envelope.

    (1 + kappa) mu |h|^2 is a Poisson(kappa mu) mixture of Gamma(mu + j)
    laws, so with lam = kappa mu and s = t / 2

        E[|h|^t] = sum_j Pois(j; lam) Gamma(mu + j + s) / Gamma(mu + j)
                   / ((1 + kappa) mu)^s.

    Every term is positive, so nothing cancels at any kappa or mu. The
    sum runs outward from the Poisson mode j0 = floor(lam) with weights
    relative to the mode's, normalized by their own sum, and the mode's
    Gamma ratio comes from a Stirling difference. Raises
    ConvergenceError past 100 000 terms (lam beyond about 1e8).
    """
    if not 0 < t < math.inf:
        raise DomainError(f"moment order must be finite and > 0, got {t}")
    k, m = p.kappa, p.mu
    lam, s = k * m, t / 2.0
    j0 = math.floor(lam)
    # (sum of w_j r_j, sum of w_j) with w the Poisson weight and r the
    # Gamma ratio, both relative to the mode's
    num = den = 1.0
    terms = 0
    for step in (1, -1):
        w = r = 1.0
        j = j0
        while step == 1 or j > 0:
            if step == 1:
                dw, dr = lam / (j + 1), (m + j + s) / (m + j)
            else:
                dw, dr = j / lam, (m + j - 1) / (m + j - 1 + s)
            w *= dw
            r *= dr
            j += step
            num += w * r
            den += w
            # this term over the last; the ratios only shrink away from the
            # mode, so the terms left sum to less than w r ratio / (1 - ratio)
            ratio = dw * dr
            if ratio < 1.0 and w * r * ratio < _TAIL * (1.0 - ratio) * num:
                break
            terms += 1
            if terms > _MAX_TERMS:
                raise ConvergenceError(
                    f"envelope moment needs more than {_MAX_TERMS} mixture terms "
                    f"at kappa * mu = {lam:.6g}")
    return math.exp(_log_gamma_ratio(m + j0, s)
                    + s * math.log1p((j0 - lam) / (m + lam))) * (num / den)


@pointwise("envelope value")
def envelope_pdf(x, p: KappaMuParams):
    """Density of the unit-power envelope on x >= 0, in logarithms; its
    leading term at x -> 0 is 2 (mu (1 + kappa))^mu e^(-kappa mu)
    x^(2 mu - 1) / Gamma(mu) at every kappa.

    For kappa > 0 the scaled Bessel factor ive(mu - 1, b x), at most 1
    from b x = 1 on, is read only where it can lift the density above
    underflow. That keeps it off scipy's ive past an argument of about
    1e9, where ive is NaN, for every law whose kappa * mu is below 5e8;
    a larger law that needs ive there raises ComputationError, as does a
    law whose ive underflows to 0 where the density may not.
    """
    k, m = p.kappa, p.mu
    log_coeff = math.log(2.0) + m * (math.log(m) + math.log1p(k)) - m * k - math.lgamma(m)
    if k == 0.0:
        # Nakagami-m with unit power. From mu = 10 on, where ln Gamma(mu)
        # cancels against mu ln mu, its log is ln 2 + (ln mu - ln 2 pi) / 2
        # - S(mu) - ln x - mu (y - ln(1 + y)), y = x^2 - 1, with S(mu) the
        # Stirling series ln Gamma(mu) - (mu - 1/2) ln mu + mu - ln(2 pi) / 2
        if m < 10.0:
            return density(x, lambda xp: log_coeff + (2.0 * m - 1.0) * np.log(xp) - m * xp * xp,
                           log_coeff, 2.0 * m - 1.0)
        log_c = math.log(2.0 * math.sqrt(m / (2.0 * math.pi))) - sum(
            c * m ** (1 - 2 * j) for j, c in enumerate(_STIRLING, 1))
        return density(x, lambda xp: log_c - np.log(xp) - m * _square_excess(xp),
                       log_coeff, 2.0 * m - 1.0)
    b = 2.0 * m * math.sqrt(k * (1.0 + k))
    log_c = math.log(2.0 * m) + (m + 1.0) / 2.0 * math.log1p(k) - (m - 1.0) / 2.0 * math.log(k)

    def log_density(xp):
        # exponent is -mu*(sqrt(kappa) - sqrt(1+kappa)*x)^2 once the
        # scaled Bessel's e^{|bx|} is folded in
        out = log_c + m * np.log(xp) - m * (math.sqrt(k) - math.sqrt(1.0 + k) * xp) ** 2
        z = b * xp
        read = (out > _LOG_UNDERFLOW) | (z < 1.0)
        bessel = _ive(m - 1.0, z[read])
        if (np.isnan(bessel) | ((bessel == 0.0) & (out[read] > _LOG_HIDDEN))).any():
            raise ComputationError(f"envelope density of kappa = {k:.6g}, mu = {m:.6g} needs "
                                   "the scaled Bessel function where scipy reads NaN or 0")
        out[read] += np.log(bessel)
        out[~read] = -np.inf
        return out
    return density(x, log_density, log_coeff, 2.0 * m - 1.0)


@pointwise("envelope value", nonnegative=False)
def envelope_cdf(x, p: KappaMuParams):
    """Distribution of the unit-power envelope, via the noncentral
    chi-square law of the squared envelope; 0 for x <= 0."""
    k, m = p.kappa, p.mu
    # q overflows to inf only where the distribution is 1
    with np.errstate(over="ignore"):
        q = p.power_scale * np.square(np.clip(x, 0.0, None))
    return _chdtr(2.0 * m, q) if k == 0.0 else _chndtr(q, 2.0 * m, 2.0 * k * m)


def sample_power(p: KappaMuParams, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Exact draws of the power W = 2 mu (1 + kappa) |h|^2 into ``out``, a
    C-contiguous float64 array of any shape, which is returned.

    numpy's per-element noncentral chi-square recipe, vectorized, so the
    law is numpy's: W = 2 Gamma(mu) at kappa = 0; 2 Gamma(mu - 1/2) +
    (Z + sqrt(2 kappa mu))^2 for 2 mu > 1, every gamma drawn before every
    normal; else numpy's Poisson mixture. Normals and mixture draws go
    through slices of _SLICE elements, so no second array of out's size is
    held, and the bits do not depend on the slice.
    """
    if out.dtype != np.float64 or not out.flags.c_contiguous:
        raise DomainError("sample_power needs a C-contiguous float64 output array")
    k, m = p.kappa, p.mu
    if k == 0.0 or m > 0.5:
        rng.standard_gamma(m if k == 0.0 else m - 0.5, out=out)
        out *= 2.0
        if k == 0.0:
            return out
    flat, shift = out.reshape(-1), math.sqrt(2.0 * k * m)
    for lo in range(0, flat.size, _SLICE):
        part = flat[lo:lo + _SLICE]
        if m > 0.5:
            z = rng.standard_normal(part.size)
            z += shift
            part += np.square(z, out=z)
        else:
            part[...] = rng.noncentral_chisquare(2.0 * m, 2.0 * k * m, part.size)
    return out


def sample_envelope(p: KappaMuParams, rng: np.random.Generator,
                    size: int | tuple[int, ...] | None = None):
    """Exact draws of the unit-power envelope, sqrt(W / (2 mu (1 + kappa)))
    with W from sample_power; a float for ``size=None``."""
    w = sample_power(p, rng, np.empty(() if size is None else size))
    # in place: no scaled copy or root beside the draw
    w /= p.power_scale
    np.sqrt(w, out=w)
    return float(w) if size is None else w
