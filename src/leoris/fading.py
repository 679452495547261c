"""Generalized two-parameter fading envelopes, normalized to unit mean
power, with matching exact samplers.

The family covers Rayleigh (kappa=0, mu=1), Rice (kappa=k, mu=1),
Nakagami-m (kappa=0, mu=m) and the one-sided Gaussian (kappa=0, mu=0.5)
as special cases. The power W = 2*mu*(1 + kappa)*|h|^2 is noncentral
chi-square with 2*mu degrees of freedom and noncentrality 2*kappa*mu, which
is what the density (in logarithms), the distribution and the samplers of
W and of the envelope build on.

A RIS's element sum S = sum_l |h_sat,l| |h_user,l| enters a simulation
through its law alone, which depends only on the hops' laws and the
element count. element_sum_tables builds that law's quantile function
from envelope_pdf, and a SumTable draws S from one logistic variate;
each table is gated against the exact mean and variance, and its nodes
against the law of the same construction at twice the resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtr as _chdtr, chndtr as _chndtr, ive as _ive

from .errors import ComputationError, ConvergenceError, DomainError, density, pointwise

__all__ = [
    "KappaMuParams",
    "SumTable",
    "element_sum_tables",
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


def sample_power(p: KappaMuParams, rng: np.random.Generator,
                 size: int | tuple[int, ...] | None = None, out=None):
    """Exact draws of the power W = 2 mu (1 + kappa) |h|^2, numpy's own: 2
    Gamma(mu) at kappa = 0, else noncentral chi-square with 2 mu degrees
    of freedom and noncentrality 2 kappa mu; a float for ``size=None``.
    ``out``, a float array that sets the size, receives the draws; numpy's
    gamma sampler fills it in place, its noncentral chi-square one (which
    takes no ``out``) through a copy."""
    k, m = p.kappa, p.mu
    if k > 0.0:
        w = rng.noncentral_chisquare(2.0 * m, 2.0 * k * m, size if out is None else out.shape)
        if out is None:
            return w
        out[...] = w
        return out
    w = rng.standard_gamma(m, size if out is None else None, out=out)
    w *= 2.0
    return w


class SumTable:
    """Quantile function of a RIS's element sum S = sum_l |h_sat,l| |h_user,l|
    over its unit-power envelopes, read at z = logit(u): a cubic Hermite
    interpolant on nodes dz apart from -_TABLE_Z to _TABLE_Z. Beyond the
    end nodes, 2^-40 of the mass on each side, it reads the node's value."""

    def __init__(self, law: tuple, log: bool):
        """The table of ``law`` (y, cdf, density on the uniform grid y, of
        ln S where ``log``): each node solves cdf = u on the cubic Hermite
        interpolant of its grid cell by Newton's method."""
        y, cdf, _ = law
        z = np.linspace(-_TABLE_Z, _TABLE_Z, 3549)
        u = 1.0 / (1.0 + np.exp(-z))
        i = np.clip(np.searchsorted(cdf, u) - 1, 0, cdf.size - 2)
        s = np.clip((u - cdf[i]) / np.maximum(cdf[i + 1] - cdf[i], 1e-300), 0.0, 1.0)
        for _ in range(8):
            value, slope = _hermite(law, i, s)
            s = np.clip(s - (value - u) / np.where(slope > 0.0, slope, np.inf), 0.0, 1.0)
        q = y[i] + s * (y[1] - y[0])
        # dq/dz = u (1 - u) / density
        dq = u * (1.0 - u) * (y[1] - y[0]) / np.where(slope > 0.0, slope, np.inf)
        if log:
            q = np.exp(q)
            dq *= q
        self.z0, self.dz, self.q = float(z[0]), float(z[1] - z[0]), q
        m0, m1 = dq[:-1] * self.dz, dq[1:] * self.dz
        d = q[1:] - q[:-1]
        # per cell, the cubic in s = (z - z_i) / dz: one contiguous row per
        # power, from the constant up, so that each Horner step gathers one
        self.coef = np.stack([q[:-1], m0, 3.0 * d - 2.0 * m0 - m1, m0 + m1 - 2.0 * d])

    def cells(self, z: np.ndarray, out=None, work=None) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and fraction of each z, for every table of this grid.
        ``out``, a pair of an intp and a float array of z's shape (the
        float one may be z), receives them, and ``work``, of z's shape, the
        cells as floats."""
        i, r = (np.empty(np.shape(z), np.intp), None) if out is None else out
        r = np.subtract(z, self.z0, out=r)
        r /= self.dz
        cells = self.coef.shape[1]
        np.clip(r, 0.0, cells, out=r)
        f = np.floor(r, out=work)
        np.minimum(f, cells - 1, out=f)
        r -= f
        np.copyto(i, f, casting="unsafe")
        return i, r

    def at(self, i: np.ndarray, s: np.ndarray, out=None, work=None) -> np.ndarray:
        """S at the cells and fractions ``cells`` gives (indices in range),
        into ``out``; ``work``, a float array of i's shape, receives one
        power's coefficients of their cells at a time."""
        out = self.coef[3].take(i, mode="clip", out=out)
        for power in (2, 1, 0):
            out *= s
            out += self.coef[power].take(i, mode="clip", out=work)
        return out

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """S at each z; a logistic z draws S from the table's law."""
        return self.at(*self.cells(z))

    def moments(self, center: float) -> tuple[float, float]:
        """Mean and variance of the law the table draws, by 4-point
        Gauss-Legendre in z on each cell; the variance about ``center``."""
        s, c = _CELL_NODES, self.coef[:, :, None]
        q = c[0] + s * (c[1] + s * (c[2] + s * c[3]))
        u = 1.0 / (1.0 + np.exp(-(self.z0 + self.dz * (np.arange(len(q))[:, None] + s))))
        du = u * (1.0 - u) * (_CELL_WEIGHTS * self.dz)
        tail = 1.0 / (1.0 + math.exp(_TABLE_Z))
        ends = self.q[[0, -1]]
        dev = np.square(q - center)
        return (float((q * du).sum() + ends.sum() * tail),
                float((dev * du).sum() + np.square(ends - center).sum() * tail))


# SumTable nodes span logit(u) for u from 2^-40 to 1 - 2^-40
_TABLE_Z = 40.0 * math.log(2.0)
# 4-point Gauss-Legendre rule on [0, 1], per cell of a SumTable's moments
_CELL_NODES, _CELL_WEIGHTS = np.polynomial.legendre.leggauss(4)
_CELL_NODES, _CELL_WEIGHTS = 0.5 * (_CELL_NODES + 1.0), 0.5 * _CELL_WEIGHTS
# log-grid floor: the mass of ln|h| below it is taken to sit at |h| = 0,
# and a pair with more than _MAX_LUMP there, or whose grid would pass
# _MAX_LOG_NODES at the base resolution, is not tabulated
_LOG_FLOOR = -36.0
_MAX_LUMP = 2.0 ** -40
_MAX_LOG_NODES = 1 << 17
# a sum's window leaves out at most this mass on each side (Chernoff bound),
# from exponent arrays of at most _MGF_VALUES values (2 MiB)
_WINDOW_TAIL = 1e-18
_MGF_VALUES = 1 << 18
# frequencies double until |phi|^count falls below this over their top
# quarter, which bounds the Fourier series' truncation error in the CDF
_PHI_TAIL = 1e-10
# most frequencies one table may take at the base resolution
_MAX_FREQUENCIES = 1 << 14
# Gaussian spreading half-width of the nonuniform FFT (about 1e-16 accuracy),
# and the nodes it spreads at a time (128 KiB per array)
_SPREAD = 16
_SPREAD_NODES = 512
# gate on each table: mean, variance, and sup CDF distance at its nodes to
# the law built with every grid twice as fine
_GATE = (1e-9, 1e-8, 1e-9)


def _log_product_density(sat: KappaMuParams, user: KappaMuParams):
    """(t0, dt, g) at the base step and at half of it: the density g of
    ln(|h_sat| |h_user|) at t0 + dt j, the direct convolution of the hops'
    log densities g(t) = e^t f(e^t), each evaluated once, on the fine grid.
    The base step resolves the narrower hop and the span reaches each
    hop's negligible tails; mass below _LOG_FLOOR is left out. Raises
    ComputationError where the grid would pass _MAX_LOG_NODES, or more
    than _MAX_LUMP of the mass lies below the floor, as envelope_pdf does
    where it cannot evaluate a hop's law."""
    laws = (sat, user)
    spread = [math.sqrt(1.0 - m * m) / m for m in (envelope_moment(1.0, p) for p in laws)]
    lo = min(max(_LOG_FLOOR, -50.0 * s) for s in spread)
    hi = max(min(0.5 * math.log1p(90.0 / p.mu) + 1.0, 50.0 * s) for p, s in zip(laws, spread))
    nodes = (hi - lo) * 8.0 / min(spread) if min(spread) > 0.0 else math.inf
    if nodes > _MAX_LOG_NODES:
        raise ComputationError(f"the log grid of sat {sat}, user {user} would need "
                               f"{nodes:.3g} nodes")
    dt = min(1.0 / 16.0, min(spread) / 8.0)
    # (dt / 2) (2 j) rounds as dt j: the even nodes are the base grid's
    x = np.exp(lo + dt / 2.0 * np.arange(2 * math.ceil((hi - lo) / dt) + 1))
    hops = [envelope_pdf(x, p) * x for p in laws]

    def trim(t0, h, g):  # the nodes above 1e-30 of the peak
        keep = np.flatnonzero(g > 1e-30 * g.max())
        return t0 + h * keep[0], h, g[keep[0]:keep[-1] + 1]

    out = []
    for h, step in ((dt, 2), (dt / 2.0, 1)):
        (t1, _, g1), (t2, _, g2) = (trim(lo, h, g[::step]) for g in hops)
        g = np.convolve(g1, g2) * h
        if 1.0 - g.sum() * h > _MAX_LUMP:
            raise ComputationError(f"{1.0 - g.sum() * h:.3g} of the law of sat {sat}, "
                                   f"user {user} lies below the log grid")
        out.append(trim(t1 + t2, h, g))
    return out


def _hermite(law: tuple, i: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cubic Hermite interpolant of the distribution of ``law`` (y, cdf,
    density on the uniform grid y) at fraction s of cells i, and its slope."""
    y, cdf, density = law
    h = y[1] - y[0]
    f0, f1, d0, d1 = cdf[i], cdf[i + 1], density[i] * h, density[i + 1] * h
    r = 1.0 - s
    return (f0 + (f1 - f0) * s * s * (3.0 - 2.0 * s) + s * r * (d0 * r - d1 * s),
            6.0 * (f1 - f0) * s * r + d0 * r * (1.0 - 3.0 * s) + d1 * s * (3.0 * s - 2.0))


def _fourier_cdf(psi: np.ndarray, n: int):
    """Distribution and density (times the period P) at y = m P / n, m < n,
    of a law on [0, P) with psi_k = E exp(2 pi i k Y / P), k = 0..K, by its
    Fourier series (Abate & Whitt 1992) truncated after K, made monotone
    and nonnegative."""
    k = np.arange(1, psi.size)
    # n irfft(c)[m] = 2 Re sum_k conj(c_k) e^(-2 pi i k m / n) for c_0 = 0
    c = np.zeros(n // 2 + 1, dtype=complex)
    c[k] = np.conj(psi[1:] / (2j * math.pi * k))
    cdf = psi[0].real * np.arange(n) / n + 2.0 * c.sum().real - n * np.fft.irfft(c, n)
    c[k] = np.conj(psi[1:])
    return np.maximum.accumulate(cdf), np.maximum(psi[0].real + n * np.fft.irfft(c, n), 0.0)


def _nufft(weights: np.ndarray, angles: np.ndarray, count: int) -> np.ndarray:
    """sum_j weights_j exp(i k angles_j) for k = 0..count-1, by Gaussian
    gridding on 4 count points (Greengard & Lee, SIAM Review 46, 2004)."""
    grid = 4 * count
    tau = math.pi * _SPREAD / (12.0 * count * count)
    offsets = np.arange(1 - _SPREAD, _SPREAD + 1)
    spread = np.zeros(grid)
    for lo in range(0, angles.size, _SPREAD_NODES):
        x = np.mod(-angles[lo:lo + _SPREAD_NODES], 2.0 * math.pi)
        cells = np.floor(x * grid / (2.0 * math.pi)).astype(np.intp)[:, None] + offsets
        kernel = np.exp(-np.square(2.0 * math.pi * cells / grid - x[:, None]) / (4.0 * tau))
        spread += np.bincount((cells % grid).ravel(),
                              (weights[lo:lo + _SPREAD_NODES, None] * kernel).ravel(), grid)
    k = np.arange(count)
    return np.fft.fft(spread)[:count] / grid * math.sqrt(math.pi / tau) * np.exp(k * k * tau)


def _characteristic(t0: float, h: float, dense: np.ndarray, lump: float, step: float,
                    count: int, ds: float) -> np.ndarray:
    """phi(k step) = E exp(i k step X), k = 0..count-1, where ln X has the
    density ``dense`` on the grid t0 + h j and X = 0 with probability
    ``lump``. The trapezoid rule runs in s, x = a ln(1 + e^s): steps ds in
    ln x near 0 and a ds = pi / 2 / (highest frequency) in x at large x,
    so nodes resolve both the density and the oscillation."""
    a = math.pi / 2.0 / (step * count * ds)
    # s of x = e^t0 to the top of the grid, by s = y + ln(1 - e^-y), y = x / a
    lo, hi = (y + math.log(-math.expm1(-y))
              for y in (math.exp(t0) / a, math.exp(t0 + h * (dense.size - 1)) / a))
    s = np.arange(lo, hi, ds)
    x = a * np.logaddexp(0.0, s)
    # 8-point Lagrange interpolation of the density at ln x
    r = (np.log(x) - t0) / h
    j = np.clip(np.floor(r).astype(np.intp), 3, dense.size - 5)
    r -= j
    value = np.zeros_like(x)
    for m in range(-3, 5):
        basis = np.ones_like(x)
        for l in range(-3, 5):
            if l != m:
                basis *= (r - l) / (m - l)
        value += basis * dense[j + m]
    # density of ln X times dln x / ds
    weights = value * (a * ds / x) / (1.0 + np.exp(-s))
    return _nufft(weights, step * x, count) + lump


def _sum_law(t0: float, dt: float, g: np.ndarray, count: int, fine: int,
             frequencies: int | None = None) -> tuple[tuple, int]:
    """The law (y, cdf, density on the uniform grid y) of the sum S of
    ``count`` independent copies of X, with ln X of density g at t0 + dt j
    and X = 0 for the mass below, and the number of frequencies it used.

    One element's law is the Fourier series of ln X on the log grid. A
    sum's window [a, b] holds all but _WINDOW_TAIL on each side by
    Chernoff bounds, and its Fourier series takes phi^count, phi of X from
    _characteristic, with the frequencies doubling from 256 until
    |phi|^count falls below _PHI_TAIL over their top quarter, unless
    ``frequencies`` fixes them. ``fine`` = 2 doubles the window and the
    grid's nodes; with the caller's halved log step and 4 times the
    frequencies, every grid is twice as fine."""
    w = g * dt
    lump = max(0.0, 1.0 - w.sum())
    m = 2 << (g.size - 1).bit_length()
    if count == 1:
        psi = np.conj(np.fft.rfft(g, m)) * dt
        cdf, density = _fourier_cdf(psi, 8 * m)
        return (t0 + dt / 8.0 * np.arange(8 * m), cdf + lump, density / (m * dt)), 0
    x = np.exp(t0 + dt * np.arange(g.size))
    # P(S > b) <= E exp(theta (S - b)) and P(S < a) <= E exp(theta (a - S)):
    # ln E exp(theta X) at theta = +-thetas, each row of exponents theta x
    # shifted by its maximum floored at 0; a dot product per row, as a
    # matrix-vector product would sum in another order
    thetas, tail = np.geomspace(1e-3, 1e2, 48).tolist(), -math.log(_WINDOW_TAIL)
    signed, log_mgf = np.array(thetas + [-theta for theta in thetas]), []
    rows = max(1, _MGF_VALUES // x.size)
    for lo in range(0, signed.size, rows):
        e = np.multiply.outer(signed[lo:lo + rows], x)
        top = np.maximum(e.max(axis=1), 0.0)
        e -= top[:, None]
        np.exp(e, out=e)
        log_mgf += [math.log(float(row @ w) + lump * math.exp(-t)) + t
                    for row, t in zip(e, top.tolist())]
    b = min((count * k + tail) / theta for theta, k in zip(thetas, log_mgf[:48]))
    a = max(0.0, max(-(count * k + tail) / theta for theta, k in zip(thetas, log_mgf[48:])))
    period = (b - a) * fine
    a -= (fine - 1) * (b - a) / 2.0
    step = 2.0 * math.pi / period
    # the density of ln X on a grid 8 times finer, by Fourier interpolation,
    # for the 8-point Lagrange interpolation that _characteristic reads
    dense = np.fft.irfft(np.fft.rfft(g, m), 8 * m)[:8 * g.size] * 8.0
    k = frequencies or 256
    while True:
        phi = _characteristic(t0, dt / 8.0, dense, lump, step, k, dt)
        if frequencies or np.abs(phi[3 * k // 4:]).max() ** count < _PHI_TAIL:
            break
        k *= 2
        if k > _MAX_FREQUENCIES:
            raise ComputationError(f"its law needs more than {_MAX_FREQUENCIES} frequencies")
    # phi(0) is 1 up to quadrature error, which the power would amplify
    psi = (phi / phi[0].real) ** count * np.exp(-1j * step * a * np.arange(phi.size))
    n = max(1 << (4 * phi.size).bit_length(), 8192 * fine)
    cdf, density = _fourier_cdf(psi, n)
    return (a + period / n * np.arange(n), cdf, density / period), phi.size


def element_sum_tables(sat: KappaMuParams, user: KappaMuParams,
                       counts) -> dict[int, SumTable | None] | None:
    """SumTables of a RIS's element sum at each element count in ``counts``,
    or None where the construction cannot carry the pair's law:
    envelope_pdf cannot evaluate a hop's law (kappa > 0 at mu of about 4e3
    and beyond), a hop is too narrow beside a wide one (mu of about 5e5
    and beyond) or too wide (mu below about 0.38), or the pair's
    two-element sum needs more than _MAX_FREQUENCIES (both hops at mu of
    0.8 or less, or one at 0.6 or less). That answer depends on the pair
    alone, never on ``counts``.

    Each table's nodes are checked against the CDF of the same construction
    with every grid twice as fine (sup distance 1e-9), and the table against
    the exact mean c m1 (1e-9 relative) and variance c (1 - m1^2) (1e-8
    relative), m1 the product of the hops' first envelope moments. A count
    whose table cannot be built or misses that gate maps to None, and its
    RIS draws per element (montecarlo.py), so an element-count sweep whose
    nested rows include such a count draws that RIS per element on every row."""
    built = {}
    try:
        base, fine = _log_product_density(sat, user)
        if min(sat.mu, user.mu) < 1.0:
            # a sum's density near 0 goes as s^(2 c mu - 1): with a hop below
            # mu = 1 the two-element sum, the roughest, may pass the budget
            built[2] = _sum_law(*base, 2, 1)
    except ComputationError:
        return None
    m1 = envelope_moment(1.0, sat) * envelope_moment(1.0, user)
    tables: dict[int, SumTable | None] = {}
    for count in sorted(set(counts)):
        try:
            law, used = built.get(count) or _sum_law(*base, count, 1)
            check, _ = _sum_law(*fine, count, 2, frequencies=4 * used or None)
        except ComputationError:
            tables[count] = None
            continue
        table = SumTable(law, count == 1)
        mean, var = table.moments(count * m1)
        x, y = np.log(table.q) if count == 1 else table.q, check[0]
        i = np.clip(np.searchsorted(y, x, side="right") - 1, 0, y.size - 2)
        cdf = _hermite(check, i, np.clip((x - y[i]) / (y[1] - y[0]), 0.0, 1.0))[0]
        u = 1.0 / (1.0 + np.exp(-(table.z0 + table.dz * np.arange(table.q.size))))
        gap = float(np.max(np.abs(cdf - u)))
        misses = (abs(mean / (count * m1) - 1.0), abs(var / (count * (1.0 - m1 * m1)) - 1.0), gap)
        tables[count] = (table if all(m <= tol for m, tol in zip(misses, _GATE))
                         and (np.diff(table.q) >= 0.0).all() else None)
    return tables


def sample_envelope(p: KappaMuParams, rng: np.random.Generator,
                    size: int | tuple[int, ...] | None = None, out=None):
    """Exact draws of the unit-power envelope, sqrt(W / (2 mu (1 + kappa)))
    with W from sample_power; a float for ``size=None``. ``out`` as for
    sample_power."""
    w = sample_power(p, rng, () if size is None and out is None else size, out=out)
    # in place: no scaled copy or root beside the draw
    w /= p.power_scale
    np.sqrt(w, out=w)
    return float(w) if size is None and out is None else w
