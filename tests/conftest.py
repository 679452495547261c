"""Shared scenario fixtures: the recorded default configuration used by
the acceptance suite and several module tests, and reference forms the
tests check the package against."""

import math

import mpmath as mp
import numpy as np
import pytest

from leoris.channel import DirectPath, GammaApprox, LinkConfig, RisLink
from leoris.fading import KappaMuParams, envelope_moment
from leoris.geometry import (EARTH_RADIUS_M, Constellation, CylinderGeometry,
                             ris_distance_moment, sat_distance_moment)
from leoris.metrics import _capacity_closed_nats

# Recorded draw of the per-RIS user-hop exponents (sub-seed 370899, [2, 3)).
EXPONENT_SEED = 370899
RHO0_DEFAULT = 1.0e14  # 10 W over -100 dBm


def default_user_exponents(n: int) -> list[float]:
    rng = np.random.default_rng(EXPONENT_SEED)
    return (2.0 + rng.random(n)).tolist()


def default_links(n: int, elements: int = 20, rho0: float = RHO0_DEFAULT,
                  direct: bool = True) -> LinkConfig:
    eps = default_user_exponents(n)
    return LinkConfig(
        ris=tuple(
            RisLink(
                elements=elements,
                sat_fading=KappaMuParams(1.0, 2.0),
                user_fading=KappaMuParams(3.0, 3.0),
                sat_exponent=2.0,
                user_exponent=eps[i],
            )
            for i in range(n)
        ),
        direct=DirectPath(enabled=direct, fading=KappaMuParams(0.0, 1.0), exponent=2.0),
        transmit_snr=rho0,
    )


@pytest.fixture
def default_geometry() -> CylinderGeometry:
    return CylinderGeometry(base_radius=120.0, height=120.0)


@pytest.fixture
def default_constellation() -> Constellation:
    return Constellation(satellites=1000, altitude=1.0e6)


def gamma_fit_walk(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> GammaApprox:
    """The Gamma fit as one walk over the pair's paths in order (RIS paths
    first, the direct path last), each path's moments from the public
    envelope, satellite-distance and RIS-distance moments in the fit's
    association order: the reference the batched fit must equal to the bit."""
    paths = []
    for link in cfg.ris:
        L = link.elements
        m1 = envelope_moment(1.0, link.sat_fading) * envelope_moment(1.0, link.user_fading)
        paths.append((L * m1 * sat_distance_moment(1, link.sat_exponent, con)
                      * ris_distance_moment(1, link.user_exponent, geom),
                      (L + (L * L - L) * m1 * m1) * sat_distance_moment(2, link.sat_exponent, con)
                      * ris_distance_moment(2, link.user_exponent, geom)))
    d = cfg.direct
    if d.enabled:
        paths.append((envelope_moment(1.0, d.fading) * sat_distance_moment(1, d.exponent, con),
                      sat_distance_moment(2, d.exponent, con)))
    mean = variance = 0.0
    for first, second in paths:
        mean += first
        variance += second - first ** 2
    return GammaApprox.from_moments(mean, variance)


def sat_moment_mpmath(m: int, h: float, s: float) -> float:
    """E[d^-s] of the distance to the nearest of m satellites at altitude h:
    20-digit quadrature of h^-s * m (1 - u)^(m-1) (1 + u/c)^(-s/2) over
    u in [0, 1], c = h^2 / (4 r_e (r_e + h)), with breakpoints spaced
    geometrically from the smaller of the two scales c and 1/m."""
    with mp.workdps(20):
        c = mp.mpf(h) ** 2 / (4.0 * EARTH_RADIUS_M * (EARTH_RADIUS_M + h))
        pts = [mp.mpf(0)]
        u = min(c, mp.mpf(1) / m) / 8
        while u < 1:
            pts.append(u)
            u *= 8
        pts.append(mp.mpf(1))
        val = mp.quad(lambda v: m * (1 - v) ** (m - 1) * (1 + v / c) ** (-mp.mpf(s) / 2), pts)
        return float(mp.mpf(h) ** (-s) * val)


def sample_constellation(con: Constellation, rng: np.random.Generator) -> np.ndarray:
    """All satellite positions of one constellation draw, shape (M, 3),
    in the user-centered frame: the materialized reference the serving-
    satellite samplers are checked against."""
    m = con.satellites
    cos_polar = 1.0 - 2.0 * rng.random(m)
    sin_polar = np.sqrt(np.maximum(1.0 - cos_polar ** 2, 0.0))
    azimuth = 2.0 * math.pi * rng.random(m)
    R = con.shell_radius
    return np.column_stack((R * sin_polar * np.cos(azimuth),
                            R * sin_polar * np.sin(azimuth),
                            R * cos_polar - con.earth_radius))


def capacity_series_point(rng: np.random.Generator) -> tuple[float, float, list]:
    """A log-uniform (shape, z) at which the capacity closed form gives a
    valid value, with the (num, den) parameters of its
    three series, which it sums at -z/4. z runs to 1e4, past the largest
    z (about 1e3) the form accepts."""
    while True:
        alpha, z = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-14, 4)
        if not _capacity_closed_nats(np.array([alpha]), np.array([z]))[1][0]:
            continue
        return alpha, z, [((alpha / 2,), (0.5, 1 + alpha / 2)),
                          ((1.0, 1.0), (2.0, 1.5 - alpha / 2, 2 - alpha / 2)),
                          ((0.5 + alpha / 2,), (1.5, 1.5 + alpha / 2))]


def pfq_series_loop(num: tuple, den: tuple, x: float, max_terms: int = 10_000,
                    rtol: float = 1e-12) -> tuple[float, float, str]:
    """pFq(num; den; x) summed term by term in Python floats, the reference
    for the package's array kernel: the sum, the largest term magnitude and
    "summed", "out of terms" or "cancelled". It stops once 3 terms in a row
    fall below rtol of the sum, counting only from the first k at which
    every den + k is positive."""
    term = total = peak = 1.0
    below = 0
    settled = max([0, *(math.floor(-q) + 1 for q in den)])
    for k in range(max_terms):
        ratio = x / (k + 1.0)
        for p in num:
            ratio *= p + k
        for q in den:
            ratio /= q + k
        term *= ratio
        total += term
        peak = max(peak, abs(term))
        if abs(term) < rtol * abs(total) and k >= settled:
            below += 1
            if below >= 3:
                return total, peak, "cancelled" if abs(total) * 1e10 < peak else "summed"
        else:
            below = 0
    return total, peak, "out of terms"


def envelope_moment_mpmath(t: float, kappa: float, mu: float) -> float:
    """E[|h|^t] from the confluent form at 40 digits, where its
    e^(-kappa mu) 1F1(...; kappa mu) cancellation is harmless."""
    with mp.workdps(40):
        k, m, s = mp.mpf(kappa), mp.mpf(mu), mp.mpf(t) / 2
        return float(mp.gamma(m + s) / mp.gamma(m) * mp.exp(-k * m)
                     * mp.hyp1f1(m + s, m, k * m) / ((1 + k) * m) ** s)


def sqrt_weighted_point(rng: np.random.Generator) -> tuple[float, float, float]:
    """(x, R0, s) of a 3D region's 2F1 reduction: x = R0 (1 + d) spans its
    heights and diagonals, s = t * eps / 2 lies in [1, 3)."""
    R0 = 10.0 ** rng.uniform(0, 3)
    return R0 * (1.0 + 10.0 ** rng.uniform(-3, 3)), R0, rng.uniform(1.0, 3.0)


def sqrt_weighted_mpmath(x: float, R0: float, s: float) -> float:
    """30-digit quadrature of r^(1-s) sqrt(r^2 - R0^2) over [R0, x]."""
    with mp.workdps(30):
        return float(mp.quad(lambda r: r ** (1 - s) * mp.sqrt((r - R0) * (r + R0)),
                             [R0, min(2 * R0, x), x]))


def ris_moment_mpmath(s: float, geom: CylinderGeometry) -> float:
    """E[R^-s] of a 3D region at 60 digits: with h = H/R0 and a = 1 - s/2,
    [h 2F1(-a, 1/2; 3/2; -h^2) - h^(2a+1) / (2a+1)] / (a h) R0^-s, the
    integral over heights of the disk moment ((R0^2 + z^2)^a - z^(2a)) / (2a).
    At s = 2 it takes the a -> 0 limit,
    [h ln(1 + h^2) + 2 atan(h) - 2 h ln(h)] / h."""
    with mp.workdps(60):
        s, R0 = mp.mpf(s), mp.mpf(geom.base_radius)
        h = mp.mpf(geom.height) / R0
        if s == 2:
            unit = (h * mp.log(1 + h * h) + 2 * mp.atan(h) - 2 * h * mp.log(h)) / h
        else:
            a = 1 - s / 2
            unit = (h * mp.hyp2f1(-a, 0.5, 1.5, -h * h)
                    - h ** (2 * a + 1) / (2 * a + 1)) / (a * h)
        return float(unit * R0 ** -s)
