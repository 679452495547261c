"""Distance distributions for the RIS deployment region and the satellite
shell, their fractional moments, and the samplers the link simulator draws
from.

The nearest-satellite law is the exact contact distance of M satellites
placed uniformly on the shell (a binomial point process); the closed-form
moments and the samplers use this one law. Its density and distribution
take any real distance and read 0 below the altitude.

Geometry conventions: the user sits at the origin, which is the center of
the deployment cylinder's base. The satellite shell is the sphere of
radius ``earth_radius + altitude`` centered at ``(0, 0, -earth_radius)``.
All lengths are meters; unit conversion happens at the config boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp2f1 as _hyp2f1, xlog1py as _xlog1py

from .errors import ComputationError, DivergentMomentError, DomainError, checked_integer, pointwise

EARTH_RADIUS_M = 6_371_000.0
# Gauss-Legendre rule on [0, 1] for the nearest-satellite moments
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS
# the moment integral ends at u = 50 / M, where (1 - u)^M < e^-50
_SAT_TAIL = 50.0
# tallest region, in base radii, whose RIS-distance moment is evaluated.
# The kernel's tall-region terms cancel, losing accuracy in proportion to
# (H/R0)^2: against a 60-digit reference over 246 values of s in
# [0.05, 2.5], its worst relative error is 1.2e-11 at H/R0 = 1e2, 1.4e-9
# at 1e3 and 2.3e-7 at 1e4, so 1e3 is the largest power of ten within the
# 1e-8 the moments are tested to
_MAX_ASPECT = 1e3
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class CylinderGeometry:
    """RIS deployment region: a vertical cylinder of base radius
    ``base_radius`` and height ``height`` standing on the user.

    ``inner_radius`` > 0 selects the annulus variant (RISs excluded from a
    disk around the user); it is only meaningful for a flat region and is
    rejected when ``height`` > 0.
    """

    base_radius: float
    height: float
    inner_radius: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.base_radius < math.inf:
            raise DomainError(f"base_radius must be finite and > 0, got {self.base_radius}")
        if not 0 <= self.height < math.inf:
            raise DomainError(f"height must be finite and >= 0, got {self.height}")
        if not 0 <= self.inner_radius < math.inf:
            raise DomainError(f"inner_radius must be finite and >= 0, got {self.inner_radius}")
        if self.inner_radius > 0 and self.height > 0:
            raise DomainError("inner_radius > 0 requires a flat region (height == 0)")
        if self.inner_radius >= self.base_radius:
            raise DomainError("inner_radius must be < base_radius")

    @property
    def max_distance(self) -> float:
        return math.hypot(self.base_radius, self.height)


@dataclass(frozen=True)
class Constellation:
    """Satellite shell described only by its population and altitude."""

    satellites: int
    altitude: float
    earth_radius: float = EARTH_RADIUS_M

    def __post_init__(self) -> None:
        object.__setattr__(self, "satellites", checked_integer("satellites", self.satellites))
        if self.satellites < 1:
            raise DomainError(f"satellites must be >= 1, got {self.satellites}")
        if not 0 < self.altitude < math.inf:
            raise DomainError(f"altitude must be finite and > 0, got {self.altitude}")
        if not 0 < self.earth_radius < math.inf:
            raise DomainError(f"earth_radius must be finite and > 0, got {self.earth_radius}")

    @property
    def shell_radius(self) -> float:
        return self.earth_radius + self.altitude

    @property
    def intensity(self) -> float:
        """Surface density of satellites on the shell (per m^2)."""
        return self.satellites / (4.0 * math.pi * self.shell_radius ** 2)

    @property
    def max_distance(self) -> float:
        return 2.0 * self.earth_radius + self.altitude

    @property
    def _scale(self) -> float:
        # 4 r_e (r_e + r_min); normalizer of the squared-distance law
        return 4.0 * self.earth_radius * self.shell_radius


@pointwise("distance")
def ris_distance_pdf(r, geom: CylinderGeometry):
    """Density of the user-to-RIS distance for a uniformly placed RIS.

    Piecewise in the branch points min(H, R0), max(H, R0) and
    sqrt(R0^2 + H^2); collapses to the flat-disk (or annulus) law
    2r / (R0^2 - c^2) when the region has zero height.
    """
    R0, H, c = geom.base_radius, geom.height, geom.inner_radius
    if H == 0.0:
        return 2.0 * np.where((r >= c) & (r <= R0), r, 0.0) / (R0 ** 2 - c ** 2)
    lo, hi = min(H, R0), max(H, R0)
    out = np.zeros_like(r)
    core = r < lo
    out[core] = 2.0 * r[core] ** 2 / (R0 ** 2 * H)
    mid = (r >= lo) & (r < hi)
    if H <= R0:
        out[mid] = 2.0 * r[mid] / R0 ** 2
    else:
        rm = r[mid]
        out[mid] = (2.0 * rm / (R0 ** 2 * H)) * (rm - np.sqrt(rm ** 2 - R0 ** 2))
    cap = (r >= hi) & (r <= geom.max_distance)
    rc = r[cap]
    out[cap] = (2.0 * rc / R0 ** 2) * (1.0 - np.sqrt(np.maximum(rc ** 2 - R0 ** 2, 0.0)) / H)
    return out


@pointwise("distance")
def ris_distance_cdf(r, geom: CylinderGeometry):
    """Distribution function matching ris_distance_pdf; continuous at the
    branch points, 0 at r=0 and 1 from the diagonal of the region on."""
    R0, H, c = geom.base_radius, geom.height, geom.inner_radius
    if H == 0.0:
        return np.clip((np.minimum(r, R0) ** 2 - c ** 2) / (R0 ** 2 - c ** 2), 0.0, 1.0)
    lo, hi = min(H, R0), max(H, R0)
    out = np.ones_like(r)
    core = r < lo
    out[core] = 2.0 * r[core] ** 3 / (3.0 * R0 ** 2 * H)
    mid = (r >= lo) & (r < hi)
    if H <= R0:
        out[mid] = r[mid] ** 2 / R0 ** 2 - H ** 2 / (3.0 * R0 ** 2)
    else:
        rm = r[mid]
        p2 = np.sqrt(rm ** 2 - R0 ** 2)
        out[mid] = (p2 + 2.0 * rm ** 3 / (3.0 * R0 ** 2)
                    - p2 * (2.0 * rm ** 2 + R0 ** 2) / (3.0 * R0 ** 2)) / H
    cap = (r >= hi) & (r < geom.max_distance)
    rc = r[cap]
    p2 = np.sqrt(np.maximum(rc ** 2 - R0 ** 2, 0.0))
    out[cap] = rc ** 2 / R0 ** 2 - H ** 2 / (3.0 * R0 ** 2) - 2.0 * p2 ** 3 / (3.0 * R0 ** 2 * H)
    return out


def _expm1_ratio(y) -> np.ndarray:
    """expm1(y) / y elementwise, 1 at y = 0."""
    return np.divide(np.expm1(y), y, out=np.ones_like(y), where=y != 0.0)


def _power_integral(a, b, p) -> np.ndarray:
    """int_a^b r^p dr elementwise for a > 0, continuous through p = -1;
    0 where b <= a. (b^q - a^q) / q with q = p + 1 where the endpoint
    powers differ by more than a factor e, and a^q ln(b/a) expm1(y) / y
    with y = q ln(b/a) otherwise, where that difference would cancel."""
    a, b, p = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, p)))
    out = np.zeros(a.shape)
    m = b > a
    a, b, q = a[m], b[m], p[m] + 1.0
    log_ratio = np.log(b / a)
    y = q * log_ratio
    out[m] = np.where(np.abs(y) > 1.0, (b ** q - a ** q) / q,
                      a ** q * log_ratio * _expm1_ratio(y))
    return out


def _sqrt_weighted_integral(x, R0, s) -> np.ndarray:
    """int_{R0}^{x} r^{1-s} sqrt(r^2 - R0^2) dr elementwise, via an
    Euler-type hypergeometric reduction; 0 where x <= R0, and not finite
    where the 2F1 does not evaluate finitely.

    The 2F1 argument -w/R0^2 grows large and negative for tall regions,
    where the plain series is useless; scipy's hyp2f1 applies its
    transformations there.
    """
    x, R0, s = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, R0, s)))
    out = np.zeros(x.shape)
    w = x * x - R0 * R0
    m = ~(w <= 0.0)  # a NaN w (from overflowed squares) stays NaN
    w, R0, s = w[m], R0[m], s[m]
    f = _hyp2f1(s / 2.0, 1.5, 2.5, -w / (R0 * R0))
    out[m] = w ** 1.5 / (3.0 * R0 ** s) * f
    return out


def _ris_moment(s, R0, H, c) -> np.ndarray:
    """E[R^-s] of the user-to-RIS distance, elementwise over broadcastable
    arrays of s and of the region's base radius R0, height H and inner
    radius c. Never raises.

    The moment scales exactly as R0^-s, so each region is evaluated at
    unit base radius, with height h = H/R0 and inner radius k = c/R0, and
    scaled back in logarithms: exp(ln m(s, h, k) - s ln R0), which stays
    accurate where R0^-s alone would leave the float range. The unit moment
    m is assembled from the per-branch antiderivatives of the distance
    law (flat disk, flat annulus, and a 3D region with h <= 1 or h > 1),
    so the removable denominators of the closed-form expression (at
    t*eps = 4 and t*eps = 6) hit their log limits exactly.

    NaN where the moment diverges, where h exceeds _MAX_ASPECT, where a
    nonzero h is below the normal floats, and where the result is
    not a normal float (it leaves the float range, or a 2F1 does not
    evaluate finitely); ris_distance_moment names the error.
    """
    with np.errstate(all="ignore"):
        s, R0, H, c = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                            for v in (s, R0, H, c)))
        h, k = H / R0, c / R0
        log_unit = np.full(s.shape, np.nan)
        disk = (H == 0.0) & (c == 0.0) & (s < 2.0)
        log_unit[disk] = np.log(2.0 / (2.0 - s[disk]))
        annulus = (H == 0.0) & (c > 0.0)
        # 2 int_k^1 r^(1-s) dr / (1 - k^2) in logarithms, as k^(2-s) may
        # overflow where the scaled moment does not. ln(1/k) from c and R0
        # where k is below the normal floats; elsewhere from k, as their
        # logarithms cancel where k nears 1
        sa, ka = s[annulus], k[annulus]
        log_ratio = np.where(ka >= _TINY, -np.log(ka), np.log(R0[annulus]) - np.log(c[annulus]))
        y = (2.0 - sa) * log_ratio
        log_unit[annulus] = (np.log(2.0 * log_ratio * _expm1_ratio(-np.abs(y))
                                    / ((1.0 - ka) * (1.0 + ka))) + np.maximum(-y, 0.0))
        # an h below the normal floats has lost its digits
        solid = (h >= _TINY) & (h <= _MAX_ASPECT) & (s < 3.0)
        ss, hs = s[solid], h[solid]
        hi, psi3 = np.maximum(hs, 1.0), np.hypot(1.0, hs)
        total = np.minimum(hs, 1.0) ** (3.0 - ss) / ((3.0 - ss) * hs)
        tall = hs > 1.0
        st, ht = ss[tall], hs[tall]
        j_mid = _sqrt_weighted_integral(ht, 1.0, st)
        total[tall] += (_power_integral(1.0, ht, 2.0 - st) - j_mid) / ht
        total[~tall] += _power_integral(hs[~tall], 1.0, 1.0 - ss[~tall])
        total += _power_integral(hi, psi3, 1.0 - ss)
        j_top = _sqrt_weighted_integral(psi3, 1.0, ss)
        j_top[tall] -= j_mid
        total -= j_top / hs
        log_unit[solid] = np.log(2.0 * total)
        value = np.exp(log_unit - s * np.log(R0))
        return np.where((value >= _TINY) & (value < np.inf), value, np.nan)


def _moment_exponent(t: int, eps: float) -> float:
    """The exponent s = t*eps/2 of a distance moment E[R^-s], after
    checking t and eps."""
    if t not in (1, 2):
        raise DomainError(f"moment order t must be 1 or 2, got {t}")
    if not eps >= 0:
        raise DomainError(f"path-loss exponent must be >= 0, got {eps}")
    return t * eps / 2.0


def ris_distance_moment(t: int, eps: float, geom: CylinderGeometry) -> float:
    """E[R^{-t*eps/2}] of the user-to-RIS distance.

    Evaluated by the elementwise kernel the batched Gamma fits share, at
    unit base radius and scaled back by R0^(-t*eps/2), so its accuracy
    does not depend on the length scale. Divergent requests
    (non-integrable at r=0) raise DivergentMomentError naming the
    exponent. A region taller than 1000 base radii, where the kernel's
    terms cancel, one whose height is a nonzero fraction of its base
    radius below the normal floats, or a moment that is not a normal
    float raises ComputationError.
    """
    s = _moment_exponent(t, eps)
    value = float(_ris_moment(s, geom.base_radius, geom.height, geom.inner_radius)[0])
    if math.isfinite(value):
        return value
    if geom.height == 0.0 and geom.inner_radius == 0.0 and s >= 2.0:
        raise DivergentMomentError(
            f"moment E[R^-{s:g}] diverges on a flat disk: "
            f"t*eps = {2.0 * s:g} >= 4 requires an inner radius"
        )
    if geom.height > 0.0 and s >= 3.0:
        raise DivergentMomentError(
            f"moment E[R^-{s:g}] diverges for a 3D region: t*eps = {2.0 * s:g} >= 6"
        )
    if geom.height / geom.base_radius > _MAX_ASPECT:
        raise ComputationError(
            f"moment E[R^-{s:g}] is not evaluated for height/base_radius above "
            f"{_MAX_ASPECT:g}, where its terms cancel: {geom}"
        )
    if geom.height > 0.0 and geom.height / geom.base_radius < _TINY:
        raise ComputationError(
            f"moment E[R^-{s:g}] is not evaluated for height/base_radius below "
            f"{_TINY:.2g}, where the ratio has lost its digits: {geom}"
        )
    raise ComputationError(f"moment E[R^-{s:g}] leaves the float range for {geom}")


def _sat_fraction(arr: np.ndarray, con: Constellation) -> np.ndarray:
    """Normalized squared slant range u = (x^2 - h^2) / (4 r_e (r_e + h)):
    0 up to the altitude (negative x included), 1 from the far edge of the
    shell on, and in [0, 1] between."""
    x = np.clip(arr, con.altitude, con.max_distance)
    u = np.clip((x ** 2 - con.altitude ** 2) / con._scale, 0.0, 1.0)
    return np.where(arr >= con.max_distance, 1.0, u)


@pointwise("distance", nonnegative=False)
def sat_distance_pdf(x, con: Constellation):
    """Density of the distance to the nearest of M satellites placed
    uniformly on the shell: M (1 - u)^(M-1) * 2x / S, with
    u = (x^2 - h^2) / S and S = 4 r_e (r_e + h)."""
    M = con.satellites
    inside = (x >= con.altitude) & (x <= con.max_distance)
    val = np.zeros_like(x)
    xi = x[inside]
    val[inside] = (M * np.exp(_xlog1py(M - 1, -_sat_fraction(xi, con)))
                   * 2.0 * xi / con._scale)
    return val


@pointwise("distance", nonnegative=False)
def sat_distance_cdf(x, con: Constellation):
    """Distribution matching sat_distance_pdf: 1 - (1 - u)^M, which is 0
    up to the altitude and 1 from the far edge of the shell on."""
    return -np.expm1(_xlog1py(con.satellites, -_sat_fraction(x, con)))


def sat_distance_moment(t: int, eta: float, con: Constellation) -> float:
    """E[R^{-t*eta/2}] of the nearest-satellite distance.

    With s = t*eta/2 and c = h^2 / S the moment is
    h^-s * int_0^1 M (1 - u)^(M-1) (1 + u/c)^(-s/2) du. In y = ln(1 + u/c)
    the power factor becomes a plain exponential, and the range ends at
    u = min(1, 50/M), beyond which the law holds less than e^-50 of its
    mass. A fixed 48-point Gauss-Legendre rule in y is then accurate to
    about 1e-13 relative for M up to 1e6 and altitudes from 200 km to
    geostationary. A moment the float range cannot carry (from extreme
    altitudes) raises ComputationError.
    """
    s = _moment_exponent(t, eta)
    M = con.satellites
    try:
        c = con.altitude ** 2 / con._scale
        span = math.log1p(min(1.0, _SAT_TAIL / M) / c)
        y = span * _GL_NODES
        f = np.exp(_xlog1py(M - 1, -c * np.expm1(y)) + (1.0 - 0.5 * s) * y)
        value = M * c * con.altitude ** (-s) * span * float(_GL_WEIGHTS @ f)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ComputationError(f"moment E[R^-{s:g}] leaves the float range for {con}")
    return value


def ris_squared_distances(geom: CylinderGeometry, u, v=None, out=None) -> np.ndarray:
    """Squared user-to-RIS distances of uniformly placed RISs, from
    uniforms of one shape: ``u`` the radius, ``v`` the height (None, or a
    flat region, leaves them on the base). The azimuth does not enter.
    ``out``, which may be ``u``, receives the distances; only a height
    term takes a new array."""
    c = geom.inner_radius
    out = np.multiply(u, geom.base_radius ** 2 - c * c, out=out)
    out += c * c
    if v is not None and geom.height > 0.0:
        out += np.square(geom.height * v)
    return out


def sample_ris_distances(geom: CylinderGeometry, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    """User-to-RIS distances: a radius uniform, then a height uniform
    unless the region is flat."""
    u = rng.random(size)
    return np.sqrt(ris_squared_distances(geom, u, rng.random(size) if geom.height > 0.0 else None))


def nearest_sat_fractions(con: Constellation, u, out=None) -> np.ndarray:
    """Normalized squared slant range (d^2 - h^2) / (4 r_e (r_e + h)) of the
    nearest satellite, one per uniform in ``u``: the minimum of M iid
    U(0, 1), 1 - (1 - u)^(1/M), computed stably for large M. ``out`` may
    be ``u``."""
    out = np.negative(u, out=np.empty(np.shape(u)) if out is None else out)
    np.log1p(out, out=out)
    out /= con.satellites
    np.expm1(out, out=out)
    return np.negative(out, out=out)


def sat_squared_distances(con: Constellation, s, out=None) -> np.ndarray:
    """Squared ranges of satellites at normalized squared slant range ``s``;
    ``out`` may be ``s``."""
    out = np.multiply(s, con._scale, out=out)
    out += con.altitude ** 2
    return out


def serving_offsets(con: Constellation, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distance rho_s = 2 R sqrt(s (1 - s)) off the user's axis, 4 rho_s
    and the height R (1 - 2 s) - r_e over the user (R the shell radius) of
    satellites at normalized squared slant range ``s``."""
    R = con.shell_radius
    rho_s = 2.0 * R * np.sqrt(s * (1.0 - s))
    return rho_s, 4.0 * rho_s, R * (1.0 - 2.0 * s) - con.earth_radius


def slant_squared_ranges(offsets, radial_sq, height, w, out=None) -> np.ndarray:
    """Squared ranges from the satellites whose serving_offsets are
    ``offsets`` to points rho = sqrt(radial_sq) off the user's axis at
    ``height``, azimuths 2 pi ``w`` apart; the horizontal part
    (rho_s - rho)^2 + 4 rho_s rho sin^2(pi w) does not cancel.

    Given ``out``, an array of the points' shape apart from the inputs,
    the ranges go there and ``radial_sq`` and ``w``, of that shape too,
    serve as its scratch, so no array of that shape is allocated."""
    rho_s, four, lift = offsets
    if out is None:
        shape = np.broadcast_shapes(*map(np.shape, (rho_s, radial_sq, height, w)))
        radial_sq, w = (np.array(np.broadcast_to(a, shape), dtype=float) for a in (radial_sq, w))
        out = np.empty(shape)
    rho = np.sqrt(radial_sq, out=radial_sq)
    np.multiply(rho, four, out=out)
    sin_sq = np.sin(np.multiply(w, math.pi, out=w), out=w)
    out *= np.square(sin_sq, out=sin_sq)
    out += np.square(np.subtract(rho_s, rho, out=rho), out=rho)
    vertical = np.subtract(lift, height, out=sin_sq)
    out += np.square(vertical, out=vertical)
    return out


def sample_nearest_sat_distance(con: Constellation, rng: np.random.Generator,
                                size: int | None = None):
    """Distance to the nearest of ``satellites`` points placed uniformly
    on the shell.

    Uses the order statistic directly: each satellite's squared distance
    is uniform on the slant-range interval, so the minimum over M of them
    is a Beta(1, M) draw mapped back through the distance law (the
    binomial-point-process contact distance). This is distribution-exact
    and O(1) per sample.
    """
    n = 1 if size is None else int(size)
    d = np.sqrt(sat_squared_distances(con, nearest_sat_fractions(con, rng.random(n))))
    return float(d[0]) if size is None else d
