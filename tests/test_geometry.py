"""Distance laws and samplers: quadrature oracles for the moments,
self-consistency of pdf/cdf pairs, and KS checks of the samplers."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest

from conftest import ris_moment_mpmath, sample_constellation, sat_moment_mpmath
from leoris.errors import ComputationError, DivergentMomentError, DomainError
from leoris.geometry import (
    Constellation,
    CylinderGeometry,
    _ris_moment,
    ris_distance_cdf,
    ris_distance_moment,
    ris_distance_pdf,
    nearest_sat_fractions,
    ris_squared_distances,
    sample_nearest_sat_distance,
    sample_ris_distances,
    sat_squared_distances,
    serving_offsets,
    slant_squared_ranges,
    sat_distance_cdf,
    sat_distance_moment,
    sat_distance_pdf,
)

CON = Constellation(satellites=1000, altitude=1.0e6)


def _moment_by_quadrature(t, eps, geom, reltol=1e-11):
    s = t * eps / 2.0
    pts = sorted({min(geom.height, geom.base_radius), max(geom.height, geom.base_radius)})
    lo = geom.inner_radius
    val, _ = quad(lambda r: r ** (-s) * ris_distance_pdf(r, geom),
                  lo, geom.max_distance, points=pts, limit=400,
                  epsabs=1e-14, epsrel=reltol)
    return val


def test_pdf_outside_support_is_zero():
    geom = CylinderGeometry(500.0, 100.0)
    assert ris_distance_pdf(geom.max_distance * 1.0001, geom) == 0.0
    assert ris_distance_pdf(1e9, geom) == 0.0


def test_pdf_flat_disk_case():
    geom = CylinderGeometry(1.0, 0.0)
    assert ris_distance_pdf(0.5, geom) == pytest.approx(1.0, rel=1e-14)


def test_pdf_negative_distance_rejected():
    with pytest.raises(DomainError):
        ris_distance_pdf(-1.0, CylinderGeometry(10.0, 5.0))


def test_pdf_matches_cdf_derivative():
    geom = CylinderGeometry(500.0, 100.0)
    for r in (30.0, 99.0, 101.0, 300.0, 470.0, 505.0):
        h = 1e-5 * r
        fd = (ris_distance_cdf(r + h, geom) - ris_distance_cdf(r - h, geom)) / (2 * h)
        assert ris_distance_pdf(r, geom) == pytest.approx(fd, rel=1e-6)


def test_pdf_integrates_to_one_randomized():
    rng = np.random.default_rng(123)
    cases = [(1.0, 0.0), (500.0, 1e-4), (10.0, 1000.0), (1000.0, 10.0)]
    while len(cases) < 100:
        R0 = 10.0 ** rng.uniform(0, 3)
        H = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-1, 3)
        cases.append((R0, H))
    for R0, H in cases:
        geom = CylinderGeometry(R0, H)
        pts = sorted({min(H, R0), max(H, R0)}) if H > 0 else []
        total, _ = quad(lambda r: ris_distance_pdf(r, geom), 0.0, geom.max_distance,
                        points=pts or None, limit=300, epsabs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-9), (R0, H)


def test_cdf_boundaries_and_continuity():
    geom = CylinderGeometry(500.0, 100.0)
    assert ris_distance_cdf(0.0, geom) == 0.0
    assert ris_distance_cdf(geom.max_distance, geom) == pytest.approx(1.0, rel=1e-14)
    # branch continuity at H and R0, and the closed value at r = H
    h_val = (2.0 / 3.0) * geom.height ** 2 / geom.base_radius ** 2
    assert ris_distance_cdf(geom.height, geom) == pytest.approx(h_val, rel=1e-13)
    for point in (geom.height, geom.base_radius):
        below = ris_distance_cdf(point * (1 - 1e-13), geom)
        above = ris_distance_cdf(point * (1 + 1e-13), geom)
        assert abs(above - below) < 1e-12


def test_cdf_continuity_tall_region():
    geom = CylinderGeometry(100.0, 400.0)
    for point in (100.0, 400.0):
        below = ris_distance_cdf(point * (1 - 1e-13), geom)
        above = ris_distance_cdf(point * (1 + 1e-13), geom)
        assert abs(above - below) < 1e-12
    assert ris_distance_cdf(geom.max_distance, geom) == pytest.approx(1.0, rel=1e-13)


def test_cdf_against_position_sampler():
    geom = CylinderGeometry(500.0, 100.0)
    rng = np.random.default_rng(99)
    d = sample_ris_distances(geom, rng, 200_000)
    emp = np.mean(d <= 450.0)
    assert ris_distance_cdf(450.0, geom) == pytest.approx(emp, abs=3e-3)


def test_moment_zero_exponent_limit():
    geom = CylinderGeometry(500.0, 100.0)
    assert ris_distance_moment(1, 0.0, geom) == pytest.approx(1.0, rel=1e-12)
    assert ris_distance_moment(1, 0.0, CylinderGeometry(3.0, 0.0)) == pytest.approx(1.0)


def test_moment_flat_disk_closed_form():
    geom = CylinderGeometry(1.0, 0.0)
    # E[R^-1] for the unit disk: quadrature of r^-1 * 2r on [0,1] equals 2
    assert ris_distance_moment(1, 2.0, geom) == pytest.approx(2.0, rel=1e-12)
    assert ris_distance_moment(1, 2.0, geom) == pytest.approx(
        _moment_by_quadrature(1, 2.0, geom), rel=1e-10)


def test_moment_3d_against_quadrature():
    geom = CylinderGeometry(500.0, 100.0)
    got = ris_distance_moment(2, 2.5, geom)
    assert got == pytest.approx(_moment_by_quadrature(2, 2.5, geom), rel=1e-8)


def test_moment_randomized_against_quadrature():
    rng = np.random.default_rng(2718)
    checked = 0
    while checked < 100:
        kind = rng.integers(0, 4)
        t = int(rng.integers(1, 3))
        eps = rng.uniform(2.0, 3.0)
        if kind == 0:
            geom = CylinderGeometry(10.0 ** rng.uniform(0.5, 3), 0.0)
            if t * eps >= 4.0:
                continue
        elif kind == 1:
            geom = CylinderGeometry(10.0 ** rng.uniform(0.5, 3), 0.0,
                                    inner_radius=0.0)
            R0 = geom.base_radius
            geom = CylinderGeometry(R0, 0.0, inner_radius=R0 * rng.uniform(0.01, 0.5))
        elif kind == 2:
            # near the removable t*eps = 4 branch
            geom = CylinderGeometry(10.0 ** rng.uniform(1, 3), 10.0 ** rng.uniform(0.5, 2.5))
            t, eps = 2, rng.uniform(1.999, 2.001)
        else:
            geom = CylinderGeometry(10.0 ** rng.uniform(1, 3), 10.0 ** rng.uniform(0.5, 3))
            if t * eps / 2.0 >= 2.95:  # keep the quadrature oracle well-posed
                continue
        got = ris_distance_moment(t, eps, geom)
        want = _moment_by_quadrature(t, eps, geom)
        assert got == pytest.approx(want, rel=1e-8), (t, eps, geom)
        checked += 1


def test_moment_exact_log_branch():
    # t*eps = 4 exactly: flat annulus has the closed log form
    geom = CylinderGeometry(100.0, 0.0, inner_radius=5.0)
    got = ris_distance_moment(2, 2.0, geom)
    want = 2.0 * math.log(100.0 / 5.0) / (100.0 ** 2 - 5.0 ** 2)
    assert got == pytest.approx(want, rel=1e-13)
    # and in 3D it must agree with quadrature
    geom3 = CylinderGeometry(200.0, 50.0)
    assert ris_distance_moment(2, 2.0, geom3) == pytest.approx(
        _moment_by_quadrature(2, 2.0, geom3), rel=1e-9)


def test_moment_divergence_errors():
    with pytest.raises(DivergentMomentError):
        ris_distance_moment(2, 2.0, CylinderGeometry(10.0, 0.0))
    with pytest.raises(DivergentMomentError):
        ris_distance_moment(2, 3.0, CylinderGeometry(10.0, 5.0))
    # annulus keeps the same moment finite
    assert ris_distance_moment(2, 3.0, CylinderGeometry(10.0, 0.0, inner_radius=1.0)) > 0


@pytest.mark.parametrize("t, eps, geom", [
    (2, 4.0, CylinderGeometry(1.0, 0.0, inner_radius=4.6565400157479707e-237)),
    (1, 3.0, CylinderGeometry(1.0e-250, 0.0)),
])
def test_moment_beyond_float_range_raises(t, eps, geom):
    # finite moments above the largest float must raise the package's
    # error, not OverflowError or return inf
    with pytest.raises(ComputationError, match="leaves the float range"):
        ris_distance_moment(t, eps, geom)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 2.5, 2.9])
def test_annulus_moment_where_the_inner_ratio_underflows(s):
    # c/R0 = 1e-322 is below the normal floats; ln(R0/c) still carries it
    R0, c = 100.0, 1.0e-320
    geom = CylinderGeometry(R0, 0.0, inner_radius=c)
    if s == 2.0:
        want = 2.0 * (math.log(R0) - math.log(c)) / R0 ** 2
    else:
        want = 2.0 * (R0 ** (2.0 - s) - c ** (2.0 - s)) / ((2.0 - s) * (R0 ** 2 - c ** 2))
    assert ris_distance_moment(2, s, geom) == pytest.approx(want, rel=1e-13)


def test_moment_of_a_region_whose_aspect_underflows_names_the_cause():
    # H/R0 = 9e-449 reads 0, so the region's shape is lost
    geom = CylinderGeometry(1.2211413786287862e+244, 1.1124625734051282e-204)
    with pytest.raises(ComputationError, match="height/base_radius below 2.2e-308"):
        ris_distance_moment(1, 1.4712256239495947, geom)


@pytest.mark.parametrize("geom, want", [
    pytest.param(CylinderGeometry(1.0e-200, 1.0e-200),
                 1.0e200 * ris_moment_mpmath(1.0, CylinderGeometry(1.0, 1.0)), id="cylinder"),
    # 2 (1 - k) / (1 - k^2) R0^-1 at k = 0.1
    pytest.param(CylinderGeometry(1.0e-200, 0.0, inner_radius=1.0e-201), 2.0e200 / 1.1,
                 id="annulus"),
])
def test_moment_of_a_tiny_region_follows_the_scale_law(geom, want):
    # E[R^-1] scales as 1/R0: about 1e200 here, which a float carries
    assert ris_distance_moment(1, 2.0, geom) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("s, base, height", [
    *((s, base, height) for s in (0.05, 0.5, 1.0, 2.0, 2.5, 2.9)
      for base, height in ((120.0, 120.0), (1.0e-3, 1.0e-6), (10.0, 400.0), (1.0e20, 3.0e20))),
    # about 4.5e187 and 1.4e-150
    (1.25, 1.0e-150, 1.0e-150), (1.25, 1.0e120, 1.0e120),
])
def test_3d_moment_against_the_hypergeometric_reference(s, base, height):
    # the tall-region terms of the kernel cancel: 1e-12 lost at H/R0 = 40
    geom = CylinderGeometry(base, height)
    assert ris_distance_moment(2, s, geom) == pytest.approx(ris_moment_mpmath(s, geom),
                                                            rel=1e-11)


def test_regions_past_the_aspect_bound_raise():
    # H/R0 = 7e7: the tall-region terms cancel to a negative moment
    # (-0.28; the true value is 0.0576)
    geom = CylinderGeometry(0.011609384182580543, 819609.2490891134)
    with pytest.raises(ComputationError, match="height/base_radius above 1000"):
        ris_distance_moment(1, 0.4572502450639151, geom)


@pytest.mark.parametrize("s", [0.05, 1.0, 2.5])
def test_moment_at_the_aspect_bound_matches_mpmath(s):
    geom = CylinderGeometry(1.0, 1000.0)
    assert ris_distance_moment(2, s, geom) == pytest.approx(ris_moment_mpmath(s, geom),
                                                            rel=1e-9)


def test_ris_moment_kernel_is_elementwise_over_a_mixed_batch():
    # the batched Gamma fits pass every RIS path at every order to one
    # kernel call, so each key must read in a batch what it reads alone
    rng = np.random.default_rng(20)
    n = 400
    s = rng.choice([0.0, 0.5, 1.0, 2.0, 2.5, 2.9, 3.0, 3.5], n) + rng.choice([0.0, 1e-3], n)
    R0 = 10.0 ** rng.uniform(-3.0, 3.0, n)
    # flat disk, annulus, 3D, too tall, height below the normal floats
    kind = rng.integers(5, size=n)
    H = np.select([kind == 2, kind == 3, kind == 4],
                  [R0 * 10.0 ** rng.uniform(-2.0, 2.0, n), R0 * 10.0 ** rng.uniform(3.01, 6.0, n),
                   R0 * 1e-310], 0.0)
    c = np.where(kind == 1, R0 * rng.uniform(1e-3, 0.99, n), 0.0)
    # shuffled, with repeated keys
    rows = rng.permutation(np.concatenate((np.arange(n), rng.integers(n, size=50))))
    keys, kind = np.column_stack((s, R0, H, c))[rows], kind[rows]
    alone = np.array([_ris_moment(*key)[0] for key in keys])
    nan = np.isnan(alone)
    divergent = ((kind == 0) & (keys[:, 0] >= 2.0)) | ((kind == 2) & (keys[:, 0] >= 3.0))
    assert nan[divergent | (kind >= 3)].all() and not nan[~divergent & (kind < 3)].any()
    batch = _ris_moment(*keys.T)
    np.testing.assert_array_equal(batch.view(np.int64), alone.view(np.int64))
    # the layout the fits use: orders on one axis, paths on the other
    orders = _ris_moment(np.multiply.outer((1, 2), keys[:, 0]) / 2.0, *keys[:, 1:].T)
    for t, row in zip((1, 2), orders):
        want = np.array([_ris_moment(t * key[0] / 2.0, *key[1:])[0] for key in keys])
        np.testing.assert_array_equal(row.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("altitude", [1.0e-200, 1.0e200])
def test_sat_moment_beyond_float_range_raises(altitude):
    with pytest.raises(ComputationError):
        sat_distance_moment(2, 3.0, Constellation(1000, altitude))


def test_moment_order_validation():
    geom = CylinderGeometry(10.0, 5.0)
    with pytest.raises(DomainError):
        ris_distance_moment(3, 2.0, geom)
    with pytest.raises(DomainError):
        ris_distance_moment(1, -1.0, geom)


def test_sat_pdf_support():
    assert sat_distance_pdf(CON.altitude * 0.999, CON) == 0.0
    assert sat_distance_pdf(CON.max_distance * 1.001, CON) == 0.0


def test_sat_pdf_total_mass():
    # the nearest of M satellites always exists: the density has unit mass
    con = Constellation(satellites=5, altitude=1.0e6)
    val, _ = quad(lambda x: sat_distance_pdf(x, con), con.altitude, con.max_distance,
                  limit=300, epsabs=1e-12)
    assert val == pytest.approx(1.0, rel=1e-9)
    assert sat_distance_cdf(con.max_distance, con) == 1.0


def test_sat_cdf_limits():
    for m in (1, 2, 10, 1000, 1_000_000):
        for h in (2.0e5, 1.0e6, 3.5786e7, 1234567.89):
            con = Constellation(satellites=m, altitude=h)
            assert sat_distance_cdf(con.max_distance, con) == 1.0
            assert sat_distance_cdf(con.max_distance * 2.0, con) == 1.0
            assert sat_distance_cdf(con.altitude, con) == 0.0
            assert sat_distance_cdf(0.5 * con.altitude, con) == 0.0


def test_sat_moment_against_quadrature():
    for t, eta in [(1, 2.0), (2, 2.0), (1, 2.7), (2, 2.9)]:
        want, _ = quad(lambda x: x ** (-t * eta / 2.0) * sat_distance_pdf(x, CON),
                       CON.altitude, CON.max_distance, limit=300,
                       epsabs=1e-30, epsrel=1e-12)
        assert sat_distance_moment(t, eta, CON) == pytest.approx(want, rel=1e-8), (t, eta)


def test_sat_moment_small_population():
    con = Constellation(satellites=3, altitude=5.0e5)
    for t, eta in [(1, 2.0), (2, 2.4)]:
        want, _ = quad(lambda x: x ** (-t * eta / 2.0) * sat_distance_pdf(x, con),
                       con.altitude, con.max_distance, limit=300,
                       epsabs=1e-30, epsrel=1e-12)
        assert sat_distance_moment(t, eta, con) == pytest.approx(want, rel=1e-8)


def test_sat_moment_zero_exponent_is_total_mass():
    con = Constellation(satellites=4, altitude=1.0e6)
    assert sat_distance_moment(1, 0.0, con) == pytest.approx(1.0, rel=1e-10)


def test_sat_moment_domain():
    for eta in (-1.0, math.nan):
        with pytest.raises(DomainError):
            sat_distance_moment(1, eta, CON)
    with pytest.raises(DomainError):
        sat_distance_moment(3, 2.0, CON)


SAT_GRID_M = (1, 10, 100, 1000, 1_000_000)
SAT_GRID_ALTITUDES = (2.0e5, 1.0e6, 3.5786e7)


def test_sat_moment_against_mpmath_exact_density():
    for m in SAT_GRID_M:
        for h in SAT_GRID_ALTITUDES:
            con = Constellation(satellites=m, altitude=h)
            for s in (1, 2, 5, 8):
                t, eta = (1, 2.0 * s) if s % 2 else (2, float(s))
                got = sat_distance_moment(t, eta, con)
                assert got == pytest.approx(sat_moment_mpmath(m, h, s), rel=1e-12), (m, h, s)


def test_sat_moment_single_satellite_closed_form():
    # M = 1: d^2 is uniform on [h^2, h^2 + S], so
    # E[d^-s] = 2 ((h^2 + S)^(1 - s/2) - h^(2 - s)) / (S (2 - s))
    for h in SAT_GRID_ALTITUDES:
        con = Constellation(satellites=1, altitude=h)
        scale = 4.0 * con.earth_radius * con.shell_radius
        for s in (1.0, 1.3, 5.0, 8.0):
            want = 2.0 * ((h * h + scale) ** (1.0 - s / 2.0) - h ** (2.0 - s)) \
                / (scale * (2.0 - s))
            assert sat_distance_moment(2, s, con) == pytest.approx(want, rel=1e-12), (h, s)
        # s = 2 is the log limit
        assert sat_distance_moment(2, 2.0, con) == pytest.approx(
            math.log1p(scale / h ** 2) / scale, rel=1e-12)


@pytest.mark.parametrize("m", [1, 10])
def test_sat_sampler_matches_exact_law_small_population(m):
    con = Constellation(satellites=m, altitude=1.0e6)
    rng = np.random.default_rng(100 + m)
    d = sample_nearest_sat_distance(con, rng, 400_000)
    assert kstest(d, lambda x: sat_distance_cdf(x, con)).pvalue > 0.01
    for t, eta in ((1, 2.0), (2, 2.0), (2, 2.5)):
        sample = d ** (-t * eta / 2.0)
        stderr = float(sample.std()) / math.sqrt(sample.size)
        assert abs(sat_distance_moment(t, eta, con) - float(sample.mean())) <= 4.0 * stderr, \
            (m, t, eta)


def test_sat_moment_against_sampler():
    rng = np.random.default_rng(5)
    d = sample_nearest_sat_distance(CON, rng, 400_000)
    got = sat_distance_moment(2, 2.0, CON)
    assert got == pytest.approx(float(np.mean(d ** -2.0)), rel=1e-3)


def test_ris_sampler_flat_region():
    # on a flat region the height uniform is neither drawn nor read
    geom = CylinderGeometry(50.0, 0.0)
    u = np.random.default_rng(1).random(1000)
    d = sample_ris_distances(geom, np.random.default_rng(1), 1000)
    assert np.array_equal(d, np.sqrt(ris_squared_distances(geom, u)))
    assert np.array_equal(ris_squared_distances(geom, u, np.ones(1000)),
                          ris_squared_distances(geom, u))


def test_ris_sampler_radial_mean():
    geom = CylinderGeometry(60.0, 30.0)
    rng = np.random.default_rng(2)
    radial = np.sqrt(ris_squared_distances(geom, rng.random(400_000)))
    assert float(radial.mean()) == pytest.approx(2.0 * geom.base_radius / 3.0, rel=2e-3)


def test_ris_sampler_ks_against_cdf():
    geom = CylinderGeometry(500.0, 100.0)
    rng = np.random.default_rng(3)
    d = sample_ris_distances(geom, rng, 100_000)
    stat = kstest(d, lambda x: ris_distance_cdf(x, geom)).statistic
    assert stat < 0.01


def test_sat_sampler_single_point_law():
    con = Constellation(satellites=1, altitude=1.0e6)
    rng = np.random.default_rng(4)
    d = sample_nearest_sat_distance(con, rng, 200_000)
    assert d.min() >= con.altitude
    assert d.max() <= con.max_distance
    # squared distance uniform on the slant-range interval
    u = (d ** 2 - con.altitude ** 2) / (4.0 * con.earth_radius * con.shell_radius)
    assert kstest(u, "uniform").pvalue > 0.01


def test_sat_sampler_ks_against_cdf():
    rng = np.random.default_rng(6)
    d = sample_nearest_sat_distance(CON, rng, 100_000)
    assert np.all(d >= CON.altitude)
    res = kstest(d, lambda x: sat_distance_cdf(x, CON))
    assert res.pvalue > 0.01


def test_sat_pdf_matches_sampler_histogram():
    rng = np.random.default_rng(7)
    d = sample_nearest_sat_distance(CON, rng, 300_000)
    x, half = 1.1e6, 1.0e4
    emp = float(np.mean(np.abs(d - x) <= half)) / (2.0 * half)
    assert sat_distance_pdf(x, CON) == pytest.approx(emp, rel=0.03)


def test_sat_sampler_matches_materialized_constellation():
    con = Constellation(satellites=20, altitude=1.0e6)
    rng = np.random.default_rng(8)
    direct = sample_nearest_sat_distance(con, rng, 20_000)
    mins = np.array([
        np.linalg.norm(sample_constellation(con, rng), axis=1).min()
        for _ in range(20_000)
    ])
    # same law: two-sample KS
    from scipy.stats import ks_2samp
    assert ks_2samp(direct, mins).pvalue > 0.01


def test_serving_satellite_matches_materialized_argmin():
    con = Constellation(satellites=20, altitude=1.0e6)
    rng = np.random.default_rng(9)
    s = nearest_sat_fractions(con, rng.random(20_000))
    ref = np.empty((s.size, 3))
    for i in range(len(ref)):
        sats = sample_constellation(con, rng)
        ref[i] = sats[np.argmin(np.linalg.norm(sats, axis=1))]
    # at the user the slant range is the satellite's range
    r_user = np.sqrt(sat_squared_distances(con, s))
    offsets = serving_offsets(con, s)
    assert np.allclose(np.sqrt(slant_squared_ranges(offsets, 0.0, 0.0, 0.0)), r_user, rtol=1e-12)
    # the user range alone does not see the direction; the range excess to
    # a point above the user sees the satellite's height, to an off-axis
    # point (at a uniform azimuth about the satellite's) also its
    # horizontal offset
    for point in ((0.0, 0.0, 60.0), (90.0, -40.0, 60.0)):
        radial_sq, height = point[0] ** 2 + point[1] ** 2, point[2]
        got = np.sqrt(slant_squared_ranges(offsets, radial_sq, height, rng.random(s.size)))
        want = np.linalg.norm(ref - point, axis=1)
        assert ks_2samp(got - r_user, want - np.linalg.norm(ref, axis=1)).pvalue > 0.01, point


def test_slant_ranges_are_the_distances_of_the_placed_points():
    con = Constellation(satellites=20, altitude=1.0e6)
    rng = np.random.default_rng(10)
    s, w, u, v = rng.random((4, 1000))
    s[:3] = (0.0, 1e-12, 1.0)
    geom = CylinderGeometry(120.0, 120.0)
    radial_sq, height = ris_squared_distances(geom, u), geom.height * v
    # the satellite at azimuth 2 pi w, the point at azimuth 0
    R = con.shell_radius
    rho_s = 2.0 * R * np.sqrt(s * (1.0 - s))
    sat = np.stack([rho_s * np.cos(2.0 * math.pi * w), rho_s * np.sin(2.0 * math.pi * w),
                    R * (1.0 - 2.0 * s) - con.earth_radius], axis=1)
    point = np.stack([np.sqrt(radial_sq), np.zeros_like(u), height], axis=1)
    want = np.sum(np.square(sat - point), axis=1)
    assert np.allclose(slant_squared_ranges(serving_offsets(con, s), radial_sq, height, w), want,
                       rtol=1e-12)
    assert np.allclose(sat_squared_distances(con, s), np.sum(np.square(sat), axis=1), rtol=1e-12)


def test_distance_maps_write_into_given_arrays_with_the_bits_of_new_ones():
    con, geom = Constellation(satellites=20, altitude=1.0e6), CylinderGeometry(120.0, 0.0, 10.0)
    rng = np.random.default_rng(11)
    u, w = rng.random((2, 3, 200))
    s = rng.random(200)
    for fn in (lambda x, out=None: ris_squared_distances(geom, x, out=out),
               lambda x, out=None: nearest_sat_fractions(con, x, out=out),
               lambda x, out=None: sat_squared_distances(con, x, out=out)):
        want, x = fn(u), u.copy()
        assert fn(x, out=x) is x and np.array_equal(x, want)
    # without out the inputs stay as they were; with it radial_sq and w are scratch
    radial_sq, height = ris_squared_distances(geom, u), 40.0 * u
    inputs = (radial_sq.copy(), w.copy())
    offsets = serving_offsets(con, s)
    want = slant_squared_ranges(offsets, radial_sq, height, w)
    assert np.array_equal(radial_sq, inputs[0]) and np.array_equal(w, inputs[1])
    out = np.empty(u.shape)
    assert slant_squared_ranges(offsets, radial_sq, height, w, out=out) is out
    assert np.array_equal(out, want)



def test_constellation_properties():
    con = Constellation(satellites=1000, altitude=1.0e6)
    shell = con.earth_radius + con.altitude
    assert con.intensity == pytest.approx(1000.0 / (4.0 * math.pi * shell ** 2))
    with pytest.raises(DomainError):
        Constellation(satellites=0, altitude=1.0e6)


def test_geometry_validation():
    with pytest.raises(DomainError):
        CylinderGeometry(-1.0, 10.0)
    with pytest.raises(DomainError):
        CylinderGeometry(10.0, 5.0, inner_radius=1.0)  # annulus needs H == 0
    with pytest.raises(DomainError):
        CylinderGeometry(10.0, 0.0, inner_radius=20.0)
