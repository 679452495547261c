"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured figure.

Monte Carlo seeds and the randomized-scenario draws are pinned so the
suite is reproducible; tolerances are the contract values, not tuned to
the seeds.
"""

import math
import time

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.special import digamma, gammainc
from scipy.stats import kstest

from conftest import (
    RHO0_DEFAULT,
    capacity_series_point,
    default_links,
    envelope_moment_mpmath,
    pfq_one,
    sat_moment_mpmath,
    sqrt_weighted_mpmath,
    sqrt_weighted_point,
)
from leoris.channel import (
    DirectPath,
    GammaApprox,
    LinkConfig,
    RisLink,
    gamma_approx,
    mean_abs_A,
    var_abs_A,
)
from leoris.fading import KappaMuParams, envelope_moment, envelope_pdf
from leoris.geometry import (
    Constellation,
    CylinderGeometry,
    _sqrt_weighted_integral,
    ris_distance_cdf,
    ris_distance_moment,
    ris_distance_pdf,
    sample_nearest_sat_distance,
    sample_ris_distances,
    sat_distance_cdf,
    sat_distance_moment,
    sat_distance_pdf,
)
from leoris.metrics import (
    _SUMMED,
    CoverageQuery,
    capacity_quadrature,
    coverage_probability,
    ergodic_capacity,
)
from leoris.montecarlo import SimOptions, simulate_snr

mp.mp.dps = 30

GEOM = CylinderGeometry(120.0, 120.0)
CON = Constellation(1000, 1.0e6)
THRESHOLD_GRID_DB = np.linspace(0.0, 40.0, 10)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_coverage_closed_form_vs_simulation():
    """Closed-form coverage tracks the simulator within max(0.02, 3 SE)
    on a 10-point threshold grid for 4 and 8 RISs, within 60 s."""
    start = time.perf_counter()
    slack = math.inf
    for n, seed in ((4, 101), (8, 102)):
        cfg = default_links(n)
        ga = gamma_approx(cfg, GEOM, CON)
        thresholds = 10.0 ** (THRESHOLD_GRID_DB / 10.0)
        res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=100_000, seed=seed),
                           points=[(0, RHO0_DEFAULT, rho_th) for rho_th in thresholds])
        for th_db, rho_th, est in zip(THRESHOLD_GRID_DB, thresholds, res.coverage):
            analytic = coverage_probability(CoverageQuery(rho_th, RHO0_DEFAULT), ga)
            gap = abs(analytic - est.value)
            margin = max(0.02, 3.0 * est.stderr)
            slack = min(slack, margin - gap)
            assert gap <= margin, (n, th_db, analytic, est.value)
    elapsed = time.perf_counter() - start
    ok = slack >= 0.0 and elapsed < 60.0
    _report(1, ok, f"min slack {slack:.4f}, elapsed {elapsed:.1f}s (< 60s)")


def test_criterion_2_coverage_gain_four_to_eight_ris():
    """Relative coverage gain from 4 to 8 RISs at a 20 dB threshold is
    21.5% +- 5 points for the recorded exponent draw."""
    rho_th = 10.0 ** 2.0
    cov = {}
    for n in (4, 8):
        ga = gamma_approx(default_links(n), GEOM, CON)
        cov[n] = coverage_probability(CoverageQuery(rho_th, RHO0_DEFAULT), ga)
    gain = 100.0 * (cov[8] - cov[4]) / cov[4]
    ok = abs(gain - 21.5) <= 5.0
    _report(2, ok, f"gain {gain:.2f}% (target 21.5% +- 5), "
                   f"Pc(4)={cov[4]:.4f}, Pc(8)={cov[8]:.4f}")


def test_criterion_3_capacity_closed_form_vs_quadrature_grid():
    """Closed-form capacity agrees with the quadrature oracle to 1e-3
    relative over a 20 x 20 (shape, transmit SNR) grid within 10 s."""
    start = time.perf_counter()
    worst = 0.0
    for alpha in np.linspace(0.5, 30.0, 20):
        ga = GammaApprox(alpha=float(alpha), beta=1.0)
        for rho0 in np.logspace(0.0, 14.0, 20):
            got = ergodic_capacity(ga, float(rho0)).bits
            want = capacity_quadrature(ga, float(rho0))
            rel = abs(got - want) / max(abs(want), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-3, (alpha, rho0, got, want)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 10.0
    _report(3, ok, f"worst rel {worst:.2e} over 400 points, elapsed {elapsed:.1f}s (< 10s)")


def _ris_moment_quadrature(t, eps, geom):
    s = t * eps / 2.0
    R0, H, c = geom.base_radius, geom.height, geom.inner_radius
    if H == 0.0:
        val, _ = quad(lambda r: r ** (-s) * ris_distance_pdf(r, geom), c, R0,
                      epsabs=1e-16, epsrel=1e-12, limit=400)
        return val
    lo, hi = min(H, R0), max(H, R0)
    # endpoint-weighted rule handles r^(2-s) near zero up to s -> 3
    head, _ = quad(lambda r: 2.0 / (R0 ** 2 * H), 0.0, lo, weight="alg",
                   wvar=(2.0 - s, 0.0), epsabs=1e-16, epsrel=1e-12, limit=400)
    tail, _ = quad(lambda r: r ** (-s) * ris_distance_pdf(r, geom), lo,
                   geom.max_distance, points=[hi], epsabs=1e-16, epsrel=1e-12,
                   limit=400)
    return head + tail


def _sat_moment_quadrature(t, eta, con):
    val, _ = quad(lambda x: x ** (-t * eta / 2.0) * sat_distance_pdf(x, con),
                  con.altitude, con.max_distance, epsabs=1e-30, epsrel=1e-12,
                  limit=400)
    return val


def test_criterion_4_distance_moments_vs_quadrature():
    """Closed-form distance moments match adaptive quadrature of the
    distance laws to 1e-8 relative on 100 randomized cases, including the
    flat region, the annulus, and both removable-denominator branches."""
    rng = np.random.default_rng(20240815)
    worst = 0.0
    cases = 0
    while cases < 60:
        kind = cases % 5
        t = int(rng.integers(1, 3))
        if kind == 0:  # generic 3D region
            geom = CylinderGeometry(10.0 ** rng.uniform(1, 3), 10.0 ** rng.uniform(0.5, 3))
            eps = rng.uniform(2.0, 3.0)
            if t * eps / 2.0 >= 2.97:
                continue
        elif kind == 1:  # flat disk, finite branch only
            geom = CylinderGeometry(10.0 ** rng.uniform(0.5, 3), 0.0)
            t, eps = 1, rng.uniform(2.0, 3.0)
        elif kind == 2:  # annulus, any exponent
            R0 = 10.0 ** rng.uniform(1, 3)
            geom = CylinderGeometry(R0, 0.0, inner_radius=R0 * rng.uniform(0.005, 0.4))
            eps = rng.uniform(2.0, 3.0)
        elif kind == 3:  # near the removable t*eps = 4 branch
            geom = CylinderGeometry(10.0 ** rng.uniform(1, 3), 10.0 ** rng.uniform(0.5, 2.5))
            t, eps = 2, rng.uniform(1.9995, 2.0005)
        else:  # approach the t*eps = 6 divergence boundary
            geom = CylinderGeometry(10.0 ** rng.uniform(1, 3), 10.0 ** rng.uniform(0.5, 2.5))
            t, eps = 2, rng.uniform(2.85, 2.94)
        got = ris_distance_moment(t, eps, geom)
        want = _ris_moment_quadrature(t, eps, geom)
        worst = max(worst, abs(got - want) / abs(want))
        cases += 1
    while cases < 100:
        con = Constellation(int(rng.integers(1, 2000)), 10.0 ** rng.uniform(5.2, 6.3))
        t = int(rng.integers(1, 3))
        eta = rng.uniform(2.0, 3.5)
        got = sat_distance_moment(t, eta, con)
        want = _sat_moment_quadrature(t, eta, con)
        worst = max(worst, abs(got - want) / abs(want))
        cases += 1
    ok = worst <= 1e-8
    _report(4, ok, f"worst rel {worst:.2e} over 100 cases")


def _criterion5_scenarios():
    # five pinned scenarios covering N in {1,4,8} and L in {1,20,50};
    # user-hop singularities are kept estimable at 1e6 trials either by an
    # annulus floor or by drawing the exponent near its free-space bottom
    s1 = (default_links(4), GEOM, CON, 201)
    rng = np.random.default_rng(52)
    def draw(lo=2.0, hi=3.0):
        return float(rng.uniform(lo, hi))
    s2 = (LinkConfig(
        ris=(RisLink(1, KappaMuParams(0.5, 1.5), KappaMuParams(2.0, 1.0),
                     draw(), draw()),),
        direct=DirectPath(True, KappaMuParams(1.0, 2.0), draw()),
        transmit_snr=RHO0_DEFAULT,
    ), CylinderGeometry(80.0, 0.0, inner_radius=8.0), Constellation(500, 8.0e5), 202)
    s3 = (LinkConfig(
        ris=tuple(RisLink(20, KappaMuParams(draw(0.2, 2.0), 2.0),
                          KappaMuParams(draw(0.5, 4.0), 3.0), draw(), draw())
                  for _ in range(8)),
        direct=DirectPath(True, KappaMuParams(0.0, 1.0), 2.0),
        transmit_snr=RHO0_DEFAULT,
    ), CylinderGeometry(150.0, 0.0, inner_radius=12.0), Constellation(1000, 1.2e6), 203)
    s4 = (LinkConfig(
        ris=(RisLink(50, KappaMuParams(1.0, 2.0), KappaMuParams(3.0, 3.0),
                     2.0, draw()),),
        direct=DirectPath(True, KappaMuParams(0.0, 1.0), 2.0),
        transmit_snr=RHO0_DEFAULT,
    ), CylinderGeometry(100.0, 0.0, inner_radius=10.0), CON, 204)
    s5 = (LinkConfig(
        ris=tuple(RisLink(50, KappaMuParams(draw(0.0, 1.0), 1.0),
                          KappaMuParams(draw(1.0, 3.0), 2.5), draw(), draw())
                  for _ in range(4)),
        direct=DirectPath(True, KappaMuParams(0.5, 1.0), draw()),
        transmit_snr=RHO0_DEFAULT,
    ), CylinderGeometry(200.0, 0.0, inner_radius=20.0), Constellation(800, 9.0e5), 205)
    return [s1, s2, s3, s4, s5]


def test_criterion_5_response_moments_vs_simulation():
    """Closed-form mean and variance of the combined response match raw
    1e6-trial simulation moments within 1% and 2% on five scenarios. The
    simulations run on two worker threads and give a one-worker run's bits."""
    worst_mean = worst_var = 0.0
    for cfg, geom, con, seed in _criterion5_scenarios():
        res = simulate_snr(cfg, geom, con, SimOptions(trials=1_000_000, seed=seed, workers=2))
        mean_rel = abs(res.abs_mean - mean_abs_A(cfg, geom, con)) / mean_abs_A(cfg, geom, con)
        var_rel = abs(res.abs_var - var_abs_A(cfg, geom, con)) / var_abs_A(cfg, geom, con)
        worst_mean = max(worst_mean, mean_rel)
        worst_var = max(worst_var, var_rel)
        assert mean_rel < 0.01, (seed, mean_rel)
        assert var_rel < 0.02, (seed, var_rel)
    ok = worst_mean < 0.01 and worst_var < 0.02
    _report(5, ok, f"worst mean rel {worst_mean:.4f} (< 0.01), "
                   f"worst var rel {worst_var:.4f} (< 0.02)")


def test_criterion_6_samplers_and_special_cases():
    """Samplers reproduce their distance laws (KS < 4e-3 at 1e6 draws) and
    the envelope family collapses to its named special cases to 1e-10."""
    rng = np.random.default_rng(61)
    ks_ris = kstest(sample_ris_distances(GEOM, rng, 1_000_000),
                    lambda x: ris_distance_cdf(x, GEOM)).statistic
    d = sample_nearest_sat_distance(CON, rng, 1_000_000)
    ks_sat = kstest(d, lambda x: sat_distance_cdf(x, CON)).statistic

    grid = np.linspace(0.0, 5.0, 2001)
    sups = {}
    sups["rayleigh"] = np.max(np.abs(
        envelope_pdf(grid, KappaMuParams(0.0, 1.0)) - 2 * grid * np.exp(-grid ** 2)))
    sups["one_sided_gaussian"] = np.max(np.abs(
        envelope_pdf(grid, KappaMuParams(0.0, 0.5))
        - math.sqrt(2.0 / math.pi) * np.exp(-grid ** 2 / 2.0)))
    m = 3.4
    sups["nakagami"] = np.max(np.abs(
        envelope_pdf(grid, KappaMuParams(0.0, m))
        - 2 * m ** m * grid ** (2 * m - 1) * np.exp(-m * grid ** 2) / math.gamma(m)))
    k = 1.8
    rice = np.array([float(
        2 * (1 + k) * x * mp.e ** (-k - (1 + k) * x * x)
        * mp.besseli(0, 2 * math.sqrt(k * (1 + k)) * x)) for x in grid])
    sups["rice"] = np.max(np.abs(envelope_pdf(grid, KappaMuParams(k, 1.0)) - rice))

    worst_sup = max(sups.values())
    ok = ks_ris < 4e-3 and ks_sat < 4e-3 and worst_sup < 1e-10
    _report(6, ok, f"KS ris {ks_ris:.2e}, KS sat {ks_sat:.2e} (< 4e-3); "
                   f"special-case sup {worst_sup:.2e} (< 1e-10)")


def _rho0_db_for_one_bit(cfg, geom, con) -> float:
    ga = gamma_approx(cfg, geom, con)
    lo, hi = 60.0, 170.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ergodic_capacity(ga, 10.0 ** (mid / 10.0)).bits < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_7_parameter_trends_and_exponent_swap():
    """Coverage/capacity rise with the RIS and element counts, capacity
    falls as the region grows, and swapping which hop carries the larger
    exponent costs 8 +- 2 dB at the 1 bit/s/Hz level."""
    rho_th = 100.0
    cov_n = []
    cap_n = []
    for n in (1, 2, 4, 8):
        ga = gamma_approx(default_links(n), GEOM, CON)
        cov_n.append(coverage_probability(CoverageQuery(rho_th, RHO0_DEFAULT), ga))
        cap_n.append(ergodic_capacity(ga, 1.0e12).bits)
    mono_n = all(b > a for a, b in zip(cov_n, cov_n[1:])) and \
        all(b > a for a, b in zip(cap_n, cap_n[1:]))

    cov_l = []
    cap_l = []
    for elements in (5, 20, 50):
        ga = gamma_approx(default_links(4, elements=elements), GEOM, CON)
        cov_l.append(coverage_probability(CoverageQuery(rho_th, RHO0_DEFAULT), ga))
        cap_l.append(ergodic_capacity(ga, 1.0e12).bits)
    mono_l = all(b > a for a, b in zip(cov_l, cov_l[1:])) and \
        all(b > a for a, b in zip(cap_l, cap_l[1:]))

    cfg = default_links(8)
    caps_r0 = [ergodic_capacity(gamma_approx(cfg, CylinderGeometry(r0, 120.0), CON),
                                1.0e12).bits for r0 in (60.0, 120.0, 240.0)]
    caps_h = [ergodic_capacity(gamma_approx(cfg, CylinderGeometry(120.0, h), CON),
                               1.0e12).bits for h in (30.0, 120.0, 480.0)]
    mono_geom = all(b < a for a, b in zip(caps_r0, caps_r0[1:])) and \
        all(b < a for a, b in zip(caps_h, caps_h[1:]))

    def swap_cfg(sat_exp, user_exp):
        return LinkConfig(
            ris=tuple(RisLink(50, KappaMuParams(1.0, 2.0), KappaMuParams(3.0, 3.0),
                              sat_exp, user_exp) for _ in range(10)),
            direct=DirectPath(True, KappaMuParams(0.0, 1.0), 2.0),
            transmit_snr=RHO0_DEFAULT,
        )

    heavy_sat = _rho0_db_for_one_bit(swap_cfg(2.5, 2.0), GEOM, CON)
    heavy_user = _rho0_db_for_one_bit(swap_cfg(2.0, 2.5), GEOM, CON)
    swap_gap = heavy_sat - heavy_user

    ok = mono_n and mono_l and mono_geom and abs(swap_gap - 8.0) <= 2.0
    _report(7, ok, f"monotone in N: {mono_n}, in L: {mono_l}, geometry: {mono_geom}; "
                   f"exponent-swap gap {swap_gap:.2f} dB (target 8 +- 2)")


def test_criterion_8_special_function_battery():
    """Every special function the closed forms call (the capacity series,
    the RIS-moment 2F1 reduction, the envelope moment, and the math/scipy
    routines) matches its arbitrary-precision oracle to 1e-8 relative on
    120 random in-domain points; the listed identities hold to 1e-9."""
    rng = np.random.default_rng(88)
    altitudes = (2.0e5, 1.0e6, 3.5786e7)
    worst = 0.0

    def check(got, want):
        nonlocal worst
        want = float(want)
        rel = abs(got - want) / max(abs(want), 1e-280)
        worst = max(worst, rel)
        assert rel <= 1e-8

    for i in range(120):
        a = 10.0 ** rng.uniform(-2, 2)
        check(math.lgamma(a), mp.loggamma(a))
        check(float(digamma(a)), mp.digamma(a))
        x = 10.0 ** rng.uniform(-2, 2)
        check(float(gammainc(a, x)), mp.gammainc(a, 0, x, regularized=True))
        k, m, t = 10.0 ** rng.uniform(-3, 2), 10.0 ** rng.uniform(-1, 2), rng.uniform(0.5, 4.0)
        check(envelope_moment(t, KappaMuParams(k, m)), envelope_moment_mpmath(t, k, m))
        point = sqrt_weighted_point(rng)
        check(_sqrt_weighted_integral(*point), sqrt_weighted_mpmath(*point))
        eta, m = rng.uniform(2.0, 8.0), int(10.0 ** rng.uniform(0, 6))
        t, alt = 1 + i % 2, altitudes[i % 3]
        check(sat_distance_moment(t, eta, Constellation(m, alt)),
              sat_moment_mpmath(m, alt, t * eta / 2.0))
        _, z, shapes = capacity_series_point(rng)
        for num, den in shapes:
            total, _, status = pfq_one(num, den, -0.25 * z)
            assert status == _SUMMED, (num, den, z)
            check(total, mp.hyper(num, den, -0.25 * z))

    worst_id = 0.0
    R0 = 120.0
    for u in np.linspace(-3.0, 3.0, 81):
        x = R0 * (1.0 + 10.0 ** u)
        with mp.workdps(30):
            sw = mp.sqrt(mp.mpf(x) ** 2 - R0 ** 2)
            exact = {1.0: (x * sw - R0 ** 2 * mp.log((x + sw) / R0)) / 2,
                     2.0: sw - R0 * mp.acos(R0 / mp.mpf(x))}
        for s, want in exact.items():
            worst_id = max(worst_id, abs(_sqrt_weighted_integral(x, R0, s) / float(want) - 1))
    for j in range(100):
        # one satellite: d^2 is uniform on [h^2, h^2 + S], so
        # E[d^-s] = 2 ((h^2 + S)^(1 - s/2) - h^(2 - s)) / (S (2 - s))
        con = Constellation(1, 10.0 ** rng.uniform(5.3, 7.6))
        h, scale = con.altitude, 4.0 * con.earth_radius * con.shell_radius
        eta, t = rng.uniform(2.0, 8.0), 1 + j % 2
        s = t * eta / 2.0
        if abs(s - 2.0) < 1e-3:
            continue  # removable singularity of the closed form
        lhs = sat_distance_moment(t, eta, con)
        rhs = 2.0 * ((h * h + scale) ** (1.0 - s / 2.0) - h ** (2.0 - s)) / (scale * (2.0 - s))
        worst_id = max(worst_id, abs(lhs - rhs) / abs(rhs))

    ok = worst <= 1e-8 and worst_id <= 1e-9
    _report(8, ok, f"worst oracle rel {worst:.2e} (< 1e-8), "
                   f"worst identity rel {worst_id:.2e} (< 1e-9)")
