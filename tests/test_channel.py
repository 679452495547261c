"""Combined-response statistics: degenerate-case closed values, the Gamma
fit round-trip, scaling behavior, and light Monte Carlo cross-checks
(the full-size ones run in the acceptance suite)."""

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import default_links
from leoris import channel
from leoris.channel import (
    DirectPath,
    GammaApprox,
    LinkConfig,
    RisLink,
    abs_A_pdf,
    gamma_approx,
    mean_abs_A,
    snr_pdf,
    var_abs_A,
)
from leoris.errors import ComputationError, DivergentMomentError, DomainError
from leoris.fading import KappaMuParams, envelope_cdf, envelope_moment, envelope_pdf
from leoris.geometry import (
    Constellation,
    CylinderGeometry,
    ris_distance_cdf,
    ris_distance_moment,
    ris_distance_pdf,
    sat_distance_cdf,
    sat_distance_moment,
    sat_distance_pdf,
)
from leoris.montecarlo import SimOptions, simulate_snr
from leoris.runner import sweep
from leoris.scenario import SweepSpec, load_scenario

GEOM = CylinderGeometry(120.0, 120.0)
CON = Constellation(1000, 1.0e6)
DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"


def _direct_only(rho0=1.0) -> LinkConfig:
    return LinkConfig(ris=(), direct=DirectPath(True, KappaMuParams(0.0, 1.0), 2.0),
                      transmit_snr=rho0)


def test_mean_direct_only_rayleigh():
    want = math.sqrt(math.pi) / 2.0 * sat_distance_moment(1, 2.0, CON)
    assert mean_abs_A(_direct_only(), GEOM, CON) == pytest.approx(want, rel=1e-12)


def test_mean_rayleigh_per_element_factor():
    # both hops Rayleigh: per-element envelope factor is pi/4
    link = RisLink(1, KappaMuParams(0.0, 1.0), KappaMuParams(0.0, 1.0), 2.0, 2.5)
    cfg = LinkConfig(ris=(link,), direct=DirectPath(enabled=False))
    want = (math.pi / 4.0 * sat_distance_moment(1, 2.0, CON)
            * ris_distance_moment(1, 2.5, GEOM))
    assert mean_abs_A(cfg, GEOM, CON) == pytest.approx(want, rel=1e-12)


def test_var_direct_only_rayleigh():
    p2 = math.sqrt(math.pi) / 2.0 * sat_distance_moment(1, 2.0, CON)
    want = sat_distance_moment(2, 2.0, CON) - p2 * p2
    assert var_abs_A(_direct_only(), GEOM, CON) == pytest.approx(want, rel=1e-12)


def test_var_single_element_single_ris():
    link = RisLink(1, KappaMuParams(0.0, 1.0), KappaMuParams(0.0, 1.0), 2.0, 2.4)
    cfg = LinkConfig(ris=(link,), direct=DirectPath(enabled=False))
    mean = mean_abs_A(cfg, GEOM, CON)
    want = (sat_distance_moment(2, 2.0, CON) * ris_distance_moment(2, 2.4, GEOM)
            - mean * mean)
    assert var_abs_A(cfg, GEOM, CON) == pytest.approx(want, rel=1e-12)


def test_gamma_fit_definition():
    ga = GammaApprox.from_moments(2.0, 1.0)
    assert ga.alpha == pytest.approx(4.0)
    assert ga.beta == pytest.approx(0.5)


def test_gamma_fit_round_trip():
    cfg = default_links(4)
    ga = gamma_approx(cfg, GEOM, CON)
    assert ga.mean == pytest.approx(mean_abs_A(cfg, GEOM, CON), rel=1e-12)
    assert ga.variance == pytest.approx(var_abs_A(cfg, GEOM, CON), rel=1e-12)


def test_gamma_fit_requires_signal_path():
    cfg = LinkConfig(ris=(), direct=DirectPath(enabled=False))
    with pytest.raises(ComputationError):
        gamma_approx(cfg, GEOM, CON)


def _count_moments(monkeypatch) -> dict:
    """Count the moment evaluations channel makes, by function name."""
    counts = {}
    for name in ("envelope_moment", "sat_distance_moment", "ris_distance_moment"):
        def counting(*a, _name=name, _fn=getattr(channel, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*a)
        monkeypatch.setattr(channel, name, counting)
    return counts


def _by_hand(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> GammaApprox:
    """The Gamma fit without any memo, in the fit's association order."""
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
    variance = 0.0
    for mean, second in paths:
        variance += second - mean ** 2
    return GammaApprox.from_moments(sum(m for m, _ in paths), variance)


def test_each_distinct_moment_evaluated_once(monkeypatch):
    cfg = load_scenario(DEFAULT_CONFIG)
    args = (cfg.links, cfg.geometry, cfg.constellation)
    reference = _by_hand(*args)
    counts = _count_moments(monkeypatch)
    n = len(cfg.links.ris)
    # three fading laws; orders 1 and 2 at one satellite-hop exponent; a
    # drawn user-hop exponent per RIS at both orders
    cold_counts = {"envelope_moment": 3, "sat_distance_moment": 2, "ris_distance_moment": 2 * n}
    memo = {}
    cold = gamma_approx(*args, memo=memo)
    assert counts == cold_counts
    # a fit given the same dict takes its link factors from it; only the
    # geometry factors are evaluated
    counts.clear()
    warm = gamma_approx(*args, memo=memo)
    assert counts == {"ris_distance_moment": 2 * n}
    # a fit given no dict starts cold
    counts.clear()
    alone = gamma_approx(*args)
    assert counts == cold_counts
    # the memo changes no product or sum
    for ga in (cold, warm, alone):
        assert (ga.alpha, ga.beta) == (reference.alpha, reference.beta)


def test_a_sweep_shares_link_factors_and_leaves_the_memos_empty(monkeypatch):
    cfg = load_scenario(DEFAULT_CONFIG)
    grid = (60.0, 120.0, 300.0)
    cfg = dataclasses.replace(cfg, sweep=SweepSpec("R0", grid), mc_enabled=False)
    counts = _count_moments(monkeypatch)
    tables = sweep(cfg)
    n = len(cfg.links.ris)
    # one link-factor evaluation for the whole sweep, geometry per point
    assert counts == {"envelope_moment": 3, "sat_distance_moment": 2,
                      "ris_distance_moment": 2 * n * len(grid)}
    # the sweep keeps no memo: a fit after it is cold, and the sweep's
    # fits equal cold ones
    counts.clear()
    geom = dataclasses.replace(cfg.geometry, base_radius=grid[-1])
    ga = gamma_approx(cfg.links, geom, cfg.constellation)
    assert counts["envelope_moment"] == 3
    assert tables[0].rows[-1][-2:] == (ga.alpha, ga.beta)


def test_sweeps_on_two_threads_match_one_alone():
    cfg = load_scenario(DEFAULT_CONFIG)
    cfgs = [dataclasses.replace(cfg, sweep=SweepSpec("R0", tuple(grid)), mc_enabled=False)
            for grid in (np.linspace(60.0, 300.0, 200), np.linspace(30.0, 600.0, 200))]
    alone = [sweep(c) for c in cfgs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            together = list(pool.map(sweep, cfgs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert together == alone


def test_link_memos_hold_no_stale_entries():
    sat, user, direct = KappaMuParams(1.0, 2.0), KappaMuParams(3.0, 3.0), KappaMuParams(0.0, 1.0)

    def case(elements=20, sat_fading=sat, user_fading=user, sat_exponent=2.0,
             direct_fading=direct, direct_exponent=2.0, satellites=1000, altitude=1.0e6):
        links = LinkConfig(
            ris=(RisLink(elements, sat_fading, user_fading, sat_exponent, 2.5),
                 RisLink(elements, sat_fading, user_fading, sat_exponent, 2.8)),
            direct=DirectPath(True, direct_fading, direct_exponent))
        return links, GEOM, Constellation(satellites, altitude)

    # each case differs from the first in exactly one field a memo key holds
    cases = [case(), case(elements=21), case(sat_fading=KappaMuParams(1.5, 2.0)),
             case(user_fading=KappaMuParams(3.0, 2.5)), case(sat_exponent=2.2),
             case(direct_fading=KappaMuParams(0.5, 1.0)), case(direct_exponent=2.4),
             case(satellites=1200), case(altitude=1.1e6)]
    cold = [gamma_approx(*args) for args in cases]
    assert len(set(cold)) == len(cases)
    memo = {}
    sizes = []
    for _ in range(2):
        for i in (*range(len(cases)), *reversed(range(len(cases)))):
            assert gamma_approx(*cases[i], memo=memo) == cold[i]
            assert gamma_approx(*cases[0], memo=memo) == cold[0]
        sizes.append(len(memo))
    # the second round finds every entry the first one added
    assert sizes[0] == sizes[1]


def test_mean_strictly_increases_with_ris_count():
    means = [mean_abs_A(default_links(n), GEOM, CON) for n in (1, 2, 4, 8)]
    assert all(b > a for a, b in zip(means, means[1:]))


def test_divergent_moment_propagates():
    link = RisLink(4, KappaMuParams(0.0, 1.0), KappaMuParams(0.0, 1.0), 2.0, 2.5)
    cfg = LinkConfig(ris=(link,), direct=DirectPath(enabled=False))
    flat = CylinderGeometry(50.0, 0.0)
    # t=1 with t*eps < 4 converges, so the mean must not touch t=2
    assert math.isfinite(mean_abs_A(cfg, flat, CON))
    with pytest.raises(DivergentMomentError):
        var_abs_A(cfg, flat, CON)  # t=2 with t*eps >= 4 on a flat disk


def test_scale_invariance_of_alpha_equal_exponents():
    # uniform exponent on every hop, no direct path: scaling all distances
    # by c leaves alpha alone and scales beta by the common moment factor
    e = 2.0
    link = RisLink(10, KappaMuParams(1.0, 2.0), KappaMuParams(3.0, 3.0), e, e)
    cfg = LinkConfig(ris=(link,) * 3, direct=DirectPath(enabled=False))
    c = 4.0
    ga1 = gamma_approx(cfg, CylinderGeometry(100.0, 50.0), Constellation(1000, 1.0e6))
    ga2 = gamma_approx(cfg, CylinderGeometry(100.0 * c, 50.0 * c),
                       Constellation(1000, 1.0e6 * c, earth_radius=6_371_000.0 * c))
    assert ga2.alpha == pytest.approx(ga1.alpha, rel=1e-9)
    assert ga2.beta == pytest.approx(ga1.beta * c ** (-e), rel=1e-9)


def test_abs_pdf_normalization_and_mode():
    ga = GammaApprox(alpha=3.2, beta=0.7)
    val, _ = quad(lambda x: abs_A_pdf(x, ga), 0.0, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=1e-9)
    mode = (ga.alpha - 1.0) * ga.beta
    grid = np.linspace(0.5 * mode, 1.5 * mode, 2001)
    assert abs(grid[np.argmax(abs_A_pdf(grid, ga))] - mode) < 2e-3 * mode


def test_snr_pdf_change_of_variables():
    ga = GammaApprox(alpha=4.4, beta=0.31)
    rho0 = 250.0
    rng = np.random.default_rng(17)
    x = 10.0 ** rng.uniform(-3, 3, 100)
    direct = snr_pdf(x, ga, rho0)
    via_abs = abs_A_pdf(np.sqrt(x / rho0), ga) / (2.0 * np.sqrt(rho0 * x))
    assert np.allclose(direct, via_abs, rtol=1e-12)


def test_snr_pdf_normalization():
    ga = GammaApprox(alpha=2.5, beta=0.6)
    val, _ = quad(lambda x: snr_pdf(x, ga, 10.0), 0.0, np.inf, limit=300)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_snr_pdf_domain():
    ga = GammaApprox(alpha=2.0, beta=1.0)
    with pytest.raises(DomainError):
        snr_pdf(1.0, ga, 0.0)
    with pytest.raises(DomainError):
        snr_pdf(-1.0, ga, 1.0)


@pytest.mark.parametrize("f, valid", [
    pytest.param(lambda x: abs_A_pdf(x, GammaApprox(0.5, 1.0)), 0.5, id="abs_A_pdf-alpha<1"),
    pytest.param(lambda x: abs_A_pdf(x, GammaApprox(2.0, 1.0)), 0.5, id="abs_A_pdf-alpha>1"),
    pytest.param(lambda x: snr_pdf(x, GammaApprox(0.5, 1.0), 1.0), 0.5, id="snr_pdf"),
    pytest.param(lambda x: envelope_pdf(x, KappaMuParams(1.0, 2.0)), 0.5, id="envelope_pdf"),
    pytest.param(lambda x: envelope_cdf(x, KappaMuParams(1.0, 2.0)), 0.5, id="envelope_cdf"),
    pytest.param(lambda x: ris_distance_pdf(x, GEOM), 50.0, id="ris_distance_pdf"),
    pytest.param(lambda x: ris_distance_cdf(x, GEOM), 50.0, id="ris_distance_cdf"),
    pytest.param(lambda x: sat_distance_pdf(x, CON), 1.2e6, id="sat_distance_pdf"),
    pytest.param(lambda x: sat_distance_cdf(x, CON), 1.2e6, id="sat_distance_cdf"),
])
def test_densities_and_cdfs_reject_nan(f, valid):
    # NaN compares false both ways, so it must not pass as a value at 0
    with pytest.raises(DomainError):
        f(math.nan)
    with pytest.raises(DomainError):
        f(np.array([valid, math.nan]))
    assert f(np.array([valid, 2.0 * valid])).tolist() == [f(valid), f(2.0 * valid)]


def test_moments_against_light_simulation(default_geometry, default_constellation):
    # 2e5-trial sanity check; the 1e6-trial validation lives in acceptance
    cfg = default_links(4)
    res = simulate_snr(cfg, default_geometry, default_constellation,
                       SimOptions(trials=200_000, seed=21))
    assert res.abs_mean == pytest.approx(mean_abs_A(cfg, default_geometry,
                                                    default_constellation), rel=0.01)
    assert res.abs_var == pytest.approx(var_abs_A(cfg, default_geometry,
                                                  default_constellation), rel=0.05)


def test_gamma_model_tracks_simulated_histograms(default_geometry, default_constellation):
    """CLT quality: the fitted Gamma density stays within 0.05 of the
    simulated response histogram (and likewise for the SNR density), both
    compared on their natural normalized scales."""
    cfg = default_links(4)
    ga = gamma_approx(cfg, default_geometry, default_constellation)
    res = simulate_snr(cfg, default_geometry, default_constellation,
                       SimOptions(trials=1_000_000, seed=22))
    amp = np.sqrt(res.snr_samples / cfg.transmit_snr) / ga.beta
    hi = float(np.quantile(amp, 0.9999))
    density, edges = np.histogram(amp, bins=200, range=(0.0, hi), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    model = abs_A_pdf(centers, GammaApprox(ga.alpha, 1.0))
    assert float(np.max(np.abs(density - model))) < 0.05

    snr_norm = res.snr_samples / (cfg.transmit_snr * ga.beta ** 2)
    hi = float(np.quantile(snr_norm, 0.999))
    density, edges = np.histogram(snr_norm, bins=200, range=(0.0, hi), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    model = snr_pdf(centers, GammaApprox(ga.alpha, 1.0), 1.0)
    assert float(np.max(np.abs(density - model))) < 0.05
