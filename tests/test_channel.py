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
from leoris import channel, runner
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
from leoris.errors import ComputationError, ConvergenceError, DivergentMomentError, DomainError
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
    """Count the moment evaluations channel makes: calls of the envelope
    and satellite-distance moments, and calls of the RIS-distance kernel
    with the number of moments each evaluates."""
    counts = {}
    for name in ("envelope_moment", "sat_distance_moment"):
        def counting(*a, _name=name, _fn=getattr(channel, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*a)
        monkeypatch.setattr(channel, name, counting)

    def kernel(s, *region, _fn=channel._ris_moment):
        counts["ris_kernel_calls"] = counts.get("ris_kernel_calls", 0) + 1
        counts["ris_moments"] = counts.get("ris_moments", 0) + np.size(s)
        return _fn(s, *region)

    monkeypatch.setattr(channel, "_ris_moment", kernel)
    return counts


def _by_hand(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation) -> GammaApprox:
    """The Gamma fit from the public moments, one at a time, in the fit's
    association order."""
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
    # drawn user-hop exponent per RIS at both orders, in one kernel call
    once = {"envelope_moment": 3, "sat_distance_moment": 2,
            "ris_kernel_calls": 1, "ris_moments": 2 * n}
    alone = gamma_approx(*args)
    assert counts == once
    # a batch of the same point twice evaluates each moment once
    counts.clear()
    twice = channel.gamma_fits([args[:2], args[:2]], cfg.constellation)
    assert counts == once
    # a later call starts cold
    counts.clear()
    again = gamma_approx(*args)
    assert counts == once
    # the batch changes no product or sum
    for ga in (alone, *twice, again):
        assert (ga.alpha, ga.beta) == (reference.alpha, reference.beta)
    # the mean alone needs the order-1 moments only
    counts.clear()
    mean_abs_A(*args)
    assert counts == {**once, "ris_moments": n}


@pytest.mark.parametrize("variable,grid,ris_moments", [
    # every point has its own region: 2 orders x 8 RISs per point
    ("R0", (60.0, 120.0, 300.0), 2 * 8 * 3),
    # the counts' exponent draws share their prefix: the 16-RIS point
    # holds every moment the smaller counts need (80 without the dedupe)
    ("N", (4.0, 8.0, 12.0, 16.0), 2 * 16),
], ids=["R0", "N"])
def test_a_sweep_fits_every_point_in_one_batch(monkeypatch, variable, grid, ris_moments):
    cfg = load_scenario(DEFAULT_CONFIG)
    cfg = dataclasses.replace(cfg, sweep=SweepSpec(variable, grid), mc_enabled=False)
    counts = _count_moments(monkeypatch)
    tables = sweep(cfg)
    # one link-factor evaluation and one kernel call for the whole sweep
    assert counts == {"envelope_moment": 3, "sat_distance_moment": 2,
                      "ris_kernel_calls": 1, "ris_moments": ris_moments}
    # the sweep's fits equal single fits of its points
    for value, row in zip(grid, tables[0].rows):
        links, geom, _, _ = runner._point_inputs(cfg, variable, value)
        ga = gamma_approx(links, geom, cfg.constellation)
        assert row[-2:] == (ga.alpha, ga.beta)


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


def test_link_memos_hold_no_stale_entries(monkeypatch):
    sat, user, direct = KappaMuParams(1.0, 2.0), KappaMuParams(3.0, 3.0), KappaMuParams(0.0, 1.0)

    def case(elements=20, sat_fading=sat, user_fading=user, sat_exponent=2.0,
             direct_fading=direct, direct_exponent=2.0):
        links = LinkConfig(
            ris=(RisLink(elements, sat_fading, user_fading, sat_exponent, 2.5),
                 RisLink(elements, sat_fading, user_fading, sat_exponent, 2.8)),
            direct=DirectPath(True, direct_fading, direct_exponent))
        return links, GEOM

    # each case differs from the first in exactly one field a link-factor
    # key holds; a batch has one constellation, so that is not among them
    cases = [case(), case(elements=21), case(sat_fading=KappaMuParams(1.5, 2.0)),
             case(user_fading=KappaMuParams(3.0, 2.5)), case(sat_exponent=2.2),
             case(direct_fading=KappaMuParams(0.5, 1.0)), case(direct_exponent=2.4)]
    cold = [gamma_approx(*args, CON) for args in cases]
    assert len(set(cold)) == len(cases)
    order = [j for _ in range(2)
             for i in (*range(len(cases)), *reversed(range(len(cases)))) for j in (i, 0)]
    counts = _count_moments(monkeypatch)
    # the batch also runs in chunks of a few paths, which share the link
    # factors but not the kernel call
    for chunk_paths in (channel._CHUNK_PATHS, 7):
        monkeypatch.setattr(channel, "_CHUNK_PATHS", chunk_paths)
        counts.clear()
        fits = channel.gamma_fits([cases[j] for j in order], CON)
        assert fits == [cold[j] for j in order]
        # one envelope moment per hop of each distinct link factor (5 RIS
        # keys, 3 direct keys), one pair of satellite moments per exponent
        assert counts["envelope_moment"] == 5 * 2 + 3
        assert counts["sat_distance_moment"] == 3 * 2


def test_batch_raises_the_first_error_in_pair_and_path_order():
    rayleigh = KappaMuParams(0.0, 1.0)
    # order 2 of E[R^-1.25] diverges on a flat disk
    divergent = RisLink(4, rayleigh, rayleigh, 2.0, 2.5)
    # the user-hop envelope moment does not converge
    unconverged = RisLink(4, rayleigh, KappaMuParams(1.0e12, 1.0), 2.0, 2.0)
    flat = CylinderGeometry(50.0, 0.0)
    a = (LinkConfig(ris=(divergent,)), flat)
    b = (LinkConfig(ris=(unconverged,)), flat)
    with pytest.raises(DivergentMomentError):
        channel.gamma_fits([a, b], CON)
    with pytest.raises(ConvergenceError):
        channel.gamma_fits([b, a], CON)
    # within a pair, every link factor comes before the RIS-distance moments
    with pytest.raises(ConvergenceError):
        gamma_approx(LinkConfig(ris=(divergent, unconverged)), flat, CON)


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


_LAW = KappaMuParams(0.0, 1.0)


@pytest.mark.parametrize("build", [
    pytest.param(lambda v: CylinderGeometry(v, 1.0), id="CylinderGeometry.base_radius"),
    pytest.param(lambda v: CylinderGeometry(1.0, v), id="CylinderGeometry.height"),
    pytest.param(lambda v: CylinderGeometry(1.0, 0.0, v), id="CylinderGeometry.inner_radius"),
    pytest.param(lambda v: Constellation(10, v), id="Constellation.altitude"),
    pytest.param(lambda v: Constellation(10, 5.0e5, v), id="Constellation.earth_radius"),
    pytest.param(lambda v: KappaMuParams(v, 1.0), id="KappaMuParams.kappa"),
    pytest.param(lambda v: KappaMuParams(1.0, v), id="KappaMuParams.mu"),
    pytest.param(lambda v: RisLink(4, _LAW, _LAW, v, 2.0), id="RisLink.sat_exponent"),
    pytest.param(lambda v: RisLink(4, _LAW, _LAW, 2.0, v), id="RisLink.user_exponent"),
    pytest.param(lambda v: DirectPath(True, _LAW, v), id="DirectPath.exponent"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_constructors_reject_non_finite_and_negative_parameters(build, value):
    # a NaN or infinite field would pass into every density, moment and draw
    with pytest.raises(DomainError):
        build(value)


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
