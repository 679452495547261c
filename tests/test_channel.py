"""Combined-response statistics: degenerate-case closed values, the Gamma
fit round-trip, scaling behavior, and light Monte Carlo cross-checks
(the full-size ones run in the acceptance suite)."""

import math
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
from leoris.fading import KappaMuParams
from leoris.geometry import Constellation, CylinderGeometry, ris_distance_moment, sat_distance_moment
from leoris.montecarlo import SimOptions, simulate_snr
from leoris.scenario import load_scenario

GEOM = CylinderGeometry(120.0, 120.0)
CON = Constellation(1000, 1.0e6)


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


def test_each_distinct_moment_evaluated_once(monkeypatch):
    cfg = load_scenario(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
    args = (cfg.links, cfg.geometry, cfg.constellation)
    want = gamma_approx(*args)
    counts = {}
    for name in ("envelope_moment", "sat_distance_moment", "ris_distance_moment"):
        def counting(*a, _name=name, _fn=getattr(channel, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*a)
        monkeypatch.setattr(channel, name, counting)
    got = gamma_approx(*args)
    # three fading laws; orders 1 and 2 at one satellite-hop exponent; a
    # drawn user-hop exponent per RIS at both orders
    n = len(cfg.links.ris)
    assert counts == {"envelope_moment": 3, "sat_distance_moment": 2,
                      "ris_distance_moment": 2 * n}
    assert got == want
    # the memo changes no product or sum
    monkeypatch.setattr(channel.functools, "cache", lambda fn: fn)
    assert gamma_approx(*args) == want
    assert counts["envelope_moment"] == 3 + 2 * n + 1


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
