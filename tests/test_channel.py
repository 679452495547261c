"""Combined-response statistics: degenerate-case closed values, the Gamma
fit round-trip, scaling behavior, and light Monte Carlo cross-checks
(the full-size ones run in the acceptance suite)."""

import dataclasses
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import default_links, gamma_fit_walk
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
from leoris.scenario import VARIABLES, SweepSpec, load_scenario

GEOM = CylinderGeometry(120.0, 120.0)
CON = Constellation(1000, 1.0e6)
FLAT = CylinderGeometry(120.0, 0.0)
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


def test_each_distinct_moment_evaluated_once(monkeypatch):
    cfg = load_scenario(DEFAULT_CONFIG)
    args = (cfg.links, cfg.geometry, cfg.constellation)
    reference = gamma_fit_walk(*args)
    counts = _count_moments(monkeypatch)
    n = len(cfg.links.ris)
    # three fading laws; orders 1 and 2 at one satellite-hop exponent; a
    # drawn user-hop exponent per RIS at both orders, in one kernel call
    once = {"envelope_moment": 3, "sat_distance_moment": 2,
            "ris_kernel_calls": 1, "ris_moments": 2 * n}
    alone = gamma_approx(*args)
    assert counts == once
    # a batch of the same point twice evaluates each link factor once and
    # every RIS-distance moment of both points in the one kernel call
    counts.clear()
    twice = channel.gamma_fits([args[:2], args[:2]], cfg.constellation)
    assert counts == {**once, "ris_moments": 4 * n}
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


@pytest.mark.parametrize("variable,grid,envelope_moments,ris_moments", [
    # every point has its own region: 2 orders x 8 RISs per point
    ("R0", (60.0, 120.0, 300.0), 3, 2 * 8 * 3),
    # the counts' exponent draws share their prefix, yet every point's
    # RIS moments are evaluated: 2 orders x (4 + 8 + 12 + 16) RISs
    ("N", (4.0, 8.0, 12.0, 16.0), 3, 2 * 40),
    # every point shares all its RIS-distance keys; each element count
    # is its own RIS link factor (two hops), the direct path one more
    ("L", (5.0, 10.0, 20.0), 2 * 3 + 1, 2 * 8 * 3),
], ids=["R0", "N", "L"])
def test_a_sweep_fits_every_point_in_one_batch(monkeypatch, variable, grid, envelope_moments,
                                               ris_moments):
    cfg = load_scenario(DEFAULT_CONFIG)
    # the replaced config fits its points when it is made
    counts = _count_moments(monkeypatch)
    cfg = dataclasses.replace(cfg, sweep=SweepSpec(variable, grid), mc_enabled=False)
    tables = sweep(cfg)
    # link factors once per distinct key and one kernel call for the whole sweep
    assert counts == {"envelope_moment": envelope_moments, "sat_distance_moment": 2,
                      "ris_kernel_calls": 1, "ris_moments": ris_moments}
    # the sweep's fits equal single fits of its points
    for value, row in zip(grid, tables[0].rows):
        links, geom, _, _ = VARIABLES[variable].point(cfg, value)
        ga = gamma_approx(links, geom, cfg.constellation)
        assert row[-2:] == (ga.alpha, ga.beta)


def _mixed_pairs(rng: np.random.Generator, n: int) -> list:
    """Pairs with 0-3 RISs, the direct path on and off, and a flat disk,
    an annulus or a 3D region, at exponents whose moments are finite."""
    laws = [KappaMuParams(0.0, 1.0), KappaMuParams(1.0, 2.0), KappaMuParams(3.0, 3.0)]
    pairs = []
    for _ in range(n):
        R0 = float(10.0 ** rng.uniform(0.0, 3.0))
        region = rng.integers(3)
        geom = (CylinderGeometry(R0, 0.0) if region == 0
                else CylinderGeometry(R0, 0.0, R0 * rng.uniform(0.01, 0.9)) if region == 1
                else CylinderGeometry(R0, R0 * 10.0 ** rng.uniform(-2.0, 2.0)))
        ris = tuple(RisLink(int(rng.integers(1, 64)), laws[rng.integers(3)],
                            laws[rng.integers(3)], float(rng.uniform(2.0, 3.0)),
                            float(rng.uniform(0.0, 1.95)))
                    for _ in range(rng.integers(4)))
        direct = DirectPath(not ris or bool(rng.integers(2)), laws[rng.integers(3)],
                            float(rng.uniform(2.0, 3.0)))
        pairs.append((LinkConfig(ris=ris, direct=direct), geom))
    return pairs


def _sweep_pairs(variable: str, grid) -> list:
    cfg = load_scenario(DEFAULT_CONFIG)
    return [VARIABLES[variable].point(cfg, value)[:2] for value in grid]


@pytest.mark.parametrize("pairs", [
    # both sides of H = R0 = 120, where the kernel changes branch
    _sweep_pairs("H", (*np.geomspace(1.0, 1.0e4, 100).tolist(), 119.5, 120.0, 120.5)),
    _sweep_pairs("L", range(1, 1000, 9)),
    _mixed_pairs(np.random.default_rng(15), 1000),
], ids=["H", "L", "mixed"])
def test_batch_fits_equal_the_per_pair_walk_to_the_bit(pairs):
    con = load_scenario(DEFAULT_CONFIG).constellation
    fits = channel.gamma_fits(pairs, con)
    walk = [gamma_fit_walk(links, geom, con) for links, geom in pairs]
    assert [(ga.alpha, ga.beta) for ga in fits] == [(ga.alpha, ga.beta) for ga in walk]


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


def test_pathless_links_have_zero_mean_and_no_variance():
    # the mean alone is not fitted, so a configuration without a signal
    # path reads 0; its variance is the degenerate 0 the fit rejects
    cfg = LinkConfig(ris=(), direct=DirectPath(enabled=False))
    assert mean_abs_A(cfg, GEOM, CON) == 0.0
    with pytest.raises(ComputationError, match=r"variance .* non-positive \(0\.0\)"):
        var_abs_A(cfg, GEOM, CON)


def _failing_pairs() -> list:
    """Pairs that cannot be fitted: a flat disk whose second path's order-2
    moment and third path's order-1 moment diverge, an envelope moment
    that does not converge (kappa mu = 1e12), both in one pair (the link
    factor raises first), a region too tall for the kernel, and links
    with no path."""
    rayleigh = KappaMuParams(0.0, 1.0)
    finite = RisLink(4, rayleigh, rayleigh, 2.0, 1.0)
    divergent = RisLink(4, rayleigh, rayleigh, 2.0, 2.5)
    steep = RisLink(4, rayleigh, rayleigh, 2.0, 4.5)
    unconverged = RisLink(4, rayleigh, KappaMuParams(1.0e12, 1.0), 2.0, 2.0)
    # a second law, so that its message tells the two pairs apart
    later = RisLink(4, rayleigh, KappaMuParams(2.0e12, 1.0), 2.0, 2.0)
    flat = CylinderGeometry(50.0, 0.0)
    return [(LinkConfig(ris=(finite, divergent, steep)), flat),
            (LinkConfig(ris=(unconverged,), direct=DirectPath(enabled=False)), GEOM),
            (LinkConfig(ris=(divergent, later)), flat),
            (LinkConfig(ris=(finite,)), CylinderGeometry(1.0, 2.0e3)),
            (LinkConfig(ris=(), direct=DirectPath(enabled=False)), GEOM)]


def _error(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("chunk_paths", [channel._CHUNK_PATHS, 7])
def test_batch_raises_what_its_first_failing_pair_raises_alone(monkeypatch, chunk_paths):
    monkeypatch.setattr(channel, "_CHUNK_PATHS", chunk_paths)
    failing = _failing_pairs()
    alone = [_error(gamma_approx, *pair, CON) for pair in failing]
    # alone, a pair raises its link factors' errors first, then its
    # RIS-distance moments' by path and then by order
    patterns = [(DivergentMomentError, r"E\[R\^-2\.5\]"), (ConvergenceError, r"= 1e\+12"),
                (ConvergenceError, r"= 2e\+12"), (ComputationError, "above 1000"),
                (ComputationError, "no active signal path")]
    for (kind, message), (want, pattern) in zip(alone, patterns, strict=True):
        assert kind is want and re.search(pattern, message)
    rng = np.random.default_rng(18)
    for _ in range(20):
        pairs = _mixed_pairs(rng, 40)
        # one to three failing pairs, possibly repeated, at random positions
        picks = rng.integers(len(failing), size=rng.integers(1, 4)).tolist()
        for i in picks:
            pairs.insert(int(rng.integers(len(pairs) + 1)), failing[i])
        first = next(i for pair in pairs for i, bad in enumerate(failing) if pair is bad)
        assert _error(channel.gamma_fits, pairs, CON) == alone[first]


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


# below: None where negative inputs raise, else the value at -inf and at
# -valid; above: the value from 1e20 to +inf
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f, valid, below, above", [
    pytest.param(lambda x: abs_A_pdf(x, GammaApprox(0.5, 1.0)), 0.5, None, 0.0,
                 id="abs_A_pdf-alpha<1"),
    pytest.param(lambda x: abs_A_pdf(x, GammaApprox(2.0, 1.0)), 0.5, None, 0.0,
                 id="abs_A_pdf-alpha>1"),
    pytest.param(lambda x: snr_pdf(x, GammaApprox(0.5, 1.0), 1.0), 0.5, None, 0.0, id="snr_pdf"),
    pytest.param(lambda x: envelope_pdf(x, KappaMuParams(1.0, 2.0)), 0.5, None, 0.0,
                 id="envelope_pdf"),
    pytest.param(lambda x: envelope_cdf(x, KappaMuParams(1.0, 2.0)), 0.5, 0.0, 1.0,
                 id="envelope_cdf"),
    pytest.param(lambda x: envelope_cdf(x, KappaMuParams(0.0, 0.3)), 0.5, 0.0, 1.0,
                 id="envelope_cdf-kappa=0"),
    pytest.param(lambda x: ris_distance_pdf(x, GEOM), 50.0, None, 0.0, id="ris_distance_pdf"),
    pytest.param(lambda x: ris_distance_cdf(x, GEOM), 50.0, None, 1.0, id="ris_distance_cdf"),
    pytest.param(lambda x: ris_distance_cdf(x, FLAT), 50.0, None, 1.0, id="ris_distance_cdf-flat"),
    pytest.param(lambda x: sat_distance_pdf(x, CON), 1.2e6, 0.0, 0.0, id="sat_distance_pdf"),
    pytest.param(lambda x: sat_distance_cdf(x, CON), 1.2e6, 0.0, 1.0, id="sat_distance_cdf"),
    pytest.param(lambda x: sat_distance_cdf(x, CON), 1.5e6, 0.0, 1.0,
                 id="sat_distance_cdf-far"),
])
def test_densities_and_cdfs_reject_nan(f, valid, below, above):
    # NaN compares false both ways, so it must not pass as a value at 0
    with pytest.raises(DomainError):
        f(math.nan)
    with pytest.raises(DomainError):
        f(np.array([valid, math.nan]))
    assert f(np.array([valid, 2.0 * valid])).tolist() == [f(valid), f(2.0 * valid)]
    # a CDF is 0 below its support, negative values included, where it
    # takes them at all
    for x in (-math.inf, -valid):
        if below is None:
            with pytest.raises(DomainError):
                f(x)
        else:
            assert f(x) == below
    far = [1e20, 1e100, 1e308, math.inf]
    assert [f(x) for x in far] == f(np.array(far)).tolist() == [above] * 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f, at_zero", [
    pytest.param(lambda x: abs_A_pdf(x, GammaApprox(3.0, 1.0)), 0.0, id="abs_A_pdf"),
    pytest.param(lambda x: snr_pdf(x, GammaApprox(3.0, 1.0), 2.0), 0.0, id="snr_pdf"),
    pytest.param(lambda x: snr_pdf(x, GammaApprox(3.0, 1.0), 1e-300), 0.0,
                 id="snr_pdf-rho0=1e-300"),
    pytest.param(lambda x: envelope_pdf(x, KappaMuParams(0.0, 1.5)), 0.0, id="envelope_pdf-kappa=0"),
    pytest.param(lambda x: envelope_pdf(x, KappaMuParams(1.0, 2.0)), 0.0, id="envelope_pdf-kappa>0"),
    pytest.param(lambda x: envelope_pdf(x, KappaMuParams(2.0, 3.0)), 0.0,
                 id="envelope_pdf-kappa=2-mu=3"),
    pytest.param(lambda x: envelope_pdf(x, KappaMuParams(0.0, 3.0)), 0.0,
                 id="envelope_pdf-kappa=0-mu=3"),
    pytest.param(lambda x: envelope_pdf(x, KappaMuParams(0.0, 0.3)), math.inf,
                 id="envelope_pdf-mu=0.3"),
    pytest.param(lambda x: ris_distance_pdf(x, GEOM), 0.0, id="ris_distance_pdf"),
    pytest.param(lambda x: ris_distance_pdf(x, FLAT), 0.0, id="ris_distance_pdf-flat"),
    pytest.param(lambda x: sat_distance_pdf(x, CON), 0.0, id="sat_distance_pdf"),
])
def test_densities_vanish_at_infinity(f, at_zero):
    # inf * 0 in a density's factors would read NaN, and a power factor that
    # overflows at a large finite x would meet an exponential that
    # underflows; both with a RuntimeWarning
    assert f(math.inf) == 0.0
    assert f(np.array([0.0, 0.5, math.inf]))[2] == 0.0
    far = [1e20, 1e100, 1e308]
    assert [f(x) for x in far] == f(np.array(far)).tolist() == [0.0] * 3
    assert f(0.0) == at_zero


# values of the earlier implementation, which multiplied each density's
# factors where it now adds their logarithms, at points where it read a
# normal float
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f, xs, expected", [
    pytest.param(lambda x: envelope_pdf(x, KappaMuParams(0.0, 0.3)),
                 [1e-05, 0.3, 1.0, 1.7, 3.0],
                 [46.587279436513214, 0.7339946539613591, 0.3451270545959508, 0.15832681134317653, 0.020175473993042845],
                 id='envelope_pdf-mu=0.3'),
    pytest.param(lambda x: envelope_pdf(x, KappaMuParams(0.0, 3.0)),
                 [1e-05, 0.3, 1.0, 1.7, 3.0],
                 [2.699999999190001e-24, 0.050085328623440936, 1.3442508459323266, 0.06580747280167086, 1.2331588565312926e-08],
                 id='envelope_pdf-mu=3'),
    pytest.param(lambda x: envelope_pdf(x, KappaMuParams(2.0, 3.0)),
                 [1e-05, 0.3, 1.0, 1.7, 3.0],
                 [1.8070103384160925e-25, 0.00780873058024069, 1.8184757369060476, 0.008720103194528865, 9.717655449262004e-18],
                 id='envelope_pdf-kappa=2-mu=3'),
    pytest.param(lambda x: envelope_pdf(x, KappaMuParams(1e4, 0.1)),
                 [0.3, 0.9, 1.0, 1.01, 1.1],
                 [4.6260517420470824e-212, 0.0008523861214863947, 17.839233610538436, 16.061279841546575, 0.0007710854025279756],
                 id='envelope_pdf-kappa=1e4-mu=0.1'),
    pytest.param(lambda x: envelope_cdf(x, KappaMuParams(0.0, 3.0)),
                 [1e-05, 0.3, 1.0, 1.7, 3.0],
                 [4.4999999989874466e-30, 0.002682859623618155, 0.5768099188731566, 0.9918883434423771, 0.9999999992622849],
                 id='envelope_cdf-mu=3'),
    pytest.param(lambda x: envelope_cdf(x, KappaMuParams(2.0, 3.0)),
                 [1e-05, 0.3, 1.0, 1.7, 3.0],
                 [3.0116838966825144e-31, 0.0003493928737184082, 0.5484345864119253, 0.9994383789171266, 1.0],
                 id='envelope_cdf-kappa=2-mu=3'),
    pytest.param(lambda x: ris_distance_pdf(x, GEOM),
                 [10.0, 50.0, 119.0, 150.0, 169.0],
                 [0.00011574074074074075, 0.0028935185185185184, 0.016390046296296295, 0.005208333333333333, 0.00019560185185185116],
                 id='ris_distance_pdf'),
    pytest.param(lambda x: ris_distance_pdf(x, CylinderGeometry(60.0, 200.0)),
                 [10.0, 59.0, 100.0, 199.0, 205.0],
                 [0.0002777777777777778, 0.009669444444444444, 0.005555555555555556, 0.005119112028294256, 0.0022647045638306993],
                 id='ris_distance_pdf-tall'),
    pytest.param(lambda x: ris_distance_pdf(x, CylinderGeometry(120.0, 0.0, 30.0)),
                 [31.0, 50.0, 119.0],
                 [0.0045925925925925926, 0.007407407407407408, 0.01762962962962963],
                 id='ris_distance_pdf-annulus'),
    pytest.param(lambda x: ris_distance_cdf(x, GEOM),
                 [10.0, 50.0, 119.0, 150.0, 169.0],
                 [0.00038580246913580245, 0.04822530864197531, 0.6501385030864197, 0.9479166666666667, 0.9999309413580248],
                 id='ris_distance_cdf'),
    pytest.param(lambda x: ris_distance_cdf(x, CylinderGeometry(60.0, 200.0)),
                 [10.0, 59.0, 100.0, 199.0, 205.0],
                 [0.000925925925925926, 0.19016574074074075, 0.45185185185185206, 0.9720320806208065, 0.9956646713255202],
                 id='ris_distance_cdf-tall'),
    pytest.param(lambda x: ris_distance_cdf(x, CylinderGeometry(120.0, 0.0, 30.0)),
                 [31.0, 50.0, 119.0],
                 [0.004518518518518519, 0.11851851851851852, 0.9822962962962963],
                 id='ris_distance_cdf-annulus'),
    pytest.param(lambda x: sat_distance_pdf(x, CON),
                 [1000001.0, 1200000.0, 1500000.0, 3000000.0],
                 [1.0647111519129919e-05, 1.2273166215411947e-06, 2.0255910355409073e-08, 4.185398239186626e-24],
                 id='sat_distance_pdf'),
    pytest.param(lambda x: sat_distance_pdf(x, Constellation(1, 5.0e5)),
                 [600000.0, 3000000.0, 13000000.0],
                 [6.8532046532985466e-09, 3.426602326649273e-08, 1.484861008214685e-07],
                 id='sat_distance_pdf-one'),
    pytest.param(lambda x: sat_distance_cdf(x, CON),
                 [1000001.0, 1200000.0, 1500000.0, 3000000.0],
                 [1.0647162820137669e-05, 0.904165715951401, 0.9987401325835433, 1.0],
                 id='sat_distance_cdf'),
    pytest.param(lambda x: sat_distance_cdf(x, Constellation(1, 5.0e5)),
                 [600000.0, 3000000.0, 13000000.0],
                 [0.0006282104265523668, 0.0499712839303019, 0.9637319043701081],
                 id='sat_distance_cdf-one'),
    pytest.param(lambda x: abs_A_pdf(x, GammaApprox(0.5, 1.0)),
                 [1e-05, 0.5, 1.0, 5.0],
                 [178.41062750008157, 0.48394144903828656, 0.20755374871029728, 0.0017000733205040685],
                 id='abs_A_pdf-alpha<1'),
    pytest.param(lambda x: abs_A_pdf(x, GammaApprox(15.5, 1.3e-7)),
                 [1e-06, 2e-06, 4e-06],
                 [73844.08697440992, 780771.3673655423, 3767.0835090091487],
                 id='abs_A_pdf-fitted'),
    pytest.param(lambda x: snr_pdf(x, GammaApprox(3.0, 1.0), 2.0),
                 [1e-05, 0.5, 10.0, 100.0],
                 [0.00027888419543817446, 0.03790816623203961, 0.02987328838384897, 0.0007507049565537106],
                 id='snr_pdf'),
    pytest.param(lambda x: snr_pdf(x, GammaApprox(0.5, 1.0), 10.0),
                 [1e-05, 0.5, 10.0, 100.0],
                 [891.1704419006971, 0.21333217754624595, 0.01037768743551486, 0.000212341719533361],
                 id='snr_pdf-alpha<1'),
])
def test_densities_and_cdfs_match_pinned_values(f, xs, expected):
    values = f(np.array(xs))
    assert values.tolist() == [f(x) for x in xs]
    assert values == pytest.approx(expected, rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("build", [
    pytest.param(lambda v: Constellation(v, 1.0e6), id="Constellation.satellites"),
    pytest.param(lambda v: RisLink(v, _LAW, _LAW, 2.0, 2.0), id="RisLink.elements"),
])
@pytest.mark.parametrize("value", [1000.5, 2.0, True, "4", None])
def test_counts_reject_non_integers(build, value):
    # a fractional count would fit silently and fail, or not, in the simulator
    with pytest.raises(DomainError, match="must be an integer"):
        build(value)


def test_counts_store_numpy_integers_as_python_ints():
    assert type(Constellation(np.int64(1000), 1.0e6).satellites) is int
    assert type(RisLink(np.uint8(16), _LAW, _LAW, 2.0, 2.0).elements) is int


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
