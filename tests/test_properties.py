"""Property checks over the validated configuration domain, with
exponents up to 4 and altitudes from 200 km to geostationary (the range
the satellite-distance moment is accurate over), and over Gamma models,
SNRs and fading laws for the metrics and the envelope moment, drawn with
hypothesis under a fixed derandomized seed so every run sees the same
examples."""

import math

import yaml
from hypothesis import given, settings, strategies as st

from leoris import runner
from leoris.channel import (
    DirectPath,
    GammaApprox,
    LinkConfig,
    RisLink,
    gamma_approx,
    gamma_fits,
)
from leoris.errors import LeorisError
from leoris.fading import KappaMuParams, envelope_moment
from leoris.geometry import Constellation, CylinderGeometry
from leoris.metrics import CoverageQuery, coverage_probability, ergodic_capacity
from leoris.scenario import SWEEP_VARIABLES, parse_scenario, resolved_mapping

exponents = st.floats(2.0, 4.0)
fading = st.builds(KappaMuParams, kappa=st.floats(0.0, 1.0e3), mu=st.floats(1.0e-2, 1.0e2))


@st.composite
def link_configs(draw):
    # RISs pick from one or two (elements, fading, fading, satellite-hop
    # exponent) links, so they share link factors and differ in geometry
    shared = draw(st.lists(st.tuples(st.integers(1, 10_000), fading, fading, exponents),
                           min_size=1, max_size=2))
    ris = tuple(RisLink(*draw(st.sampled_from(shared)), user_exponent=draw(exponents))
                for _ in range(draw(st.sampled_from((1, 2, 3, 4, 0)))))
    # without any path the fit only raises, so a RIS-less example keeps
    # its direct path
    enabled = draw(st.booleans()) or not ris
    return LinkConfig(ris, DirectPath(enabled, draw(fading), draw(exponents)))


@st.composite
def geometries(draw):
    base = draw(st.floats(1.0, 1.0e4))
    if draw(st.booleans()):
        return CylinderGeometry(base, draw(st.floats(1.0e-3, 1.0e4)))
    return CylinderGeometry(base, 0.0, draw(st.floats(0.0, 0.99)) * base)


constellations = st.builds(Constellation, satellites=st.integers(1, 100_000),
                           altitude=st.floats(2.0e5, 3.6e7))


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# shapes from the fits' range, plus shapes inside the capacity form's
# pole window at small integers, where the quadrature oracle runs
shapes = st.one_of(_log_uniform(1.0e-2, 2.0e2),
                   st.builds(lambda n, d: n + d, st.integers(1, 20), st.floats(-9e-5, 9e-5)))
gamma_models = st.builds(GammaApprox, alpha=shapes, beta=_log_uniform(1.0e-3, 1.0e1))
snrs = _log_uniform(1.0e-3, 1.0e6)


def _outcome(call):
    """The call's result, or the type and message of the package error it
    raised."""
    try:
        return call()
    except LeorisError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.tuples(link_configs(), geometries()), min_size=1, max_size=4),
       constellations, st.data())
def test_batched_fits_match_single_fits(pairs, con, data):
    singles = [_outcome(lambda: gamma_approx(links, geom, con)) for links, geom in pairs]
    # a batch of the drawn pairs in any order, with repeats
    picks = data.draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=8))
    batch = _outcome(lambda: gamma_fits([pairs[i] for i in picks], con))
    failed = [singles[i] for i in picks if isinstance(singles[i], tuple)]
    # the first pair that cannot be fitted raises what it raises alone
    assert batch == (failed[0] if failed else [singles[i] for i in picks])
    for ga in singles:
        if isinstance(ga, GammaApprox):
            assert math.isfinite(ga.alpha) and math.isfinite(ga.beta)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(link_configs(), geometries(), constellations, _log_uniform(1.0e-2, 1.0e6),
       _log_uniform(1.0e6, 1.0e18))
def test_metrics_of_config_fits_are_finite_or_raise(links, geom, con, rho_th, rho0):
    try:
        ga = gamma_approx(links, geom, con)
    except LeorisError:
        return
    coverage = _outcome(lambda: coverage_probability(CoverageQuery(rho_th, rho0), ga))
    capacity = _outcome(lambda: ergodic_capacity(ga, rho0).bits)
    if not isinstance(coverage, tuple):
        assert 0.0 <= coverage <= 1.0
    if not isinstance(capacity, tuple):
        assert math.isfinite(capacity) and capacity >= 0.0


@st.composite
def raw_scenarios(draw):
    """Scenario mappings from the validated configuration domain, with
    template and per-RIS forms, drawn and explicit exponents, and every
    sweep variable."""
    count = draw(st.integers(0, 5))

    def per_ris(values):
        return draw(st.one_of(values, st.lists(values, min_size=count, max_size=count)))

    law = st.fixed_dictionaries({"kappa": st.floats(0.0, 1.0e3), "mu": st.floats(1.0e-2, 1.0e2)})
    ris = {"count": count}
    if count:
        drawn = st.fixed_dictionaries({"low": st.floats(2.0, 3.0), "high": st.floats(3.0, 4.0),
                                       "seed": st.integers(0, 2 ** 32)})
        ris.update({"elements": per_ris(st.integers(1, 10_000)), "sat_fading": per_ris(law),
                    "user_fading": per_ris(law), "sat_exponent": per_ris(exponents),
                    "user_exponent": draw(st.one_of(drawn, exponents,
                                                    st.lists(exponents, min_size=count,
                                                             max_size=count)))})
    base = draw(st.floats(1.0, 1.0e4))
    if draw(st.booleans()):
        geometry = {"base_radius_m": base, "height_m": draw(st.floats(0.0, 1.0e4))}
    else:
        geometry = {"base_radius_m": base, "inner_radius_m": draw(st.floats(0.0, 0.99)) * base}
    variable = draw(st.sampled_from(SWEEP_VARIABLES))
    values = {"N": st.integers(0, 12), "L": st.integers(1, 100), "R0": st.floats(1.0, 1.0e4),
              "H": st.floats(0.0, 1.0e4)}.get(variable, st.floats(-50.0, 150.0))
    grid = draw(st.one_of(
        st.lists(values, min_size=1, max_size=5).map(sorted),
        st.builds(lambda a, b, n: {"start": min(a, b), "stop": max(a, b), "points": n},
                  values, values, st.integers(1, 5)).filter(
            lambda g: variable not in ("N", "L") or g["points"] == 1 or g["start"] == g["stop"])))
    return {
        "constellation": {"satellites": draw(st.integers(1, 100_000)),
                          "altitude_km": draw(st.floats(200.0, 36_000.0)),
                          "earth_radius_km": draw(st.floats(6_000.0, 7_000.0))},
        "geometry": geometry,
        "ris": ris,
        "direct_path": {"enabled": draw(st.booleans()), "kappa": draw(st.floats(0.0, 1.0e3)),
                        "mu": draw(st.floats(1.0e-2, 1.0e2)), "exponent": draw(exponents)},
        "power": {"symbol_energy_w": draw(st.floats(1.0e-3, 1.0e3)),
                  "noise_dbm": draw(st.floats(-150.0, -50.0))},
        "metrics": {"coverage_threshold_db": draw(st.floats(-50.0, 150.0))},
        "sweep": {"variable": variable, "grid": grid},
        "monte_carlo": {"enabled": draw(st.booleans()), "trials": draw(st.integers(1, 10 ** 6)),
                        "seed": draw(st.integers(0, 2 ** 32)),
                        "workers": draw(st.integers(1, 4)),
                        "exact_per_ris_sat_distance": draw(st.booleans()),
                        "fixed_ris_positions": draw(st.booleans())},
        "output": {"directory": "out", "format": draw(st.sampled_from(("csv", "json")))},
    }


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(raw_scenarios())
def test_resolved_echo_round_trips(raw):
    cfg = parse_scenario(raw)
    # through the text the runner writes
    text = yaml.dump(resolved_mapping(cfg), Dumper=runner._DUMPER, sort_keys=False)
    assert parse_scenario(yaml.safe_load(text)) == cfg


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(gamma_models, snrs, snrs, snrs, snrs)
def test_coverage_monotone_in_threshold_and_snr(ga, th1, th2, rho1, rho2):
    (th_lo, th_hi), (rho_lo, rho_hi) = sorted((th1, th2)), sorted((rho1, rho2))
    p = coverage_probability(CoverageQuery(th_lo, rho_lo), ga)
    assert 0.0 <= p <= 1.0
    assert coverage_probability(CoverageQuery(th_hi, rho_lo), ga) <= p
    assert coverage_probability(CoverageQuery(th_lo, rho_hi), ga) >= p


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(gamma_models, snrs)
def test_capacity_grows_with_transmit_snr(ga, rho0):
    lo = ergodic_capacity(ga, rho0).bits
    hi = ergodic_capacity(ga, 2.0 * rho0).bits
    assert math.isfinite(lo) and 0.0 <= lo <= hi


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(fading)
def test_second_envelope_moment_is_unit_power(p):
    assert abs(envelope_moment(2, p) - 1.0) <= 1e-13
