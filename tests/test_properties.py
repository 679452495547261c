"""Property checks over the validated configuration domain, with
exponents up to 4 and altitudes from 200 km to geostationary (the range
the satellite-distance moment is accurate over), and over Gamma models,
SNRs and fading laws for the metrics and the envelope moment, drawn with
hypothesis under a fixed derandomized seed so every run sees the same
examples."""

import copy
import dataclasses
import math
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import assume, given, settings, strategies as st

from leoris import metrics, runner
from leoris.channel import (
    DirectPath,
    GammaApprox,
    LinkConfig,
    RisLink,
    gamma_approx,
    gamma_fits,
)
from leoris.errors import ComputationError, ConfigError, DivergentMomentError, LeorisError
from leoris.fading import KappaMuParams, envelope_moment
from leoris.geometry import Constellation, CylinderGeometry, ris_distance_moment
from leoris.metrics import (
    CoverageQuery,
    capacity_quadrature,
    coverage_probabilities,
    coverage_probability,
    ergodic_capacities,
    ergodic_capacity,
)
from leoris.scenario import SWEEP_VARIABLES, VARIABLES, parse_scenario, resolved_mapping

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


# shapes from sub-micro to past the closed form's largest (about 2e4),
# plus shapes inside its pole window at small integers, where the ray rule
# runs
shapes = st.one_of(_log_uniform(1.0e-6, 1.0e15),
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
    if isinstance(capacity, tuple):
        # capacity evaluates at every shape; only its gain can leave the floats
        assert capacity[0] is ComputationError and "leaves the float range" in capacity[1]
    else:
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
                        "exact_per_ris_sat_distance": draw(st.booleans())},
        "output": {"directory": "out", "format": draw(st.sampled_from(("csv", "json")))},
    }


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.floats(0.0, 3.0), st.sampled_from(("3d", "flat", "annulus")), st.floats(-1.0, 1.0),
       st.floats(0.01, 0.99), st.floats(-300.0, 300.0), st.sampled_from((1, 2)),
       st.floats(0.0, 5.99))
def test_ris_moment_follows_the_scale_law(log_base, kind, log_aspect, hole, log_scale, t, eps):
    # E[R^-s] of the region scaled by lam is lam^-s times the region's
    base = 10.0 ** log_base
    geom = CylinderGeometry(base, base * 10.0 ** log_aspect if kind == "3d" else 0.0,
                            base * hole if kind == "annulus" else 0.0)
    lam = 10.0 ** log_scale
    scaled = CylinderGeometry(lam * geom.base_radius, lam * geom.height, lam * geom.inner_radius)
    try:
        moment = ris_distance_moment(t, eps, geom)
    except DivergentMomentError:
        with pytest.raises(DivergentMomentError):
            ris_distance_moment(t, eps, scaled)
        return
    log_want = math.log(moment) - t * eps / 2.0 * math.log(lam)
    if math.log(sys.float_info.min) <= log_want < math.log(sys.float_info.max):
        assert ris_distance_moment(t, eps, scaled) == pytest.approx(math.exp(log_want),
                                                                    rel=1e-11)
    else:
        with pytest.raises(ComputationError, match="leaves the float range"):
            ris_distance_moment(t, eps, scaled)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(raw_scenarios())
def test_resolved_echo_round_trips(raw):
    try:
        cfg = parse_scenario(raw)
    except ConfigError as exc:
        # the draws reach grid points their setters reject (H grids on
        # annuli, R0 at or below the inner radius, N grown from no RIS),
        # regions taller than the aspect bound and scenarios with no RIS
        # and no direct path
        assert ("sweep.grid[" in str(exc) or "to 1000 times geometry.base_radius_m" in str(exc)
                or str(exc) == "ris.count: 0 leaves no signal path with direct_path.enabled false")
        return
    # through the text the runner writes
    text = yaml.dump(resolved_mapping(cfg), Dumper=runner._DUMPER, sort_keys=False)
    assert parse_scenario(yaml.safe_load(text)) == cfg


# errors that a scenario the parser accepts may still raise in its sweep,
# each with the reason the parser cannot decide it: none, now that the
# parser makes the fits the sweep makes
SWEEP_ERRORS: dict[str, str] = {}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(raw_scenarios())
def test_every_parsed_scenario_sweeps_to_finite_tables_or_names_why(raw):
    try:
        cfg = parse_scenario(raw)
    except ConfigError:
        return
    try:
        tables = runner.sweep(dataclasses.replace(cfg, mc_enabled=False))
    except ComputationError as exc:
        assert any(re.match(pattern, str(exc)) for pattern in SWEEP_ERRORS), str(exc)
        return
    for table in tables:
        for _, analytic, _, _, alpha, beta in table.rows:
            assert math.isfinite(alpha) and math.isfinite(beta)
            assert math.isfinite(analytic) and analytic >= 0.0
            assert table.metric == "capacity" or analytic <= 1.0


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(raw_scenarios())
def test_every_parsed_scenario_simulates_to_finite_cells(raw):
    # the same domain with simulation on, at few trials: every RIS draws
    # from its table or, where the pair or a count has none, per element
    raw = copy.deepcopy(raw)
    raw["monte_carlo"].update(enabled=True, trials=150)
    try:
        cfg = parse_scenario(raw)
    except ConfigError:
        return
    for table in runner.sweep(cfg):
        for _, _, estimate, stderr, _, _ in table.rows:
            assert math.isfinite(estimate) and math.isfinite(stderr) and stderr >= 0.0
            assert estimate >= 0.0 and (table.metric == "capacity" or estimate <= 1.0)


DEFAULT_RAW = yaml.safe_load(
    (Path(__file__).resolve().parents[1] / "configs" / "default.yaml").read_text(encoding="utf-8"))
_REGIONS = {"3d": {"base_radius_m": 120.0, "height_m": 120.0, "inner_radius_m": 0.0},
            "flat": {"base_radius_m": 120.0, "height_m": 0.0, "inner_radius_m": 0.0},
            "annulus": {"base_radius_m": 120.0, "height_m": 0.0, "inner_radius_m": 10.0}}
# values on both sides of every bound: signs, zero, whole and fractional
# counts past the caps, dB past the float range, lengths from subnormal
# to past the aspect bound
grid_values = st.one_of(
    st.just(0.0), st.integers(-20_000, 20_000).map(float), st.floats(-5_000.0, 5_000.0),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
              st.floats(-320.0, 308.0)))


def _parse_error(raw):
    try:
        parse_scenario(raw)
    except ConfigError as exc:
        return str(exc)
    return None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(("R0", "H", "L", "rho_th")), st.sampled_from(sorted(_REGIONS)),
       grid_values)
def test_a_grid_point_is_rejected_as_a_file_setting_its_field_is(variable, region, value):
    base = copy.deepcopy(DEFAULT_RAW)
    base["geometry"] = dict(_REGIONS[region])
    by_grid = copy.deepcopy(base)
    by_grid["sweep"] = {"variable": variable, "grid": [value]}
    by_file = base
    section, key = VARIABLES[variable].field.split(".")
    # a file writes a count as an integer; the grid holds it as a float
    whole = variable == "L" and value == int(value)
    by_file[section][key] = int(value) if whole else value
    file_error, grid_error = _parse_error(by_file), _parse_error(by_grid)
    assert (file_error is None) == (grid_error is None)
    if file_error is not None:
        # both name the field (a region's errors by its attribute name),
        # the grid's after the point's index
        name = key.removesuffix("_m")
        if region == "flat" and name not in file_error:
            # RISs on a flat disk with no inner radius: the variance of |A|
            # diverges at any valid value, and both errors name the height
            name = "geometry.height_m: 0 with no inner radius is divergent"
        assert name in file_error and name in grid_error
        assert grid_error.startswith("sweep.grid[0]: ")


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


# (shape, beta^2 rho0) pairs that reach each path of the capacity: the
# closed form and the ray rule over the whole domain, the pole window, the
# overflow of the form's power terms (e4 > 700), series that cancel, and
# series whose terms overflow, so their sums run out of terms
capacity_paths = st.one_of(
    st.tuples(_log_uniform(1.0e-6, 1.0e15), _log_uniform(1.0e-30, 1.0e8)),
    st.tuples(st.builds(lambda n, d: n + d, st.integers(1, 20), st.floats(-9e-5, 9e-5)),
              _log_uniform(1.0e-30, 1.0e8)),
    st.tuples(st.floats(100.0, 200.0), _log_uniform(1.0e-12, 1.0e-10)),
    st.tuples(_log_uniform(1.0e-2, 10.0), _log_uniform(1.0e-5, 1.0e-4)),
    st.tuples(_log_uniform(1.0e-2, 10.0), _log_uniform(1.0e-9, 1.0e-7)),
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_log_uniform(1.0e-2, 2.0e4), _log_uniform(1.0e-30, 1.0e300))
def test_ray_rule_agrees_with_the_closed_form_where_it_holds(alpha, gain):
    # gains up to 1e300 part the rule's windows at every shape below 8.6
    ga = GammaApprox(alpha, 1.0)
    res = ergodic_capacity(ga, gain)
    assume(not res.fallback)
    assert capacity_quadrature(ga, gain) == pytest.approx(res.bits, rel=metrics._CLOSED_FORM_RTOL)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.tuples(capacity_paths, _log_uniform(1.0e-3, 1.0e1),
                          st.one_of(st.just(0.0), _log_uniform(1.0e-3, 1.0e9))),
                min_size=1, max_size=6),
       st.sampled_from((40, metrics._SERIES_MAX_TERMS)))
def test_batch_metrics_match_batches_of_one(points, budget):
    # every element of a batch reads what it reads alone, whichever path
    # its neighbours take; a 40-term budget makes ordinary series run out
    models = [GammaApprox(alpha, beta) for (alpha, _), beta, _ in points]
    rho0 = [gain / (beta * beta) for (_, gain), beta, _ in points]
    rho_th = [th for *_, th in points]
    with mock.patch.object(metrics, "_SERIES_MAX_TERMS", budget):
        bits, fallback = ergodic_capacities(models, rho0)
        singles = [ergodic_capacity(ga, r) for ga, r in zip(models, rho0)]
    assert bits.tolist() == [res.bits for res in singles]
    assert fallback.tolist() == [res.fallback for res in singles]
    covered = coverage_probabilities(models, rho_th, rho0)
    assert covered.tolist() == [coverage_probability(CoverageQuery(th, r), ga)
                                for ga, th, r in zip(models, rho_th, rho0)]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(fading)
def test_second_envelope_moment_is_unit_power(p):
    assert abs(envelope_moment(2, p) - 1.0) <= 1e-13
