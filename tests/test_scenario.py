"""Scenario parsing, validation diagnostics, the resolved echo round-trip
and sweep/CLI behavior on small grids."""

import copy
import csv
import dataclasses
import hashlib
import json
import math
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import capacity_second_order
from leoris.cli import main as cli_main
from leoris.errors import ComputationError, ConfigError, ConvergenceError
from leoris.geometry import CylinderGeometry, ris_distance_moment
from leoris.metrics import CoverageQuery, coverage_probability, ergodic_capacity
from leoris.montecarlo import MAX_KEPT_SAMPLES, simulate_snr
from leoris.channel import gamma_approx
from leoris import channel, montecarlo, runner, scenario
from leoris.runner import run_scenario, sweep
from leoris.scenario import (
    MAX_ELEMENTS,
    MAX_GRID_POINTS,
    MAX_RIS,
    VARIABLES,
    SweepSpec,
    load_scenario,
    parse_grid,
    parse_scenario,
    resolved_mapping,
    user_exponent_draws,
)

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"

BASE = {
    "constellation": {"satellites": 1000, "altitude_km": 1000.0},
    "geometry": {"base_radius_m": 120.0, "height_m": 120.0},
    "ris": {
        "count": 3,
        "elements": 20,
        "sat_fading": {"kappa": 1.0, "mu": 2.0},
        "user_fading": {"kappa": 3.0, "mu": 3.0},
        "sat_exponent": 2.0,
        "user_exponent": {"low": 2.0, "high": 3.0, "seed": 370899},
    },
    "direct_path": {"enabled": True, "kappa": 0.0, "mu": 1.0, "exponent": 2.0},
    "power": {"symbol_energy_w": 10.0, "noise_dbm": -100.0},
    "metrics": {"coverage_threshold_db": 20.0},
    "sweep": {"variable": "rho_th", "grid": [0.0, 20.0, 40.0]},
    "monte_carlo": {"enabled": False, "trials": 2000, "seed": 7, "workers": 1},
    "output": {"directory": "out", "format": "csv"},
}


def _variant(base=BASE, /, **updates):
    raw = copy.deepcopy(base)
    for path, value in updates.items():
        node = raw
        parts = path.split(".")
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = value
    return raw


def test_parse_base_scenario():
    cfg = parse_scenario(copy.deepcopy(BASE))
    assert cfg.constellation.altitude == 1.0e6
    assert cfg.constellation.earth_radius == 6.371e6
    assert cfg.geometry.base_radius == 120.0
    assert len(cfg.links.ris) == 3
    # rho0 = Es / N0 with N0 = -100 dBm = 1e-13 W
    assert cfg.rho0 == pytest.approx(10.0 / 1e-13, rel=1e-12)
    assert cfg.rho0_db == pytest.approx(140.0, abs=1e-9)


def test_exponent_draw_is_recorded_and_reproducible():
    cfg1 = parse_scenario(copy.deepcopy(BASE))
    cfg2 = parse_scenario(copy.deepcopy(BASE))
    eps1 = [link.user_exponent for link in cfg1.links.ris]
    eps2 = [link.user_exponent for link in cfg2.links.ris]
    assert eps1 == eps2
    assert cfg1.exponent_seed == 370899
    rng = np.random.default_rng(370899)
    assert eps1 == pytest.approx((2.0 + rng.random(3)).tolist())


def test_resolved_mapping_round_trips():
    cfg = parse_scenario(copy.deepcopy(BASE))
    echo = resolved_mapping(cfg)
    cfg2 = parse_scenario(echo)
    assert [l.user_exponent for l in cfg2.links.ris] == \
        [l.user_exponent for l in cfg.links.ris]
    assert cfg2.rho0 == cfg.rho0
    assert yaml.safe_load(yaml.safe_dump(echo)) == echo


def test_fixed_ris_positions_key_is_removed():
    # echoes written while the fixed-deployment mode existed record false
    cfg = parse_scenario(_variant(**{"monte_carlo.fixed_ris_positions": False}))
    assert cfg == parse_scenario(copy.deepcopy(BASE))
    assert "fixed_ris_positions" not in resolved_mapping(cfg)["monte_carlo"]
    with pytest.raises(ConfigError, match=r"monte_carlo\.fixed_ris_positions"):
        parse_scenario(_variant(**{"monte_carlo.fixed_ris_positions": True}))


@pytest.mark.parametrize("scenario", [
    DEFAULT_CONFIG, DEFAULT_CONFIG.parents[1] / "bench" / "workloads" / "analytic_sweep.yaml"])
def test_libyaml_and_python_dumpers_write_the_same_echo(scenario):
    if not hasattr(yaml, "CSafeDumper"):
        pytest.skip("PyYAML was built without libyaml")
    echo = resolved_mapping(load_scenario(scenario))
    fast = yaml.dump(echo, Dumper=yaml.CSafeDumper, sort_keys=False)
    assert fast == yaml.dump(echo, Dumper=yaml.SafeDumper, sort_keys=False)
    assert runner._DUMPER is yaml.CSafeDumper


@pytest.mark.parametrize("path,value,fragment", [
    ("ris.count", -1, "ris.count"),
    ("ris.sat_exponent", 1.5, "sat_exponent"),
    ("constellation.satellites", 0, "constellation.satellites"),
    ("power.symbol_energy_w", 0.0, "power.symbol_energy_w"),
    ("sweep.variable", "bogus", "sweep.variable"),
    ("sweep.grid", [], "sweep.grid"),
    ("sweep.grid", [3.0, 1.0], "sweep.grid"),
    ("output.format", "xml", "output.format"),
    ("geometry.inner_radius_m", 10.0, "geometry"),
    ("ris.user_exponent", 1.0, "user_exponent"),
    ("monte_carlo.trials", 0, "monte_carlo.trials"),
])
def test_validation_diagnostics_name_the_field(path, value, fragment):
    with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
        parse_scenario(_variant(**{path: value}))


def _numeric_fields(node, prefix=""):
    """Dotted paths of every numeric leaf of a parsed YAML mapping."""
    for key, value in node.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _numeric_fields(value, path + ".")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path


DEFAULT_RAW = yaml.safe_load(DEFAULT_CONFIG.read_text(encoding="utf-8"))


@pytest.mark.parametrize("bad", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("path", list(_numeric_fields(DEFAULT_RAW)))
def test_non_finite_numbers_are_rejected(path, bad):
    raw = copy.deepcopy(DEFAULT_RAW)
    node = raw
    *parents, leaf = path.split(".")
    for part in parents:
        node = node[part]
    node[leaf] = yaml.safe_load(bad)
    with pytest.raises(ConfigError, match=leaf):
        parse_scenario(raw)


@pytest.mark.parametrize("path,value", [
    ("ris.sat_exponent", [2.0, float("nan"), 2.4]),
    ("ris.user_exponent", [2.1, 2.5, float("inf")]),
    ("sweep.grid", [0.0, float("nan")]),
    # integers beyond the float range are infinite once converted
    ("power.symbol_energy_w", 10 ** 400),
    ("ris.user_exponent", [2.1, 2.5, 10 ** 400]),
    ("sweep.grid", [0.0, 10 ** 400]),
    # finite in km, infinite in meters
    ("constellation.altitude_km", 1e306),
    ("constellation.earth_radius_km", 1e306),
])
def test_non_finite_entries_are_rejected(path, value):
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        parse_scenario(_variant(**{path: value}))


def test_cli_rejects_infinite_power(tmp_path, capsys):
    raw = copy.deepcopy(DEFAULT_RAW)
    raw["power"]["symbol_energy_w"] = float("inf")
    path = tmp_path / "inf.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert cli_main(["run", str(path), "--no-mc", "--out", str(tmp_path / "o")]) == 2
    assert "power.symbol_energy_w" in capsys.readouterr().err


@pytest.mark.parametrize("path,value,fragment", [
    ("ris.count", 10 ** 400, "ris.count"),
    ("ris.count", MAX_RIS + 1, "ris.count"),
    ("constellation.satellites", 10 ** 400, "constellation.satellites"),
    ("sweep.grid", {"start": 0.0, "stop": 1.0, "points": 10 ** 400}, "sweep.grid.points"),
    ("sweep.grid", {"start": 0.0, "stop": 1.0, "points": MAX_GRID_POINTS + 1},
     "sweep.grid.points"),
    ("sweep", {"variable": "N", "grid": [4, MAX_RIS + 1]}, "sweep.grid"),
    ("ris.elements", 10 ** 200, "ris.elements"),
    ("ris.elements", MAX_ELEMENTS + 1, "ris.elements"),
    ("sweep", {"variable": "L", "grid": [4, 1e200]}, "sweep.grid"),
])
def test_counts_beyond_their_caps_are_rejected(path, value, fragment):
    with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
        parse_scenario(_variant(**{path: value}))


def test_a_scenario_with_no_signal_path_is_rejected_at_parse_time(tmp_path, capsys):
    # no RIS and no direct path, in the file or at an N grid point
    message = "ris.count: 0 leaves no signal path with direct_path.enabled false"
    with pytest.raises(ConfigError) as empty:
        parse_scenario(_variant(**{"ris.count": 0, "direct_path.enabled": False}))
    assert str(empty.value) == message
    with pytest.raises(ConfigError) as swept:
        parse_scenario(_variant(**{"direct_path.enabled": False,
                                   "sweep": {"variable": "N", "grid": [0, 2]}}))
    assert str(swept.value) == "sweep.grid[0]: " + message
    path = _write_config(tmp_path, _variant(**{"direct_path.enabled": False}))
    assert cli_main(["sweep", str(path), "--var", "N", "--grid", "0,2", "--no-mc",
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: --grid[0]: {message}\n"
    assert not (tmp_path / "o").exists()


def test_cli_rejects_huge_ris_count(tmp_path, capsys):
    path = _write_config(tmp_path, _variant(**{"ris.count": 10 ** 400}))
    assert cli_main(["run", str(path), "--no-mc", "--out", str(tmp_path / "o")]) == 2
    assert "ris.count" in capsys.readouterr().err


def test_integer_too_long_to_read(tmp_path):
    text = DEFAULT_CONFIG.read_text(encoding="utf-8")
    path = tmp_path / "long.yaml"
    path.write_text(text.replace("satellites: 1000", "satellites: " + "1" * 5000),
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_scenario(path)


def test_missing_required_field():
    raw = copy.deepcopy(BASE)
    del raw["power"]
    with pytest.raises(ConfigError, match="power.symbol_energy_w"):
        parse_scenario(raw)


def test_per_ris_lists():
    raw = _variant(**{
        "ris.elements": [10, 20, 30],
        "ris.user_exponent": [2.1, 2.5, 2.9],
        "ris.sat_exponent": [2.0, 2.2, 2.4],
    })
    cfg = parse_scenario(raw)
    assert [l.elements for l in cfg.links.ris] == [10, 20, 30]
    assert [l.user_exponent for l in cfg.links.ris] == [2.1, 2.5, 2.9]
    bad = _variant(**{"ris.elements": [10, 20]})
    with pytest.raises(ConfigError, match="ris.elements"):
        parse_scenario(bad)


def test_equal_fading_laws_are_one_object(tmp_path):
    # the template form and the per-RIS lists the resolved echo writes
    # both give every RIS the same law objects, so link-factor dict keys
    # match by identity
    cfg = load_scenario(DEFAULT_CONFIG)
    echo = tmp_path / "resolved.yaml"
    echo.write_text(yaml.safe_dump(resolved_mapping(cfg), sort_keys=False), encoding="utf-8")
    for parsed in (cfg, load_scenario(echo)):
        first, *rest = parsed.links.ris
        assert rest
        for link in rest:
            assert link.sat_fading is first.sat_fading
            assert link.user_fading is first.user_fading


def test_grid_parsing_forms():
    assert parse_grid([1, 2, 3], "g") == (1.0, 2.0, 3.0)
    assert parse_grid({"start": 0.0, "stop": 10.0, "points": 3}, "g") == (0.0, 5.0, 10.0)
    assert parse_grid("1,2,4", "g") == (1.0, 2.0, 4.0)
    assert parse_grid("0:10:3", "g") == (0.0, 5.0, 10.0)
    with pytest.raises(ConfigError):
        parse_grid("1:2", "g")
    with pytest.raises(ConfigError):
        parse_grid({"start": 0.0}, "g")


def _sweep_config(variable=None, grid=None, mc=False):
    """BASE as a config, sweeping ``variable`` over ``grid`` when given."""
    cfg = parse_scenario(copy.deepcopy(BASE))
    if variable is not None:
        cfg = dataclasses.replace(cfg, sweep=SweepSpec(variable, grid))
    return dataclasses.replace(cfg, mc_enabled=mc)


def test_sweep_rho_th_matches_direct_metric_calls():
    cfg = _sweep_config()
    tables = sweep(cfg)
    assert len(tables) == 1
    table = tables[0]
    ga = gamma_approx(cfg.links, cfg.geometry, cfg.constellation)
    for value, analytic, mc, mc_err, alpha, beta in table.rows:
        rho_th = 10.0 ** (value / 10.0)  # dB column maps exactly to linear
        want = coverage_probability(CoverageQuery(rho_th, cfg.rho0), ga)
        assert analytic == pytest.approx(want, rel=1e-14)
        assert mc is None and mc_err is None
        assert alpha == ga.alpha and beta == ga.beta


def test_sweep_singleton_grid():
    tables = sweep(_sweep_config("rho_th", (20.0,)))
    assert len(tables[0].rows) == 1


def test_sweep_rho0_capacity():
    cfg = _sweep_config("rho0", (100.0, 120.0, 140.0))
    tables = sweep(cfg)
    table = tables[0]
    assert table.metric == "capacity"
    ga = gamma_approx(cfg.links, cfg.geometry, cfg.constellation)
    for value, analytic, *_ in table.rows:
        want = ergodic_capacity(ga, 10.0 ** (value / 10.0)).bits
        assert analytic == pytest.approx(want, rel=1e-12)
    caps = [row[1] for row in table.rows]
    assert caps == sorted(caps)


def _default_variant(**updates):
    """configs/default.yaml as a mapping with dotted-path updates, sweeping
    the transmit SNR over 100 and 200 dB without simulation."""
    return _variant(yaml.safe_load(DEFAULT_CONFIG.read_text(encoding="utf-8")),
                    **{"direct_path.enabled": False, "sweep.variable": "rho0",
                       "sweep.grid": [100.0, 200.0], "monte_carlo.enabled": False, **updates})


def _capacity_rows(raw):
    (table,) = [t for t in sweep(parse_scenario(raw)) if t.metric == "capacity"]
    return table.rows


def test_capacity_at_a_sub_micro_shape_matches_mpmath():
    # one single-element RIS with a near-divergent user hop fits alpha
    # 1.13e-6; the capacities are 40-digit mpmath values at that fit
    rows = _capacity_rows(_default_variant(**{"ris.count": 1, "ris.elements": 1,
                                              "ris.user_exponent": 2.999999}))
    assert [row[0] for row in rows] == [100.0, 200.0]
    assert rows[0][4] == pytest.approx(1.13e-6, rel=1e-2)
    for (_, bits, *_), want in zip(rows, (2.9610460362e-5, 3.9492579319e-4)):
        assert bits == pytest.approx(want, rel=1e-10)


def test_capacity_at_a_giga_shape_matches_the_second_order_expansion():
    # 1e4 RISs of 1e4 elements on a flat annulus with near-deterministic
    # fading fit alpha 1.70e9, far above the closed form's largest shape
    rows = _capacity_rows(_default_variant(**{
        "constellation.satellites": 1_000_000, "geometry.height_m": 0.0,
        "geometry.inner_radius_m": 119.0, "ris.count": 10_000, "ris.elements": 10_000,
        "ris.sat_fading": {"kappa": 0.0, "mu": 1000.0},
        "ris.user_fading": {"kappa": 0.0, "mu": 1000.0}, "ris.user_exponent": 2.0}))
    assert rows[0][4] == pytest.approx(1.70e9, rel=1e-2)
    for db, bits, _, _, alpha, beta in rows:
        want = capacity_second_order(alpha, beta, 10.0 ** (db / 10.0))
        assert bits == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("variable,grid", [("R0", (60.0, 90.0, 120.0, 300.0)),
                                           # the low SNRs take the ray rule
                                           ("rho0", (60.0, 100.0, 120.0, 140.0))])
def test_sweep_analytic_cells_equal_per_point_calls(variable, grid):
    # the sweep evaluates each metric for all its points in one batch; every
    # cell is bit for bit what the single-point functions give at its point
    cfg = _sweep_config(variable, grid)
    for table in sweep(cfg):
        assert [row[0] for row in table.rows] == list(grid)
        for value, analytic, *_ in table.rows:
            links, geom, rho0, rho_th = VARIABLES[variable].point(cfg, value)
            ga = gamma_approx(links, geom, cfg.constellation)
            if table.metric == "coverage":
                want = coverage_probability(CoverageQuery(rho_th, rho0), ga)
            else:
                want = ergodic_capacity(ga, rho0).bits
            assert analytic == want, (table.metric, value)


def test_sweep_geometry_variables_trend():
    for var in ("R0", "H"):
        tables = sweep(_sweep_config(var, (60.0, 120.0, 240.0)))
        caps = [row[1] for t in tables if t.metric == "capacity" for row in t.rows]
        assert caps[0] > caps[1] > caps[2], var


def test_sweep_ris_count_uses_prefix_draws():
    cfg = _sweep_config("N", (1.0, 2.0, 3.0, 6.0))
    tables = sweep(cfg)
    cov = {row[0]: row[1] for row in tables[0].rows}
    assert cov[1.0] < cov[2.0] < cov[3.0] < cov[6.0]
    # the smaller counts reuse the recorded draw's prefix
    sub = parse_scenario(_variant(**{"ris.count": 2}))
    ga = gamma_approx(sub.links, sub.geometry, sub.constellation)
    want = coverage_probability(
        CoverageQuery(10.0 ** (cfg.coverage_threshold_db / 10.0), cfg.rho0), ga)
    assert cov[2.0] == pytest.approx(want, rel=1e-12)


def test_point_draws_from_its_child_seed():
    # a single simulated point draws from child 0 whatever the variable
    by_count = sweep(_sweep_config("N", (3.0,), mc=True))
    by_threshold = sweep(_sweep_config("rho_th", (20.0,), mc=True))
    assert by_count[0].rows[0][2:4] == by_threshold[0].rows[0][2:4]


@pytest.mark.parametrize("variable,grid,fits,simulations", [
    ("rho_th", (0.0, 20.0, 40.0), 1, 1),
    ("rho0", (100.0, 120.0), 1, 1),
    # nested counts share one simulation of the largest
    ("N", (1.0, 2.0, 3.0), 3, 1),
    # an adjacent repeat reuses the previous point's fit
    ("N", (2.0, 2.0, 3.0), 2, 1),
    ("L", (5.0, 10.0, 20.0), 3, 1),
    ("R0", (60.0, 120.0), 2, 2),
])
def test_fit_and_simulation_once_per_link_state(monkeypatch, variable, grid, fits,
                                                simulations):
    counts = {"batches": 0, "fits": 0, "simulate_snr": 0}

    def batch(pairs, *args, _fn=scenario._checked_moments):
        counts["batches"] += 1
        counts["fits"] += len(pairs)
        return _fn(pairs, *args)

    def simulate(*args, _fn=runner.simulate_snr, **kwargs):
        counts["simulate_snr"] += 1
        return _fn(*args, **kwargs)

    monkeypatch.setattr(scenario, "_checked_moments", batch)
    monkeypatch.setattr(runner, "simulate_snr", simulate)
    raw = _variant(**{"sweep.variable": variable, "sweep.grid": list(grid),
                      "monte_carlo.enabled": True})
    sweep(parse_scenario(raw))
    # every fit of the sweep in one batch, made by the parser; the run fits nothing
    assert counts == {"batches": 1, "fits": fits, "simulate_snr": simulations}


def _count_fit_batches(monkeypatch) -> list:
    """A list that gains an entry per fit batch of a plan."""
    batches = []

    def batch(pairs, *args, _fn=scenario._checked_moments):
        batches.append(len(pairs))
        return _fn(pairs, *args)

    monkeypatch.setattr(scenario, "_checked_moments", batch)
    return batches


def test_a_loaded_scenario_is_fitted_once_however_often_it_runs(monkeypatch, tmp_path):
    batches = _count_fit_batches(monkeypatch)
    path = _write_config(tmp_path, _variant(**{"sweep.variable": "R0",
                                               "sweep.grid": [60.0, 120.0, 300.0]}))
    cfg = load_scenario(path)
    first = run_scenario(cfg, out_dir=tmp_path / "a").tables
    assert run_scenario(cfg, out_dir=tmp_path / "b").tables == first
    assert batches == [3]


def test_a_replaced_config_builds_its_own_plan():
    cfg = _sweep_config()
    assert [p[3] for p in cfg.plan.points] == pytest.approx([1.0, 100.0, 1e4])
    other = dataclasses.replace(cfg, sweep=SweepSpec("R0", (60.0, 120.0)))
    assert other.plan is not cfg.plan
    assert [p[1].base_radius for p in other.plan.points] == [60.0, 120.0]
    assert other.plan.fits[0] != other.plan.fits[1]
    assert [s[0] for s in other.plan.simulations] == [0, 1]
    # the plan is kept: a second read makes no new one
    assert other.plan is other.plan


@pytest.mark.parametrize("argv,batches", [
    (["run"], 1),
    (["run", "--seed", "7", "--format", "csv"], 1),  # no option changes the config
    # Monte Carlo and output settings keep the file's plan
    (["run", "--seed", "8", "--workers", "2", "--format", "json", "--mc"], 1),
    (["sweep", "--var", "N", "--grid", "1,2,3"], 2),  # the file's plan, then the grid's
    (["sweep", "--var", "rho_th", "--grid", "0,20", "--seed", "8"], 2),
])
def test_the_cli_fits_the_file_once_and_a_changed_config_once(monkeypatch, tmp_path, argv,
                                                               batches):
    fits = _count_fit_batches(monkeypatch)
    path = _write_config(tmp_path, _variant(**{"monte_carlo.enabled": False}))
    assert cli_main([argv[0], str(path), *argv[1:], "--out", str(tmp_path / "o")]) == 0
    assert len(fits) == batches


def test_a_cli_run_at_another_worker_count_fits_once_and_writes_the_same_tables(
        monkeypatch, tmp_path):
    fits = _count_fit_batches(monkeypatch)
    path = _write_config(tmp_path, _variant(**{"monte_carlo.enabled": True,
                                               "monte_carlo.trials": 20_000}))
    for out, workers in (("a", []), ("b", ["--workers", "2"])):
        fits.clear()
        assert cli_main(["run", str(path), *workers, "--out", str(tmp_path / out)]) == 0
        assert len(fits) == 1
    tables = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    assert tables and tables == sorted(p.name for p in (tmp_path / "b").glob("*.csv"))
    for table in tables:
        assert (tmp_path / "a" / table).read_bytes() == (tmp_path / "b" / table).read_bytes()


def test_a_config_keeps_its_plan_across_run_settings_only():
    cfg = _sweep_config()
    settings = {"mc": dataclasses.replace(cfg.mc, seed=9), "mc_enabled": not cfg.mc_enabled,
                "output": dataclasses.replace(cfg.output, format="json")}
    built = cfg.plan
    assert cfg.replace(**settings).plan is built
    assert cfg.replace(sweep=SweepSpec("R0", (60.0, 120.0)), **settings).plan is not built
    # a plan not yet built is not built by the replace
    fresh = dataclasses.replace(cfg, sweep=cfg.sweep)
    assert "plan" not in fresh.replace(**settings).__dict__


@pytest.mark.parametrize("variable,grid,calls", [
    # nested counts share one simulation of the largest; a repeat keeps its row
    ("N", (4.0, 8.0, 8.0, 16.0), [(0, [0, 1, 1, 2])]),
    ("R0", (60.0, 120.0, 300.0), [(0, [0]), (1, [0]), (2, [0])]),
    ("rho_th", (0.0, 20.0, 40.0), [(0, [0, 0, 0])]),
])
def test_each_simulation_gets_its_rows_and_points(monkeypatch, variable, grid, calls):
    cfg = _sweep_config(variable, grid, mc=True)
    points = cfg.plan.points
    seen = []

    def simulate(links, geom, con, opt, *, nested, points, tables):
        seen.append((links, geom, opt.seed, nested, points))
        return types.SimpleNamespace(coverage=[(0.5, 0.1)] * len(points),
                                     capacity=[(1.0, 0.1)] * len(points))

    monkeypatch.setattr(runner, "simulate_snr", simulate)
    sweep(cfg)
    assert len(seen) == len(calls)
    for (links, geom, seed, nested, tallies), (first, rows) in zip(seen, calls):
        # rows: the distinct links in grid order, the last one simulated
        mine = points[first:first + len(rows)]
        distinct = list(dict.fromkeys(p[0] for p in mine))
        assert (*nested, links) == tuple(distinct) and geom == mine[0][1]
        assert tallies == [(r, p[2], p[3]) for r, p in zip(rows, mine)]
        child = np.random.SeedSequence(cfg.mc.seed, spawn_key=(first,))
        assert seed == int(child.generate_state(1)[0])
    if variable == "N":
        links, _, _, nested, _ = seen[0]
        assert [len(sub.ris) for sub in (*nested, links)] == [4, 8, 16]


def test_a_sweep_builds_each_element_sum_table_once(monkeypatch):
    builds = []

    def build(sat, user, counts, _fn=montecarlo.element_sum_tables):
        builds.append((sat, user, tuple(sorted(counts))))
        return _fn(sat, user, counts)

    monkeypatch.setattr(montecarlo, "element_sum_tables", build)
    cfg = _sweep_config("R0", tuple(np.linspace(60.0, 300.0, 10).tolist()), mc=True)
    cfg = dataclasses.replace(cfg, mc=dataclasses.replace(cfg.mc, trials=200))
    link = cfg.links.ris[0]
    pair = (link.sat_fading, link.user_fading)
    assert link.elements == 20
    tables = sweep(cfg)
    assert [row[2] is not None for row in tables[0].rows] == [True] * 10
    # a second run and a seed replicate read the plan's table
    sweep(cfg)
    sweep(cfg.replace(mc=dataclasses.replace(cfg.mc, seed=8)))
    assert builds == [(*pair, (20,))]
    assert list(cfg.plan.tables) == [(pair, 20)]
    # a config dataclasses.replace makes has its own plan, and builds its own
    other = dataclasses.replace(cfg, sweep=cfg.sweep)
    assert other.plan.tables == {}
    sweep(other)
    assert builds == [(*pair, (20,))] * 2
    # an element-count sweep holds exactly the counts it read
    counts = dataclasses.replace(cfg, sweep=SweepSpec("L", parse_grid("5:20:4", "g")))
    sweep(counts)
    assert builds[2:] == [(*pair, (5, 10, 15, 20))]
    assert sorted(counts.plan.tables) == [(pair, c) for c in (5, 10, 15, 20)]


def test_a_rough_pair_simulates_from_its_table_as_from_per_element_draws(monkeypatch):
    # the default config with a one-sided Gaussian sat hop: its 20-element
    # sum has a table, and the coverage it gives where that is neither 0 nor
    # 1 agrees with a run that draws every element
    raw = _variant(DEFAULT_RAW, **{"ris.sat_fading": {"kappa": 0.0, "mu": 0.5},
                                   "monte_carlo.trials": 20_000})
    cfg = parse_scenario(copy.deepcopy(raw))
    (tabulated,) = sweep(cfg)
    link = cfg.links.ris[0]
    assert (link.sat_fading.kappa, link.sat_fading.mu, link.elements) == (0.0, 0.5, 20)
    assert cfg.plan.tables[(link.sat_fading, link.user_fading), 20] is not None
    monkeypatch.setattr(montecarlo, "element_sum_tables", lambda *args: None)
    (per_element,) = sweep(parse_scenario(copy.deepcopy(raw)))
    rows = [(a, b) for a, b in zip(tabulated.rows, per_element.rows) if 20.0 <= a[0] <= 32.0]
    assert len(rows) == 3
    for (value, _, mc, se, *_), (_, _, want, want_se, *_) in rows:
        assert abs(mc - want) <= 3.0 * math.hypot(se, want_se), value


def _digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workers", [1, 2])
def test_held_element_sum_tables_change_no_byte(tmp_path, workers):
    raw = _variant(**{"monte_carlo.enabled": True, "monte_carlo.trials": 20_000,
                      "monte_carlo.workers": workers})
    seed8 = tmp_path / "seed8"
    seed8.mkdir()
    fresh = {7: _write_config(tmp_path, raw),
             8: _write_config(seed8, _variant(raw, **{"monte_carlo.seed": 8}))}
    for seed, path in fresh.items():
        run_scenario(load_scenario(path), out_dir=tmp_path / f"fresh{seed}")
    cfg = load_scenario(fresh[7])
    run_scenario(cfg, out_dir=tmp_path / "first")
    assert cfg.plan.tables
    run_scenario(cfg, out_dir=tmp_path / "second")
    run_scenario(cfg.replace(mc=dataclasses.replace(cfg.mc, seed=8)), out_dir=tmp_path / "eight")
    for held, seed in (("first", 7), ("second", 7), ("eight", 8)):
        assert _digests(tmp_path / held) == _digests(tmp_path / f"fresh{seed}")


def test_threads_running_one_loaded_config_at_once_write_the_serial_tables(tmp_path):
    path = _write_config(tmp_path, _variant(**{"monte_carlo.enabled": True,
                                               "monte_carlo.trials": 20_000}))
    run_scenario(load_scenario(path), out_dir=tmp_path / "serial")
    cfg = load_scenario(path)
    names = ["a", "b", "c", "d"]  # more threads than the two cores CI has
    start = threading.Barrier(len(names), timeout=60)

    def run(name):
        start.wait()
        return run_scenario(cfg, out_dir=tmp_path / name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(names)) as pool:
            for future in [pool.submit(run, name) for name in names]:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    serial = _digests(tmp_path / "serial")
    assert [_digests(tmp_path / name) for name in names] == [serial] * len(names)
    assert list(cfg.plan.tables) == [((cfg.links.ris[0].sat_fading,
                                       cfg.links.ris[0].user_fading), 20)]


# first failing point, its error, and the message its setter or, past
# that, its single fit raises
_ASPECT = ("geometry.height_m: must be 0 or from 2.23e-308 to 1000 times "
           "geometry.base_radius_m ")
_SWEEP_ERRORS = [
    ("H", (0.0, 60.0, 120.0), 0, ConfigError,
     "sweep.grid[0]: geometry.height_m: 0 with no inner radius is divergent: the variance "
     "of |A| needs E[R^-eps], which diverges on a flat disk for every user_exponent "
     "eps >= 2; set geometry.inner_radius_m > 0"),
    ("H", (60.0, 120.0, 1.0e160), 2, ConfigError,
     "sweep.grid[2]: " + _ASPECT + "120, got 1e+160"),
    ("R0", (1.0e-160, 60.0), 0, ConfigError,
     "sweep.grid[0]: " + _ASPECT + "1e-160, got 120"),
    # the order-2 moment at R0 = 1e300 underflows
    ("R0", (60.0, 120.0, 1.0e100, 1.0e300), 3, ComputationError,
     "moment E[R^-2.04666] leaves the float range for CylinderGeometry(base_radius=1e+300, "
     "height=120.0, inner_radius=0.0)"),
]


@pytest.mark.parametrize("variable,grid,bad,error,message", _SWEEP_ERRORS)
def test_sweep_raises_the_first_failing_point_before_any_output(
        monkeypatch, tmp_path, variable, grid, bad, error, message):
    cfg = dataclasses.replace(load_scenario(DEFAULT_CONFIG), sweep=SweepSpec(variable, grid))
    # the plan raises what the point's setter or variance check raises, and
    # past them the point's single fit raises alone
    with pytest.raises(error) as alone:
        if error is ConfigError:
            cfg.plan
        links, geom, _, _ = VARIABLES[variable].point(cfg, grid[bad])
        gamma_approx(links, geom, cfg.constellation)
    assert str(alone.value) == message
    # a point its setter rejects does not load either, nor one whose moment
    # leaves the floats, whose load error names the point and the RIS
    with pytest.raises(ConfigError) as loaded:
        parse_scenario(resolved_mapping(cfg))
    if error is ConfigError:
        assert str(loaded.value) == message
    else:
        assert str(loaded.value).startswith(f"sweep.grid[{bad}]: ris.user_exponent[")
        assert message.split()[1] in str(loaded.value)
    simulations = []
    monkeypatch.setattr(runner, "simulate_snr", lambda *a, **k: simulations.append(a))
    out = tmp_path / "out"
    # the run builds the same plan, so it raises what the parser raises
    with pytest.raises(ConfigError) as swept:
        run_scenario(cfg, out_dir=out)
    assert str(swept.value) == str(loaded.value)
    # every fit comes before the first simulation and the first table
    assert simulations == [] and not out.exists()


@pytest.mark.parametrize("variable,grid", [("N", (1.0, 2.0, 3.0)), ("L", (5.0, 10.0, 20.0))])
def test_count_sweep_reads_every_point_from_one_simulation(variable, grid):
    cfg = _sweep_config(variable, grid, mc=True)
    (coverage, _) = sweep(cfg)
    # one simulation of the last point's links from child 0, the smaller
    # points nested in it
    links = [VARIABLES[variable].point(cfg, v)[0] for v in grid]
    seed = int(np.random.SeedSequence(cfg.mc.seed, spawn_key=(0,)).generate_state(1)[0])
    rho_th = 10.0 ** (cfg.coverage_threshold_db / 10.0)
    sim = simulate_snr(links[-1], cfg.geometry, cfg.constellation,
                       dataclasses.replace(cfg.mc, seed=seed), nested=tuple(links[:-1]),
                       points=[(r, cfg.rho0, rho_th) for r in range(len(grid))])
    assert [row[2:4] for row in coverage.rows] == [tuple(est) for est in sim.coverage]
    # the last point reads what a one-point sweep of it reads
    (alone, _) = sweep(_sweep_config(variable, grid[-1:], mc=True))
    assert coverage.rows[-1] == alone.rows[0]


@pytest.mark.parametrize("variable,grid", [("N", [2, 4]), ("L", [10, 20])])
@pytest.mark.parametrize("workers", [1, 2])
def test_shared_simulation_reproduces_through_the_echo(tmp_path, variable, grid, workers):
    raw = _variant(**{"sweep.variable": variable, "sweep.grid": grid,
                      "monte_carlo.enabled": True, "monte_carlo.workers": workers})
    first = run_scenario(parse_scenario(raw), out_dir=tmp_path / "a")
    again = run_scenario(parse_scenario(raw), out_dir=tmp_path / "b")
    echo = run_scenario(first.resolved_path, out_dir=tmp_path / "c")
    for a, b, c in zip(first.paths, again.paths, echo.paths):
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_transmit_snr_sweep_rescales_the_simulation():
    db = parse_scenario(copy.deepcopy(BASE)).rho0_db
    (table,) = sweep(_sweep_config("rho0", (db, db + 10.0), mc=True))
    low, high = (row[2] for row in table.rows)
    assert low < high


def _write_config(tmp_path, raw):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


def test_run_scenario_writes_tables_and_echo(tmp_path):
    raw = _variant(**{"output.directory": str(tmp_path / "out")})
    summary = run_scenario(_write_config(tmp_path, raw))
    (csv_path,) = summary.paths
    with csv_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sweep_value", "analytic_metric", "mc_metric", "mc_stderr",
                       "alpha", "beta"]
    assert len(rows) == 1 + 3
    # full double precision survives the text round trip
    assert float(rows[1][1]) == summary.tables[0].rows[0][1]
    assert summary.resolved_path.exists()


def test_run_scenario_round_trip_bit_identical(tmp_path):
    raw = _variant(**{"monte_carlo.enabled": True,
                      "output.directory": str(tmp_path / "a")})
    first = run_scenario(_write_config(tmp_path, raw))
    second = run_scenario(first.resolved_path, out_dir=tmp_path / "b")
    assert first.paths[0].read_text() == second.paths[0].read_text()


def test_resolved_echo_reproduces_ris_count_sweep(tmp_path):
    # counts above the recorded list redraw exponents from the recorded
    # sub-seed, so the echo has to carry the seed and range
    cfg = dataclasses.replace(load_scenario(DEFAULT_CONFIG), mc_enabled=False)
    first = run_scenario(cfg, out_dir=tmp_path / "a")
    argv = ["--var", "N", "--grid", "4,8,12,16", "--no-mc"]
    assert cli_main(["sweep", str(DEFAULT_CONFIG), *argv, "--out", str(tmp_path / "b")]) == 0
    assert cli_main(["sweep", str(first.resolved_path), *argv,
                     "--out", str(tmp_path / "c")]) == 0
    for name in ("coverage.csv", "capacity.csv"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


def test_resolved_exponent_draw_validation():
    raw = resolved_mapping(parse_scenario(copy.deepcopy(BASE)))
    raw["resolved"]["user_exponent_range"] = [3.0, 2.0]
    with pytest.raises(ConfigError, match="resolved.user_exponent_range"):
        parse_scenario(copy.deepcopy(raw))
    raw["resolved"]["user_exponent_range"] = None
    with pytest.raises(ConfigError, match="resolved.user_exponent_range"):
        parse_scenario(raw)


def test_run_scenario_json_format(tmp_path):
    raw = _variant(**{"output.format": "json",
                      "output.directory": str(tmp_path / "out")})
    summary = run_scenario(_write_config(tmp_path, raw))
    payload = json.loads(summary.paths[0].read_text())
    assert set(payload[0]) == {"sweep_value", "analytic_metric", "mc_metric",
                               "mc_stderr", "alpha", "beta"}
    assert payload[0]["analytic_metric"] == summary.tables[0].rows[0][1]


def test_table_writer_bytes_are_pinned(tmp_path):
    # a float sweep value, an integer-valued float, empty and filled Monte
    # Carlo cells: CSV as csv.writer writes the cells (CRLF, .17g floats,
    # empty None cells), JSON as json.dumps writes the rows
    table = runner.SweepTable("R0", "coverage", rows=(
        (0.1, 2.0, None, None, 1.0 / 3.0, 1e-300),
        (120.0, 0.5, 0.25, 1.5e-3, 15.56868219659185, 2.0 ** -60),
    ))
    assert runner.write_table(table, tmp_path, "csv").read_bytes() == (
        b"sweep_value,analytic_metric,mc_metric,mc_stderr,alpha,beta\r\n"
        b"0.10000000000000001,2,,,0.33333333333333331,1e-300\r\n"
        b"120,0.5,0.25,0.0015,15.568682196591849,8.6736173798840355e-19\r\n")
    assert runner.write_table(table, tmp_path, "json").read_bytes() == (
        b'[\n  {\n    "sweep_value": 0.1,\n    "analytic_metric": 2.0,\n'
        b'    "mc_metric": null,\n    "mc_stderr": null,\n'
        b'    "alpha": 0.3333333333333333,\n    "beta": 1e-300\n  },\n'
        b'  {\n    "sweep_value": 120.0,\n    "analytic_metric": 0.5,\n'
        b'    "mc_metric": 0.25,\n    "mc_stderr": 0.0015,\n'
        b'    "alpha": 15.56868219659185,\n    "beta": 8.673617379884035e-19\n  }\n]\n')
    # the CSV reads back through the csv module to the same cells
    with (tmp_path / "coverage.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [tuple(float(v) if v else None for v in row) for row in rows] == list(table.rows)


def test_cli_run_and_sweep(tmp_path, capsys):
    path = _write_config(tmp_path, _variant())
    code = cli_main(["run", str(path), "--out", str(tmp_path / "o1"), "--no-mc"])
    assert code == 0
    assert (tmp_path / "o1" / "coverage.csv").exists()
    code = cli_main(["sweep", str(path), "--var", "L", "--grid", "10,20",
                     "--out", str(tmp_path / "o2"), "--no-mc", "--format", "json"])
    assert code == 0
    assert (tmp_path / "o2" / "coverage.json").exists()
    assert (tmp_path / "o2" / "capacity.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize("var,grid", [("N", "2.5"), ("L", "2.5"), ("N", "8,4")])
def test_cli_grid_is_validated_like_a_config_grid(tmp_path, capsys, var, grid):
    path = _write_config(tmp_path, _variant())
    code = cli_main(["sweep", str(path), "--var", var, "--grid", grid, "--no-mc",
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "--grid" in capsys.readouterr().err


def test_cli_sweep_echo_reproduces_the_run(tmp_path, capsys):
    # --var/--grid, --no-mc and --format land in the echo, so re-running
    # it without options writes the same tables
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["sweep", str(DEFAULT_CONFIG), "--var", "N", "--grid", "4,8", "--no-mc",
                     "--format", "json", "--out", str(a)]) == 0
    assert cli_main(["run", str(a / "resolved.yaml"), "--out", str(b)]) == 0
    for name in ("coverage.json", "capacity.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("argv,updates,field", [
    (["run", "--seed", "-1"], {}, "--seed: seed must be >= 0"),
    (["sweep", "--var", "rho_th", "--grid", "0,4000"], {}, "--grid"),
    (["sweep", "--var", "rho0", "--grid=0,4000"], {}, "--grid"),
    (["run"], {"metrics": {"coverage_threshold_db": 4000}}, "metrics.coverage_threshold_db"),
    (["run"], {"power": {"noise_dbm": 5000}}, "power.noise_dbm"),
    (["run"], {"power": {"noise_dbm": -5000}}, "power.noise_dbm"),
    # finite energy over finite noise, but an infinite transmit SNR
    (["run"], {"power": {"symbol_energy_w": 1.0e300}}, "power.symbol_energy_w"),
    # the variance of |A| diverges: a flat disk with no inner radius, an
    # exponent of 3 or more in 3D
    (["run"], {"geometry": {"height_m": 0.0}}, "sweep.grid[0]: geometry.height_m"),
    (["run"], {"ris": {"user_exponent": 3.5}}, "sweep.grid[0]: ris.user_exponent[0]"),
    (["sweep", "--var", "H", "--grid", "0,60"], {}, "--grid[0]: geometry.height_m"),
    (["run", "--workers", "0"], {}, "--workers: workers must be >= 1"),
])
def test_cli_rejects_out_of_range_values(tmp_path, capsys, argv, updates, field):
    # a negative seed or no workers, a dB value or transmit SNR with no
    # finite positive linear value, or a divergent variance: exit 2, one
    # error line naming the option or field, nothing written
    raw = copy.deepcopy(DEFAULT_RAW)
    for section, values in updates.items():
        raw[section].update(values)
    path = _write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert cli_main([argv[0], str(path), *argv[1:], "--no-mc", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]
    assert not out.exists()


def test_too_few_trials_fail_before_any_simulation_or_output(monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("called")

    # the run makes no fit (the config's plan holds them, made before the
    # run by the parser or, for a config the CLI changes, by the CLI), so
    # the trial check comes before any simulation and any output
    monkeypatch.setattr(runner, "simulate_snr", fail)
    # simulation is off in the file and switched on from the command line
    out = tmp_path / "o"
    # too few for the empirical metrics, and more samples than a
    # simulation keeps for one configuration
    for trials, bound in ((99, "100"), (MAX_KEPT_SAMPLES + 1, str(MAX_KEPT_SAMPLES))):
        path = _write_config(tmp_path, _variant(**{"monte_carlo.trials": trials}))
        assert cli_main(["run", str(path), "--mc", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "monte_carlo.trials" in err[0] and str(trials) in err[0]
        assert bound in err[0]
        assert not out.exists()
    monkeypatch.undo()
    path = _write_config(tmp_path, _variant(**{"monte_carlo.trials": 99}))
    assert cli_main(["run", str(path), "--no-mc", "--out", str(out)]) == 0
    path = _write_config(tmp_path, _variant(**{"monte_carlo.trials": 100}))
    assert cli_main(["run", str(path), "--mc", "--out", str(out)]) == 0
    capsys.readouterr()


def test_a_table_that_misses_its_gate_leaves_a_run_with_simulation_finite(tmp_path, capsys):
    # two narrow hops whose two-element table misses its gate: the RIS
    # draws per element, and the run's Monte Carlo cells are finite and
    # the same at 1 and 2 workers
    raw = _variant(DEFAULT_RAW, **{
        "ris.count": 1, "ris.elements": 2, "monte_carlo.trials": 2000,
        "ris.sat_fading": {"kappa": 3.927584459821808, "mu": 3530.511444352288},
        "ris.user_fading": {"kappa": 480.2719033204809, "mu": 1241.7499249417986}})
    path = _write_config(tmp_path, raw)
    for w in (1, 2):
        assert cli_main(["run", str(path), "--mc", "--workers", str(w),
                         "--out", str(tmp_path / f"o{w}")]) == 0
    capsys.readouterr()
    with open(tmp_path / "o1" / "coverage.csv", newline="") as f:
        cells = [(float(r["mc_metric"]), float(r["mc_stderr"])) for r in csv.DictReader(f)]
    assert len(cells) == 10 and all(0.0 <= c <= 1.0 and np.isfinite(e) for c, e in cells)
    assert ((tmp_path / "o1" / "coverage.csv").read_bytes()
            == (tmp_path / "o2" / "coverage.csv").read_bytes())


def test_cli_reports_config_errors(tmp_path, capsys):
    path = _write_config(tmp_path, _variant(**{"ris.sat_exponent": 1.0}))
    code = cli_main(["run", str(path)])
    assert code == 2
    assert "sat_exponent" in capsys.readouterr().err


def test_cli_reports_divergent_moments(tmp_path, capsys):
    raw = _variant(**{"geometry.height_m": 0.0,
                      "ris.user_exponent": [2.5, 2.5, 2.5]})
    path = _write_config(tmp_path, raw)
    code = cli_main(["run", str(path), "--no-mc"])
    assert code == 2
    err = capsys.readouterr().err
    assert "divergent" in err and "inner radius" in err


def test_divergent_variance_is_rejected_at_parse_time():
    # an annulus, and a flat disk with the direct path alone, load
    parse_scenario(_variant(**{"geometry.height_m": 0.0, "geometry.inner_radius_m": 10.0}))
    parse_scenario(_variant(**{"geometry.height_m": 0.0, "ris.count": 0}))
    with pytest.raises(ConfigError, match=r"^sweep\.grid\[0\]: geometry\.height_m: 0 "):
        parse_scenario(_variant(**{"geometry.height_m": 0.0}))
    # in 3D the exponent bound is strict
    parse_scenario(_variant(**{"ris.user_exponent": 2.999}))
    with pytest.raises(ConfigError,
                       match=r"^sweep\.grid\[0\]: ris\.user_exponent\[2\]: 3 is divergent"):
        parse_scenario(_variant(**{"ris.user_exponent": [2.5, 2.5, 3.0]}))
    # a count sweep fails at the first count whose drawn exponents reach 3
    span, seed = (2.0, 3.5), 11
    draws = user_exponent_draws(seed, span, 12)
    first = next(i for i, e in enumerate(draws) if e >= 3.0)
    raw = _variant(**{"ris.user_exponent": {"low": span[0], "high": span[1], "seed": seed},
                      "ris.count": 1, "sweep.variable": "N",
                      "sweep.grid": list(range(1, 13))})
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert str(exc.value).startswith(f"sweep.grid[{first}]: ris.user_exponent[{first}]: ")


def test_a_moment_outside_the_floats_is_rejected_at_parse_time(monkeypatch, tmp_path, capsys):
    # on an annulus the moment grows as inner_radius^(2 - s): E[R^-3.5] is
    # finite but past the floats, and the error names the point and the RIS
    tiny_hole = {"geometry.height_m": 0.0, "geometry.inner_radius_m": 1.0e-300}
    parse_scenario(_variant(**tiny_hole, **{"ris.user_exponent": 2.5}))
    with pytest.raises(ConfigError) as exc:
        parse_scenario(_variant(**tiny_hole, **{"ris.user_exponent": [2.5, 3.5, 3.5]}))
    assert str(exc.value) == ("sweep.grid[0]: ris.user_exponent[1]: moment E[R^-3.5] leaves "
                              "the float range for CylinderGeometry(base_radius=120.0, "
                              "height=0.0, inner_radius=1e-300)")
    # a count sweep fails at the first count whose drawn exponent leaves them
    span, seed = (2.0, 3.9), 11
    geom = CylinderGeometry(120.0, 0.0, 1.0e-300)
    draws = user_exponent_draws(seed, span, 12)
    first = next(i for i, e in enumerate(draws) if _past_the_floats(e, geom))
    assert first > 0
    raw = _variant(**tiny_hole, **{
        "ris.user_exponent": {"low": span[0], "high": span[1], "seed": seed},
        "ris.count": 1, "sweep.variable": "N", "sweep.grid": list(range(1, 13))})
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert str(exc.value).startswith(f"sweep.grid[{first}]: ris.user_exponent[{first}]: ")
    # the same error when the kernel takes its pairs two at a time
    with monkeypatch.context() as patched:
        patched.setattr(channel, "_CHUNK_PATHS", 2)
        with pytest.raises(ConfigError) as chunked:
            parse_scenario(raw)
    assert str(chunked.value) == str(exc.value)
    # a --grid point, before any fit or output
    path = _write_config(tmp_path, _variant(**tiny_hole, **{"ris.user_exponent": 2.5}))
    assert cli_main(["sweep", str(path), "--var", "R0", "--grid", "1e-290,120", "--no-mc",
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: --grid[0]: ris.user_exponent[0]: ")
    assert not (tmp_path / "o").exists()


# configs/default.yaml with a constellation whose satellite-hop moment
# leaves the floats, or a satellite hop whose envelope moment does not
# converge: both parse without the fit and fail in it
_UNFITTABLE = {
    "altitude": {"constellation.altitude_km": 1.0e+300},
    "envelope": {"ris.sat_fading": {"kappa": 1.0e+5, "mu": 1.0e+4}},
}


@pytest.mark.parametrize("case", sorted(_UNFITTABLE))
def test_a_point_that_cannot_be_fitted_is_rejected_at_parse_time(monkeypatch, case):
    raw = _variant(DEFAULT_RAW, **_UNFITTABLE[case])
    with monkeypatch.context() as patched:
        patched.setattr(scenario, "plan", lambda cfg: None)
        cfg = parse_scenario(raw)
    links, geom, _, _ = VARIABLES[cfg.sweep.variable].point(cfg, cfg.sweep.grid[0])
    with pytest.raises((ComputationError, ConvergenceError)) as alone:
        gamma_approx(links, geom, cfg.constellation)
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert str(exc.value) == f"sweep.grid[0]: {alone.value}"


def test_a_grid_point_that_cannot_be_fitted_is_named_by_the_cli(tmp_path, capsys):
    # the last of eight RISs has the unconvergent satellite hop: the file's
    # one-RIS sweep loads, an eight-RIS --grid point does not
    law, bad = DEFAULT_RAW["ris"]["sat_fading"], _UNFITTABLE["envelope"]["ris.sat_fading"]
    raw = _variant(DEFAULT_RAW, **{"ris.sat_fading": [law] * 7 + [bad], "sweep.variable": "N",
                                   "sweep.grid": [1]})
    cfg = parse_scenario(raw)
    links, geom, _, _ = VARIABLES["N"].point(cfg, 8)
    with pytest.raises(ConvergenceError) as alone:
        gamma_approx(links, geom, cfg.constellation)
    path = _write_config(tmp_path, raw)
    assert cli_main(["sweep", str(path), "--var", "N", "--grid", "8,9", "--no-mc",
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: --grid[0]: {alone.value}\n"
    assert not (tmp_path / "o").exists()


def _past_the_floats(eps, geom):
    try:
        for t in (1, 2):
            ris_distance_moment(t, eps, geom)
    except ComputationError:
        return True
    return False


def test_exponent_floats_load_as_floats(tmp_path):
    # YAML 1.1 reads 1e4 and 1.0e4 as strings; the loader reads them as
    # floats, as YAML 1.2 does, and leaves integers and quoted strings alone
    text = DEFAULT_CONFIG.read_text(encoding="utf-8")
    values = {"1e4": 1.0e4, "1.0e4": 1.0e4, "-3E-2": -0.03, ".5e1": 5.0, "42": 42,
              "1_000": 1000, "'1e4'": "1e4"}
    path = tmp_path / "values.yaml"
    path.write_text("".join(f"v{i}: {v}\n" for i, v in enumerate(values)), encoding="utf-8")
    loaded = yaml.load(path.read_text(encoding="utf-8"), Loader=scenario._Loader)
    assert list(loaded.values()) == list(values.values())
    assert [type(v) for v in loaded.values()] == [type(v) for v in values.values()]
    assert yaml.load(text, Loader=scenario._Loader) == yaml.safe_load(text)
    # a fading law that cannot be tabulated, written as YAML 1.2 writes it
    path.write_text(text.replace("sat_fading: {kappa: 1.0, mu: 2.0}",
                                 "sat_fading: {kappa: 1.0, mu: 1.0e4}"), encoding="utf-8")
    assert {link.sat_fading.mu for link in load_scenario(path).links.ris} == {1.0e4}
    path.write_text(text.replace("sat_fading: {kappa: 1.0, mu: 2.0}",
                                 "sat_fading: {kappa: 1.0, mu: '1e4'}"), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^ris\.sat_fading\[0\]\.mu: expected a number"):
        load_scenario(path)


def test_fading_errors_name_the_full_path():
    with pytest.raises(ConfigError) as exc:
        parse_scenario(_variant(**{"ris.sat_fading": {"kappa": -1.0, "mu": 2.0}}))
    assert str(exc.value) == "ris.sat_fading[0].kappa: must be >= 0.0, got -1.0"
    law = {"kappa": 3.0, "mu": 3.0}
    with pytest.raises(ConfigError) as exc:
        parse_scenario(_variant(**{"ris.user_fading": [law, {"kappa": 3.0, "mu": 0.0}, law]}))
    assert str(exc.value) == "ris.user_fading[1].mu: must be > 0.0, got 0.0"
    with pytest.raises(ConfigError, match=r"^ris\.sat_fading\[0\]\.mu: required field"):
        parse_scenario(_variant(**{"ris.sat_fading": {"kappa": 1.0}}))


def test_cli_yaml_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("geometry: [unterminated", encoding="utf-8")
    code = cli_main(["run", str(path)])
    assert code == 2
    assert "YAML" in capsys.readouterr().err


def _unreadable(tmp_path, case):
    """(config, out) of a ``leoris run`` that cannot read its scenario or
    write its output, and the text its error names."""
    if case == "missing":
        return tmp_path / "missing.yaml", tmp_path / "o", "No such file or directory"
    if case == "directory":
        return tmp_path, tmp_path / "o", "Is a directory"
    if case == "not_utf8":
        path = tmp_path / "latin1.yaml"
        path.write_bytes("# caf\xe9\n".encode("latin-1") + DEFAULT_CONFIG.read_bytes())
        return path, tmp_path / "o", f"{path}: invalid YAML: 'utf-8' codec can't decode"
    (tmp_path / "file").write_text("", encoding="utf-8")
    return DEFAULT_CONFIG, tmp_path / "file" / "o", "Not a directory"


@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8", "out_under_a_file"])
def test_cli_reports_a_file_it_cannot_read_or_write(tmp_path, capsys, case):
    config, out, reason = _unreadable(tmp_path, case)
    assert cli_main(["run", str(config), "--no-mc", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err
