"""Scenario parsing, validation diagnostics, the resolved echo round-trip
and sweep/CLI behavior on small grids."""

import copy
import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from leoris.cli import main as cli_main
from leoris.errors import ComputationError, ConfigError, DivergentMomentError
from leoris.metrics import CoverageQuery, coverage_probability, ergodic_capacity
from leoris.montecarlo import MAX_KEPT_SAMPLES, empirical_coverage, simulate_snr
from leoris.channel import gamma_approx
from leoris import runner
from leoris.runner import run_scenario, sweep
from leoris.scenario import (
    MAX_ELEMENTS,
    MAX_GRID_POINTS,
    MAX_RIS,
    SweepSpec,
    load_scenario,
    parse_grid,
    parse_scenario,
    resolved_mapping,
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


def _variant(**updates):
    raw = copy.deepcopy(BASE)
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
    assert parse_grid([1, 2, 3], "rho_th", "g") == (1.0, 2.0, 3.0)
    assert parse_grid({"start": 0.0, "stop": 10.0, "points": 3}, "rho_th", "g") == (0.0, 5.0, 10.0)
    assert parse_grid("1,2,4", "rho_th", "g") == (1.0, 2.0, 4.0)
    assert parse_grid("0:10:3", "rho_th", "g") == (0.0, 5.0, 10.0)
    with pytest.raises(ConfigError):
        parse_grid("1:2", "rho_th", "g")
    with pytest.raises(ConfigError):
        parse_grid({"start": 0.0}, "rho_th", "g")


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


@pytest.mark.parametrize("variable,grid", [("R0", (60.0, 90.0, 120.0, 300.0)),
                                           # the low SNRs take the quadrature
                                           ("rho0", (60.0, 100.0, 120.0, 140.0))])
def test_sweep_analytic_cells_equal_per_point_calls(variable, grid):
    # the sweep evaluates each metric for all its points in one batch; every
    # cell is bit for bit what the single-point functions give at its point
    cfg = _sweep_config(variable, grid)
    for table in sweep(cfg):
        assert [row[0] for row in table.rows] == list(grid)
        for value, analytic, *_ in table.rows:
            links, geom, rho0, rho_th = runner._point_inputs(cfg, variable, value)
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
    counts = {"gamma_fits": 0, "fits": 0, "simulate_snr": 0}

    def batch(pairs, con, _fn=runner.gamma_fits):
        counts["gamma_fits"] += 1
        counts["fits"] += len(pairs)
        return _fn(pairs, con)

    def simulate(*args, _fn=runner.simulate_snr, **kwargs):
        counts["simulate_snr"] += 1
        return _fn(*args, **kwargs)

    monkeypatch.setattr(runner, "gamma_fits", batch)
    monkeypatch.setattr(runner, "simulate_snr", simulate)
    sweep(_sweep_config(variable, grid, mc=True))
    # every fit of the sweep in one batch
    assert counts == {"gamma_fits": 1, "fits": fits, "simulate_snr": simulations}


# first failing point, its error, and the message its single fit raises
_ASPECT = ("moment E[R^-1.02333] is not evaluated for height/base_radius above 1000, where "
           "its terms cancel: ")
_SWEEP_ERRORS = [
    ("H", (0.0, 60.0, 1.0e160), 0, DivergentMomentError,
     "moment E[R^-2.04666] diverges on a flat disk: t*eps = 4.09332 >= 4 requires an "
     "inner radius"),
    ("H", (60.0, 120.0, 1.0e160), 2, ComputationError,
     _ASPECT + "CylinderGeometry(base_radius=120.0, height=1e+160, inner_radius=0.0)"),
    ("R0", (1.0e-160, 60.0), 0, ComputationError,
     _ASPECT + "CylinderGeometry(base_radius=1e-160, height=120.0, inner_radius=0.0)"),
    # the order-2 moment at R0 = 1e300 underflows
    ("R0", (60.0, 120.0, 1.0e100, 1.0e300), 3, ComputationError,
     "moment E[R^-2.04666] leaves the float range for CylinderGeometry(base_radius=1e+300, "
     "height=120.0, inner_radius=0.0)"),
]


@pytest.mark.parametrize("variable,grid,bad,error,message", _SWEEP_ERRORS)
def test_sweep_raises_the_first_failing_point_before_any_output(
        monkeypatch, tmp_path, variable, grid, bad, error, message):
    cfg = dataclasses.replace(load_scenario(DEFAULT_CONFIG), sweep=SweepSpec(variable, grid))
    # the failing point alone raises the same
    links, geom, _, _ = runner._point_inputs(cfg, variable, grid[bad])
    with pytest.raises(error) as alone:
        gamma_approx(links, geom, cfg.constellation)
    assert str(alone.value) == message
    simulations = []
    monkeypatch.setattr(runner, "simulate_snr", lambda *a, **k: simulations.append(a))
    out = tmp_path / "out"
    with pytest.raises(error) as swept:
        run_scenario(cfg, out_dir=out)
    assert str(swept.value) == message
    # every fit comes before the first simulation and the first table
    assert simulations == [] and not out.exists()


@pytest.mark.parametrize("variable,grid", [("N", (1.0, 2.0, 3.0)), ("L", (5.0, 10.0, 20.0))])
def test_count_sweep_reads_every_point_from_one_simulation(variable, grid):
    cfg = _sweep_config(variable, grid, mc=True)
    (coverage, _) = sweep(cfg)
    # one simulation of the last point's links from child 0, the smaller
    # points nested in it
    links = [runner._point_inputs(cfg, variable, v)[0] for v in grid]
    seed = int(np.random.SeedSequence(cfg.mc.seed, spawn_key=(0,)).generate_state(1)[0])
    sim = simulate_snr(links[-1], cfg.geometry, cfg.constellation,
                       dataclasses.replace(cfg.mc, seed=seed), nested=tuple(links[:-1]))
    rho_th = 10.0 ** (cfg.coverage_threshold_db / 10.0)
    for row, res in zip(coverage.rows, (*sim.nested, sim)):
        assert row[2:4] == tuple(empirical_coverage(res, rho_th))
    # the last point reads what a one-point sweep of it reads
    (alone, _) = sweep(_sweep_config(variable, grid[-1:], mc=True))
    assert coverage.rows[-1] == alone.rows[0]


def test_count_sweep_splits_where_samples_exceed_the_budget(monkeypatch):
    cfg = _sweep_config("N", (1.0, 2.0, 3.0), mc=True)
    calls = []

    def recording(*args, **kwargs):
        calls.append((args[3].seed, len(kwargs["nested"])))
        return simulate_snr(*args, **kwargs)

    monkeypatch.setattr(runner, "simulate_snr", recording)
    monkeypatch.setattr(runner, "MAX_KEPT_SAMPLES", 2 * cfg.mc.trials)
    (coverage, _) = sweep(cfg)
    # points 0-1 share child 0's simulation; point 2 starts a group: child 2
    child = [int(np.random.SeedSequence(cfg.mc.seed, spawn_key=(i,)).generate_state(1)[0])
             for i in (0, 2)]
    assert calls == [(child[0], 1), (child[1], 0)]
    links = runner._with_count(cfg, 3)
    sim = simulate_snr(links, cfg.geometry, cfg.constellation,
                       dataclasses.replace(cfg.mc, seed=child[1]))
    rho_th = 10.0 ** (cfg.coverage_threshold_db / 10.0)
    assert coverage.rows[2][2:4] == tuple(empirical_coverage(sim, rho_th))


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
    (["run", "--seed", "-1"], {}, "seed"),
    (["sweep", "--var", "rho_th", "--grid", "0,4000"], {}, "--grid"),
    (["sweep", "--var", "rho0", "--grid=0,4000"], {}, "--grid"),
    (["run"], {"metrics": {"coverage_threshold_db": 4000}}, "metrics.coverage_threshold_db"),
    (["run"], {"power": {"noise_dbm": 5000}}, "power.noise_dbm"),
    (["run"], {"power": {"noise_dbm": -5000}}, "power.noise_dbm"),
    # finite energy over finite noise, but an infinite transmit SNR
    (["run"], {"power": {"symbol_energy_w": 1.0e300}}, "power.symbol_energy_w"),
])
def test_cli_rejects_out_of_range_values(tmp_path, capsys, argv, updates, field):
    # a negative seed, or a dB value or transmit SNR with no finite
    # positive linear value: exit 2, one error line, nothing written
    raw = copy.deepcopy(DEFAULT_RAW)
    for section, values in updates.items():
        raw[section].update(values)
    path = _write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert cli_main([argv[0], str(path), *argv[1:], "--no-mc", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]
    assert not out.exists()


def test_too_few_trials_fail_before_any_fit_or_output(monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(runner, "gamma_fits", fail)
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


def test_cli_yaml_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("geometry: [unterminated", encoding="utf-8")
    code = cli_main(["run", str(path)])
    assert code == 2
    assert "YAML" in capsys.readouterr().err
