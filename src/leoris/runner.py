"""Scenario execution: evaluate the analytic metrics over a sweep grid,
optionally cross-check each point with the link simulator, and write
schema-stable tables.

Table schema (fixed): sweep_value, analytic_metric, mc_metric, mc_stderr,
alpha, beta. One table per metric; Monte Carlo columns are empty when
simulation is off.

A sweep is one loop over the grid of a ScenarioConfig, with one reuse
rule: a point refits the Gamma model, and re-simulates, only when its
links or geometry differ from the previous point's. Threshold and
transmit-SNR sweeps thus fit and simulate once; a transmit-SNR point
rescales the simulated samples. Point i's simulation draws from child i
of SeedSequence(monte_carlo.seed). Everything a run depends on is in the
config, so the resolved echo written next to the tables reproduces them.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .channel import LinkConfig, gamma_approx
from .errors import ConfigError
from .metrics import CoverageQuery, coverage_probability, ergodic_capacity
from .montecarlo import empirical_capacity, empirical_coverage, simulate_snr
from .scenario import ScenarioConfig, db_to_linear, load_scenario, resolved_mapping

__all__ = ["SweepTable", "RunSummary", "sweep", "run_scenario", "write_table"]

HEADER = ("sweep_value", "analytic_metric", "mc_metric", "mc_stderr", "alpha", "beta")


@dataclass(frozen=True)
class SweepTable:
    variable: str
    metric: str
    rows: tuple[tuple, ...]

    @property
    def header(self) -> tuple[str, ...]:
        return HEADER


@dataclass(frozen=True)
class RunSummary:
    tables: tuple[SweepTable, ...]
    paths: tuple[Path, ...]
    resolved_path: Path | None


def _with_count(cfg: ScenarioConfig, n: int) -> LinkConfig:
    """LinkConfig with the RIS list truncated or template-extended to n."""
    links = cfg.links
    if n <= len(links.ris):
        return dataclasses.replace(links, ris=links.ris[:n])
    if not links.ris:
        raise ConfigError("sweep.grid: cannot grow the RIS list from an empty template")
    template = links.ris[-1]
    extra = tuple(template for _ in range(n - len(links.ris)))
    if cfg.exponent_seed is not None and cfg.exponent_range is not None:
        # same sub-seed as resolution: draws for n RISs share their prefix
        # with every smaller count
        low, high = cfg.exponent_range
        rng = np.random.default_rng(cfg.exponent_seed)
        draws = low + (high - low) * rng.random(n)
        ris = tuple(dataclasses.replace(link, user_exponent=float(draws[i]))
                    for i, link in enumerate(links.ris + extra))
    else:
        ris = links.ris + extra
    return dataclasses.replace(links, ris=ris)


def _with_elements(links: LinkConfig, elements: int) -> LinkConfig:
    return dataclasses.replace(
        links, ris=tuple(dataclasses.replace(r, elements=elements) for r in links.ris))


def _point_inputs(cfg: ScenarioConfig, variable: str, value: float):
    """(links, geometry, rho0_linear, rho_th_linear) at one sweep point."""
    links, geom = cfg.links, cfg.geometry
    rho0 = cfg.rho0
    rho_th = db_to_linear(cfg.coverage_threshold_db)
    if variable == "rho_th":
        rho_th = db_to_linear(value)
    elif variable == "rho0":
        rho0 = db_to_linear(value)
    elif variable == "N":
        links = _with_count(cfg, int(value))
    elif variable == "L":
        links = _with_elements(links, int(value))
    elif variable == "R0":
        geom = dataclasses.replace(geom, base_radius=float(value))
    elif variable == "H":
        geom = dataclasses.replace(geom, height=float(value))
    else:
        raise ConfigError(f"unknown sweep variable {variable!r}")
    return links, geom, rho0, rho_th


# metric tables per sweep variable; every other variable reports both
_METRICS = {"rho_th": ("coverage",), "rho0": ("capacity",)}


def sweep(cfg: ScenarioConfig) -> list[SweepTable]:
    """Evaluate the scenario's metrics over its sweep grid, refitting and
    re-simulating only where the links or geometry change."""
    variable, grid = cfg.sweep.variable, cfg.sweep.grid
    metrics = _METRICS.get(variable, ("coverage", "capacity"))
    rows: dict[str, list[tuple]] = {m: [] for m in metrics}
    state = ga = sim = None
    for i, value in enumerate(grid):
        links, geom, rho0, rho_th = _point_inputs(cfg, variable, value)
        if (links, geom) != state:
            state = (links, geom)
            ga = gamma_approx(links, geom, cfg.constellation)
            if cfg.mc_enabled:
                # child i of SeedSequence(cfg.mc.seed)
                child = np.random.SeedSequence(cfg.mc.seed, spawn_key=(i,))
                opts = dataclasses.replace(cfg.mc, seed=int(child.generate_state(1)[0]))
                sim = simulate_snr(links, geom, cfg.constellation, opts)
        scaled = sim
        if sim is not None and rho0 != links.transmit_snr:
            scaled = dataclasses.replace(
                sim, snr_samples=sim.snr_samples * (rho0 / links.transmit_snr))
        for metric in metrics:
            if metric == "coverage":
                analytic = coverage_probability(CoverageQuery(rho_th=rho_th, rho0=rho0), ga)
                mc = empirical_coverage(scaled, rho_th) if scaled is not None else None
            else:
                analytic = ergodic_capacity(ga, rho0).bits
                mc = empirical_capacity(scaled) if scaled is not None else None
            rows[metric].append((value, analytic, *(mc or (None, None)), ga.alpha, ga.beta))
    return [SweepTable(variable=variable, metric=m, rows=tuple(rows[m])) for m in metrics]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_table(table: SweepTable, directory: Path, fmt: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = directory / f"{table.metric}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(HEADER)
            for row in table.rows:
                writer.writerow([_fmt(v) for v in row])
    elif fmt == "json":
        path = directory / f"{table.metric}.json"
        payload = [dict(zip(HEADER, row)) for row in table.rows]
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    else:
        raise ConfigError(f"output.format: must be csv or json, got {fmt!r}")
    return path


def run_scenario(source: str | Path | ScenarioConfig,
                 out_dir: str | Path | None = None) -> RunSummary:
    """Run a scenario file (or parsed config): sweep, write one table per
    metric plus the resolved-config echo, return what was written."""
    cfg = source if isinstance(source, ScenarioConfig) else load_scenario(source)
    directory = Path(out_dir) if out_dir is not None else Path(cfg.output.directory)
    tables = sweep(cfg)
    paths = tuple(write_table(t, directory, cfg.output.format) for t in tables)
    resolved_path = directory / "resolved.yaml"
    resolved_path.write_text(
        yaml.safe_dump(resolved_mapping(cfg), sort_keys=False), encoding="utf-8")
    return RunSummary(tables=tuple(tables), paths=paths, resolved_path=resolved_path)
