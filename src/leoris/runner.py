"""Scenario execution: evaluate the analytic metrics over a sweep grid,
optionally cross-check each point with the link simulator, and write
schema-stable tables.

Table schema (fixed): sweep_value, analytic_metric, mc_metric, mc_stderr,
alpha, beta. One table per metric; Monte Carlo columns are empty when
simulation is off.

A sweep is one loop over the grid of a ScenarioConfig. Consecutive
points with the same links and geometry form a run, which has one Gamma
fit; the sweep fits all its runs in one batch (channel.gamma_fits), then
evaluates each analytic column over every point in one array pass
(metrics.coverage_probabilities, metrics.ergodic_capacities, which runs
the capacity quadrature only on the points it flags), all before it
simulates. A table's rows are its columns zipped, and a CSV table is
written with one format string per row and one write. Threshold and
transmit-SNR sweeps are a single run, and a transmit-SNR point rescales
the simulated samples. Consecutive runs whose links nest
(montecarlo.is_nested: each run's RIS list is a prefix of the next
run's, each RIS the same up to fewer elements) on the same geometry
share one simulation, made on the last run's links; that is every point
of an RIS-count or element-count sweep, whose grids are ascending. A
shared simulation keeps trials samples per run, so runs are grouped only
while their samples fit in montecarlo.MAX_KEPT_SAMPLES. A group's
simulation draws from child i of SeedSequence(monte_carlo.seed), where i
is the index of the group's first point. Everything a run depends on is
in the config, so the resolved echo written next to the tables
reproduces them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np
import yaml

# gamma_approx stays importable here for callers that trace the fit by
# module attribute, as the benchmark does
from .channel import LinkConfig, gamma_approx, gamma_fits  # noqa: F401
from .errors import ConfigError
from .metrics import coverage_probabilities, ergodic_capacities
from .geometry import CylinderGeometry
from .montecarlo import (
    MAX_KEPT_SAMPLES,
    MIN_EMPIRICAL_TRIALS,
    SimResult,
    empirical_capacity,
    empirical_coverage,
    is_nested,
    simulate_snr,
)
from .scenario import (ScenarioConfig, db_to_linear, load_scenario, resolved_mapping,
                       user_exponent_draws)

__all__ = ["SweepTable", "RunSummary", "sweep", "run_scenario", "write_table"]

# libyaml's emitter where PyYAML was built with it; both write the same bytes
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

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
        # same draw as resolution, so the drawn exponents keep their prefix
        draws = user_exponent_draws(cfg.exponent_seed, cfg.exponent_range, n)
        ris = tuple(dataclasses.replace(link, user_exponent=e)
                    for link, e in zip(links.ris + extra, draws))
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
        geom = CylinderGeometry(float(value), geom.height, geom.inner_radius)
    elif variable == "H":
        geom = CylinderGeometry(geom.base_radius, float(value), geom.inner_radius)
    else:
        raise ConfigError(f"unknown sweep variable {variable!r}")
    return links, geom, rho0, rho_th


class _Run(NamedTuple):
    """Consecutive grid points that share links and geometry."""

    first: int  # index of the first point in the grid
    links: LinkConfig
    geometry: CylinderGeometry
    points: list[tuple[float, float, float]]  # (sweep value, rho0, rho_th)


def _runs(cfg: ScenarioConfig) -> Iterator[_Run]:
    run = None
    for i, value in enumerate(cfg.sweep.grid):
        links, geom, rho0, rho_th = _point_inputs(cfg, cfg.sweep.variable, value)
        if run is None or (links, geom) != (run.links, run.geometry):
            if run is not None:
                yield run
            run = _Run(i, links, geom, [])
        run.points.append((value, rho0, rho_th))
    yield run


def _groups(cfg: ScenarioConfig, runs: Iterable[_Run]) -> Iterator[list[_Run]]:
    """Consecutive runs that one simulation can serve: same geometry, each
    run's links nested in the next run's, and trials samples per run
    within MAX_KEPT_SAMPLES."""
    most = max(1, MAX_KEPT_SAMPLES // cfg.mc.trials)
    group: list[_Run] = []
    for run in runs:
        if group and (len(group) == most or run.geometry != group[-1].geometry
                      or not is_nested(group[-1].links, run.links)):
            yield group
            group = []
        group.append(run)
    yield group


def _simulate(cfg: ScenarioConfig, group: list[_Run]) -> tuple[SimResult, ...]:
    """One simulation on the last run's links with the others nested, from
    child (index of the group's first point) of SeedSequence(cfg.mc.seed);
    returns each run's result."""
    child = np.random.SeedSequence(cfg.mc.seed, spawn_key=(group[0].first,))
    opts = dataclasses.replace(cfg.mc, seed=int(child.generate_state(1)[0]))
    last = group[-1]
    sim = simulate_snr(last.links, last.geometry, cfg.constellation, opts,
                       nested=tuple(run.links for run in group[:-1]))
    return (*sim.nested, sim)


# metric tables per sweep variable; every other variable reports both
_METRICS = {"rho_th": ("coverage",), "rho0": ("capacity",)}


def _analytic(metric: str, models: list, rho0: tuple, rho_th: tuple) -> list[float]:
    """The metric at every point of the sweep, in one batch call."""
    if metric == "coverage":
        return coverage_probabilities(models, rho_th, rho0).tolist()
    return ergodic_capacities(models, rho0)[0].tolist()


def sweep(cfg: ScenarioConfig) -> list[SweepTable]:
    """Evaluate the scenario's metrics over its sweep grid: fit every run of
    equal links and geometry in one batch, evaluate each metric at every
    point in one batch, all before any simulation (so the first point
    that cannot be fitted raises first), then simulate once per group of
    nested runs. Too few trials for the empirical metrics, or more than
    one configuration's samples can keep, raise before anything is fitted."""
    if cfg.mc_enabled and not MIN_EMPIRICAL_TRIALS <= cfg.mc.trials <= MAX_KEPT_SAMPLES:
        raise ConfigError(f"monte_carlo.trials: the Monte Carlo metrics need between "
                          f"{MIN_EMPIRICAL_TRIALS} and {MAX_KEPT_SAMPLES}, got {cfg.mc.trials}")
    variable = cfg.sweep.variable
    metrics = _METRICS.get(variable, ("coverage", "capacity"))
    runs = list(_runs(cfg))
    fits = gamma_fits([(run.links, run.geometry) for run in runs], cfg.constellation)
    models = [ga for run, ga in zip(runs, fits) for _ in run.points]
    _, rho0s, rho_ths = zip(*(point for run in runs for point in run.points))
    analytic = {m: _analytic(m, models, rho0s, rho_ths) for m in metrics}
    # (estimate, stderr) of every simulated point per metric, in grid order
    mc: dict[str, list] = {m: [] for m in metrics}
    for group in _groups(cfg, runs) if cfg.mc_enabled else ():
        for run, sim in zip(group, _simulate(cfg, group)):
            for _, rho0, rho_th in run.points:
                at_rho0 = sim
                if rho0 != run.links.transmit_snr:
                    at_rho0 = dataclasses.replace(
                        sim, snr_samples=sim.snr_samples * (rho0 / run.links.transmit_snr))
                for m in metrics:
                    mc[m].append(empirical_coverage(at_rho0, rho_th) if m == "coverage"
                                 else empirical_capacity(at_rho0))
    values = cfg.sweep.grid
    alphas, betas = [ga.alpha for ga in models], [ga.beta for ga in models]
    tables = []
    for m in metrics:
        estimates, stderrs = zip(*mc[m]) if mc[m] else ((None,) * len(values),) * 2
        rows = tuple(zip(values, analytic[m], estimates, stderrs, alphas, betas))
        tables.append(SweepTable(variable=variable, metric=m, rows=rows))
    return tables


def _csv_line(row: tuple) -> str:
    """The format string of a CSV line with ``row``'s cell types, as
    csv.writer writes the cells' strings: an empty cell for None, .17g for
    a float, str() otherwise, CRLF at the end. Cells are numbers or None,
    none of which csv.writer quotes."""
    cells = ("" if v is None else f"{{{i}:.17g}}" if isinstance(v, float) else f"{{{i}}}"
             for i, v in enumerate(row))
    return ",".join(cells) + "\r\n"


def write_table(table: SweepTable, directory: Path, fmt: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = directory / f"{table.metric}.csv"
        formats = {}  # the format string of each row's cell types
        lines = [",".join(HEADER) + "\r\n"]
        for row in table.rows:
            kinds = tuple(map(type, row))
            line = formats.get(kinds)
            if line is None:
                line = formats[kinds] = _csv_line(row)
            lines.append(line.format(*row))
        path.write_text("".join(lines), encoding="utf-8", newline="")
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
        yaml.dump(resolved_mapping(cfg), Dumper=_DUMPER, sort_keys=False), encoding="utf-8")
    return RunSummary(tables=tuple(tables), paths=paths, resolved_path=resolved_path)
