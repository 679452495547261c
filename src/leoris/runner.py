"""Scenario execution: evaluate the analytic metrics over a sweep grid,
optionally cross-check each point with the link simulator, and write
schema-stable tables.

Table schema (fixed): sweep_value, analytic_metric, mc_metric, mc_stderr,
alpha, beta. One table per metric; Monte Carlo columns are empty when
simulation is off.

A sweep is one loop over the grid. scenario.VARIABLES says what its
variable means: the tables to write, and each point's (links, geometry,
rho0, rho_th) through scenario.sweep_points; nothing here branches on a
variable's name. Consecutive points with equal links and geometry form a
run with one Gamma fit. All runs are fitted in one batch
(channel.gamma_fits), and each analytic column is evaluated over every
point in one array pass (metrics.coverage_probabilities,
metrics.ergodic_capacities), before any simulation. Threshold and
transmit-SNR points keep the base links, so those sweeps are one run.
Consecutive runs on one geometry whose links nest (montecarlo.is_nested),
as in every ascending N or L sweep, share one simulation of the last
run's links, which tallies each point's coverage and capacity on its
run's row at the point's rho0 and rho_th. A group's simulation draws
from child i of SeedSequence(monte_carlo.seed), i the index of its first
point, so the resolved echo reproduces the tables.
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
from .montecarlo import MAX_KEPT_SAMPLES, MIN_EMPIRICAL_TRIALS, SimResult, is_nested, simulate_snr
from .scenario import VARIABLES, ScenarioConfig, load_scenario, resolved_mapping, sweep_points

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


class _Run(NamedTuple):
    """Consecutive grid points that share links and geometry."""

    first: int  # index of the first point in the grid
    links: LinkConfig
    geometry: CylinderGeometry
    points: list[tuple[float, float, float]]  # (sweep value, rho0, rho_th)


def _runs(cfg: ScenarioConfig) -> Iterator[_Run]:
    run = None
    for i, (value, (links, geom, rho0, rho_th)) in enumerate(zip(cfg.sweep.grid,
                                                                 sweep_points(cfg))):
        if run is None or (links, geom) != (run.links, run.geometry):
            if run is not None:
                yield run
            run = _Run(i, links, geom, [])
        run.points.append((value, rho0, rho_th))
    yield run


def _groups(runs: Iterable[_Run]) -> Iterator[list[_Run]]:
    """Consecutive runs that one simulation can serve: same geometry, each
    run's links nested in the next run's."""
    group: list[_Run] = []
    for run in runs:
        if group and (run.geometry != group[-1].geometry
                      or not is_nested(group[-1].links, run.links)):
            yield group
            group = []
        group.append(run)
    yield group


def _simulate(cfg: ScenarioConfig, group: list[_Run]) -> SimResult:
    """One simulation on the last run's links with the others nested, from
    child (index of the group's first point) of SeedSequence(cfg.mc.seed),
    tallying each point of the group on its run's row."""
    child = np.random.SeedSequence(cfg.mc.seed, spawn_key=(group[0].first,))
    opts = dataclasses.replace(cfg.mc, seed=int(child.generate_state(1)[0]))
    last = group[-1]
    return simulate_snr(last.links, last.geometry, cfg.constellation, opts,
                        nested=tuple(run.links for run in group[:-1]),
                        points=[(row, rho0, rho_th) for row, run in enumerate(group)
                                for _, rho0, rho_th in run.points])


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
    nested runs. Too few trials for the Monte Carlo metrics, or more than
    a simulation keeps samples of, raise before anything is fitted."""
    if cfg.mc_enabled and not MIN_EMPIRICAL_TRIALS <= cfg.mc.trials <= MAX_KEPT_SAMPLES:
        raise ConfigError(f"monte_carlo.trials: the Monte Carlo metrics need between "
                          f"{MIN_EMPIRICAL_TRIALS} and {MAX_KEPT_SAMPLES}, got {cfg.mc.trials}")
    runs = list(_runs(cfg))
    variable = cfg.sweep.variable
    metrics = VARIABLES[variable].metrics
    fits = gamma_fits([(run.links, run.geometry) for run in runs], cfg.constellation)
    models = [ga for run, ga in zip(runs, fits) for _ in run.points]
    _, rho0s, rho_ths = zip(*(point for run in runs for point in run.points))
    analytic = {m: _analytic(m, models, rho0s, rho_ths) for m in metrics}
    # (estimate, stderr) of every simulated point per metric, in grid order;
    # SimResult names its per-point estimates after the metrics
    mc: dict[str, list] = {m: [] for m in metrics}
    for group in _groups(runs) if cfg.mc_enabled else ():
        sim = _simulate(cfg, group)
        for m in metrics:
            mc[m].extend(getattr(sim, m))
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
