"""Scenario execution: evaluate the analytic metrics over a sweep grid,
optionally cross-check each point with the link simulator, and write
schema-stable tables.

Table schema (fixed): sweep_value, analytic_metric, mc_metric, mc_stderr,
alpha, beta. One table per metric; Monte Carlo columns are empty when
simulation is off.

A sweep runs its scenario's plan (scenario.plan, held as cfg.plan and
built when the config is made): each point's links, geometry, rho0 and
rho_th, each point's Gamma fit, and the simulations. Nothing here walks
the grid, fits or groups points, or branches on a variable's name. Each
analytic column is evaluated over every point in one array pass
(metrics.coverage_probabilities, metrics.ergodic_capacities) before any
simulation. A simulation draws from child i of
SeedSequence(monte_carlo.seed), i the index of its first point, so the
resolved echo reproduces the tables. The plan keeps the element-sum
tables its simulations build (SweepPlan.tables), so a config's later runs,
and those of every config made from it with the plan's inputs unchanged,
build none; SimResult.elapsed counts a build only in the run that made it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# gamma_approx stays importable here for callers that trace the fit by
# module attribute, as the benchmark does
from .channel import gamma_approx  # noqa: F401
from .errors import ConfigError
from .metrics import coverage_probabilities, ergodic_capacities
from .geometry import CylinderGeometry
from .montecarlo import SimResult, simulate_snr
from .scenario import VARIABLES, ScenarioConfig, load_scenario, resolved_mapping

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


def _simulate(cfg: ScenarioConfig, tables: dict, first: int, geom: CylinderGeometry,
              rows: list, points: list) -> SimResult:
    """One simulation of the last row's links with the others nested, from
    child ``first`` of SeedSequence(cfg.mc.seed), tallying ``points``."""
    child = np.random.SeedSequence(cfg.mc.seed, spawn_key=(first,))
    opts = dataclasses.replace(cfg.mc, seed=int(child.generate_state(1)[0]))
    return simulate_snr(rows[-1], geom, cfg.constellation, opts, nested=tuple(rows[:-1]),
                        points=points, tables=tables)


def _analytic(metric: str, models: list, rho0: tuple, rho_th: tuple) -> list[float]:
    """The metric at every point of the sweep, in one batch call."""
    if metric == "coverage":
        return coverage_probabilities(models, rho_th, rho0).tolist()
    return ergodic_capacities(models, rho0)[0].tolist()


def sweep(cfg: ScenarioConfig) -> list[SweepTable]:
    """Evaluate the scenario's metrics over its plan, which a config made
    from a loaded one shares while the plan's inputs are unchanged: each
    metric at every point in one batch, then each of the plan's simulations,
    which add to the plan only the element-sum tables it lacks. The config
    checked its points and its trial count when it was made."""
    points, fits, simulations, sum_tables, _ = cfg.plan
    variable = cfg.sweep.variable
    metrics = VARIABLES[variable].metrics
    _, _, rho0s, rho_ths = zip(*points)
    analytic = {m: _analytic(m, fits, rho0s, rho_ths) for m in metrics}
    # (estimate, stderr) of every simulated point per metric, in grid order;
    # SimResult names its per-point estimates after the metrics
    mc: dict[str, list] = {m: [] for m in metrics}
    for simulation in simulations if cfg.mc_enabled else ():
        sim = _simulate(cfg, sum_tables, *simulation)
        for m in metrics:
            mc[m].extend(getattr(sim, m))
    values = cfg.sweep.grid
    alphas, betas = [ga.alpha for ga in fits], [ga.beta for ga in fits]
    tables = []
    for m in metrics:
        estimates, stderrs = zip(*mc[m]) if mc[m] else ((None,) * len(values),) * 2
        rows = tuple(zip(values, analytic[m], estimates, stderrs, alphas, betas))
        tables.append(SweepTable(variable=variable, metric=m, rows=rows))
    return tables


def write_table(table: SweepTable, directory: Path, fmt: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = directory / f"{table.metric}.csv"
        # what csv.writer writes for cells that are numbers or None, none of
        # which it quotes: an empty cell for None, .17g for a float, str()
        # otherwise, CRLF line ends
        lines = [",".join(HEADER)]
        lines += (",".join(["" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
                            for v in row]) for row in table.rows)
        path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
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
