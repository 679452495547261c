"""Seed replicates of a scenario's Monte Carlo cross-check: how far the
simulated metrics spread across seeds, next to the standard errors each
run reports and to the closed form.

    PYTHONPATH=src python scripts/seed_replicates.py <config> --replicates K
        [--seed S] [--out DIR]

The scenario loads once and runs at seeds S, S + 1, ..., S + K - 1 (S the
scenario's seed unless given), each as dataclasses.replace(cfg, mc=...).
A config made from a loaded one keeps its sweep plan while the plan's
inputs are unchanged, as here: its points, its fits and its element-sum
tables serve every replicate, so only the first builds tables. Replicate
S + k writes to DIR/seed<S+k>/ the bytes `leoris run <config> --mc
--seed <S+k>` writes. DIR/replicates.csv then gives, per metric and sweep
value, the closed form, the mean of the replicates' estimates, their
sample standard deviation (mc_spread) and the root mean square of their
reported standard errors (mc_stderr_rms). Where the reported errors are
honest, mc_spread / mc_stderr_rms scatters about 1, by about
1 / sqrt(2 (K - 1)). A scenario, option or file that cannot be used
prints one error line and exits with status 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from leoris import load_scenario, run_scenario
from leoris.errors import ConfigError, DomainError, LeorisError

HEADER = ("metric", "sweep_value", "analytic_metric", "mc_mean", "mc_spread", "mc_stderr_rms")


def replicate(config: str | Path, replicates: int, seed: int | None = None,
              out: str | Path | None = None) -> Path:
    """Run ``replicates`` seeds of one loaded scenario, write each run's
    outputs and the summary table; return the summary's path."""
    if replicates < 2:
        raise ConfigError(f"--replicates: needs at least 2 for a spread, got {replicates}")
    cfg = load_scenario(config)
    try:
        mc = cfg.mc if seed is None else dataclasses.replace(cfg.mc, seed=seed)
    except DomainError as exc:
        raise ConfigError(f"--seed: {exc}") from None
    out = Path(out if out is not None else cfg.output.directory)
    runs = [run_scenario(dataclasses.replace(cfg, mc=dataclasses.replace(mc, seed=mc.seed + k),
                                             mc_enabled=True),
                         out_dir=out / f"seed{mc.seed + k}").tables
            for k in range(replicates)]
    rows = []
    for tables in zip(*runs):  # one metric's table from every replicate
        for points in zip(*(table.rows for table in tables)):
            value, analytic = points[0][:2]
            estimates = np.array([point[2] for point in points])
            stderrs = np.array([point[3] for point in points])
            rows.append((tables[0].metric, value, analytic, float(estimates.mean()),
                         float(estimates.std(ddof=1)), float(np.sqrt(np.mean(stderrs ** 2)))))
    path = out / "replicates.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows(rows)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="scenario YAML file")
    parser.add_argument("--replicates", type=int, required=True, help="number of seeds, K >= 2")
    parser.add_argument("--seed", type=int, help="first seed (default: from the scenario)")
    parser.add_argument("--out", help="output directory (default: from the scenario)")
    args = parser.parse_args(argv)
    try:
        path = replicate(args.config, args.replicates, args.seed, args.out)
    except (LeorisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
