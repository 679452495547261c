"""Command-line runner.

    leoris run <config> [--out DIR] [--format csv|json] [--mc | --no-mc]
                        [--seed S] [--workers W]
    leoris sweep <config> --var {rho_th,rho0,N,L,R0,H} --grid SPEC
                        [--mc | --no-mc] [--seed S] [--workers W]
                        [--format csv|json] [--out DIR]

Grid specs are comma lists ("0,10,20,40") or start:stop:points ("0:40:10"),
each point checked by its --var's setter in scenario.VARIABLES, and by
its Gamma fit, before anything runs. Threshold and transmit-SNR
grids are in dB; N and L are counts; R0 and H are meters. Every option
except --out overrides the scenario, so the resolved echo written next
to the tables records the run. A scenario, option or file that cannot be
used prints one error line and exits with status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError, DomainError, LeorisError
from .runner import run_scenario
from .scenario import SWEEP_VARIABLES, SweepSpec, load_scenario, parse_grid


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leoris",
        description="Coverage and capacity of RIS-assisted LEO downlinks: "
                    "closed forms cross-checked by link simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="scenario YAML file")
        p.add_argument("--out", help="output directory (default: from the scenario)")
        p.add_argument("--format", choices=("csv", "json"),
                       help="output format (default: from the scenario)")
        p.add_argument("--seed", type=int, help="override the Monte Carlo seed")
        p.add_argument("--workers", type=int,
                       help="override the number of simulation threads; the same "
                            "config and seed give identical output at any count")
        p.add_argument("--mc", dest="mc", action="store_true", default=None,
                       help="run the Monte Carlo cross-check")
        p.add_argument("--no-mc", dest="mc", action="store_false",
                       help="skip the Monte Carlo cross-check")

    run_p = sub.add_parser("run", help="run the scenario's configured sweep")
    common(run_p)

    sweep_p = sub.add_parser("sweep", help="sweep one variable over a grid")
    common(sweep_p)
    sweep_p.add_argument("--var", required=True, choices=SWEEP_VARIABLES,
                         help="variable to sweep")
    sweep_p.add_argument("--grid", required=True,
                         help="comma list or start:stop:points")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_scenario(args.config)
        mc = cfg.mc
        for name in ("seed", "workers"):
            if getattr(args, name) is not None:
                try:
                    mc = dataclasses.replace(mc, **{name: getattr(args, name)})
                except DomainError as exc:
                    raise ConfigError(f"--{name}: {exc}") from None
        changes = {"mc": mc, "mc_enabled": args.mc}
        if args.format is not None:
            changes["output"] = dataclasses.replace(cfg.output, format=args.format)
        if args.command == "sweep":
            changes["sweep"] = SweepSpec(args.var, parse_grid(args.grid, "--grid"), "--grid")
        cfg = dataclasses.replace(cfg, **{k: v for k, v in changes.items() if v is not None})
        summary = run_scenario(cfg, out_dir=args.out)
    except (LeorisError, OSError) as exc:  # OSError: a scenario or output path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in summary.paths:
        print(path)
    print(summary.resolved_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
