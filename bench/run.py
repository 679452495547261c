"""Benchmark of leoris: end-to-end sweep metrics and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload is a scenario file in
bench/workloads/ that goes through the public API (load_scenario, then
run_scenario, repeated for S seconds) in a fresh interpreter that imports
leoris from this checkout's src/. The seed replaces the scenario's Monte
Carlo seed. Set-up time is taken from several fresh interpreters and its
median reported.

With --trace 0 the last output line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics, as
{"correct", "attempted", "failed", "metrics"}; attempted and failed count
sweep points over all repetitions. Lines before it name each metric with
its unit, the failed share, the machine and any failed check. Full
records and traced spans go to .bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = BENCH / "workloads"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
IMPORTTIME_PROBES = 3
PROBE_TIMEOUT_S = 60.0
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(job: dict, timeout: float, flags: tuple[str, ...] = (),
          capture_stderr: bool = False) -> tuple[dict, str]:
    """Run worker.py in a fresh interpreter; returns its JSON result and,
    when captured, its standard error. Kills its whole process group and
    waits for it if it overruns ``timeout``."""
    job = dict(job, spawned=time.clock_gettime(time.CLOCK_MONOTONIC))
    proc = subprocess.Popen(
        [sys.executable, *flags, str(BENCH / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE if capture_stderr else None,
        cwd=ROOT, env=child_env(), text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker overran {timeout:.0f} s") from None
    if proc.returncode != 0:
        if err:
            sys.stderr.write(err)
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), err or ""


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                out[name.strip()] = int(cumulative) / 1e6
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    begin = time.monotonic()
    scenario = WORKLOADS / f"{name}.yaml"
    if not scenario.is_file():
        raise BenchError(f"unknown workload {name!r}")
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    job = {"root": str(ROOT), "scenario": str(scenario), "seed": seed,
           "seconds": seconds, "trace": trace, "out_dir": str(out_dir)}
    probe = dict(job, setup_only=True)
    if trace:
        probes = [spawn(probe, PROBE_TIMEOUT_S, ("-X", "importtime"), capture_stderr=True)
                  for _ in range(IMPORTTIME_PROBES)]
        setup_metrics = {
            "setup.import_s": statistics.median(p["import_s"] for p, _ in probes),
            "setup.import_scipy_stats_s": statistics.median(
                import_times(err).get("scipy.stats", 0.0) for _, err in probes),
            "scenario.load_scenario_s": statistics.median(p["load_s"] for p, _ in probes),
        }
    else:
        kernels = [calibrate.kernel_seconds()]
        setups = []
        for _ in range(SETUP_PROBES):
            setups.append(spawn(probe, PROBE_TIMEOUT_S)[0]["setup_s"])
            kernels.append(calibrate.kernel_seconds())
    result, _ = spawn(job, DEADLINE_S - (time.monotonic() - begin))
    metrics = dict(result["metrics"])
    raw = {}
    if trace:
        metrics.update(setup_metrics)
    else:
        # the measuring interpreter's own set-up follows the last kernel run
        setups.append(result["setup"]["setup_s"])
        kernels.append(kernels[-1])
        metrics["setup_s"] = statistics.median(
            calibrate.scaled(t, k0, k1) for t, k0, k1 in zip(setups, kernels, kernels[1:]))
        raw = {"setup_s": statistics.median(setups),
               "run_s": statistics.median(result["run_seconds"]),
               "kernel_s": statistics.median(kernels)}
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "raw": raw, "problems": result["problems"], "tables_sha256": result["digest"],
        "run_seconds": result["run_seconds"], "scaled_run_seconds": result["scaled_run_seconds"],
        "environment": result["environment"],
    }
    (out_dir / f"result_trace{int(trace)}_seed{seed}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def report(record: dict) -> None:
    share = record["failed"] / record["attempted"]
    print(f"{record['workload']} (seed {record['seed']}, trace {int(record['trace'])}): "
          f"{len(record['run_seconds'])} runs, failed_share {share:.6g} "
          f"({record['failed']}/{record['attempted']} points)")
    for name, m in record["metrics"].items():
        raw = f" (raw {record['raw'][name]:.6g})" if name in record["raw"] else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{raw}")
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  environment: {json.dumps(record['environment'])}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = sorted(p.stem for p in WORKLOADS.glob("*.yaml"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "leoris" / "__init__.py").is_file():
        print(f"error: no leoris sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    try:
        if args.workload != "all":
            record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
            report(record)
            print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0
        records = {}
        for name in names:
            records[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            report(records[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                      for name, r in records.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
