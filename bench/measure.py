"""Repetitions, correctness checks, tracing and standalone layer
throughput for one workload, run inside the worker interpreter.

End-to-end figures come from untraced repetitions of ``run_scenario``.
A traced run (``trace``) repeats the untraced repetitions for half of its
budget, then traces the other half, and adds standalone throughput of
the samplers and the simulator at the workload's input sizes.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import platform
import resource
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import calibrate
import checks
from tracing import Tracer, patch_public

MIN_REPS = 3
MIN_TRACED_REPS = 2
SAMPLER_SECONDS = 0.2
STANDALONE_TRIALS = 25_000
STANDALONE_EXACT_TRIALS = 1_000
STANDALONE_REPEATS = 3
SAMPLERS = (
    "fading.sample_envelope",
    "geometry.sample_nearest_sat_distance",
    "geometry.sample_ris_distances",
    "geometry.sample_ris_positions",
    "geometry.sample_constellation",
)
OBSERVE = {name: np.size for name in SAMPLERS}
OBSERVE["metrics.ergodic_capacity"] = lambda result: result.fallback
OBSERVE["montecarlo.simulate_snr"] = lambda result: result.trials


@dataclass
class Rep:
    seconds: float
    scaled_seconds: float  # at the reference speed (see calibrate.py)
    digest: str | None  # None when the run raised
    tables: tuple | None  # kept for the repetition that is checked
    simulations: list


class Capture:
    """Keeps the (arguments, result) of every simulate_snr call of a run,
    so the checks can compare the simulated moments with the closed form."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def wrap(self, layer: str, fn):
        if layer != "montecarlo.simulate_snr":
            return fn

        @functools.wraps(fn)
        def capturing(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.append((args, result))
            return result

        return capturing


def run_reps(leoris, cfg, out_dir: Path, budget: float, min_reps: int,
             capture: Capture, reps: list[Rep]) -> list[Rep]:
    """Repeat run_scenario until ``budget`` seconds and ``min_reps`` runs
    are both reached, timing the calibration kernel between runs; appends
    to and returns ``reps``."""
    added: list[Rep] = []
    begin = perf_counter()
    kernel = calibrate.kernel_seconds()
    while len(added) < min_reps or perf_counter() - begin < budget:
        capture.calls = []
        t = perf_counter()
        try:
            summary = leoris.run_scenario(cfg, out_dir=out_dir)
        except Exception:  # a raising run fails its points; keep measuring
            traceback.print_exc()
            summary = None
        seconds = perf_counter() - t
        previous, kernel = kernel, calibrate.kernel_seconds()
        scaled = calibrate.scaled(seconds, previous, kernel)
        if summary is None:
            added.append(Rep(seconds, scaled, None, None, []))
            continue
        digest = checks.digest(summary.paths + (summary.resolved_path,))
        keep = all(r.tables is None for r in reps + added)
        added.append(Rep(seconds, scaled, digest, summary.tables if keep else None,
                         capture.calls if keep else []))
    reps.extend(added)
    return added


def count_failures(leoris, cfg, reps: list[Rep]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all repetitions, in sweep points.

    The first repetition that ran is checked in full; every other one
    must have written byte-identical tables, or all its points fail.
    """
    points = len(cfg.sweep.grid)
    reference = next((r for r in reps if r.tables is not None), None)
    problems: list[str] = []
    checked_failed = points
    if reference is not None:
        per_point = checks.check_tables(cfg, reference.tables, reference.simulations, leoris)
        checked_failed = sum(1 for p in per_point if p)
        problems = [msg for p in per_point for msg in p]
    failed = 0
    for r in reps:
        if reference is None or r.digest != reference.digest:
            failed += points
            problems.append("a repetition raised" if r.digest is None
                            else "a repetition wrote different tables")
        else:
            failed += checked_failed
    return points * len(reps), failed, problems


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus ``workers`` times that of
    its largest pool child (an upper bound when children run at once)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def src_lines(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((root / "src" / "leoris").rglob("*.py")))


def layer_metrics(tracer: Tracer, reps: int) -> dict[str, float]:
    """Per-repetition layer figures from the traced repetitions."""
    spans = tracer.summary()
    observed = tracer.observed

    def calls(layer: str) -> float:
        return spans[layer]["calls"] / reps if layer in spans else 0.0

    def total(layer: str) -> float:
        return spans[layer]["total_s"] / reps if layer in spans else 0.0

    def own(layer: str) -> float:
        return spans[layer]["self_s"] / reps if layer in spans else 0.0

    def per_call_us(layer: str) -> float:
        return 1e6 * total(layer) / calls(layer) if calls(layer) else 0.0

    capacity_us = (spans["metrics.ergodic_capacity"]["durations"] * 1e6
                   if "metrics.ergodic_capacity" in spans else np.zeros(0))
    trials = observed.get("montecarlo.simulate_snr", 0.0)
    variates = sum(observed.get(s, 0.0) for s in SAMPLERS)
    out = {
        "runner.sweep_self_s": own("runner.sweep"),
        "runner.write_s": total("runner.write_table"),
        "runner.simulate_calls": calls("montecarlo.simulate_snr"),
        "runner.gamma_approx_calls": calls("channel.gamma_approx"),
        "channel.gamma_approx_calls": calls("channel.gamma_approx"),
        "channel.gamma_approx_self_s": own("channel.gamma_approx"),
        "channel.gamma_approx_us": per_call_us("channel.gamma_approx"),
        "fading.envelope_moment_calls": calls("fading.envelope_moment"),
        "fading.envelope_moment_s": total("fading.envelope_moment"),
        "fading.sample_envelope_draws": observed.get("fading.sample_envelope", 0.0) / reps,
        "fading.sample_envelope_s": total("fading.sample_envelope"),
        "geometry.sat_distance_moment_calls": calls("geometry.sat_distance_moment"),
        "geometry.sat_distance_moment_s": total("geometry.sat_distance_moment"),
        "geometry.ris_distance_moment_calls": calls("geometry.ris_distance_moment"),
        "geometry.ris_distance_moment_s": total("geometry.ris_distance_moment"),
        "geometry.sample_constellation_calls": calls("geometry.sample_constellation"),
        "geometry.sample_constellation_s": total("geometry.sample_constellation"),
        "metrics.coverage_probability_s": total("metrics.coverage_probability"),
        "metrics.ergodic_capacity_s": total("metrics.ergodic_capacity"),
        "metrics.ergodic_capacity_p50_us":
            float(np.percentile(capacity_us, 50)) if capacity_us.size else 0.0,
        "metrics.ergodic_capacity_p99_us":
            float(np.percentile(capacity_us, 99)) if capacity_us.size else 0.0,
        "metrics.capacity_quadrature_calls": calls("metrics.capacity_quadrature"),
        "metrics.capacity_fallback_share":
            observed.get("metrics.ergodic_capacity", 0.0) / (calls("metrics.ergodic_capacity") * reps)
            if calls("metrics.ergodic_capacity") else 0.0,
        "montecarlo.simulate_snr_s": total("montecarlo.simulate_snr"),
        "montecarlo.variates_per_trial": variates / trials if trials else 0.0,
        "montecarlo.empirical_s": (total("montecarlo.empirical_coverage")
                                   + total("montecarlo.empirical_capacity")),
    }
    for fn in ("kummer_1f1", "exp_integral_nu", "generalized_pfq", "reg_lower_inc_gamma"):
        out[f"specfun.{fn}_calls"] = calls(f"specfun.{fn}")
        out[f"specfun.{fn}_s"] = total(f"specfun.{fn}")
    return out


def _draws_per_s(draw) -> float:
    count = 0
    begin = perf_counter()
    while True:
        count += np.size(draw())
        elapsed = perf_counter() - begin
        if elapsed >= SAMPLER_SECONDS:
            return count / elapsed


def standalone(leoris, cfg, seed: int) -> dict[str, float]:
    """Sampler draws/s and simulate_snr trials/s at the workload's sizes,
    and the KS distance between the simulated |A| and its Gamma model."""
    rng = np.random.default_rng(seed)
    n = min(cfg.mc.trials, 65536)
    link, geom, con = cfg.links.ris[0], cfg.geometry, cfg.constellation
    out = {
        "fading.sample_envelope_draws_per_s.sat_hop": _draws_per_s(
            lambda: leoris.sample_envelope(link.sat_fading, rng, (n, link.elements))),
        "fading.sample_envelope_draws_per_s.user_hop": _draws_per_s(
            lambda: leoris.sample_envelope(link.user_fading, rng, (n, link.elements))),
        "fading.sample_envelope_draws_per_s.direct": _draws_per_s(
            lambda: leoris.sample_envelope(cfg.links.direct.fading, rng, n)),
        "geometry.sample_nearest_sat_distance_draws_per_s": _draws_per_s(
            lambda: leoris.sample_nearest_sat_distance(con, rng, n)),
        "geometry.sample_ris_distances_draws_per_s": _draws_per_s(
            lambda: leoris.geometry.sample_ris_distances(geom, rng, n)),
    }

    def simulate(trials: int, workers: int, exact: bool):
        """Median trials/s over a few calls, and the last call's result."""
        opt = leoris.SimOptions(trials=trials, seed=seed, workers=workers,
                                exact_per_ris_sat_distance=exact)
        rates = []
        for _ in range(STANDALONE_REPEATS):
            t = perf_counter()
            result = leoris.simulate_snr(cfg.links, geom, con, opt)
            rates.append(trials / (perf_counter() - t))
        return statistics.median(rates), result

    trials = min(cfg.mc.trials, STANDALONE_TRIALS)
    one, independent = simulate(trials, 1, False)
    two, _ = simulate(trials, 2, False)
    exact_rate, exact = simulate(min(cfg.mc.trials, STANDALONE_EXACT_TRIALS), 1, True)
    out["montecarlo.simulate_snr_trials_per_s_1w"] = one
    out["montecarlo.simulate_snr_trials_per_s_2w"] = two
    out["montecarlo.simulate_snr_trials_per_s_exact"] = exact_rate
    out["montecarlo.scaling_efficiency"] = two / (2.0 * one)
    sim = exact if cfg.mc.exact_per_ris_sat_distance else independent
    ga = leoris.gamma_approx(cfg.links, geom, con)
    amp = np.sqrt(sim.snr_samples / cfg.links.transmit_snr)
    out["channel.gamma_fit_ks"] = checks.ks_distance(amp, ga.alpha, ga.beta)
    return out


def measure(leoris, cfg, job: dict, setup: dict) -> dict:
    """Run one workload; returns setup, counts, metrics and environment."""
    root = Path(job["root"])
    out_dir = Path(job["out_dir"])
    seconds, trace = float(job["seconds"]), bool(job["trace"])
    mc = dataclasses.replace(cfg.mc, seed=int(job["seed"]))
    if trace:
        # pool workers are out of the tracer's reach: trace in one process
        mc = dataclasses.replace(mc, workers=1)
    cfg = dataclasses.replace(cfg, mc=mc)

    capture = Capture()
    restore_capture = patch_public(leoris, capture.wrap)
    reps: list[Rep] = []
    try:
        untraced = run_reps(leoris, cfg, out_dir / "tables", seconds / 2 if trace else seconds,
                            MIN_REPS, capture, reps)
        run_s = statistics.median(r.seconds for r in untraced)
        if not trace:
            scaled_run_s = statistics.median(r.scaled_seconds for r in untraced)
            metrics = {
                "run_s": scaled_run_s,
                "points_per_s": len(cfg.sweep.grid) / scaled_run_s,
                "peak_rss_mb": peak_rss_mb(cfg.mc.workers if cfg.mc_enabled else 0),
            }
        else:
            reference = next((r for r in reps if r.tables is not None), None)
            trials = sum(res.trials for _, res in reference.simulations) if reference else 0
            tracer = Tracer(OBSERVE)
            restore_tracer = tracer.install(leoris)
            try:
                traced = run_reps(leoris, cfg, out_dir / "tables", seconds / 2,
                                  MIN_TRACED_REPS, capture, reps)
            finally:
                restore_tracer()
            tracer.write(out_dir / "spans.npz")
            metrics = layer_metrics(tracer, len(traced))
            metrics["tracing_overhead_s"] = (statistics.median(r.seconds for r in traced)
                                             - run_s)
            metrics["montecarlo.trials_per_s"] = trials / run_s
            metrics["src_lines"] = src_lines(root)
    finally:
        restore_capture()
    attempted, failed, problems = count_failures(leoris, cfg, reps)
    if trace:
        metrics.update(standalone(leoris, cfg, int(job["seed"])))
    return {
        "setup": setup,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "digest": next((r.digest for r in reps if r.tables is not None), None),
        "run_seconds": [r.seconds for r in reps],
        "scaled_run_seconds": [r.scaled_seconds for r in reps],
        "metrics": metrics,
        "environment": environment(),
    }
