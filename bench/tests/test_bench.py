"""Tests of the benchmark's own code.

    python3 -m pytest bench/tests
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

import leoris
from leoris.scenario import SweepSpec

import checks
import measure
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ROOT / "bench" / "workloads"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _leoris_names() -> dict:
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if mod is not None and (name == "leoris" or name.startswith("leoris."))
            for attr, value in vars(mod).items()}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    cfg = leoris.load_scenario(WORKLOADS / "analytic_sweep.yaml")
    cfg = dataclasses.replace(cfg, sweep=SweepSpec("R0", (60.0, 120.0, 300.0)))
    summary = leoris.run_scenario(cfg, out_dir=tmp_path_factory.mktemp("tables"))
    return cfg, summary


def _with_row(tables, metric: str, index: int, column: int, value):
    out = []
    for table in tables:
        rows = list(table.rows)
        if table.metric == metric:
            row = list(rows[index])
            row[column] = value
            rows[index] = tuple(row)
        out.append(dataclasses.replace(table, rows=tuple(rows)))
    return tuple(out)


def test_every_workload_is_declared_and_loads():
    files = sorted(p.stem for p in WORKLOADS.glob("*.yaml"))
    assert files == sorted(w["name"] for w in SPEC["workloads"])
    for name in files:
        cfg = leoris.load_scenario(WORKLOADS / f"{name}.yaml")
        assert cfg.links.ris, name


def test_threshold_workload_is_the_recorded_default():
    assert (leoris.load_scenario(WORKLOADS / "threshold_mc.yaml")
            == leoris.load_scenario(ROOT / "configs" / "default.yaml"))


def test_layer_map_covers_exactly_the_per_layer_metrics():
    mapping = json.loads((ROOT / "bench" / "layer_map.json").read_text(encoding="utf-8"))
    assert set(mapping) == {m["name"] for m in SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for name, entry in mapping.items():
        assert entry["end_to_end"] in end_to_end | {None}, name
        assert set(entry["workloads"]) <= workloads, name


def test_clean_tables_pass_every_check(small_run):
    cfg, summary = small_run
    problems = checks.check_tables(cfg, summary.tables, [], leoris)
    assert problems == [[], [], []]


@pytest.mark.parametrize("metric,column,change", [
    ("coverage", 1, lambda v: v + 1e-6),
    ("capacity", 1, lambda v: v * (1 + 1e-4)),
    ("capacity", 4, lambda v: math.nan),
    ("coverage", 5, lambda v: -v),
])
def test_a_corrupted_row_raises_failed_share(small_run, metric, column, change):
    cfg, summary = small_run
    rows = {t.metric: t.rows for t in summary.tables}
    bad = _with_row(summary.tables, metric, 1, column, change(rows[metric][1][column]))
    problems = checks.check_tables(cfg, bad, [], leoris)
    assert [bool(p) for p in problems] == [False, True, False]
    reps = [measure.Rep(1.0, 1.0, "same", bad, []), measure.Rep(1.0, 1.0, "same", None, [])]
    attempted, failed, _ = measure.count_failures(leoris, cfg, reps)
    assert (attempted, failed) == (6, 2)


def test_differing_or_raising_repetitions_fail_all_their_points(small_run):
    cfg, summary = small_run
    reps = [measure.Rep(1.0, 1.0, "a", summary.tables, []), measure.Rep(1.0, 1.0, "b", None, []),
            measure.Rep(1.0, 1.0, None, None, [])]
    attempted, failed, problems = measure.count_failures(leoris, cfg, reps)
    assert (attempted, failed) == (9, 6)
    assert len(problems) == 2


def test_simulated_moments_are_checked_against_the_closed_form():
    cfg = leoris.load_scenario(WORKLOADS / "threshold_mc.yaml")
    opt = leoris.SimOptions(trials=20_000, seed=3)
    args = (cfg.links, cfg.geometry, cfg.constellation, opt)
    result = leoris.simulate_snr(*args)
    assert checks.check_simulation(leoris, args, result) == []
    shifted = dataclasses.replace(result, abs_mean=result.abs_mean * 1.2)
    assert checks.check_simulation(leoris, args, shifted)
    inflated = dataclasses.replace(result, abs_var=result.abs_var * 1.5)
    assert checks.check_simulation(leoris, args, inflated)


@pytest.mark.parametrize("alpha", [0.6, 3.0, 12.5, 400.0])
def test_capacity_oracle_matches_a_high_precision_integral(alpha):
    # the package's own quadrature loses the narrow peak at alpha = 400
    mpmath = pytest.importorskip("mpmath")
    beta, rho0 = 2e-7 / alpha, 1e14
    c = rho0 * beta * beta
    width = 10 * math.sqrt(alpha) + 20
    points = [0, max(alpha - 1 - width, 0), max(alpha - 1, 0), alpha - 1 + width, mpmath.inf]
    expected = mpmath.quad(
        lambda y: mpmath.log1p(c * y * y)
        * mpmath.exp((alpha - 1) * mpmath.log(y) - y - mpmath.loggamma(alpha)),
        sorted(set(points))) / mpmath.log(2)
    assert checks.capacity_oracle(alpha, beta, rho0) == pytest.approx(float(expected), rel=1e-9)


def test_tracing_records_nested_spans_and_restores_every_original():
    cfg = leoris.load_scenario(WORKLOADS / "threshold_mc.yaml")
    before = _leoris_names()
    tracer = Tracer(measure.OBSERVE)
    restore = tracer.install(leoris)
    try:
        assert leoris.channel.envelope_moment is not before[("leoris.channel", "envelope_moment")]
        assert leoris.runner.gamma_approx is leoris.channel.gamma_approx
        ga = leoris.gamma_approx(cfg.links, cfg.geometry, cfg.constellation)
        leoris.ergodic_capacity(ga, cfg.rho0)
    finally:
        restore()
    after = _leoris_names()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    spans = tracer.summary()
    assert spans["channel.gamma_approx"]["calls"] == 1
    assert spans["fading.envelope_moment"]["calls"] > 0
    assert tracer.observed["metrics.ergodic_capacity"] == 0.0  # no fallback
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    root_time = sum(tracer.end[i] - tracer.start[i] for i in roots)
    assert sum(s["self_s"] for s in spans.values()) == pytest.approx(root_time)
    layer = tracer.layers.index("fading.envelope_moment")
    first = list(tracer.layer_of).index(layer)
    chain = []
    i = first
    while i >= 0:
        chain.append(tracer.layers[tracer.layer_of[i]])
        i = tracer.parent[i]
    assert chain[-1] == "channel.gamma_approx"


def test_ks_distance_is_small_for_the_model_and_large_for_another():
    import numpy as np

    rng = np.random.default_rng(5)
    x = rng.gamma(4.0, 2.0, 20_000)
    assert checks.ks_distance(x, 4.0, 2.0) < 0.02
    assert checks.ks_distance(x, 4.0, 3.0) > 0.1
