"""Link simulator: determinism, worker invariance, degenerate cases and
the statistical contracts of the empirical estimators."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import default_links
from leoris.channel import DirectPath, LinkConfig, RisLink, gamma_approx, mean_abs_A
from leoris.errors import ComputationError, DomainError
from leoris.fading import KappaMuParams
from leoris.geometry import Constellation, CylinderGeometry
from leoris.metrics import CoverageQuery, coverage_probability
from leoris import montecarlo
from leoris.montecarlo import (
    SimOptions,
    SimResult,
    empirical_capacity,
    empirical_coverage,
    simulate_snr,
)

GEOM = CylinderGeometry(120.0, 120.0)
CON = Constellation(1000, 1.0e6)


def test_bit_identical_for_same_seed_and_workers():
    cfg = default_links(2)
    a = simulate_snr(cfg, GEOM, CON, SimOptions(trials=5000, seed=42, workers=2))
    b = simulate_snr(cfg, GEOM, CON, SimOptions(trials=5000, seed=42, workers=2))
    assert np.array_equal(a.snr_samples, b.snr_samples)
    assert a.abs_mean == b.abs_mean and a.abs_var == b.abs_var


@pytest.mark.parametrize("workers", [1, 2])
def test_exact_mode_bit_identical_for_same_seed(workers):
    cfg = default_links(2)
    opt = SimOptions(trials=5000, seed=42, workers=workers, exact_per_ris_sat_distance=True)
    a = simulate_snr(cfg, GEOM, CON, opt)
    b = simulate_snr(cfg, GEOM, CON, opt)
    assert np.array_equal(a.snr_samples, b.snr_samples)
    assert a.abs_mean == b.abs_mean and a.abs_var == b.abs_var


def test_different_seeds_differ():
    cfg = default_links(1)
    a = simulate_snr(cfg, GEOM, CON, SimOptions(trials=1000, seed=1))
    b = simulate_snr(cfg, GEOM, CON, SimOptions(trials=1000, seed=2))
    assert not np.array_equal(a.snr_samples, b.snr_samples)


def test_worker_counts_agree_exactly_and_with_the_closed_form():
    cfg = default_links(4)
    ga = gamma_approx(cfg, GEOM, CON)
    q = CoverageQuery(rho_th=100.0, rho0=cfg.transmit_snr)
    want = coverage_probability(q, ga)
    one, four = (simulate_snr(cfg, GEOM, CON, SimOptions(trials=40_000, seed=3, workers=w))
                 for w in (1, 4))
    assert np.array_equal(one.snr_samples, four.snr_samples)
    est = empirical_coverage(four, 100.0)
    assert abs(est.value - want) <= max(0.02, 3.0 * est.stderr) + 0.01


def test_trial_partition_covers_all_trials():
    cfg = default_links(1)
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=1003, seed=0, workers=4))
    assert res.trials == 1003
    assert res.snr_samples.shape == (1003,)
    assert res.workers == 4


_MODES = {
    "independent": ({}, ()),
    "exact": ({"exact_per_ris_sat_distance": True}, ()),
    "nested": ({}, (default_links(1), default_links(2, elements=5))),
    "summary_only": ({"keep_samples": False}, (default_links(1),)),
}


@pytest.mark.parametrize("trials", [1, 4095, 4096, 4097, 3 * montecarlo._BLOCK + 5])
@pytest.mark.parametrize("mode", sorted(_MODES))
def test_worker_counts_give_identical_bits(monkeypatch, mode, trials):
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    kwargs, nested = _MODES[mode]
    cfg = default_links(2)
    runs = [simulate_snr(cfg, GEOM, CON, SimOptions(trials=trials, seed=21, workers=w, **kwargs),
                         nested=nested)
            for w in (1, 2, 3)]
    for res in runs[1:]:
        assert len(res.nested) == len(nested)
        for a, b in zip((*runs[0].nested, runs[0]), (*res.nested, res)):
            assert (a.abs_mean, a.abs_var) == (b.abs_mean, b.abs_var)
            if a.snr_samples is None:
                assert b.snr_samples is None
            else:
                assert np.array_equal(a.snr_samples, b.snr_samples)


def test_block_b_draws_from_child_b_of_the_simulation_seed():
    cfg = default_links(2)
    res = simulate_snr(cfg, GEOM, CON,
                       SimOptions(trials=2 * montecarlo._BLOCK + 3, seed=12, workers=2))
    # block 2 draws from SFC64 seeded by child 2 of child 0 of the seed
    sim_root = np.random.SeedSequence(12).spawn(2)[0]
    rng = np.random.Generator(np.random.SFC64(sim_root.spawn(3)[2]))
    amp = montecarlo._simulate_chunk(cfg, montecarlo._row_plan((cfg,)), 1, GEOM, CON,
                                     rng, 3, False)[0]
    assert np.array_equal(res.snr_samples[-3:], cfg.transmit_snr * amp * amp)
    # whole blocks do not depend on the trial count: a run of whole blocks
    # is a prefix of any longer one
    short = simulate_snr(cfg, GEOM, CON, SimOptions(trials=montecarlo._BLOCK, seed=12))
    assert np.array_equal(short.snr_samples, res.snr_samples[:montecarlo._BLOCK])


def test_thread_pool_never_outgrows_the_blocks_or_the_cpus(monkeypatch):
    sizes = []

    class RecordingPool:
        """Runs the blocks in this thread and records the pool size."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    cfg = default_links(1)
    opt = SimOptions(trials=3 * montecarlo._BLOCK, seed=0, workers=1000)
    runs = []
    for cpus, workers in ((8, 1000), (2, 1000), (None, 1000), (8, 1)):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        runs.append(simulate_snr(cfg, GEOM, CON, dataclasses.replace(opt, workers=workers)))
    # three blocks cap the first pool, two CPUs the second; one CPU or
    # one worker runs the blocks inline
    assert sizes == [3, 2]
    for res in runs[1:]:
        assert np.array_equal(res.snr_samples, runs[0].snr_samples)
    assert runs[0].workers == 1000 and runs[0].trials == 3 * montecarlo._BLOCK


def test_chunks_depend_on_neither_the_constellation_nor_the_nesting(monkeypatch):
    sizes = []
    simulate_chunk = montecarlo._simulate_chunk

    def recording(cfg, plan, rows, geom, con, rng, count, *args):
        sizes.append(count)
        return simulate_chunk(cfg, plan, rows, geom, con, rng, count, *args)

    monkeypatch.setattr(montecarlo, "_simulate_chunk", recording)
    cfg = default_links(2)
    opt = SimOptions(trials=9000, seed=2, exact_per_ris_sat_distance=True)
    for satellites in (1000, 1_000_000):
        sizes.clear()
        simulate_snr(cfg, GEOM, Constellation(satellites, 1.0e6), opt)
        assert sizes == [4096, 4096, 808], satellites
    # a small element budget splits each block the same way with or
    # without nested rows, so the full row keeps its bits
    monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 20 * 1500)
    nested = tuple(default_links(2, elements=e) for e in range(1, 20))
    runs = []
    for sub in ((), nested):
        sizes.clear()
        runs.append(simulate_snr(cfg, GEOM, CON, opt, nested=sub))
        assert sizes == [1500, 1500, 1096] * 2 + [808]
    assert np.array_equal(runs[0].snr_samples, runs[1].snr_samples)
    assert (runs[0].abs_mean, runs[0].abs_var) == (runs[1].abs_mean, runs[1].abs_var)


def test_no_path_gives_zero_snr():
    cfg = LinkConfig(ris=(), direct=DirectPath(enabled=False), transmit_snr=1e14)
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=500, seed=0))
    assert np.all(res.snr_samples == 0.0)
    assert empirical_capacity(res).value == 0.0


def test_coverage_zero_threshold_with_active_path():
    cfg = default_links(1)
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=500, seed=0))
    assert empirical_coverage(res, 0.0).value == 1.0


def test_coverage_above_max_sample_is_zero():
    cfg = default_links(1)
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=500, seed=0))
    top = float(res.snr_samples.max())
    assert empirical_coverage(res, top * 1.001).value == 0.0


def test_capacity_of_constant_samples():
    res = SimResult(snr_samples=np.full(1000, 3.0), seed=0, trials=1000,
                    elapsed=0.0, workers=1, abs_mean=0.0, abs_var=0.0)
    assert empirical_capacity(res).value == pytest.approx(2.0)
    assert empirical_capacity(res).stderr == 0.0


def test_capacity_keeps_snrs_far_below_one():
    # 1 + 1e-20 rounds to 1, so log2(1 + SNR) would read 0
    res = SimResult(snr_samples=np.full(1000, 1e-20), seed=0, trials=1000,
                    elapsed=0.0, workers=1, abs_mean=0.0, abs_var=0.0)
    assert empirical_capacity(res).value == pytest.approx(1e-20 / math.log(2.0), rel=1e-12, abs=0.0)


def test_summary_only_mode():
    cfg = default_links(2)
    kept = simulate_snr(cfg, GEOM, CON, SimOptions(trials=4000, seed=9))
    slim = simulate_snr(cfg, GEOM, CON, SimOptions(trials=4000, seed=9, keep_samples=False))
    assert slim.snr_samples is None
    assert slim.abs_mean == kept.abs_mean
    assert slim.abs_var == kept.abs_var
    with pytest.raises(DomainError):
        empirical_coverage(slim, 1.0)


def test_welford_summary_matches_samples():
    cfg = default_links(2)
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=30_000, seed=11))
    amp = np.sqrt(res.snr_samples / cfg.transmit_snr)
    assert res.abs_mean == pytest.approx(float(amp.mean()), rel=1e-12)
    assert res.abs_var == pytest.approx(float(amp.var()), rel=1e-10)


def test_coverage_rejects_a_nan_threshold():
    res = simulate_snr(default_links(1), GEOM, CON, SimOptions(trials=500, seed=0))
    with pytest.raises(DomainError, match="rho_th"):
        empirical_coverage(res, float("nan"))


def test_minimum_trials_for_estimators():
    cfg = default_links(1)
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=50, seed=0))
    with pytest.raises(DomainError):
        empirical_coverage(res, 1.0)


def test_resource_guard():
    cfg = default_links(1)
    with pytest.raises(ComputationError):
        simulate_snr(cfg, GEOM, CON, SimOptions(trials=10_000_000_000, seed=0))


def test_options_validation():
    with pytest.raises(DomainError):
        SimOptions(trials=0)
    with pytest.raises(DomainError):
        SimOptions(trials=10, workers=0)
    with pytest.raises(DomainError, match="seed"):
        SimOptions(trials=10, seed=-1)


@pytest.mark.parametrize("field, value", [
    ("trials", 1000.0), ("trials", True), ("seed", 1.5), ("seed", True),
    ("workers", 2.0), ("workers", "2"), ("seed", None),
])
def test_options_reject_non_integer_fields(field, value):
    with pytest.raises(DomainError, match=f"{field} must be an integer"):
        SimOptions(**{"trials": 1000, field: value})


@pytest.mark.parametrize("field", ["exact_per_ris_sat_distance", "keep_samples"])
@pytest.mark.parametrize("value", ["no", 0, 1, None, 1.0])
def test_options_reject_non_bool_flags(field, value):
    # a truthy string would otherwise switch the flag on
    with pytest.raises(DomainError, match=f"{field} must be a bool"):
        SimOptions(**{"trials": 1000, field: value})


def test_options_store_numpy_bools_as_python_bools():
    opt = SimOptions(trials=1000, exact_per_ris_sat_distance=np.bool_(True),
                     keep_samples=np.bool_(False))
    assert (opt.exact_per_ris_sat_distance, opt.keep_samples) == (True, False)
    assert all(type(v) is bool for v in (opt.exact_per_ris_sat_distance, opt.keep_samples))


def test_options_accept_numpy_integers_as_python_ints():
    opt = SimOptions(trials=np.int64(500), seed=np.uint32(7), workers=np.int8(2))
    assert (opt.trials, opt.seed, opt.workers) == (500, 7, 2)
    assert all(type(v) is int for v in (opt.trials, opt.seed, opt.workers))


def test_exact_satellite_mode_runs_and_agrees_loosely():
    cfg = default_links(2)
    exact = simulate_snr(cfg, GEOM, Constellation(100, 1.0e6),
                         SimOptions(trials=4000, seed=6, exact_per_ris_sat_distance=True))
    approx = simulate_snr(cfg, GEOM, Constellation(100, 1.0e6),
                          SimOptions(trials=4000, seed=6))
    # RIS region is tiny next to the slant range, so the means agree closely
    assert exact.abs_mean == pytest.approx(approx.abs_mean, rel=0.05)


def test_direct_only_gamma_fit_coverage_gap():
    """Single-path degenerate case: the two-moment Gamma model is a coarse
    fit for one fading path, and its coverage error peaks near 0.03 on the
    canonical grid. Guard that it does not get worse."""
    cfg = LinkConfig(ris=(), direct=DirectPath(True, KappaMuParams(0.0, 1.0), 2.0),
                     transmit_snr=1e14)
    ga = gamma_approx(cfg, GEOM, CON)
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=100_000, seed=31))
    worst = 0.0
    for th_db in np.linspace(0.0, 40.0, 10):
        q = CoverageQuery(rho_th=10.0 ** (th_db / 10.0), rho0=cfg.transmit_snr)
        est = empirical_coverage(res, q.rho_th)
        worst = max(worst, abs(coverage_probability(q, ga) - est.value))
    assert worst < 0.03


def test_empirical_coverage_domain():
    cfg = default_links(1)
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=500, seed=0))
    with pytest.raises(DomainError):
        empirical_coverage(res, -1.0)


def test_coverage_matches_closed_form_randomized_scenarios():
    """Five pinned scenarios in the regime the model is demonstrated for
    (several RISs, tens of elements, per-scenario fading like the figure
    setups): closed-form coverage within max(0.02, 3 SE) of simulation
    across a 10-point threshold grid.

    The double-CLT Gamma model's error on the steep flank of the curve
    sits near 0.02 throughout this regime (and beyond it for strongly
    heterogeneous per-RIS fading), so the draws below are recorded the
    same way the default scenario's exponent draw is.
    """
    rng = np.random.default_rng(779)
    for case in range(5):
        n = int(rng.choice([4, 6, 8]))
        elements = int(rng.integers(15, 51))
        flat = rng.random() < 0.4
        radius = float(rng.uniform(60, 200))
        geom = (CylinderGeometry(radius, 0.0,
                                 inner_radius=radius * float(rng.uniform(0.1, 0.3)))
                if flat else
                CylinderGeometry(radius, float(rng.uniform(30, 200))))
        sat_fade = KappaMuParams(float(rng.uniform(0.5, 2.0)), float(rng.integers(2, 4)))
        user_fade = KappaMuParams(float(rng.uniform(1.0, 4.0)), float(rng.integers(2, 4)))
        cfg = LinkConfig(
            ris=tuple(RisLink(elements, sat_fade, user_fade, 2.0,
                              float(rng.uniform(2.0, 2.6))) for _ in range(n)),
            direct=DirectPath(True, KappaMuParams(0.0, 1.0), 2.0),
            transmit_snr=1e14,
        )
        ga = gamma_approx(cfg, geom, CON)
        res = simulate_snr(cfg, geom, CON, SimOptions(trials=40_000, seed=900 + case))
        for th_db in np.linspace(0.0, 40.0, 10):
            rho_th = 10.0 ** (th_db / 10.0)
            est = empirical_coverage(res, rho_th)
            want = coverage_probability(CoverageQuery(rho_th, cfg.transmit_snr), ga)
            assert abs(want - est.value) <= max(0.02, 3.0 * est.stderr), \
                (case, th_db, want, est.value)


def _nested_grid(variable):
    """(full links, nested links) of an RIS-count or element-count grid."""
    if variable == "N":
        return default_links(16), tuple(default_links(n) for n in (1, 4, 8))
    return default_links(4, 40), tuple(default_links(4, e) for e in (5, 10, 20))


@pytest.mark.parametrize("variable", ["N", "L"])
@pytest.mark.parametrize("workers", [1, 2])
def test_nested_means_match_their_closed_forms(variable, workers):
    full, nested = _nested_grid(variable)
    res = simulate_snr(full, GEOM, CON, SimOptions(trials=20_000, seed=17, workers=workers),
                       nested=nested)
    assert len(res.nested) == len(nested)
    for sub, sim in zip((*nested, full), (*res.nested, res)):
        want = mean_abs_A(sub, GEOM, CON)
        assert abs(sim.abs_mean - want) <= 5.0 * np.sqrt(sim.abs_var / sim.trials), \
            (len(sub.ris), sub.ris[0].elements)
        # each row's samples are the ones its moments were taken from
        amp = np.sqrt(sim.snr_samples / sub.transmit_snr)
        assert sim.abs_mean == pytest.approx(float(amp.mean()), rel=1e-12)
        assert sim.trials == 20_000
    assert all(sim.nested == () for sim in res.nested)


@pytest.mark.parametrize("variable", ["N", "L"])
@pytest.mark.parametrize("exact", [False, True])
def test_nesting_leaves_the_full_configuration_unchanged(variable, exact):
    full, nested = _nested_grid(variable)
    opt = SimOptions(trials=3000, seed=8, workers=2, exact_per_ris_sat_distance=exact)
    alone = simulate_snr(full, GEOM, CON, opt)
    shared = simulate_snr(full, GEOM, CON, opt, nested=nested)
    again = simulate_snr(full, GEOM, CON, opt, nested=nested)
    assert np.array_equal(shared.snr_samples, alone.snr_samples)
    assert (shared.abs_mean, shared.abs_var) == (alone.abs_mean, alone.abs_var)
    for a, b in zip((*shared.nested, shared), (*again.nested, again)):
        assert np.array_equal(a.snr_samples, b.snr_samples)
        assert (a.abs_mean, a.abs_var) == (b.abs_mean, b.abs_var)


def test_nested_copy_of_the_full_configuration_reads_the_same_row():
    cfg = default_links(3)
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=2000, seed=4), nested=(cfg,))
    assert np.array_equal(res.nested[0].snr_samples, res.snr_samples)


def test_exact_mode_nested_means_match_their_closed_forms():
    full, nested = _nested_grid("N")
    res = simulate_snr(full, GEOM, CON, SimOptions(trials=10_000, seed=23,
                                                   exact_per_ris_sat_distance=True),
                       nested=nested)
    for sub, sim in zip(nested, res.nested):
        want = mean_abs_A(sub, GEOM, CON)
        assert abs(sim.abs_mean - want) <= 5.0 * np.sqrt(sim.abs_var / sim.trials)


def _other_fading(cfg):
    return dataclasses.replace(cfg, ris=(dataclasses.replace(
        cfg.ris[0], user_fading=KappaMuParams(0.0, 1.0)),) + cfg.ris[1:])


@pytest.mark.parametrize("make_sub", [
    _other_fading,
    lambda cfg: default_links(4),  # more RISs
    lambda cfg: default_links(3, elements=21),  # more elements
    lambda cfg: dataclasses.replace(default_links(2), ris=default_links(3).ris[1:]),
    lambda cfg: default_links(2, direct=False),
    lambda cfg: dataclasses.replace(default_links(2), transmit_snr=1.0),
])
def test_non_nested_configurations_are_rejected(make_sub):
    cfg = default_links(3)
    sub = make_sub(cfg)
    assert not montecarlo.is_nested(sub, cfg)
    with pytest.raises(DomainError):
        simulate_snr(cfg, GEOM, CON, SimOptions(trials=100, seed=0), nested=(sub,))


def test_kept_samples_of_all_configurations_stay_within_the_budget(monkeypatch):
    monkeypatch.setattr(montecarlo, "MAX_KEPT_SAMPLES", 1000)
    cfg = default_links(2)
    opt = SimOptions(trials=600, seed=0)
    simulate_snr(cfg, GEOM, CON, opt)
    with pytest.raises(ComputationError):
        simulate_snr(cfg, GEOM, CON, opt, nested=(default_links(1),))
    simulate_snr(cfg, GEOM, CON, dataclasses.replace(opt, keep_samples=False),
                 nested=(default_links(1),))
