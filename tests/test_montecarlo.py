"""Link simulator: determinism, worker invariance, degenerate cases and
the statistical contracts of the per-point coverage and capacity tallies."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import default_links
from leoris.channel import DirectPath, LinkConfig, RisLink, gamma_approx, mean_abs_A
from leoris.errors import ComputationError, DomainError
from scipy.stats import ks_2samp

from leoris.fading import KappaMuParams, element_sum_tables, sample_envelope, sample_power
from leoris.geometry import (
    Constellation,
    CylinderGeometry,
    nearest_sat_fractions,
    ris_squared_distances,
    sample_nearest_sat_distance,
    sample_ris_distances,
    sat_squared_distances,
)
from leoris.metrics import CoverageQuery, coverage_probability
from leoris import montecarlo
from leoris.montecarlo import SimOptions, simulate_snr
from leoris.scenario import SweepSpec, load_scenario

GEOM = CylinderGeometry(120.0, 120.0)
CON = Constellation(1000, 1.0e6)
DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"


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
    one, four = (simulate_snr(cfg, GEOM, CON, SimOptions(trials=40_000, seed=3, workers=w),
                              points=((0, cfg.transmit_snr, 100.0),))
                 for w in (1, 4))
    assert np.array_equal(one.snr_samples, four.snr_samples)
    assert (one.coverage, one.capacity) == (four.coverage, four.capacity)
    est = four.coverage[0]
    assert abs(est.value - want) <= max(0.02, 3.0 * est.stderr) + 0.01


def test_trial_partition_covers_all_trials():
    cfg = default_links(1)
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=1003, seed=0, workers=4))
    assert res.trials == 1003
    assert res.snr_samples.shape == (1003,)
    assert res.workers == 4


# summary_only: a nested row, read through its moments and tallies alone
_MODES = {
    "independent": ({}, (), ()),
    "exact": ({"exact_per_ris_sat_distance": True}, (), ()),
    "nested": ({}, (default_links(1), default_links(2, elements=5)), ()),
    "summary_only": ({}, (default_links(1),),
                     [(r, rho0, th) for r in (0, 1) for rho0 in (1e14, 1e10)
                      for th in (1.0, 100.0)]),
}


def _assert_worker_counts_give_identical_bits(monkeypatch, mode, trials):
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    kwargs, nested, points = _MODES[mode]
    if points and trials < montecarlo.MIN_EMPIRICAL_TRIALS:
        points = ()
    cfg = default_links(2)
    runs = [simulate_snr(cfg, GEOM, CON, SimOptions(trials=trials, seed=21, workers=w, **kwargs),
                         nested=nested, points=points)
            for w in (1, 2, 3)]
    for res in runs[1:]:
        assert len(res.nested) == len(nested)
        assert (res.coverage, res.capacity) == (runs[0].coverage, runs[0].capacity)
        assert len(res.coverage) == len(points)
        assert np.array_equal(res.snr_samples, runs[0].snr_samples)
        for a, b in zip((*runs[0].nested, runs[0]), (*res.nested, res)):
            assert (a.abs_mean, a.abs_var) == (b.abs_mean, b.abs_var)
        assert all(sub.snr_samples is None for sub in res.nested)


@pytest.mark.parametrize("trials", [1, *(montecarlo._BLOCK + d for d in (-1, 0, 1)),
                                    3 * montecarlo._BLOCK + 5])
@pytest.mark.parametrize("mode", sorted(_MODES))
def test_worker_counts_give_identical_bits(monkeypatch, mode, trials):
    _assert_worker_counts_give_identical_bits(monkeypatch, mode, trials)


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_worker_counts_give_identical_bits_in_smaller_blocks(monkeypatch, mode):
    # 20-element RISs under a 20 * 1500 element budget: blocks of 1500
    monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 20 * 1500)
    _assert_worker_counts_give_identical_bits(monkeypatch, mode, 3 * 1500 + 7)


def test_block_b_draws_from_child_b_of_the_simulation_seed(monkeypatch):
    cfg = default_links(2)
    # 20-element RISs: blocks of _BLOCK, then of 1500 under a smaller budget
    for size in (montecarlo._BLOCK, 1500):
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 20 * size)
        res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=2 * size + 3, seed=12, workers=2))
        # block 2 draws from SFC64 seeded by child 2 of child 0 of the seed
        sim_root = np.random.SeedSequence(12).spawn(2)[0]
        rng = np.random.Generator(np.random.SFC64(sim_root.spawn(3)[2]))
        plan = montecarlo._row_plan((cfg,))
        amp = montecarlo._simulate_block(cfg, plan, 1, GEOM, CON, rng, 3, False,
                                         montecarlo._sum_tables(cfg, plan))[0]
        assert np.array_equal(res.snr_samples[-3:], cfg.transmit_snr * amp * amp)
        # whole blocks do not depend on the trial count: a run of whole
        # blocks is a prefix of any longer one
        short = simulate_snr(cfg, GEOM, CON, SimOptions(trials=size, seed=12))
        assert np.array_equal(short.snr_samples, res.snr_samples[:size])


def _one_ris_pass(rng: np.random.Generator, link: RisLink, count: int):
    """(gain, z) of a block's one RIS in independent mode, without a direct
    path, in the pass's draw order: one (4, 1, count) array of uniforms, by
    row the RIS's radius, height, satellite and element sum."""
    u = rng.random((4, 1, count))[:, 0]
    ln_sat = np.log(sat_squared_distances(CON, nearest_sat_fractions(CON, u[2])))
    ln_ris = np.log(ris_squared_distances(GEOM, u[0], u[1]))
    gain = np.exp(ln_sat * (-link.sat_exponent / 4.0) + ln_ris * (-link.user_exponent / 4.0))
    return gain, np.log(u[3]) - np.log1p(-u[3])


def test_block_ris_term_is_the_tabulated_element_sum_times_the_gains():
    # the RIS's uniforms in one draw, then Q_L(Z), Z = ln u - ln(1 - u) the
    # logit of its element-sum uniform, scaled by the distance gains
    cfg = default_links(1, direct=False)
    link, count = cfg.ris[0], 37
    plan = montecarlo._row_plan((cfg,))
    amp = montecarlo._simulate_block(cfg, plan, 1, GEOM, CON, np.random.Generator(
        np.random.SFC64(4)), count, False, montecarlo._sum_tables(cfg, plan))
    gain, z = _one_ris_pass(np.random.Generator(np.random.SFC64(4)), link, count)
    table = element_sum_tables(link.sat_fading, link.user_fading, [link.elements])[link.elements]
    assert amp.shape == (1, count)
    assert np.array_equal(amp[0], table(z) * gain)


class _HalfAndZero:
    """A generator stand-in whose uniforms are 1/2, except the last row
    (the element-sum uniforms of a pass) at 0."""

    def random(self, size=None, dtype=np.float64, out=None):
        u = np.empty(size, dtype) if out is None else out
        u[...] = 0.5
        u[-1] = 0.0
        return u


def test_a_zero_element_sum_uniform_reads_the_first_node_without_warnings():
    cfg = default_links(2, direct=False)
    plan = montecarlo._row_plan((cfg,))
    tables = montecarlo._sum_tables(cfg, plan)
    with np.errstate(all="raise"):
        amp = montecarlo._simulate_block(cfg, plan, 1, GEOM, CON, _HalfAndZero(), 3, False, tables)
    with np.errstate(divide="ignore"):
        (g0, z), (g1, _) = (_one_ris_pass(_HalfAndZero(), link, 3) for link in cfg.ris)
    first = tables[0][20].q[0]
    assert z.tolist() == [-math.inf] * 3 and first > 0.0
    assert np.array_equal(amp[0], first * g0 + first * g1)


# envelope_pdf cannot evaluate kappa > 0 at mu = 1e4, so a RIS with this
# hop law draws per-element powers
FALLBACK = KappaMuParams(1.0, 1e4)


def _fallback_links() -> LinkConfig:
    cfg = default_links(1, direct=False)
    return dataclasses.replace(cfg, ris=(dataclasses.replace(cfg.ris[0], sat_fading=FALLBACK),))


def test_block_ris_term_is_the_root_of_the_two_hop_powers_times_the_gains():
    # per element sqrt(W_sat W_user) / sqrt(c_sat c_user), c = 2 mu (1 + kappa),
    # summed over the elements and scaled by the per-trial distance gains:
    # the pass's uniforms first (the element-sum one unread), then the powers
    cfg = _fallback_links()
    link, count = cfg.ris[0], 37
    plan = montecarlo._row_plan((cfg,))
    amp = montecarlo._simulate_block(cfg, plan, 1, GEOM, CON, np.random.Generator(
        np.random.SFC64(4)), count, False, montecarlo._sum_tables(cfg, plan))
    rng = np.random.Generator(np.random.SFC64(4))
    gain, _ = _one_ris_pass(rng, link, count)
    w_sat, w_user = (sample_power(law, rng, (count, link.elements))
                     for law in (link.sat_fading, link.user_fading))
    c_sat, c_user = (2.0 * law.mu * (1.0 + law.kappa)
                     for law in (link.sat_fading, link.user_fading))
    gain = gain / math.sqrt(c_sat * c_user)
    assert amp.shape == (1, count)
    assert np.array_equal(amp[0], np.sqrt(w_sat * w_user).sum(axis=1) * gain)


def test_a_law_without_a_density_draws_per_element_and_matches_the_mean():
    cfg = _fallback_links()
    assert montecarlo._sum_tables(cfg, montecarlo._row_plan((cfg,))) == [None]
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=20_000, seed=9))
    want = mean_abs_A(cfg, GEOM, CON)
    assert abs(res.abs_mean - want) <= 5.0 * math.sqrt(res.abs_var / res.trials)


def test_held_tables_keep_only_the_counts_that_were_decided():
    # a one-sided Gaussian sat hop: two elements have no table, so a RIS
    # whose rows hold 2 and 20 draws per element and leaves 20 unbuilt;
    # a later RIS of 20 elements alone builds and reads its table
    def links(*counts):
        cfg = default_links(1, direct=False)
        rough = dataclasses.replace(cfg.ris[0], sat_fading=KappaMuParams(0.0, 0.5))
        return tuple(dataclasses.replace(cfg, ris=(dataclasses.replace(rough, elements=c),))
                     for c in counts)

    built = {}
    rows = links(2, 20)
    assert montecarlo._sum_tables(rows[-1], montecarlo._row_plan(rows), built) == [None]
    pair = (rows[-1].ris[0].sat_fading, rows[-1].ris[0].user_fading)
    assert built == {(pair, 2): None}
    (cfg,) = links(20)
    (tables,) = montecarlo._sum_tables(cfg, montecarlo._row_plan((cfg,)), built)
    assert tables[20] is built[pair, 20] is not None
    # rows 2 and 20 now read both held entries, 2's None among them
    assert montecarlo._sum_tables(rows[-1], montecarlo._row_plan(rows), built) == [None]
    assert list(built) == [(pair, 2), (pair, 20)]


def test_nested_rows_of_one_ris_read_one_variate_comonotonically():
    # a row of c elements reads Q_c at the RIS's one Z
    counts = (1, 5, 20, 40)
    rows = tuple(default_links(1, c, direct=False) for c in counts)
    link, count = rows[-1].ris[0], 300
    plan = montecarlo._row_plan(rows)
    amp = montecarlo._simulate_block(rows[-1], plan, len(rows), GEOM, CON, np.random.Generator(
        np.random.SFC64(3)), count, False, montecarlo._sum_tables(rows[-1], plan))
    gain, z = _one_ris_pass(np.random.Generator(np.random.SFC64(3)), link, count)
    tables = element_sum_tables(link.sat_fading, link.user_fading, counts)
    for row, c in zip(amp, counts):
        assert np.array_equal(row, tables[c](z) * gain), c


def _reference_block(rows: tuple[LinkConfig, ...], geom: CylinderGeometry,
                     rng: np.random.Generator, count: int, exact: bool) -> np.ndarray:
    """|A| of ``count`` trials per row, RIS by RIS from the public samplers:
    the slow reference the block's one array pass is checked against. A
    tabulated RIS reads each row's table at one logistic variate; in exact
    mode the serving satellite and the RISs are placed in space."""
    cfg, plan = rows[-1], montecarlo._row_plan(rows)
    tables = montecarlo._sum_tables(cfg, plan)
    amp = np.zeros((len(rows), count))
    if exact:
        s = nearest_sat_fractions(CON, rng.random(count))
        azimuth = 2.0 * math.pi * rng.random(count)
        R = CON.shell_radius
        radial = 2.0 * R * np.sqrt(s * (1.0 - s))
        serving = np.column_stack((radial * np.cos(azimuth), radial * np.sin(azimuth),
                                   R * (1.0 - 2.0 * s) - CON.earth_radius))
        r_user = np.linalg.norm(serving, axis=1)
    for link, table, entries in zip(cfg.ris, tables, plan):
        if exact:
            c = geom.inner_radius
            radial = np.sqrt(c * c + (geom.base_radius ** 2 - c * c) * rng.random(count))
            angle = 2.0 * math.pi * rng.random(count)
            pos = np.column_stack((radial * np.cos(angle), radial * np.sin(angle),
                                   geom.height * rng.random(count)))
            r_sat, r_ris = np.linalg.norm(serving - pos, axis=1), np.linalg.norm(pos, axis=1)
        else:
            r_sat = sample_nearest_sat_distance(CON, rng, count)
            r_ris = sample_ris_distances(geom, rng, count)
        gain = r_sat ** (-link.sat_exponent / 2.0) * r_ris ** (-link.user_exponent / 2.0)
        if table is not None:
            z = rng.logistic(size=count)
            for elements, idx in entries:
                amp[idx] += table[elements](z) * gain
            continue
        q = np.sqrt(sample_power(link.sat_fading, rng, (count, link.elements))
                    * sample_power(link.user_fading, rng, (count, link.elements)))
        gain /= math.sqrt(link.sat_fading.power_scale * link.user_fading.power_scale)
        for elements, idx in entries:
            amp[idx] += q[:, :elements].sum(axis=1) * gain
    if cfg.direct.enabled:
        if not exact:
            r_user = sample_nearest_sat_distance(CON, rng, count)
        envelope = sample_envelope(cfg.direct.fading, rng, count)
        amp += envelope * r_user ** (-cfg.direct.exponent / 2.0)
    return amp


def _mixed_links() -> LinkConfig:
    """Three RISs, the middle one untabulated (sat hop kappa = 1, mu = 1e4)."""
    cfg = default_links(3)
    return dataclasses.replace(cfg, ris=(cfg.ris[0], dataclasses.replace(
        cfg.ris[1], sat_fading=FALLBACK), cfg.ris[2]))


_ANNULUS = CylinderGeometry(120.0, 0.0, inner_radius=30.0)
# RISs 90 to 100 km from the user, without the direct path that would
# outweigh them: their slant ranges to the serving satellite differ by
# several percent, and the closed-form mean, which takes each RIS's
# satellite independently, no longer holds
_WIDE = CylinderGeometry(1.0e5, 0.0, inner_radius=9.0e4)
_ORACLE_CASES = {
    "independent": ((default_links(3),), GEOM, False),
    "exact": ((default_links(3),), GEOM, True),
    "exact_annulus": ((default_links(3),), _ANNULUS, True),
    "exact_wide": ((default_links(3, direct=False),), _WIDE, True),
    "nested_L": (tuple(default_links(2, e) for e in (5, 10, 20)), GEOM, False),
    "mixed": ((_mixed_links(),), GEOM, False),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_the_array_pass_draws_the_law_of_the_per_ris_reference(case):
    rows, geom, exact = _ORACLE_CASES[case]
    trials, block = 200_000, montecarlo._BLOCK
    plan = montecarlo._row_plan(rows)
    tables = montecarlo._sum_tables(rows[-1], plan)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(2024)))
    amp = np.concatenate([montecarlo._simulate_block(rows[-1], plan, len(rows), geom, CON, rng,
                                                     min(block, trials - lo), exact, tables)
                          for lo in range(0, trials, block)], axis=1)
    ref = _reference_block(rows, geom, np.random.Generator(np.random.SFC64(2025)), trials, exact)
    for links, got, want in zip(rows, amp, ref):
        assert ks_2samp(got, want).pvalue > 0.01, (case, links.ris[0].elements)
        stderr = math.sqrt((got.var() + want.var()) / trials)
        assert abs(got.mean() - want.mean()) <= 5.0 * stderr
        if geom is not _WIDE:
            mean = mean_abs_A(links, geom, CON)
            for sample in (got, want):
                assert abs(sample.mean() - mean) <= 5.0 * sample.std() / math.sqrt(trials)


# (full configuration, nested rows, region, exact mode): _BLOCK + 1 trials
# give one full block and a short one
_SEQUENCE = (
    (default_links(3), (), GEOM, False),
    (default_links(3), (), GEOM, True),
    (default_links(3), (), _ANNULUS, False),
    (default_links(4), tuple(default_links(n) for n in (1, 2, 3)), GEOM, False),
    (_mixed_links(), (), GEOM, False),
)


@pytest.mark.parametrize("workers", [1, 2])
def test_scratch_arrays_carry_nothing_between_blocks_or_simulations(monkeypatch, workers):
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)

    def simulate(case):
        cfg, nested, geom, exact = case
        points = [(r, rho0, th) for r in range(len(nested) + 1) for rho0 in (1e14, 1e10)
                  for th in (1.0, 100.0)]
        return simulate_snr(cfg, geom, CON, SimOptions(
            trials=montecarlo._BLOCK + 1, seed=31, workers=workers,
            exact_per_ris_sat_distance=exact),
            nested=nested, points=points)

    # each case alone, then all of them in one sequence that runs each
    # after a different case
    alone = [simulate(case) for case in _SEQUENCE]
    in_sequence = [simulate(case) for case in _SEQUENCE[::-1]][::-1]
    for case, first, later in zip(_SEQUENCE, alone, in_sequence):
        assert np.array_equal(first.snr_samples, later.snr_samples)
        assert (first.coverage, first.capacity) == (later.coverage, later.capacity)
        for x, y in zip((*first.nested, first), (*later.nested, later)):
            assert (x.abs_mean, x.abs_var) == (y.abs_mean, y.abs_var)
        # every block equals one simulated in arrays of its own
        cfg, nested, geom, exact = case
        plan = montecarlo._row_plan((*nested, cfg))
        tables = montecarlo._sum_tables(cfg, plan)
        size = montecarlo._BLOCK
        for block, (lo, hi) in enumerate(((0, size), (size, size + 1))):
            seq = np.random.SeedSequence(31, spawn_key=(0, block))
            rng = np.random.Generator(np.random.SFC64(seq))
            amp = montecarlo._simulate_block(cfg, plan, len(nested) + 1, geom, CON, rng,
                                             hi - lo, exact, tables)[-1]
            assert np.array_equal(first.snr_samples[lo:hi], cfg.transmit_snr * amp * amp)


@pytest.mark.parametrize("nested", [False, True], ids=["full_rows", "n_nested_rows"])
def test_each_threads_scratch_keeps_to_its_pass_and_block_arrays(nested):
    # configs/default.yaml: eight RISs that read one table, in whole blocks.
    # Four pass-sized arrays of uniforms and five more (two of squared
    # distances, the work array, the cells, one table's terms), two
    # per-trial vectors and a row of amplitudes per configuration: no
    # (RIS, trial, 4) coefficients and no (row, trial) deviations
    cfg = load_scenario(DEFAULT_CONFIG)
    if nested:
        cfg = dataclasses.replace(cfg, sweep=SweepSpec("N", tuple(range(1, 9))))
    (_, _, rows, _), = cfg.plan.simulations
    plan = montecarlo._row_plan(tuple(rows))
    size = montecarlo._block_size(rows[-1])
    scratch = montecarlo._Scratch(rows[-1], plan, len(rows),
                                  montecarlo._sum_tables(rows[-1], plan), size)
    nbytes = sum(a.nbytes for a in vars(scratch).values() if isinstance(a, np.ndarray))
    assert size == montecarlo._BLOCK and len(rows) == (8 if nested else 1)
    assert nbytes <= 8 * (9 * montecarlo._PASS_VALUES + (len(rows) + 2) * size)
    # 1.4 MB and 1.8 MB at the chosen block and pass sizes
    assert nbytes <= (1_835_008 if nested else 1_376_256)


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


def test_blocks_depend_on_neither_the_constellation_nor_the_nesting(monkeypatch):
    sizes = []
    simulate_block = montecarlo._simulate_block

    def recording(cfg, plan, rows, geom, con, rng, count, *args):
        sizes.append(count)
        return simulate_block(cfg, plan, rows, geom, con, rng, count, *args)

    monkeypatch.setattr(montecarlo, "_simulate_block", recording)
    cfg = default_links(2)
    size = montecarlo._BLOCK
    opt = SimOptions(trials=2 * size + 808, seed=2, exact_per_ris_sat_distance=True)
    for satellites in (1000, 1_000_000):
        sizes.clear()
        simulate_snr(cfg, GEOM, Constellation(satellites, 1.0e6), opt)
        assert sizes == [size, size, 808], satellites
    # a small element budget sizes the blocks by the full configuration's
    # largest RIS with or without nested rows, so the full row keeps its bits
    monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 20 * 1500)
    nested = tuple(default_links(2, elements=e) for e in range(1, 20))
    runs = []
    for sub in ((), nested):
        sizes.clear()
        runs.append(simulate_snr(cfg, GEOM, CON, dataclasses.replace(opt, trials=9000),
                                 nested=sub))
        assert sizes == [1500] * 6
    assert np.array_equal(runs[0].snr_samples, runs[1].snr_samples)
    assert (runs[0].abs_mean, runs[0].abs_var) == (runs[1].abs_mean, runs[1].abs_var)


def test_no_path_gives_zero_snr():
    cfg = LinkConfig(ris=(), direct=DirectPath(enabled=False), transmit_snr=1e14)
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=500, seed=0),
                       points=((0, cfg.transmit_snr, 0.0),))
    assert np.all(res.snr_samples == 0.0)
    assert res.capacity[0].value == 0.0
    assert res.coverage[0].value == 0.0


def test_coverage_zero_threshold_with_active_path():
    cfg = default_links(1)
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=500, seed=0),
                       points=((0, cfg.transmit_snr, 0.0),))
    assert res.coverage[0].value == 1.0


def test_coverage_above_max_sample_is_zero():
    cfg = default_links(1)
    opt = SimOptions(trials=500, seed=0)
    top = float(simulate_snr(cfg, GEOM, CON, opt).snr_samples.max())
    res = simulate_snr(cfg, GEOM, CON, opt,
                       points=((0, cfg.transmit_snr, top), (0, cfg.transmit_snr, top * 1.001)))
    assert res.coverage[0].value == res.coverage[1].value == 0.0


def _tally_one(amplitude: float, count: int = 1000):
    """The capacity Estimate of ``count`` equal amplitudes at rho0 = 1."""
    amp, above = np.full((1, count), amplitude), np.zeros(1, dtype=np.int64)
    _, mean, m2 = montecarlo._block_moments(amp, [(0, 1.0, np.array([0.0]), np.array([0]))],
                                            above)
    assert above.tolist() == [count]
    return mean[1], math.sqrt(m2[1] / (count - 1)) / math.sqrt(count)


def test_capacity_of_constant_samples():
    value, stderr = _tally_one(math.sqrt(3.0))
    assert value == pytest.approx(2.0)
    assert stderr == 0.0


def test_capacity_keeps_snrs_far_below_one():
    # 1 + 1e-20 rounds to 1, so log2(1 + SNR) would read 0
    value, _ = _tally_one(1e-10)
    assert value == pytest.approx(1e-20 / math.log(2.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("exact", [False, True])
def test_tallies_match_the_estimators_of_each_rows_samples(workers, exact):
    # one block: its SNRs are those block 0's generator gives _simulate_block
    full, nested = default_links(3), (default_links(1), default_links(2, elements=5))
    trials, seed = 3000, 5
    # at rho0 = 1e-160 the rates' squared deviations underflow unless taken
    # in units of rho0
    points = [(r, rho0, th) for r in range(3) for rho0 in (1e14, 1e9, 1e-160)
              for th in (0.0, 1.0, 100.0, 1e4, 1e300)]
    res = simulate_snr(full, GEOM, CON, SimOptions(trials=trials, seed=seed, workers=workers,
                                                   exact_per_ris_sat_distance=exact),
                       nested=nested, points=points)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0, 0))))
    plan = montecarlo._row_plan((*nested, full))
    amp = montecarlo._simulate_block(full, plan, 3, GEOM, CON, rng, trials, exact,
                                     montecarlo._sum_tables(full, plan))
    assert np.array_equal(res.snr_samples, full.transmit_snr * amp[-1] * amp[-1])
    for (r, rho0, th), coverage, capacity in zip(points, res.coverage, res.capacity):
        snr = amp[r] * rho0 * amp[r]
        p = float(np.mean(snr > th))
        assert coverage == (p, math.sqrt(p * (1.0 - p) / trials))
        unit = min(1.0, rho0)
        rates = np.log1p(snr) / math.log(2.0) / unit
        assert capacity.value == pytest.approx(float(rates.mean()) * unit, rel=1e-12)
        assert capacity.stderr == pytest.approx(
            float(rates.std(ddof=1)) / math.sqrt(trials) * unit, rel=1e-9)
        assert capacity.stderr > 0.0


def test_a_simulation_keeps_trials_samples_however_many_rows_it_serves():
    full = default_links(64, elements=2)
    nested = tuple(default_links(n, elements=2) for n in range(1, 64))
    res = simulate_snr(full, GEOM, CON, SimOptions(trials=500, seed=0), nested=nested,
                       points=[(r, full.transmit_snr, 100.0) for r in range(64)])
    assert res.snr_samples.shape == (500,)
    assert len(res.nested) == 63 and all(sub.snr_samples is None for sub in res.nested)
    assert len(res.coverage) == len(res.capacity) == 64
    assert all(sub.coverage == sub.capacity == () for sub in res.nested)


def test_tallies_add_memory_per_point_not_per_point_and_trial():
    # 2000 points of one block: a (points, block) array of SNRs would take
    # 2000 * 8 bytes per trial, 131 MB at 8192 trials
    cfg = default_links(1)
    points = [(0, rho0, 1.0) for rho0 in np.geomspace(1e10, 1e14, 2000).tolist()]
    opt = SimOptions(trials=montecarlo._BLOCK, seed=0)
    tracemalloc.start()
    try:
        res = simulate_snr(cfg, GEOM, CON, opt, points=points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.coverage) == 2000
    assert peak < 8_000_000


def test_welford_summary_matches_samples():
    cfg = default_links(2)
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=30_000, seed=11))
    amp = np.sqrt(res.snr_samples / cfg.transmit_snr)
    assert res.abs_mean == pytest.approx(float(amp.mean()), rel=1e-12)
    assert res.abs_var == pytest.approx(float(amp.var()), rel=1e-10)


def test_coverage_rejects_a_nan_threshold():
    cfg = default_links(1)
    with pytest.raises(DomainError, match="rho_th"):
        simulate_snr(cfg, GEOM, CON, SimOptions(trials=500, seed=0),
                     points=((0, cfg.transmit_snr, float("nan")),))


def test_minimum_trials_for_estimators():
    cfg = default_links(1)
    point = (0, cfg.transmit_snr, 1.0)
    with pytest.raises(DomainError, match="at least 100 trials"):
        simulate_snr(cfg, GEOM, CON, SimOptions(trials=50, seed=0), points=(point,))
    simulate_snr(cfg, GEOM, CON, SimOptions(trials=100, seed=0), points=(point,))


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


@pytest.mark.parametrize("field", ["exact_per_ris_sat_distance"])
@pytest.mark.parametrize("value", ["no", 0, 1, None, 1.0])
def test_options_reject_non_bool_flags(field, value):
    # a truthy string would otherwise switch the flag on
    with pytest.raises(DomainError, match=f"{field} must be a bool"):
        SimOptions(**{"trials": 1000, field: value})


def test_options_store_numpy_bools_as_python_bools():
    for value in (True, False):
        opt = SimOptions(trials=1000, exact_per_ris_sat_distance=np.bool_(value))
        assert opt.exact_per_ris_sat_distance is value


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
    queries = [CoverageQuery(rho_th=10.0 ** (th_db / 10.0), rho0=cfg.transmit_snr)
               for th_db in np.linspace(0.0, 40.0, 10)]
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=100_000, seed=31),
                       points=[(0, q.rho0, q.rho_th) for q in queries])
    worst = 0.0
    for q, est in zip(queries, res.coverage):
        worst = max(worst, abs(coverage_probability(q, ga) - est.value))
    assert worst < 0.03


def test_empirical_coverage_domain():
    cfg = default_links(1)
    opt = SimOptions(trials=500, seed=0)
    for point in ((0, cfg.transmit_snr, -1.0), (0, 0.0, 1.0), (0, math.inf, 1.0),
                  (1, cfg.transmit_snr, 1.0), (-1, cfg.transmit_snr, 1.0)):
        with pytest.raises(DomainError):
            simulate_snr(cfg, GEOM, CON, opt, points=(point,))


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
        thresholds = [10.0 ** (th_db / 10.0) for th_db in np.linspace(0.0, 40.0, 10)]
        res = simulate_snr(cfg, geom, CON, SimOptions(trials=40_000, seed=900 + case),
                           points=[(0, cfg.transmit_snr, th) for th in thresholds])
        for th_db, rho_th, est in zip(np.linspace(0.0, 40.0, 10), thresholds, res.coverage):
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
        assert sim.trials == 20_000
    # the full row's samples are the ones its moments were taken from
    amp = np.sqrt(res.snr_samples / full.transmit_snr)
    assert res.abs_mean == pytest.approx(float(amp.mean()), rel=1e-12)
    assert all(sim.nested == () for sim in res.nested)


@pytest.mark.parametrize("variable", ["N", "L"])
@pytest.mark.parametrize("exact", [False, True])
def test_nesting_leaves_the_full_configuration_unchanged(variable, exact):
    full, nested = _nested_grid(variable)
    opt = SimOptions(trials=3000, seed=8, workers=2, exact_per_ris_sat_distance=exact)
    points = [(r, full.transmit_snr, 100.0) for r in range(len(nested) + 1)]
    alone = simulate_snr(full, GEOM, CON, opt, points=[(0, *points[-1][1:])])
    shared = simulate_snr(full, GEOM, CON, opt, nested=nested, points=points)
    again = simulate_snr(full, GEOM, CON, opt, nested=nested, points=points)
    assert np.array_equal(shared.snr_samples, alone.snr_samples)
    assert np.array_equal(shared.snr_samples, again.snr_samples)
    assert (shared.abs_mean, shared.abs_var) == (alone.abs_mean, alone.abs_var)
    assert (shared.coverage[-1], shared.capacity[-1]) == (alone.coverage[0], alone.capacity[0])
    assert (shared.coverage, shared.capacity) == (again.coverage, again.capacity)
    for a, b in zip((*shared.nested, shared), (*again.nested, again)):
        assert (a.abs_mean, a.abs_var) == (b.abs_mean, b.abs_var)


def test_nested_copy_of_the_full_configuration_reads_the_same_row():
    cfg = default_links(3)
    points = [(r, cfg.transmit_snr, th) for r in (0, 1) for th in (1.0, 100.0)]
    res = simulate_snr(cfg, GEOM, CON, SimOptions(trials=2000, seed=4), nested=(cfg,),
                       points=points)
    assert (res.nested[0].abs_mean, res.nested[0].abs_var) == (res.abs_mean, res.abs_var)
    assert res.coverage[:2] == res.coverage[2:] and res.capacity[:2] == res.capacity[2:]


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
    # only the full configuration keeps samples, so nested rows cost none
    monkeypatch.setattr(montecarlo, "MAX_KEPT_SAMPLES", 1000)
    cfg = default_links(2)
    opt = SimOptions(trials=1000, seed=0)
    res = simulate_snr(cfg, GEOM, CON, opt, nested=(default_links(1),))
    assert res.snr_samples.size == 1000 and res.nested[0].snr_samples is None
    with pytest.raises(ComputationError):
        simulate_snr(cfg, GEOM, CON, dataclasses.replace(opt, trials=1001))
