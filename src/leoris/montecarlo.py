"""End-to-end link simulator: draws geometry and fading per trial,
combines the paths coherently (optimal element phases make every term
add as a nonnegative magnitude), and squares into SNR samples.

Each RIS's element sum S = sum_l |h_sat,l| |h_user,l| is drawn from its
tabulated law: the logit Z = ln u - ln(1 - u) of one uniform per trial
(u = 0 reads the first node) reads S = Q_c(Z) from the fading.SumTable
of the RIS's element count c, built before any block runs. Where the
pair's law cannot be tabulated, or a row's count misses its table's gate
(element_sum_tables gives None), the RIS instead draws both hops' powers
per element from numpy's own gamma or noncentral chi-square sampler
(fading.sample_power) and sums the roots sqrt(W_sat W_user), with the
unit-power scale 1 / sqrt(c_sat c_user), c = 2 mu (1 + kappa), in the
gain; so a nested simulation whose rows include a count that misses
draws that RIS per element on every row. The direct path draws its
envelope (sample_envelope).

Satellite distances are drawn independently per link by default, which
is the statistical model the closed-form moments describe. The exact
mode instead serves every link of a trial from one satellite, the one
nearest the user, and measures true per-RIS slant ranges to it; it
exists to quantify the shared-satellite correlation the analysis
neglects. The serving satellite's Beta(1, M) normalized squared range
fixes its polar angle, and each RIS's azimuth about it is uniform, so
neither mode places the other M - 1 satellites.

A block's RISs go through one array pass, in chunks of consecutive RISs
whose (RIS, trial) arrays keep within _PASS_VALUES at the full
configuration's block size (the default eight RISs in blocks of 8192
trials: four chunks of two); each gain d_sat^(-eta/2) r^(-beta/2) is
exp(-(eta/4) ln d_sat^2 - (beta/4) ln r^2). Each step of a chunk is one
numpy call over its (RIS, trial) arrays, written in place into one
thread's scratch: the uniforms, squared distances, gains, logits and
table cells, then per element-sum table the chunk's RISs read one lookup,
which gathers the cells' cubic coefficients one power at a time into a
single (RIS, trial) work array; only each RIS's add into its amplitude
rows, in RIS order, is a call per RIS. The scratch thus holds pass-sized
arrays (four of uniforms, two of squared distances for exact mode, the
work array, the cells and each table's terms), two per-trial vectors and
the (row, trial) amplitudes, whose tallies then take each row's
deviations in turn in the work array: 1.4 MB per thread at the default
configuration. A block draws, in order: in exact mode or with the
direct path on, one uniform per trial (the
serving satellite's, else the direct path's satellite); per chunk, one
(k, RISs, trials) array of uniforms, by row each RIS's radius, height
(k = 3 on a flat region, which draws none, else 4), satellite (in exact
mode its azimuth about the serving one) and element sum, then each
per-element RIS's sat-hop and user-hop powers; last the direct path's
envelope.

One simulation can serve several nested configurations at once (an
RIS-count or element-count sweep): each nested configuration keeps a
prefix of the RIS list, each of its RISs possibly with fewer elements,
and reads its amplitude from the same draws. A row holding c elements
of a tabulated RIS reads Q_c at the RIS's one Z, a comonotone coupling
that keeps each row's law exact; on the per-element path it sums the
leading c elements. The full configuration's draws and arithmetic are
those of a simulation without nested configurations.
Only the full configuration keeps its SNR samples; every configuration
(row) keeps the moments of its amplitude.

A sweep point is tallied inside the simulation, on its row at its
transmit SNR rho0: each block counts the point's SNRs above its
threshold and takes the (count, mean, M2) of log2(1 + SNR), in units
of min(1, rho0), once per distinct (row, rho0), so extra memory per
block is O(points + block). Each row's amplitudes are sorted once per
block, which sorts every tap's SNRs on that row.

Determinism contract: identical (config, seed) give bit-identical
results at any worker count. Trials are cut into blocks of equal size
(only the last may be short), _BLOCK trials unless the full
configuration's largest RIS sets fewer (_block_size); block b draws from
SFC64 seeded by SeedSequence(seed, spawn_key=(0, b)), writes its samples
into its own slice of the output and returns its moments and counts,
which merge in block order. Workers are threads that run blocks, so the
worker count only sets the speed, and no more threads than blocks are
busy (100k trials are 13 blocks). Each thread of a simulation has its
own scratch arrays, which every block it runs overwrites before reading;
no two threads or simulations share them. The scenario's exponent draw
stays on numpy's default_rng (PCG64).
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import reduce
from typing import NamedTuple

import numpy as np

from .channel import LinkConfig
from .errors import ComputationError, DomainError, checked_integer
from .fading import SumTable, element_sum_tables, sample_envelope, sample_power
from .geometry import (
    Constellation,
    CylinderGeometry,
    nearest_sat_fractions,
    ris_squared_distances,
    sat_squared_distances,
    serving_offsets,
    slant_squared_ranges,
)

__all__ = [
    "SimOptions",
    "SimResult",
    "Estimate",
    "simulate_snr",
    "is_nested",
]

# trials per block: each numpy call of the pass spans a chunk's RISs over
# a block's trials, so larger blocks pay less call overhead per trial,
# and smaller ones leave threads more blocks (100k trials are 13)
_BLOCK = 8192
# most elements in one fading array of a block; a block holds two (both
# hops' powers of its largest per-element RIS)
_CHUNK_ELEMENTS = 8_000_000
# most (RIS, trial) values per array of a block's pass (128 KiB); it
# fixes the chunks, and so the draw order, of every simulation, and with
# the block size each thread's scratch
_PASS_VALUES = 1 << 14
# kept SNR samples of one simulation: its trials
MAX_KEPT_SAMPLES = 250_000_000
# fewest trials a simulation that tallies sweep points accepts
MIN_EMPIRICAL_TRIALS = 100
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SimOptions:
    trials: int
    seed: int = 0
    workers: int = 1
    exact_per_ris_sat_distance: bool = False

    def __post_init__(self) -> None:
        for name in ("trials", "seed", "workers"):
            object.__setattr__(self, name, checked_integer(name, getattr(self, name)))
        value = self.exact_per_ris_sat_distance
        if not isinstance(value, (bool, np.bool_)):
            raise DomainError(f"exact_per_ris_sat_distance must be a bool, got {value!r}")
        object.__setattr__(self, "exact_per_ris_sat_distance", bool(value))
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")


class Estimate(NamedTuple):
    value: float
    stderr: float


@dataclass
class SimResult:
    """Streaming moments of the combined response magnitude, the full
    configuration's SNR samples (None on a nested result), and per sweep
    point its coverage and capacity estimates; ``nested`` holds the
    results of the nested configurations simulated from the same draws,
    in the order given."""

    snr_samples: np.ndarray | None
    seed: int
    trials: int
    elapsed: float
    workers: int
    abs_mean: float
    abs_var: float
    nested: tuple["SimResult", ...] = ()
    coverage: tuple[Estimate, ...] = ()
    capacity: tuple[Estimate, ...] = ()


def is_nested(sub: LinkConfig, links: LinkConfig) -> bool:
    """Whether one simulation of ``links`` can also serve ``sub``: a prefix
    of its RIS list in which each RIS is the same except that it may have
    fewer elements, with the same direct path and transmit SNR."""
    return (sub.direct == links.direct and sub.transmit_snr == links.transmit_snr
            and len(sub.ris) <= len(links.ris)
            and all(s.elements <= f.elements and replace(s, elements=f.elements) == f
                    for s, f in zip(sub.ris, links.ris)))


def _row_plan(configs: tuple[LinkConfig, ...]) -> list[tuple[tuple[int, slice | np.ndarray], ...]]:
    """For each RIS of the last (full) configuration, the pairs (element
    count, the amplitude rows that sum that many of its elements: a slice
    where they are consecutive, which adds in place, else their
    indices)."""
    plan = []
    for n in range(len(configs[-1].ris)):
        rows: dict[int, list[int]] = {}
        for r, c in enumerate(configs):
            if n < len(c.ris):
                rows.setdefault(c.ris[n].elements, []).append(r)
        plan.append(tuple((count, slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] < len(idx)
                           else np.array(idx)) for count, idx in sorted(rows.items())))
    return plan


def _block_size(cfg: LinkConfig) -> int:
    """Trials per block: _BLOCK unless the fading arrays of the full
    configuration's largest RIS, drawn per element, would pass
    _CHUNK_ELEMENTS (whichever path the RIS takes)."""
    max_elems = max((link.elements for link in cfg.ris), default=1)
    return max(1, min(_BLOCK, _CHUNK_ELEMENTS // max_elems))


def _sum_tables(cfg: LinkConfig, plan, built: dict | None = None) -> list:
    """Per RIS of the full configuration, its rows' SumTables by element
    count, or None where it draws per-element powers; ``built`` holds the
    tables by (fading pair, element count), None if untabulated."""
    built = {} if built is None else built
    out = []
    for link, rows in zip(cfg.ris, plan):
        pair = (link.sat_fading, link.user_fading)
        if need := [c for c, _ in rows if (pair, c) not in built]:
            new = element_sum_tables(*pair, need)
            built.update(((pair, c), new and new[c]) for c in need)
        tables = {c: built[pair, c] for c, _ in rows}
        out.append(None if None in tables.values() else tables)
    return out


class _Chunk(NamedTuple):
    """RISs lo:hi of the full configuration, which one array pass takes
    together: their gain exponents as columns; the element-sum tables
    they read, in order of first use (all share one z grid), the t-th
    looked up over every RIS of the chunk into term rows t n to
    (t + 1) n, n = hi - lo; and per RIS, None where it draws per element,
    else its (term row, amplitude rows) pairs."""

    lo: int
    hi: int
    eta: np.ndarray
    beta: np.ndarray
    tables: tuple[SumTable, ...]
    terms: tuple


def _chunks(cfg: LinkConfig, plan, tables: list) -> list[_Chunk]:
    """The chunks of the full configuration's RISs, each keeping its
    (RIS, trial) arrays within _PASS_VALUES at the block size."""
    step = max(1, _PASS_VALUES // _block_size(cfg))
    exps = np.array([[-link.sat_exponent / 4.0, -link.user_exponent / 4.0]
                     for link in cfg.ris]).reshape(-1, 2)
    chunks = []
    for lo in range(0, len(cfg.ris), step):
        hi = min(lo + step, len(cfg.ris))
        read = tuple(dict.fromkeys(tables[n][e] for n in range(lo, hi)
                                   if tables[n] is not None for e, _ in plan[n]))
        terms = tuple(None if tables[n] is None else
                      tuple((read.index(tables[n][e]) * (hi - lo) + n - lo, idx)
                            for e, idx in plan[n])
                      for n in range(lo, hi))
        chunks.append(_Chunk(lo, hi, exps[lo:hi, :1], exps[lo:hi, 1:], read, terms))
    return chunks


class _Scratch:
    """One thread's arrays for the blocks of one simulation, sized once
    from the full configuration's block and chunk sizes, and the chunks
    they serve; every block that thread runs overwrites them."""

    def __init__(self, cfg: LinkConfig, plan, rows: int, tables: list, size: int):
        self.chunks = _chunks(cfg, plan, tables)
        width = max((c.hi - c.lo for c in self.chunks), default=0) * size
        terms = max((len(c.tables) * (c.hi - c.lo) for c in self.chunks), default=0)
        self.u = np.empty(4 * width)
        self.r_sq, self.d_sq = np.empty(width), np.empty(width)
        # the pass's, then the tallies' work array
        self.work = np.empty(max(width, size))
        self.cell = np.empty(width, dtype=np.intp)
        self.terms = np.empty(terms * size)
        self.sat, self.trial = np.empty(size), np.empty(size)
        self.amp = np.empty(rows * size)


def _view(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading values of a scratch array, as a C-contiguous ``shape``."""
    return buf[:math.prod(shape)].reshape(shape)


def _simulate_block(cfg: LinkConfig, plan, rows: int, geom: CylinderGeometry,
                    con: Constellation, rng: np.random.Generator, count: int,
                    exact: bool, tables: list, scratch: _Scratch | None = None) -> np.ndarray:
    """Magnitude of the combined response for `count` trials, one row per
    configuration of the plan (the full configuration last), in
    ``scratch`` (None makes one for this block); ``tables`` as _sum_tables
    gives them."""
    if scratch is None:
        scratch = _Scratch(cfg, plan, rows, tables, count)
    amp = _view(scratch.amp, rows, count)
    amp.fill(0.0)
    if exact or cfg.direct.enabled:
        s = _view(scratch.sat, count)
        nearest_sat_fractions(con, rng.random(out=s), out=s)
        offsets = serving_offsets(con, s) if exact else None
    flat = geom.height == 0.0
    for chunk in scratch.chunks:
        n = chunk.hi - chunk.lo
        u = rng.random(out=_view(scratch.u, 4 - flat, n, count))
        # squared distances in place: the radius row on the base, plus the
        # squared heights off a flat region
        radial = ris_squared_distances(geom, u[0], out=u[0])
        height = 0.0 if flat else np.multiply(u[1], geom.height, out=u[1])
        if exact:
            r_sq = np.square(height, out=_view(scratch.r_sq, n, count))
            r_sq += radial
            d_sq = slant_squared_ranges(offsets, radial, height, u[-2],
                                        out=_view(scratch.d_sq, n, count))
        else:
            r_sq = radial
            if not flat:
                r_sq += np.square(height, out=height)
            d_sq = sat_squared_distances(con, nearest_sat_fractions(con, u[-2], out=u[-2]),
                                         out=u[-2])
        # d^(-eta/2) r^(-beta/2) from the squared distances' logarithms
        gain = np.log(d_sq, out=d_sq)
        gain *= chunk.eta
        gain += np.multiply(np.log(r_sq, out=r_sq), chunk.beta, out=r_sq)
        np.exp(gain, out=gain)
        z = u[-1]
        with np.errstate(divide="ignore"):  # u = 0: Z = -inf reads the first node
            ln1m = np.negative(z, out=_view(scratch.work, n, count))
            np.subtract(np.log(z, out=z), np.log1p(ln1m, out=ln1m), out=z)
        if chunk.tables:
            # one cell per (RIS, trial), read by every table (one z grid),
            # then one lookup per table
            cell, frac = chunk.tables[0].cells(z, out=(_view(scratch.cell, n, count), z),
                                               work=_view(scratch.work, n, count))
            terms = _view(scratch.terms, len(chunk.tables) * n, count)
            for t, table in enumerate(chunk.tables):
                out = table.at(cell, frac, out=terms[t * n:(t + 1) * n],
                               work=_view(scratch.work, n, count))
                out *= gain
        for j, (link, entries) in enumerate(zip(cfg.ris[chunk.lo:chunk.hi], chunk.terms)):
            if entries is not None:
                for row, idx in entries:
                    amp[idx] += terms[row]
                continue
            # one root per element; the unit-power scale joins the per-trial gain
            q = sample_power(link.sat_fading, rng, (count, link.elements))
            q *= sample_power(link.user_fading, rng, q.shape)
            np.sqrt(q, out=q)
            g = np.divide(gain[j], math.sqrt(link.sat_fading.power_scale
                                             * link.user_fading.power_scale),
                          out=_view(scratch.trial, count))
            # smaller element counts extend a running sum (the plan is sorted
            # by count); the full count sums q whole, as without nesting
            head, summed = 0.0, 0
            for elements, idx in plan[chunk.lo + j]:
                if elements < link.elements:
                    head = head + q[:, summed:elements].sum(axis=1)
                    summed, total = elements, head
                else:
                    total = q.sum(axis=1)
                amp[idx] += np.multiply(total, g, out=_view(scratch.work, count))
    if cfg.direct.enabled:
        envelope = sample_envelope(cfg.direct.fading, rng, out=_view(scratch.trial, count))
        d_sq = sat_squared_distances(con, s, out=s)
        d_sq **= -cfg.direct.exponent / 4.0
        envelope *= d_sq
        amp += envelope
    return amp


def _merge_moments(state: tuple[int, np.ndarray, np.ndarray],
                   other: tuple[int, np.ndarray, np.ndarray]):
    """Chan et al.'s pairwise merge of per-row (count, mean, M2)."""
    n0, mean0, m20 = state
    n1, mean1, m21 = other
    total = n0 + n1
    delta = mean1 - mean0
    return total, mean0 + delta * n1 / total, m20 + m21 + delta * delta * n0 * n1 / total


def _block_moments(amp: np.ndarray, taps: list, above: np.ndarray, work: np.ndarray | None = None):
    """(count, mean, M2) of each row of ``amp``, then of log2(1 + SNR) of
    each tap, in units of min(1, rho0): a distinct (row, rho0) with its
    points' thresholds and indices. Adds each point's count of SNRs above
    its threshold into ``above``. Sorts the rows that taps read in place;
    ``work``, a float array of at least one row's values, holds each row's
    deviations and each tap's SNRs in turn."""
    rows, count = amp.shape
    work = np.empty(count) if work is None else work
    mean, m2 = np.empty(rows + len(taps)), np.empty(rows + len(taps))
    amp.mean(axis=1, out=mean[:rows])
    for r in range(rows):
        dev = np.subtract(amp[r], mean[r], out=_view(work, count))
        m2[r] = np.square(dev, out=dev).sum()
    # one sort per row: a -> (a rho0) a is monotone for a >= 0, so every
    # tap's SNRs come out sorted for searchsorted
    for r in {tap[0] for tap in taps}:
        amp[r].sort()
    for k, (r, rho0, thresholds, idx) in enumerate(taps, start=rows):
        snr = np.multiply(amp[r], rho0, out=_view(work, count))
        snr *= amp[r]
        above[idx] += snr.size - np.searchsorted(snr, thresholds, side="right")
        # log1p keeps the rates of SNRs far below 1, which 1 + SNR rounds
        # away; the unit min(1, rho0) keeps their squared deviations from
        # underflowing
        rate = np.log1p(snr, out=snr)
        rate /= _LN2 * min(1.0, rho0)
        mean[k] = rate.mean()
        rate -= mean[k]
        m2[k] = np.square(rate, out=rate).sum()
    return count, mean, m2


def simulate_snr(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation,
                 opt: SimOptions, *, nested: tuple[LinkConfig, ...] = (),
                 points=(), tables: dict | None = None) -> SimResult:
    """Simulate the received SNR over opt.trials independent trials.

    Each configuration in ``nested`` must pass ``is_nested(sub, cfg)``; it
    is simulated from the same draws and its result is in the returned
    ``nested``. The full configuration's samples and moments are those of
    a call without ``nested``, at any worker count.

    ``points`` are (row, rho0, rho_th) triples, row indexing (*nested,
    cfg). The result's ``coverage`` and ``capacity`` hold, per point and
    with its standard error, the fraction of the row's SNRs at transmit
    SNR rho0 above rho_th and the mean of their log2(1 + SNR).

    ``tables``, a dict a caller keeps across simulations (runner.sweep
    keeps one per sweep), holds the element-sum tables built so far.
    """
    for sub in nested:
        if not is_nested(sub, cfg):
            raise DomainError(
                "nested configurations must keep a prefix of the RIS list, each RIS "
                "the same up to fewer elements, and the same direct path and transmit SNR"
            )
    rows = len(nested) + 1
    if opt.trials > MAX_KEPT_SAMPLES:
        raise ComputationError(f"{opt.trials} retained samples would exceed the memory "
                               f"budget of {MAX_KEPT_SAMPLES}; lower trials")
    if points and opt.trials < MIN_EMPIRICAL_TRIALS:
        raise DomainError(f"need at least {MIN_EMPIRICAL_TRIALS} trials to tally sweep "
                          f"points, got {opt.trials}")
    groups: dict[tuple[int, float], list[int]] = {}
    for i, (r, rho0, rho_th) in enumerate(points):
        if not (0 <= r < rows and 0.0 < rho0 < math.inf and rho_th >= 0.0):
            raise DomainError(f"a point needs 0 <= row < {rows}, 0 < rho0 < inf and "
                              f"rho_th >= 0, got {(r, rho0, rho_th)}")
        groups.setdefault((r, rho0), []).append(i)
    taps = [(r, rho0, np.array([points[i][2] for i in idx], dtype=float), np.array(idx))
            for (r, rho0), idx in groups.items()]
    start = time.perf_counter()
    plan, size, exact = _row_plan((*nested, cfg)), _block_size(cfg), opt.exact_per_ris_sat_distance
    tables = _sum_tables(cfg, plan, tables)
    samples = np.empty(opt.trials)
    # each thread's own arrays, made by its first block
    local = threading.local()

    def run_block(b: int):
        # SFC64 (cheaper per draw than PCG64) on child b of
        # SeedSequence(opt.seed).spawn(1)[0], without holding every block's
        seq = np.random.SeedSequence(opt.seed, spawn_key=(0, b))
        rng = np.random.Generator(np.random.SFC64(seq))
        lo, hi = b * size, min(opt.trials, (b + 1) * size)
        if not hasattr(local, "scratch"):
            local.scratch = _Scratch(cfg, plan, rows, tables, min(size, opt.trials))
        amp = _simulate_block(cfg, plan, rows, geom, con, rng, hi - lo, exact, tables,
                              local.scratch)
        above = np.zeros(len(points), dtype=np.int64)
        out = samples[lo:hi]
        np.multiply(amp[-1], cfg.transmit_snr, out=out)
        out *= amp[-1]
        return _block_moments(amp, taps, above, local.scratch.work), above

    def merge(state, other):
        return _merge_moments(state[0], other[0]), state[1] + other[1]

    blocks = -(-opt.trials // size)
    pool_size = min(opt.workers, blocks, os.cpu_count() or 1)
    if pool_size <= 1:
        (n, mean, m2), above = reduce(merge, map(run_block, range(blocks)))
    else:
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            (n, mean, m2), above = reduce(merge, pool.map(run_block, range(blocks)))
    elapsed = time.perf_counter() - start
    coverage, capacity = [None] * len(points), [None] * len(points)
    for k, (_, rho0, _, idx) in enumerate(taps):
        unit = min(1.0, rho0)
        rate = Estimate(float(mean[rows + k]) * unit,
                        math.sqrt(m2[rows + k] / (n - 1)) / math.sqrt(n) * unit)
        for i in idx.tolist():
            p = int(above[i]) / n
            coverage[i], capacity[i] = Estimate(p, math.sqrt(p * (1.0 - p) / n)), rate

    def result(r: int) -> SimResult:
        return SimResult(snr_samples=None, seed=opt.seed, trials=opt.trials, elapsed=elapsed,
                         workers=opt.workers, abs_mean=float(mean[r]), abs_var=float(m2[r] / n))

    return replace(result(rows - 1), snr_samples=samples,
                   nested=tuple(map(result, range(rows - 1))),
                   coverage=tuple(coverage), capacity=tuple(capacity))
