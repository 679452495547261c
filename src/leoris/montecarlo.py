"""End-to-end link simulator: draws geometry and fading per trial,
combines the paths coherently (optimal element phases make every term
add as a nonnegative magnitude), and squares into SNR samples.

Satellite distances are drawn independently per link by default, which
is the statistical model the closed-form moments describe. The exact
mode instead serves every link of a trial from one satellite, the one
nearest the user, and measures true per-RIS slant ranges to it; it
exists to quantify the shared-satellite correlation the analysis
neglects. The serving satellite's position is drawn directly from its
law (Beta(1, M) range, polar angle fixed by the range, uniform azimuth),
so neither mode places the other M - 1 satellites.

One simulation can serve several nested configurations at once (an
RIS-count or element-count sweep): each nested configuration keeps a
prefix of the RIS list, each of its RISs possibly with fewer elements,
and reads its amplitude from the same draws, summing the leading
elements of each RIS it holds. The full configuration's draws and
arithmetic are those of a simulation without nested configurations.

Determinism contract: identical (config, seed) give bit-identical
results at any worker count. Trials are cut into fixed blocks of _BLOCK
trials (only the last may be short); block b draws from SFC64 seeded by
SeedSequence(seed, spawn_key=(0, b)), writes its samples into its own
slice of the output and returns its moments, which merge in block order.
Workers are threads that run blocks, so the worker count only sets the
speed. The scenario's exponent draw stays on numpy's default_rng (PCG64).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import reduce
from typing import NamedTuple

import numpy as np

from .channel import LinkConfig
from .errors import ComputationError, DomainError, checked_integer
from .fading import sample_envelope
from .geometry import (
    Constellation,
    CylinderGeometry,
    sample_nearest_sat_distance,
    sample_ris_distances,
    sample_ris_positions,
    sample_serving_satellite,
)

__all__ = [
    "SimOptions",
    "SimResult",
    "Estimate",
    "simulate_snr",
    "is_nested",
    "empirical_coverage",
    "empirical_capacity",
]

_BLOCK = 4096
# elements in one fading array of a chunk
_CHUNK_ELEMENTS = 8_000_000
# per-row (count, mean, M2) of no trials
_NO_MOMENTS = (0, None, None)
# kept SNR samples, summed over the configurations of one simulation
MAX_KEPT_SAMPLES = 250_000_000
# fewest trials the empirical estimators accept
MIN_EMPIRICAL_TRIALS = 100


@dataclass(frozen=True)
class SimOptions:
    trials: int
    seed: int = 0
    workers: int = 1
    exact_per_ris_sat_distance: bool = False
    keep_samples: bool = True

    def __post_init__(self) -> None:
        for name in ("trials", "seed", "workers"):
            object.__setattr__(self, name, checked_integer(name, getattr(self, name)))
        for name in ("exact_per_ris_sat_distance", "keep_samples"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise DomainError(f"{name} must be a bool, got {value!r}")
            object.__setattr__(self, name, bool(value))
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")


@dataclass
class SimResult:
    """SNR samples (when kept) plus streaming moments of the combined
    response magnitude; ``nested`` holds the results of the nested
    configurations simulated from the same draws, in the order given."""

    snr_samples: np.ndarray | None
    seed: int
    trials: int
    elapsed: float
    workers: int
    abs_mean: float
    abs_var: float
    nested: tuple["SimResult", ...] = ()


class Estimate(NamedTuple):
    value: float
    stderr: float


def is_nested(sub: LinkConfig, links: LinkConfig) -> bool:
    """Whether one simulation of ``links`` can also serve ``sub``: a prefix
    of its RIS list in which each RIS is the same except that it may have
    fewer elements, with the same direct path and transmit SNR."""
    return (sub.direct == links.direct and sub.transmit_snr == links.transmit_snr
            and len(sub.ris) <= len(links.ris)
            and all(s.elements <= f.elements and replace(s, elements=f.elements) == f
                    for s, f in zip(sub.ris, links.ris)))


def _row_plan(configs: tuple[LinkConfig, ...]) -> list[tuple[tuple[int, np.ndarray], ...]]:
    """For each RIS of the last (full) configuration, the pairs (element
    count, indices of the amplitude rows that sum that many of its
    elements)."""
    plan = []
    for n in range(len(configs[-1].ris)):
        rows: dict[int, list[int]] = {}
        for r, c in enumerate(configs):
            if n < len(c.ris):
                rows.setdefault(c.ris[n].elements, []).append(r)
        plan.append(tuple((count, np.array(idx)) for count, idx in sorted(rows.items())))
    return plan


def _chunk_cap(cfg: LinkConfig) -> int:
    """Trials per chunk of a block: the whole block unless the full
    configuration's largest fading array would pass _CHUNK_ELEMENTS."""
    max_elems = max((link.elements for link in cfg.ris), default=1)
    return max(1, min(_BLOCK, _CHUNK_ELEMENTS // max_elems))


def _simulate_chunk(cfg: LinkConfig, plan, rows: int, geom: CylinderGeometry,
                    con: Constellation, rng: np.random.Generator, count: int,
                    exact: bool) -> np.ndarray:
    """Magnitude of the combined response for `count` trials, one row per
    configuration of the plan (the full configuration last)."""
    amp = np.zeros((rows, count))
    if exact:
        serving, r_user = sample_serving_satellite(con, rng, count)
    for n, link in enumerate(cfg.ris):
        if exact:
            pos = sample_ris_positions(geom, rng, count)
            r_sat = np.linalg.norm(serving - pos, axis=1)
            r_ris = np.linalg.norm(pos, axis=1)
        else:
            r_sat = sample_nearest_sat_distance(con, rng, count)
            r_ris = sample_ris_distances(geom, rng, count)
        q = sample_envelope(link.sat_fading, rng, (count, link.elements))
        q *= sample_envelope(link.user_fading, rng, (count, link.elements))
        sat_gain = r_sat ** (-link.sat_exponent / 2.0)
        ris_gain = r_ris ** (-link.user_exponent / 2.0)
        # smaller element counts extend a running sum (the plan is sorted
        # by count); the full count sums q whole, as without nesting
        head, summed = 0.0, 0
        for elements, idx in plan[n]:
            if elements < link.elements:
                head = head + q[:, summed:elements].sum(axis=1)
                summed, total = elements, head
            else:
                total = q.sum(axis=1)
            amp[idx] += total * sat_gain * ris_gain
    if cfg.direct.enabled:
        if not exact:
            r_user = sample_nearest_sat_distance(con, rng, count)
        u = sample_envelope(cfg.direct.fading, rng, count)
        amp += u * r_user ** (-cfg.direct.exponent / 2.0)
    return amp


def _merge_moments(state: tuple[int, np.ndarray, np.ndarray],
                   other: tuple[int, np.ndarray, np.ndarray]):
    """Chan et al.'s pairwise merge of per-row (count, mean, M2)."""
    n0, mean0, m20 = state
    n1, mean1, m21 = other
    if n0 == 0:
        return other
    total = n0 + n1
    delta = mean1 - mean0
    return total, mean0 + delta * n1 / total, m20 + m21 + delta * delta * n0 * n1 / total


def simulate_snr(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation,
                 opt: SimOptions, *, nested: tuple[LinkConfig, ...] = ()) -> SimResult:
    """Simulate the received SNR over opt.trials independent trials.

    Each configuration in ``nested`` must pass ``is_nested(sub, cfg)``; it
    is simulated from the same draws and its result is in the returned
    ``nested``. The full configuration's samples and moments are those of
    a call without ``nested``, at any worker count.
    """
    for sub in nested:
        if not is_nested(sub, cfg):
            raise DomainError(
                "nested configurations must keep a prefix of the RIS list, each RIS "
                "the same up to fewer elements, and the same direct path and transmit SNR"
            )
    rows = len(nested) + 1
    if opt.keep_samples and opt.trials * rows > MAX_KEPT_SAMPLES:
        raise ComputationError(
            f"{opt.trials} retained samples for each of {rows} configurations would "
            "exceed the memory budget; lower trials or set keep_samples=False"
        )
    start = time.perf_counter()
    plan, cap, exact = _row_plan((*nested, cfg)), _chunk_cap(cfg), opt.exact_per_ris_sat_distance
    samples = np.empty((rows, opt.trials)) if opt.keep_samples else None

    def run_block(b: int):
        # SFC64 (cheaper per draw than PCG64) on child b of
        # SeedSequence(opt.seed).spawn(1)[0], without holding every block's
        seq = np.random.SeedSequence(opt.seed, spawn_key=(0, b))
        rng = np.random.Generator(np.random.SFC64(seq))
        moments = _NO_MOMENTS
        lo, hi = b * _BLOCK, min(opt.trials, (b + 1) * _BLOCK)
        while lo < hi:
            c = min(cap, hi - lo)
            amp = _simulate_chunk(cfg, plan, rows, geom, con, rng, c, exact)
            mb = amp.mean(axis=1)
            moments = _merge_moments(moments, (c, mb, ((amp - mb[:, None]) ** 2).sum(axis=1)))
            if samples is not None:
                out = samples[:, lo:lo + c]
                np.multiply(amp, cfg.transmit_snr, out=out)
                out *= amp
            lo += c
        return moments

    blocks = -(-opt.trials // _BLOCK)
    pool_size = min(opt.workers, blocks, os.cpu_count() or 1)
    if pool_size <= 1:
        n, mean, m2 = reduce(_merge_moments, map(run_block, range(blocks)), _NO_MOMENTS)
    else:
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            n, mean, m2 = reduce(_merge_moments, pool.map(run_block, range(blocks)), _NO_MOMENTS)
    elapsed = time.perf_counter() - start

    def result(r: int, sub: tuple[SimResult, ...] = ()) -> SimResult:
        return SimResult(
            snr_samples=None if samples is None else samples[r],
            seed=opt.seed,
            trials=opt.trials,
            elapsed=elapsed,
            workers=opt.workers,
            abs_mean=float(mean[r]),
            abs_var=float(m2[r] / n),
            nested=sub,
        )

    return result(rows - 1, tuple(result(r) for r in range(rows - 1)))


def _require_samples(res: SimResult) -> np.ndarray:
    if res.snr_samples is None:
        raise DomainError("SimResult carries no samples (run with keep_samples=True)")
    if res.trials < MIN_EMPIRICAL_TRIALS:
        raise DomainError(f"need at least {MIN_EMPIRICAL_TRIALS} trials for empirical "
                          f"metrics, got {res.trials}")
    return res.snr_samples


def empirical_coverage(res: SimResult, rho_th: float) -> Estimate:
    """Fraction of SNR samples above the threshold, with binomial stderr."""
    samples = _require_samples(res)
    if not rho_th >= 0:
        raise DomainError(f"rho_th must be >= 0, got {rho_th}")
    p = float(np.mean(samples > rho_th))
    return Estimate(p, float(np.sqrt(p * (1.0 - p) / samples.size)))


def empirical_capacity(res: SimResult) -> Estimate:
    """Sample mean of log2(1 + SNR), with its standard error; log1p keeps
    the rates of SNRs far below 1, which 1 + SNR rounds away."""
    samples = _require_samples(res)
    rates = np.log1p(samples) / np.log(2.0)
    return Estimate(float(rates.mean()),
                    float(rates.std(ddof=1) / np.sqrt(rates.size)))
