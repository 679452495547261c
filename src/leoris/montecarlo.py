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

Determinism contract: identical (config, seed, workers) give
bit-identical results. Worker streams are spawned from the root seed, and
the merge is in fixed worker order, so running the partitions serially or
in a process pool yields the same output.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import LinkConfig
from .errors import ComputationError, DomainError
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
    "empirical_coverage",
    "empirical_capacity",
]

_CHUNK = 65536
_MAX_KEPT_SAMPLES = 250_000_000


@dataclass(frozen=True)
class SimOptions:
    trials: int
    seed: int = 0
    workers: int = 1
    exact_per_ris_sat_distance: bool = False
    fixed_ris_positions: bool = False
    keep_samples: bool = True

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")


@dataclass
class SimResult:
    """SNR samples (when kept) plus streaming moments of the combined
    response magnitude."""

    snr_samples: np.ndarray | None
    seed: int
    trials: int
    elapsed: float
    workers: int
    abs_mean: float
    abs_var: float


class Estimate(NamedTuple):
    value: float
    stderr: float


def _chunk_cap(cfg: LinkConfig, con: Constellation, exact: bool) -> int:
    max_elems = max((link.elements for link in cfg.ris), default=1)
    cap = min(_CHUNK, max(1024, 8_000_000 // max_elems))
    if exact:
        cap = min(cap, max(64, 2_000_000 // con.satellites))
    return cap


def _simulate_chunk(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation,
                    rng: np.random.Generator, count: int, exact: bool,
                    fixed_pos: np.ndarray | None) -> np.ndarray:
    """Magnitude of the combined response for `count` trials."""
    amp = np.zeros(count)
    if exact:
        serving, r_user = sample_serving_satellite(con, rng, count)
    for n, link in enumerate(cfg.ris):
        if exact:
            if fixed_pos is not None:
                pos = np.broadcast_to(fixed_pos[n], (count, 3))
            else:
                pos = sample_ris_positions(geom, rng, count)
            r_sat = np.linalg.norm(serving - pos, axis=1)
            r_ris = np.linalg.norm(pos, axis=1)
        else:
            r_sat = sample_nearest_sat_distance(con, rng, count)
            if fixed_pos is not None:
                r_ris = np.full(count, float(np.linalg.norm(fixed_pos[n])))
            else:
                r_ris = sample_ris_distances(geom, rng, count)
        q = sample_envelope(link.sat_fading, rng, (count, link.elements))
        g = sample_envelope(link.user_fading, rng, (count, link.elements))
        amp += ((q * g).sum(axis=1)
                * r_sat ** (-link.sat_exponent / 2.0)
                * r_ris ** (-link.user_exponent / 2.0))
    if cfg.direct.enabled:
        if not exact:
            r_user = sample_nearest_sat_distance(con, rng, count)
        u = sample_envelope(cfg.direct.fading, rng, count)
        amp += u * r_user ** (-cfg.direct.exponent / 2.0)
    return amp


def _merge_moments(state: tuple[int, float, float],
                   other: tuple[int, float, float]) -> tuple[int, float, float]:
    n0, mean0, m20 = state
    n1, mean1, m21 = other
    if n1 == 0:
        return state
    if n0 == 0:
        return other
    total = n0 + n1
    delta = mean1 - mean0
    mean = mean0 + delta * n1 / total
    m2 = m20 + m21 + delta * delta * n0 * n1 / total
    return total, mean, m2


def _run_partition(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation,
                   count: int, seed_seq: np.random.SeedSequence, exact: bool,
                   fixed_pos, keep: bool):
    rng = np.random.default_rng(seed_seq)
    samples = np.empty(count) if keep else None
    moments = (0, 0.0, 0.0)
    cap = _chunk_cap(cfg, con, exact)
    done = 0
    while done < count:
        c = min(cap, count - done)
        amp = _simulate_chunk(cfg, geom, con, rng, c, exact, fixed_pos)
        if keep:
            samples[done:done + c] = cfg.transmit_snr * amp * amp
        mb = float(amp.mean())
        moments = _merge_moments(moments, (c, mb, float(((amp - mb) ** 2).sum())))
        done += c
    return samples, moments


def simulate_snr(cfg: LinkConfig, geom: CylinderGeometry, con: Constellation,
                 opt: SimOptions) -> SimResult:
    """Simulate the received SNR over opt.trials independent trials."""
    if opt.keep_samples and opt.trials > _MAX_KEPT_SAMPLES:
        raise ComputationError(
            f"{opt.trials} retained samples would exceed the memory budget; "
            "lower trials or set keep_samples=False"
        )
    start = time.perf_counter()
    root = np.random.SeedSequence(opt.seed)
    sim_root, geo_root = root.spawn(2)
    fixed_pos = None
    if opt.fixed_ris_positions and cfg.ris:
        fixed_pos = sample_ris_positions(geom, np.random.default_rng(geo_root), len(cfg.ris))
    workers = opt.workers
    # partition i holds trials // workers trials, plus one for i < trials % workers;
    # partitions past the trial count would be empty
    partitions = min(workers, opt.trials)
    worker_seeds = sim_root.spawn(partitions)
    args = [(cfg, geom, con, opt.trials // workers + (i < opt.trials % workers),
             worker_seeds[i], opt.exact_per_ris_sat_distance, fixed_pos, opt.keep_samples)
            for i in range(partitions)]
    pool_size = min(partitions, os.cpu_count() or 1)
    if pool_size <= 1:
        parts = [_run_partition(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            parts = list(pool.map(_run_partition_star, args))
    moments = (0, 0.0, 0.0)
    for _, m in parts:
        moments = _merge_moments(moments, m)
    if opt.keep_samples:
        samples = np.concatenate([p[0] for p in parts]) if parts else np.empty(0)
    else:
        samples = None
    n, mean, m2 = moments
    return SimResult(
        snr_samples=samples,
        seed=opt.seed,
        trials=opt.trials,
        elapsed=time.perf_counter() - start,
        workers=workers,
        abs_mean=mean,
        abs_var=m2 / n if n else 0.0,
    )


def _run_partition_star(args):
    return _run_partition(*args)


def _require_samples(res: SimResult) -> np.ndarray:
    if res.snr_samples is None:
        raise DomainError("SimResult carries no samples (run with keep_samples=True)")
    if res.trials < 100:
        raise DomainError(f"need at least 100 trials for empirical metrics, got {res.trials}")
    return res.snr_samples


def empirical_coverage(res: SimResult, rho_th: float) -> Estimate:
    """Fraction of SNR samples above the threshold, with binomial stderr."""
    samples = _require_samples(res)
    if rho_th < 0:
        raise DomainError(f"rho_th must be >= 0, got {rho_th}")
    p = float(np.mean(samples > rho_th))
    return Estimate(p, float(np.sqrt(p * (1.0 - p) / samples.size)))


def empirical_capacity(res: SimResult) -> Estimate:
    """Sample mean of log2(1 + SNR), with its standard error."""
    samples = _require_samples(res)
    rates = np.log2(1.0 + samples)
    return Estimate(float(rates.mean()),
                    float(rates.std(ddof=1) / np.sqrt(rates.size)))
