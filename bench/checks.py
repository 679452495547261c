"""Correctness checks on what a benchmark run produced.

A sweep point fails when its run raised, when any of its table values is
non-finite or out of range, when its coverage differs from the upper
regularized incomplete Gamma function at the row's own alpha and beta,
when its capacity differs from an independent quadrature of the row's
Gamma model, when the simulation it used disagrees with the closed-form
moments, or when its repetition wrote tables that differ from the first
repetition's. Analytic values are never compared with stored numbers:
a change of the distance law may shift them on purpose.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv

COVERAGE_ABS_TOL = 1e-9
CAPACITY_REL_TOL = 1e-6
# The oracle integrates between these Gamma quantiles; the mass left out
# changes the capacity far below CAPACITY_REL_TOL.
TAIL_MASS = 1e-16
MEAN_SIGMAS = 5.0
# |A| has no finite fourth moment (a RIS term goes as r^(-eps/2) with
# eps >= 2 near the user), so the standard error of the sample variance
# taken from the sample fourth moment misses the rare near-field trials
# and the variance is usually a few percent low. The variance passes
# within MEAN_SIGMAS of those standard errors or within this share.
VAR_REL_FLOOR = 0.15


def point_snrs(cfg, variable: str, value: float) -> tuple[float, float]:
    """Linear (transmit SNR, threshold) of one sweep point."""
    rho0 = cfg.rho0
    rho_th = 10.0 ** (cfg.coverage_threshold_db / 10.0)
    if variable == "rho_th":
        rho_th = 10.0 ** (value / 10.0)
    elif variable == "rho0":
        rho0 = 10.0 ** (value / 10.0)
    return rho0, rho_th


def coverage_oracle(alpha: float, beta: float, rho0: float, rho_th: float) -> float:
    if rho_th == 0.0:
        return 1.0
    return float(gammaincc(alpha, math.sqrt(rho_th / rho0) / beta))


def capacity_oracle(alpha: float, beta: float, rho0: float) -> float:
    """E[log2(1 + rho0 |A|^2)] for |A| ~ Gamma(alpha, beta), by quadrature
    in y = |A| / beta, split at the mode, between Gamma quantiles."""
    c = rho0 * beta * beta
    log_norm = math.lgamma(alpha)

    def integrand(y: float) -> float:
        if y <= 0.0:
            return 0.0
        return math.log1p(c * y * y) * math.exp((alpha - 1.0) * math.log(y) - y - log_norm)

    lo = 0.0 if alpha <= 1.0 else float(gammaincinv(alpha, TAIL_MASS))
    hi = float(gammainccinv(alpha, TAIL_MASS))
    mode = min(max(alpha - 1.0, lo), hi)
    total = 0.0
    for a, b in ((lo, mode), (mode, hi)):
        if b > a:
            total += quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return total / math.log(2.0)


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def check_row(metric: str, row: tuple, rho0: float, rho_th: float) -> list[str]:
    """Problems with one table row (sweep_value, analytic, mc, mc_stderr,
    alpha, beta)."""
    value, analytic, mc, mc_err, alpha, beta = row
    if not _finite(value, analytic, alpha, beta):
        return [f"{metric}: non-finite value in {row}"]
    problems = []
    if not (alpha > 0 and beta > 0):
        problems.append(f"{metric}: Gamma parameters not positive: {alpha}, {beta}")
        return problems
    if (mc is None) != (mc_err is None):
        problems.append(f"{metric}: half-filled Monte Carlo columns: {mc}, {mc_err}")
    elif mc is not None:
        if not _finite(mc, mc_err) or mc_err < 0:
            problems.append(f"{metric}: bad Monte Carlo estimate {mc} +- {mc_err}")
        elif metric == "coverage" and not 0.0 <= mc <= 1.0:
            problems.append(f"coverage: simulated value {mc} outside [0, 1]")
        elif metric == "capacity" and mc < 0.0:
            problems.append(f"capacity: negative simulated value {mc}")
    if metric == "coverage":
        if not 0.0 <= analytic <= 1.0:
            problems.append(f"coverage: {analytic} outside [0, 1]")
        expected = coverage_oracle(alpha, beta, rho0, rho_th)
        if abs(analytic - expected) > COVERAGE_ABS_TOL:
            problems.append(f"coverage at {value}: {analytic!r} but gammaincc gives {expected!r}")
    elif metric == "capacity":
        if analytic < 0.0:
            problems.append(f"capacity: negative value {analytic}")
        expected = capacity_oracle(alpha, beta, rho0)
        if abs(analytic - expected) > CAPACITY_REL_TOL * abs(expected):
            problems.append(f"capacity at {value}: {analytic!r} but quadrature gives {expected!r}")
    else:
        problems.append(f"unknown metric table {metric!r}")
    return problems


def check_simulation(leoris, args: tuple, result) -> list[str]:
    """Simulated |A| moments against mean_abs_A / var_abs_A.

    ``args`` are the (links, geometry, constellation, options) the sweep
    passed to simulate_snr. The exact mode keeps the shared-satellite
    correlation the closed forms neglect, so only its mean is compared.
    """
    links, geom, con, opt = args
    mean = leoris.mean_abs_A(links, geom, con)
    var = leoris.var_abs_A(links, geom, con)
    n = result.trials
    problems = []
    if not _finite(result.abs_mean, result.abs_var):
        return [f"simulation: non-finite moments {result.abs_mean}, {result.abs_var}"]
    se_mean = math.sqrt(result.abs_var / n)
    if abs(result.abs_mean - mean) > MEAN_SIGMAS * se_mean:
        problems.append(f"simulation: mean |A| {result.abs_mean!r} vs closed form {mean!r} "
                        f"(> {MEAN_SIGMAS} x {se_mean:.3g})")
    if not opt.exact_per_ris_sat_distance:
        amp = np.sqrt(result.snr_samples / links.transmit_snr)
        m4 = float(np.mean((amp - amp.mean()) ** 4))
        se_var = math.sqrt(max(m4 - result.abs_var ** 2, 0.0) / n)
        tol = max(MEAN_SIGMAS * se_var, VAR_REL_FLOOR * var)
        if abs(result.abs_var - var) > tol:
            problems.append(f"simulation: var |A| {result.abs_var!r} vs closed form {var!r} "
                            f"(> {tol:.3g})")
    return problems


def check_tables(cfg, tables, simulations: list[tuple], leoris) -> list[list[str]]:
    """Problems per sweep point (an empty list: the point passed) in one
    repetition's tables.

    ``simulations`` holds the (args, result) of every simulate_snr call of
    the sweep, in call order: one shared by all points, or one per point.
    """
    grid = cfg.sweep.grid
    variable = cfg.sweep.variable
    problems: list[list[str]] = [[] for _ in grid]
    for table in tables:
        if len(table.rows) != len(grid):
            for p in problems:
                p.append(f"{table.metric}: {len(table.rows)} rows for {len(grid)} points")
            continue
        for i, row in enumerate(table.rows):
            if row[0] != grid[i]:
                problems[i].append(f"{table.metric}: row {i} is for {row[0]}, not {grid[i]}")
                continue
            rho0, rho_th = point_snrs(cfg, variable, row[0])
            problems[i].extend(check_row(table.metric, row, rho0, rho_th))
    if cfg.mc_enabled:
        if len(simulations) not in (1, len(grid)):
            for p in problems:
                p.append(f"{len(simulations)} simulations for {len(grid)} points")
        for k, (args, result) in enumerate(simulations):
            found = check_simulation(leoris, args, result)
            targets = problems if len(simulations) == 1 else [problems[k]]
            for p in targets:
                p.extend(found)
    return problems


def digest(paths) -> str:
    """SHA-256 over the bytes of the written files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def ks_distance(amplitudes: np.ndarray, alpha: float, beta: float) -> float:
    """Kolmogorov-Smirnov distance between samples and Gamma(alpha, beta)."""
    x = np.sort(amplitudes)
    cdf = gammainc(alpha, x / beta)
    n = x.size
    return float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))
