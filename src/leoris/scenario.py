"""Scenario files: loading, validation, resolution and the reproducibility
echo.

A scenario is one YAML document describing the constellation, the RIS
deployment region, the signal paths, transmit power, the sweep to run and
Monte Carlo options. Randomized per-RIS exponents are drawn once at
resolution time from a recorded sub-seed; the resolved echo pins the drawn
values so a re-run reproduces the outputs bit for bit.

Kilometers and dBm appear only here; everything downstream runs on meters
and linear ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .channel import DirectPath, LinkConfig, RisLink
from .errors import ConfigError
from .fading import KappaMuParams
from .geometry import Constellation, CylinderGeometry
from .montecarlo import SimOptions

__all__ = [
    "ScenarioConfig",
    "SweepSpec",
    "OutputSpec",
    "load_scenario",
    "parse_scenario",
    "resolved_mapping",
    "SWEEP_VARIABLES",
]

SWEEP_VARIABLES = ("rho_th", "rho0", "N", "L", "R0", "H")
# caps on the counts that size memory: RISs, elements per RIS, grid points
MAX_RIS = 10_000
MAX_ELEMENTS = 10_000
MAX_GRID_POINTS = 1_000_000


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _linear(db: float, path: str, convert=db_to_linear) -> float:
    """``convert(db)``, which must be a finite positive ratio."""
    try:
        value = convert(db)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{path}: {db:g} is outside the range of finite positive linear values")
    return value


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    grid: tuple[float, ...]


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    format: str = "csv"


@dataclass(frozen=True)
class ScenarioConfig:
    constellation: Constellation
    geometry: CylinderGeometry
    links: LinkConfig
    symbol_energy_w: float
    noise_dbm: float
    coverage_threshold_db: float
    sweep: SweepSpec
    mc_enabled: bool
    mc: SimOptions
    output: OutputSpec
    exponent_seed: int | None = None
    exponent_range: tuple[float, float] | None = None

    @property
    def rho0(self) -> float:
        return self.links.transmit_snr

    @property
    def rho0_db(self) -> float:
        return 10.0 * math.log10(self.rho0)


_SENTINEL = object()


def _get(mapping: dict, path: str, default=_SENTINEL):
    node: Any = mapping
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _SENTINEL:
                raise ConfigError(f"{path}: required field is missing")
            return default
        node = node[part]
    return node


def _finite(val, path: str) -> float:
    """A YAML number as a finite float; NaN, +-inf and integers beyond the
    float range are rejected."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {val!r}")
    try:
        v = float(val)
    except OverflowError:
        raise ConfigError(f"{path}: expected a finite number, got an integer beyond "
                          "the float range") from None
    if not math.isfinite(v):
        raise ConfigError(f"{path}: expected a finite number, got {v}")
    return v


def _number(mapping: dict, path: str, *, default=None, minimum=None,
            strict_min=None, maximum=None) -> float:
    val = _get(mapping, path) if default is None else _get(mapping, path, default)
    v = _finite(val, path)
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {v}")
    if strict_min is not None and v <= strict_min:
        raise ConfigError(f"{path}: must be > {strict_min}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {v}")
    return v


def _meters(mapping: dict, path: str, **limits) -> float:
    """A positive length in km as a finite number of meters."""
    km = _number(mapping, path, strict_min=0.0, **limits)
    if not km * 1000.0 < math.inf:
        raise ConfigError(f"{path}: {km:g} km is beyond the float range in meters")
    return km * 1000.0


def _integer(mapping: dict, path: str, *, default=None, minimum=None, maximum=None) -> int:
    val = _get(mapping, path) if default is None else _get(mapping, path, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}: expected an integer, got {val!r}")
    _finite(val, path)
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {val}")
    return val


def _boolean(mapping: dict, path: str, default: bool) -> bool:
    val = _get(mapping, path, default)
    if not isinstance(val, bool):
        raise ConfigError(f"{path}: expected true/false, got {val!r}")
    return val


def _per_ris_values(raw, count: int, path: str):
    """Expand a scalar template or validate an explicit per-RIS list."""
    if isinstance(raw, list):
        if len(raw) != count:
            raise ConfigError(f"{path}: list length {len(raw)} != ris.count {count}")
        return list(raw)
    return [raw] * count


def _exponent(value, path: str) -> float:
    """A path-loss exponent: a finite number >= 2."""
    v = _finite(value, path)
    if v < 2.0:
        raise ConfigError(f"{path}: path-loss exponent must be >= 2, got {v}")
    return v


def _fading_params(node, path: str, laws: dict) -> KappaMuParams:
    """The law at node, as the object ``laws`` holds for an equal law, so
    RISs with equal laws share one object and compare by identity."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping with kappa and mu")
    kappa = _number(node, "kappa", minimum=0.0)
    mu = _number(node, "mu", strict_min=0.0)
    law = KappaMuParams(kappa=kappa, mu=mu)
    return laws.setdefault(law, law)


def user_exponent_draws(seed: int, span: tuple[float, float], count: int) -> list[float]:
    """``count`` user-hop exponents drawn uniformly from ``span`` = (low,
    high) with ``seed``; the draws for n RISs share their prefix with
    every smaller count."""
    low, high = span
    return (low + (high - low) * np.random.default_rng(seed).random(count)).tolist()


def _resolve_user_exponents(node, count: int, path: str):
    """Explicit value(s), or a {low, high, seed} range drawn once.

    Returns (values, seed_used_or_None, range_or_None).
    """
    if isinstance(node, dict):
        low = _number(node, "low", minimum=2.0)
        high = _number(node, "high", minimum=low)
        seed = _integer(node, "seed", minimum=0)
        return user_exponent_draws(seed, (low, high), count), seed, (low, high)
    values = _per_ris_values(node, count, path)
    return [_exponent(v, f"{path}[{i}]") for i, v in enumerate(values)], None, None


def _recorded_exponent_draw(raw: dict):
    """Sub-seed and range of an earlier exponent draw, as the resolved echo
    records them next to the pinned values; (None, None) when absent."""
    seed = _get(raw, "resolved.user_exponent_seed", None)
    span = _get(raw, "resolved.user_exponent_range", None)
    if seed is None and span is None:
        return None, None
    seed = _integer(raw, "resolved.user_exponent_seed", minimum=0)
    if not (isinstance(span, list) and len(span) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in span)
            and 2.0 <= span[0] <= span[1] and math.isfinite(span[1])):
        raise ConfigError("resolved.user_exponent_range: expected [low, high] with "
                          f"2 <= low <= high, got {span!r}")
    return seed, (float(span[0]), float(span[1]))


def parse_scenario(raw: dict) -> ScenarioConfig:
    """Validate a parsed YAML mapping and build the typed scenario."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a mapping of sections")

    con = Constellation(
        satellites=_integer(raw, "constellation.satellites", minimum=1),
        altitude=_meters(raw, "constellation.altitude_km"),
        earth_radius=_meters(raw, "constellation.earth_radius_km", default=6371.0),
    )
    try:
        geom = CylinderGeometry(
            base_radius=_number(raw, "geometry.base_radius_m", strict_min=0.0),
            height=_number(raw, "geometry.height_m", default=0.0, minimum=0.0),
            inner_radius=_number(raw, "geometry.inner_radius_m", default=0.0, minimum=0.0),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"geometry: {exc}") from exc

    count = _integer(raw, "ris.count", minimum=0, maximum=MAX_RIS)
    exponent_seed = None
    exponent_range = None
    ris_links: tuple[RisLink, ...] = ()
    if count > 0:
        elements_raw = _get(raw, "ris.elements")
        elements = _per_ris_values(elements_raw, count, "ris.elements")
        for i, e in enumerate(elements):
            if isinstance(e, bool) or not isinstance(e, int) or not 1 <= e <= MAX_ELEMENTS:
                raise ConfigError(f"ris.elements[{i}]: expected an integer in "
                                  f"[1, {MAX_ELEMENTS}], got {e!r}")
        sat_fading_raw = _get(raw, "ris.sat_fading")
        sat_fadings = _per_ris_values(sat_fading_raw, count, "ris.sat_fading")
        user_fading_raw = _get(raw, "ris.user_fading")
        user_fadings = _per_ris_values(user_fading_raw, count, "ris.user_fading")
        sat_exps = _per_ris_values(_get(raw, "ris.sat_exponent"), count, "ris.sat_exponent")
        sat_exps = [_exponent(v, f"ris.sat_exponent[{i}]") for i, v in enumerate(sat_exps)]
        user_exps, exponent_seed, exponent_range = _resolve_user_exponents(
            _get(raw, "ris.user_exponent"), count, "ris.user_exponent")
        if exponent_seed is None:
            # a resolved echo pins the values; count sweeps redraw from the seed
            exponent_seed, exponent_range = _recorded_exponent_draw(raw)
        laws: dict[KappaMuParams, KappaMuParams] = {}
        ris_links = tuple(
            RisLink(
                elements=int(elements[i]),
                sat_fading=_fading_params(sat_fadings[i], f"ris.sat_fading[{i}]", laws),
                user_fading=_fading_params(user_fadings[i], f"ris.user_fading[{i}]", laws),
                sat_exponent=sat_exps[i],
                user_exponent=user_exps[i],
            )
            for i in range(count)
        )

    direct = DirectPath(
        enabled=_boolean(raw, "direct_path.enabled", True),
        fading=KappaMuParams(
            kappa=_number(raw, "direct_path.kappa", default=0.0, minimum=0.0),
            mu=_number(raw, "direct_path.mu", default=1.0, strict_min=0.0),
        ),
        exponent=_number(raw, "direct_path.exponent", default=2.0, minimum=2.0),
    )

    symbol_energy = _number(raw, "power.symbol_energy_w", strict_min=0.0)
    noise_dbm = _number(raw, "power.noise_dbm")
    rho0 = symbol_energy / _linear(noise_dbm, "power.noise_dbm", dbm_to_watts)
    if not 0.0 < rho0 < math.inf:
        raise ConfigError(f"power.symbol_energy_w: transmit SNR {rho0} at noise "
                          f"{noise_dbm:g} dBm is not a finite positive ratio")
    links = LinkConfig(ris=ris_links, direct=direct, transmit_snr=rho0)

    coverage_threshold_db = _number(raw, "metrics.coverage_threshold_db", default=20.0)
    _linear(coverage_threshold_db, "metrics.coverage_threshold_db")

    sweep_node = _get(raw, "sweep")
    if not isinstance(sweep_node, dict):
        raise ConfigError("sweep: expected a mapping with variable and grid")
    variable = _get(raw, "sweep.variable")
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(
            f"sweep.variable: must be one of {', '.join(SWEEP_VARIABLES)}, got {variable!r}")
    grid = parse_grid(_get(raw, "sweep.grid"), variable, "sweep.grid")

    mc_enabled = _boolean(raw, "monte_carlo.enabled", False)
    mc = SimOptions(
        trials=_integer(raw, "monte_carlo.trials", default=100_000, minimum=1),
        seed=_integer(raw, "monte_carlo.seed", default=0, minimum=0),
        workers=_integer(raw, "monte_carlo.workers", default=1, minimum=1),
        exact_per_ris_sat_distance=_boolean(raw, "monte_carlo.exact_per_ris_sat_distance", False),
    )
    # echoes written while the mode existed record false, and still load
    if _boolean(raw, "monte_carlo.fixed_ris_positions", False):
        raise ConfigError("monte_carlo.fixed_ris_positions: removed; RIS positions are "
                          "drawn per trial, as the closed forms average over them")

    fmt = _get(raw, "output.format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format: must be csv or json, got {fmt!r}")
    output = OutputSpec(directory=str(_get(raw, "output.directory", "out")), format=fmt)

    return ScenarioConfig(
        constellation=con,
        geometry=geom,
        links=links,
        symbol_energy_w=symbol_energy,
        noise_dbm=noise_dbm,
        coverage_threshold_db=coverage_threshold_db,
        sweep=SweepSpec(variable=variable, grid=grid),
        mc_enabled=mc_enabled,
        mc=mc,
        output=output,
        exponent_seed=exponent_seed,
        exponent_range=exponent_range,
    )


def parse_grid(node, variable: str, path: str) -> tuple[float, ...]:
    """Grid of a sweep over ``variable``: explicit list, or {start, stop,
    points} for a linspace, or the CLI string forms 'a,b,c' and
    'start:stop:points'. Values must be finite, sorted ascending and in
    the variable's domain."""
    if isinstance(node, str):
        if ":" in node:
            bits = node.split(":")
            if len(bits) != 3:
                raise ConfigError(f"{path}: expected start:stop:points, got {node!r}")
            try:
                start, stop, points = float(bits[0]), float(bits[1]), int(bits[2])
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
            node = {"start": start, "stop": stop, "points": points}
        else:
            try:
                node = [float(v) for v in node.split(",")]
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
    if isinstance(node, dict):
        try:
            start, stop = _number(node, "start"), _number(node, "stop")
            points = _integer(node, "points", minimum=1, maximum=MAX_GRID_POINTS)
        except ConfigError as exc:
            raise ConfigError(f"{path}.{exc}") from None
        grid = tuple(np.linspace(start, stop, points).tolist())
    elif isinstance(node, list):
        grid = tuple(_finite(v, f"{path}[{i}]") for i, v in enumerate(node))
    else:
        raise ConfigError(f"{path}: expected a list, a start/stop/points mapping, "
                          f"or a grid string, got {node!r}")
    if not grid:
        raise ConfigError(f"{path}: grid must not be empty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{path}: grid must be sorted ascending")
    if variable in ("N", "L"):
        cap = MAX_RIS if variable == "N" else MAX_ELEMENTS
        for v in grid:
            if v != int(v) or v < (0 if variable == "N" else 1):
                raise ConfigError(f"{path}: {variable} grid needs nonnegative integers, got {v}")
            if v > cap:
                raise ConfigError(f"{path}: {variable} grid values must be <= {cap}, got {v}")
    if variable in ("R0", "H") and any(v < 0 or (variable == "R0" and v == 0) for v in grid):
        raise ConfigError(f"{path}: {variable} grid values must be positive")
    if variable in ("rho_th", "rho0"):
        for i, v in enumerate(grid):
            _linear(v, f"{path}[{i}]")
    return grid


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario YAML file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: integers past 4300 digits
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return parse_scenario(raw)


def resolved_mapping(cfg: ScenarioConfig) -> dict:
    """Fully resolved scenario as a plain mapping: drawn exponents pinned
    as explicit lists, the draw seed recorded, units as in the input
    schema. Re-loading this mapping reproduces the run bit for bit."""
    ris: dict[str, Any] = {"count": len(cfg.links.ris)}
    if cfg.links.ris:
        ris.update({
            "elements": [link.elements for link in cfg.links.ris],
            "sat_fading": [{"kappa": link.sat_fading.kappa, "mu": link.sat_fading.mu}
                           for link in cfg.links.ris],
            "user_fading": [{"kappa": link.user_fading.kappa, "mu": link.user_fading.mu}
                            for link in cfg.links.ris],
            "sat_exponent": [link.sat_exponent for link in cfg.links.ris],
            "user_exponent": [link.user_exponent for link in cfg.links.ris],
        })
    mapping = {
        "constellation": {
            "satellites": cfg.constellation.satellites,
            "altitude_km": cfg.constellation.altitude / 1000.0,
            "earth_radius_km": cfg.constellation.earth_radius / 1000.0,
        },
        "geometry": {
            "base_radius_m": cfg.geometry.base_radius,
            "height_m": cfg.geometry.height,
            "inner_radius_m": cfg.geometry.inner_radius,
        },
        "ris": ris,
        "direct_path": {
            "enabled": cfg.links.direct.enabled,
            "kappa": cfg.links.direct.fading.kappa,
            "mu": cfg.links.direct.fading.mu,
            "exponent": cfg.links.direct.exponent,
        },
        "power": {
            "symbol_energy_w": cfg.symbol_energy_w,
            "noise_dbm": cfg.noise_dbm,
        },
        "metrics": {"coverage_threshold_db": cfg.coverage_threshold_db},
        "sweep": {"variable": cfg.sweep.variable, "grid": list(cfg.sweep.grid)},
        "monte_carlo": {
            "enabled": cfg.mc_enabled,
            "trials": cfg.mc.trials,
            "seed": cfg.mc.seed,
            "workers": cfg.mc.workers,
            "exact_per_ris_sat_distance": cfg.mc.exact_per_ris_sat_distance,
        },
        "output": {"directory": cfg.output.directory, "format": cfg.output.format},
        "resolved": {
            "transmit_snr_db": cfg.rho0_db,
            "user_exponent_seed": cfg.exponent_seed,
            "user_exponent_range": list(cfg.exponent_range) if cfg.exponent_range else None,
        },
    }
    return mapping
