"""Scenario files: loading, validation, resolution and the reproducibility
echo.

A scenario is one YAML document describing the constellation, the RIS
deployment region, the signal paths, transmit power, the sweep to run and
Monte Carlo options. Randomized per-RIS exponents are drawn once at
resolution time from a recorded sub-seed; the resolved echo pins the drawn
values so a re-run reproduces the outputs bit for bit.

A sweep variable is one entry of VARIABLES: the field a grid point
replaces, the tables its sweep writes, and a setter of the point's inputs
through that field's validators. A config holds its sweep's plan
(ScenarioConfig.plan, from plan): one walk over the grid that runs each
point's setter, checks that the variance of |A| is finite (its
RIS-distance moments diverge on some regions and exponents), fits every
point, and groups the points into simulations. parse_scenario builds it,
so a sweep that loads can be fitted, and the runner only reads it.

Kilometers and dBm appear only here; everything downstream runs on meters
and linear ratios.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np
import yaml

from .channel import DirectPath, LinkConfig, RisLink, _checked_moments, _gamma_fit
from .errors import ConfigError, DomainError, LeorisError
from .fading import KappaMuParams
from .geometry import _MAX_ASPECT, _TINY, Constellation, CylinderGeometry, ris_distance_moment
from .montecarlo import SimOptions, is_nested

__all__ = [
    "ScenarioConfig",
    "SweepSpec",
    "OutputSpec",
    "load_scenario",
    "parse_scenario",
    "resolved_mapping",
    "SweepPlan",
    "plan",
    "VARIABLES",
    "SWEEP_VARIABLES",
]

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
    path: str = field(default="sweep.grid", compare=False)  # the grid's name in errors


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

    @property
    def rho_th(self) -> float:
        return db_to_linear(self.coverage_threshold_db)

    @functools.cached_property
    def plan(self) -> SweepPlan:
        """plan(self), built once; dataclasses.replace makes a config that builds its own."""
        return plan(self)

    def replace(self, **changes) -> ScenarioConfig:
        """dataclasses.replace(self, **changes), keeping the plan built so
        far where the changes touch only fields the plan never reads."""
        new = dataclasses.replace(self, **changes)
        if "plan" in self.__dict__ and changes.keys() <= _RUN_SETTINGS:
            new.__dict__["plan"] = self.plan
        return new


# the Monte Carlo and output settings, which plan reads none of
_RUN_SETTINGS = {"mc", "mc_enabled", "output"}


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


def _finite(val, path: str, *, minimum=None, strict_min=None, maximum=None) -> float:
    """A YAML number as a finite float within the limits given; NaN, +-inf
    and integers beyond the float range are rejected."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {val!r}")
    try:
        v = float(val)
    except OverflowError:
        raise ConfigError(f"{path}: expected a finite number, got an integer beyond "
                          "the float range") from None
    if not math.isfinite(v):
        raise ConfigError(f"{path}: expected a finite number, got {v}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {val}")
    if strict_min is not None and v <= strict_min:
        raise ConfigError(f"{path}: must be > {strict_min}, got {val}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {val}")
    return v


def _number(mapping: dict, path: str, *, default=None, **limits) -> float:
    val = _get(mapping, path) if default is None else _get(mapping, path, default)
    return _finite(val, path, **limits)


def _meters(mapping: dict, path: str, **limits) -> float:
    """A positive length in km as a finite number of meters."""
    km = _number(mapping, path, strict_min=0.0, **limits)
    if not km * 1000.0 < math.inf:
        raise ConfigError(f"{path}: {km:g} km is beyond the float range in meters")
    return km * 1000.0


def _count(val, path: str, **limits) -> int:
    """A non-bool integer within the limits given."""
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}: expected an integer, got {val!r}")
    _finite(val, path, **limits)
    return val


def _integer(mapping: dict, path: str, *, default=None, **limits) -> int:
    return _count(_get(mapping, path) if default is None else _get(mapping, path, default),
                  path, **limits)


def _region(base_radius: float, height: float, inner_radius: float) -> CylinderGeometry:
    """The RIS deployment region, 0 or _TINY to _MAX_ASPECT base radii tall,
    the heights its distance moments are evaluated at (geometry.py)."""
    try:
        geom = CylinderGeometry(base_radius, height, inner_radius)
    except DomainError as exc:
        raise ConfigError(f"geometry: {exc}") from None
    if height > 0.0 and not _TINY <= height / base_radius <= _MAX_ASPECT:
        raise ConfigError(f"geometry.height_m: must be 0 or from {_TINY:.3g} to {_MAX_ASPECT:g} "
                          f"times geometry.base_radius_m {base_radius:g}, got {height:g}")
    return geom


def _boolean(mapping: dict, path: str, default: bool) -> bool:
    val = _get(mapping, path, default)
    if not isinstance(val, bool):
        raise ConfigError(f"{path}: expected true/false, got {val!r}")
    return val


def _per_ris(node, count: int, path: str, check) -> list:
    """check(value, path[i]) of each RIS's value, from a scalar template or
    an explicit per-RIS list."""
    if isinstance(node, list) and len(node) != count:
        raise ConfigError(f"{path}: list length {len(node)} != ris.count {count}")
    values = node if isinstance(node, list) else [node] * count
    return [check(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _fading_params(node, path: str, laws: dict) -> KappaMuParams:
    """The law at node, as the object ``laws`` holds for an equal law, so
    RISs with equal laws share one object and compare by identity."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping with kappa and mu")
    try:
        law = KappaMuParams(kappa=_number(node, "kappa", minimum=0.0),
                            mu=_number(node, "mu", strict_min=0.0))
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}") from None
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
    return _per_ris(node, count, path, lambda v, p: _finite(v, p, minimum=2.0)), None, None


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
    geom = _region(_number(raw, "geometry.base_radius_m", strict_min=0.0),
                   _number(raw, "geometry.height_m", default=0.0, minimum=0.0),
                   _number(raw, "geometry.inner_radius_m", default=0.0, minimum=0.0))

    count = _integer(raw, "ris.count", minimum=0, maximum=MAX_RIS)
    exponent_seed = None
    exponent_range = None
    ris_links: tuple[RisLink, ...] = ()
    if count > 0:
        elements = _per_ris(_get(raw, "ris.elements"), count, "ris.elements",
                            lambda v, p: _count(v, p, minimum=1, maximum=MAX_ELEMENTS))
        laws: dict[KappaMuParams, KappaMuParams] = {}
        sat_fadings, user_fadings = (
            _per_ris(_get(raw, path), count, path, lambda v, p: _fading_params(v, p, laws))
            for path in ("ris.sat_fading", "ris.user_fading"))
        sat_exps = _per_ris(_get(raw, "ris.sat_exponent"), count, "ris.sat_exponent",
                            lambda v, p: _finite(v, p, minimum=2.0))
        user_exps, exponent_seed, exponent_range = _resolve_user_exponents(
            _get(raw, "ris.user_exponent"), count, "ris.user_exponent")
        if exponent_seed is None:
            # a resolved echo pins the values; count sweeps redraw from the seed
            exponent_seed, exponent_range = _recorded_exponent_draw(raw)
        ris_links = tuple(map(RisLink, elements, sat_fadings, user_fadings, sat_exps, user_exps))

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
    links = _with_signal_path(LinkConfig(ris=ris_links, direct=direct, transmit_snr=rho0))

    coverage_threshold_db = _number(raw, "metrics.coverage_threshold_db", default=20.0)
    _linear(coverage_threshold_db, "metrics.coverage_threshold_db")

    sweep_node = _get(raw, "sweep")
    if not isinstance(sweep_node, dict):
        raise ConfigError("sweep: expected a mapping with variable and grid")
    spec = SweepSpec(_get(raw, "sweep.variable"), parse_grid(_get(raw, "sweep.grid"), "sweep.grid"))

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

    cfg = ScenarioConfig(
        constellation=con,
        geometry=geom,
        links=links,
        symbol_energy_w=symbol_energy,
        noise_dbm=noise_dbm,
        coverage_threshold_db=coverage_threshold_db,
        sweep=spec,
        mc_enabled=mc_enabled,
        mc=mc,
        output=output,
        exponent_seed=exponent_seed,
        exponent_range=exponent_range,
    )
    cfg.plan  # every point checked and fitted at load
    return cfg


def parse_grid(node, path: str) -> tuple[float, ...]:
    """A sweep grid: explicit list, or {start, stop, points} for a
    linspace, or the CLI string forms 'a,b,c' and 'start:stop:points'.
    Values must be finite and sorted ascending, 1 to MAX_GRID_POINTS of
    them; plan checks each against its variable's field."""
    if isinstance(node, str):
        bits = node.split(":")
        if len(bits) not in (1, 3):
            raise ConfigError(f"{path}: expected start:stop:points, got {node!r}")
        try:
            node = ([float(v) for v in node.split(",")] if len(bits) == 1 else
                    {"start": float(bits[0]), "stop": float(bits[1]), "points": int(bits[2])})
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
    if not 0 < len(grid) <= MAX_GRID_POINTS:
        raise ConfigError(f"{path}: grid must have 1 to {MAX_GRID_POINTS} points, got {len(grid)}")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{path}: grid must be sorted ascending")
    return grid


def _with_signal_path(links: LinkConfig) -> LinkConfig:
    """``links``, which must hold a RIS or an enabled direct path."""
    if not links.ris and not links.direct.enabled:
        raise ConfigError("ris.count: 0 leaves no signal path with direct_path.enabled false")
    return links


def _ris_count(cfg: ScenarioConfig, value: float):
    """The RIS list cut, or extended with copies of its last RIS, to the
    point's count; extending redraws a drawn user-hop exponent from the
    recorded seed, whose draws keep their prefix."""
    n = _count(int(value) if value == int(value) else value, "ris.count", minimum=0,
               maximum=MAX_RIS)
    ris = cfg.links.ris
    if n > len(ris):
        if not ris:
            raise ConfigError(f"ris.count: an empty RIS list has no RIS to copy up to {n}")
        ris += (ris[-1],) * (n - len(ris))
        if cfg.exponent_seed is not None and cfg.exponent_range is not None:
            draws = user_exponent_draws(cfg.exponent_seed, cfg.exponent_range, n)
            ris = tuple(dataclasses.replace(link, user_exponent=e) for link, e in zip(ris, draws))
    return (_with_signal_path(dataclasses.replace(cfg.links, ris=ris[:n])), cfg.geometry,
            cfg.rho0, cfg.rho_th)


def _ris_elements(cfg: ScenarioConfig, value: float):
    elements = _count(int(value) if value == int(value) else value, "ris.elements", minimum=1,
                      maximum=MAX_ELEMENTS)
    ris = tuple(dataclasses.replace(link, elements=elements) for link in cfg.links.ris)
    return dataclasses.replace(cfg.links, ris=ris), cfg.geometry, cfg.rho0, cfg.rho_th


# a sweep variable: the scenario field a grid point replaces, the tables
# its sweep writes, and point(cfg, value), the point's (links, geometry,
# rho0, rho_th) through the validators the file parser runs on the field
SweepVariable = NamedTuple("SweepVariable", [("field", str), ("metrics", tuple),
                                             ("point", Callable)])
_BOTH = ("coverage", "capacity")
VARIABLES = {
    "rho_th": SweepVariable("metrics.coverage_threshold_db", ("coverage",), lambda cfg, v: (
        cfg.links, cfg.geometry, cfg.rho0, _linear(v, "metrics.coverage_threshold_db"))),
    "rho0": SweepVariable("resolved.transmit_snr_db", ("capacity",), lambda cfg, v: (
        cfg.links, cfg.geometry, _linear(v, "resolved.transmit_snr_db"), cfg.rho_th)),
    "N": SweepVariable("ris.count", _BOTH, _ris_count),
    "L": SweepVariable("ris.elements", _BOTH, _ris_elements),
    "R0": SweepVariable("geometry.base_radius_m", _BOTH, lambda cfg, v: (
        cfg.links, _region(float(v), cfg.geometry.height, cfg.geometry.inner_radius),
        cfg.rho0, cfg.rho_th)),
    "H": SweepVariable("geometry.height_m", _BOTH, lambda cfg, v: (
        cfg.links, _region(cfg.geometry.base_radius, float(v), cfg.geometry.inner_radius),
        cfg.rho0, cfg.rho_th)),
}
SWEEP_VARIABLES = tuple(VARIABLES)


def _finite_variance(links: LinkConfig, geom: CylinderGeometry) -> None:
    """Reject the point whose variance of |A| diverges: its E[R^-eps]
    needs an inner radius on a flat disk (eps >= 2 always) and eps < 3 in
    a 3D region."""
    if links.ris and geom.height == 0.0 and geom.inner_radius == 0.0:
        raise ConfigError("geometry.height_m: 0 with no inner radius is divergent: the "
                          "variance of |A| needs E[R^-eps], which diverges on a flat disk for "
                          "every user_exponent eps >= 2; set geometry.inner_radius_m > 0")
    if geom.height > 0.0:
        for i, link in enumerate(links.ris):
            if link.user_exponent >= 3.0:
                raise ConfigError(f"ris.user_exponent[{i}]: {link.user_exponent:g} is divergent "
                                  "in a 3D region: the variance of |A| needs E[R^-eps], "
                                  "which diverges there for eps >= 3")


class SweepPlan(NamedTuple):
    """A sweep as it runs: each point's (links, geometry, rho0, rho_th),
    each point's Gamma fit, and the simulations as (first point, geometry,
    rows, each point's (row, rho0, rho_th))."""
    points: list
    fits: list
    simulations: list


def plan(cfg: ScenarioConfig) -> SweepPlan:
    """The sweep's plan, from one walk over its grid. A point its
    variable's setter rejects, or whose variance of |A| diverges, raises
    ConfigError naming cfg.sweep.path[i] and the field. Each run of
    consecutive points with equal (links, geometry) has one Gamma fit, all
    made in one batch; the first run that cannot be fitted raises
    ConfigError naming its first point and, where one of its RIS-distance
    moments leaves the floats (on an annulus E[R^-s] grows as
    inner_radius^(2 - s)), ris.user_exponent[j]. Consecutive runs on one
    geometry whose links nest (montecarlo.is_nested), as in every
    ascending N or L sweep, share one simulation: its rows are their links
    in grid order, the last one simulated, and it tallies each point on
    its row at the point's rho0 and rho_th."""
    spec, path = cfg.sweep, cfg.sweep.path
    if spec.variable not in VARIABLES:
        raise ConfigError(f"sweep.variable: must be one of {', '.join(SWEEP_VARIABLES)}, "
                          f"got {spec.variable!r}")
    point = VARIABLES[spec.variable].point
    points, runs, firsts, simulations = [], [], [], []
    for i, value in enumerate(spec.grid):
        try:
            links, geom, rho0, rho_th = point(cfg, value)
            _finite_variance(links, geom)
        except ConfigError as exc:
            raise ConfigError(f"{path}[{i}]: {exc}") from None
        points.append((links, geom, rho0, rho_th))
        if not runs or runs[-1] != (links, geom):
            if not runs or geom != runs[-1][1] or not is_nested(runs[-1][0], links):
                rows, tallies = [], []
                simulations.append((i, geom, rows, tallies))
            rows.append(links)
            runs.append((links, geom))
            firsts.append(i)
        tallies.append((len(rows) - 1, rho0, rho_th))
    fitted: list = []
    try:
        _checked_moments(runs, cfg.constellation, (1, 2),
                         lambda *moments: fitted.append(_gamma_fit(*moments)))
    except LeorisError as exc:
        (links, geom), i = runs[len(fitted)], firsts[len(fitted)]
        for j, link in enumerate(links.ris):
            for t in (1, 2):
                try:
                    ris_distance_moment(t, link.user_exponent, geom)
                except LeorisError as moment:
                    raise ConfigError(f"{path}[{i}]: ris.user_exponent[{j}]: {moment}") from None
        raise ConfigError(f"{path}[{i}]: {exc}") from None
    ends = [*firsts[1:], len(points)]
    fits = [ga for ga, first, end in zip(fitted, firsts, ends) for _ in range(end - first)]
    return SweepPlan(points, fits, simulations)


class _Loader(yaml.SafeLoader):
    """The safe loader, reading an exponent float without a dot or an
    exponent sign (1e4, 1.0e4) as a float, as YAML 1.2 does, where the
    YAML 1.1 resolver leaves it a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario YAML file."""
    try:
        raw = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:  # not UTF-8, or an integer past 4300 digits
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
