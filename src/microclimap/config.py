"""Declarative run configuration and campaign plan files (YAML).

All paths inside a config or plan file are resolved relative to the file
that declares them. Every protocol threshold (25/16 degC day filter,
3 oktas, 1 degC per 2 h drift, 2 degC otherwise) appears here with its
default value so a run is fully reproducible from one file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta, timezone, tzinfo
from pathlib import Path

import yaml

from .campaign import CampaignPlan, DayFilterThresholds, Environment, Phase, TraversePoint
from .errors import ConfigError
from .series import (DEFAULT_WIND_HEIGHT_M, OPTIONAL_COLUMNS, REQUIRED_COLUMNS,
                     DriftThresholds, opened)
from .thermal import GlobeFormula, GlobeSpec


def _parse_tz(value) -> tzinfo:
    if value in (None, "", "utc", "UTC"):
        return timezone.utc
    text = str(value)
    sign = -1 if text.startswith("-") else 1
    body = text.lstrip("+-")
    try:
        if ":" in body:
            hours, minutes = body.split(":")
        else:
            hours, minutes = body, "0"
        return timezone(sign * timedelta(hours=int(hours), minutes=int(minutes)))
    except ValueError as exc:
        raise ConfigError(f"cannot parse timezone offset {value!r}") from exc


def _parse_date(value) -> date:
    """A YAML date, or its YYYY-MM-DD text."""
    try:
        return value if isinstance(value, date) else date.fromisoformat(str(value))
    except ValueError:
        raise ConfigError(f"invalid date {value!r}; expected YYYY-MM-DD") from None


# What reading fields of a hand-written mapping raises on a missing key or
# a value of the wrong type or form (`int(inf)` raises OverflowError).
_FIELD_ERRORS = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


# libyaml's loader builds the same documents several times faster; its
# problem texts are worded differently, but marks the same line and column.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _read_yaml(path: Path, kind: str):
    with opened(path, error=ConfigError) as fh:
        text = fh.read()
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a date no calendar holds
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None)
        if mark is None or problem is None:
            reason = " ".join(str(exc).split())
        else:
            reason = f"{problem} at line {mark.line + 1}, column {mark.column + 1}"
        raise ConfigError(f"malformed YAML in {kind} file {path}: {reason}") from exc


def _optional_str(value) -> str | None:
    return None if value is None else str(value)


def _invalid(kind: str, path: Path, exc: Exception) -> ConfigError:
    reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ConfigError(f"invalid {kind} file {path}: {reason}")


def load_plan(path) -> CampaignPlan:
    """Load a campaign plan file."""
    path = Path(path)
    raw = _read_yaml(path, "plan")
    if not isinstance(raw, dict):
        raise ConfigError(f"plan file {path} is not a mapping")
    try:
        points = [
            TraversePoint(
                str(p["point_id"]), (float(p["lon"]), float(p["lat"])),
                environment=Environment(p["environment"]),
                displaced_from=_optional_str(p.get("displaced_from")),
            )
            for p in raw["points"]
        ]
        return CampaignPlan(
            campaign_id=str(raw["campaign_id"]),
            phase=Phase(raw["phase"]),
            day=_parse_date(raw["date"]),
            tz=_parse_tz(raw.get("timezone")),
            points=points,
            control_station_id=str(raw["control_station"]),
            onsite_station_id=_optional_str(raw.get("onsite_station")),
        )
    except _FIELD_ERRORS as exc:
        raise _invalid("plan", path, exc) from exc


@dataclass
class StationConfig:
    path: Path
    column_map: dict[str, str]
    wind_height: float  # m


@dataclass
class CampaignConfig:
    plan_path: Path
    mobile_log_path: Path
    cloud_cover_oktas: float


@dataclass
class RunConfig:
    stations: dict[str, StationConfig]     # keys: control, case, onsite, ...
    campaigns: dict[str, CampaignConfig]
    rasters: dict[str, Path]               # keys: albedo, vegetation, irradiance, ucp
    day_thresholds: DayFilterThresholds
    drift_thresholds: DriftThresholds
    stabilization_delta_c: float
    globe: GlobeSpec
    z0: float
    irradiance_clear_sky_max: float | None
    ucp_formula: str
    baci_parameter: str
    output_dir: Path
    seed: int

    def station(self, name: str) -> StationConfig:
        if name not in self.stations:
            raise ConfigError(f"no station {name!r} configured")
        return self.stations[name]

    def campaign(self, name: str) -> CampaignConfig:
        if name not in self.campaigns:
            raise ConfigError(f"unknown campaign {name!r}")
        return self.campaigns[name]


def load_config(path) -> RunConfig:
    """Load and validate a run configuration file."""
    path = Path(path)
    raw = _read_yaml(path, "config") or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} is not a mapping")
    try:
        return _run_config(raw, path.parent)
    except ConfigError:
        raise
    except _FIELD_ERRORS as exc:
        raise _invalid("config", path, exc) from exc


def _run_config(raw: dict, base: Path) -> RunConfig:
    def resolve(p) -> Path:
        resolved = (base / p).resolve()
        if not resolved.exists():
            raise ConfigError(f"configured path does not exist: {resolved}")
        if not resolved.is_file():
            raise ConfigError(f"configured path is not a regular file: {resolved}")
        return resolved

    columns = REQUIRED_COLUMNS + OPTIONAL_COLUMNS
    stations = {}
    for name, entry in (raw.get("stations") or {}).items():
        entry = {"path": entry} if isinstance(entry, str) else entry
        column_map = entry.get("column_map") or {}
        heights = entry.get("sensor_heights") or {}
        if not (isinstance(column_map, dict) and set(column_map) <= set(columns)
                and all(isinstance(v, str) for v in column_map.values())):
            raise ConfigError(f"station {name!r}: column_map must map column names "
                              f"({', '.join(columns)}) to header names")
        if not (isinstance(heights, dict) and set(heights) <= {"wind"} and all(
                type(h) in (int, float) and math.isfinite(h) and h > 0 for h in heights.values())):
            raise ConfigError(f"station {name!r}: sensor_heights must map fields "
                              "(wind) to finite heights above 0 m")
        stations[name] = StationConfig(resolve(entry["path"]), column_map,
                                       heights.get("wind", DEFAULT_WIND_HEIGHT_M))
    if "control" not in stations:
        raise ConfigError("a control station must be configured")

    campaigns = {}
    for cid, entry in (raw.get("campaigns") or {}).items():
        campaigns[cid] = CampaignConfig(
            plan_path=resolve(entry["plan"]),
            mobile_log_path=resolve(entry["mobile_log"]),
            cloud_cover_oktas=float(entry.get("cloud_cover_oktas", 0)),
        )

    rasters = {name: resolve(p) for name, p in (raw.get("rasters") or {}).items()}

    th = raw.get("thresholds") or {}
    day_thresholds = DayFilterThresholds(
        t_max_above=float(th.get("day_t_max_above_c", 25.0)),
        t_min_above=float(th.get("day_t_min_above_c", 16.0)),
        max_cloud_oktas=float(th.get("day_max_cloud_oktas", 3.0)),
    )
    drift_thresholds = DriftThresholds(
        short_window_amplitude=float(th.get("drift_amplitude_short_c", 1.0)),
        long_window_amplitude=float(th.get("drift_amplitude_long_c", 2.0)),
        short_window_hours=float(th.get("drift_short_window_hours", 2.0)),
        smoothing_seconds=float(th.get("drift_smoothing_seconds", 300.0)),
    )
    stabilization_delta_c = float(th.get("stabilization_delta_c", 0.15))
    for name, value, positive in (
            ("day_t_max_above_c", day_thresholds.t_max_above, False),
            ("day_t_min_above_c", day_thresholds.t_min_above, False),
            ("day_max_cloud_oktas", day_thresholds.max_cloud_oktas, False),
            ("drift_amplitude_short_c", drift_thresholds.short_window_amplitude, True),
            ("drift_amplitude_long_c", drift_thresholds.long_window_amplitude, True),
            ("drift_short_window_hours", drift_thresholds.short_window_hours, True),
            ("drift_smoothing_seconds", drift_thresholds.smoothing_seconds, True),
            ("stabilization_delta_c", stabilization_delta_c, True)):
        if not (math.isfinite(value) and (value > 0 or not positive)):
            rule = "positive and finite" if positive else "finite"
            raise ConfigError(f"threshold {name} must be {rule}, got {value}")

    g = raw.get("globe") or {}
    globe = GlobeSpec(
        diameter=float(g.get("diameter_m", 0.15)),
        emissivity=float(g.get("emissivity", 0.95)),
        formula_variant=GlobeFormula(g.get("variant", "iso7726_forced")),
    )

    wind = raw.get("wind_profile") or {}
    irr = raw.get("irradiance") or {}

    seed = int(raw.get("seed", 0))
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")

    output_dir = (base / raw.get("output_dir", "out")).resolve()
    return RunConfig(
        stations=stations,
        campaigns=campaigns,
        rasters=rasters,
        day_thresholds=day_thresholds,
        drift_thresholds=drift_thresholds,
        stabilization_delta_c=stabilization_delta_c,
        globe=globe,
        z0=float(wind.get("z0_m", 0.01)),
        irradiance_clear_sky_max=(float(irr["clear_sky_max_wm2"])
                                  if "clear_sky_max_wm2" in irr else None),
        ucp_formula=str(raw.get("ucp_formula", "product")),
        baci_parameter=str(raw.get("baci_parameter", "utci")),
        output_dir=output_dir,
        seed=seed,
    )
