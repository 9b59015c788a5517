"""Declarative run configuration and campaign plan files (YAML).

All paths inside a config or plan file are resolved relative to the file
that declares them. A key a config leaves out takes the default of the class
or constant that owns it, such as `DayFilterThresholds` or `DEFAULT_Z0_M`,
not a copy held here; README's config table lists every default.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import date, timedelta, timezone, tzinfo
from pathlib import Path

import yaml

from .campaign import (MOBILE_SENSOR_HEIGHT_M, STABILIZATION_DELTA_C, CampaignPlan,
                       DayFilterThresholds, Environment, Phase, TraversePoint)
from .errors import ConfigError
from .raster import UCP_FORMULAS
from .series import (DEFAULT_WIND_HEIGHT_M, OPTIONAL_COLUMNS, PARAMETERS, REQUIRED_COLUMNS,
                     DriftThresholds, opened)
from .thermal import DEFAULT_Z0_M, GlobeFormula, GlobeSpec


def _parse_tz(value) -> tzinfo:
    """UTC for None, "", "utc" or "UTC"; else a fixed offset in ASCII digits,
    [+-]H[H][:MM] with hours below 24."""
    if value in (None, "", "utc", "UTC"):
        return timezone.utc
    match = re.fullmatch(r"([+-]?)([01]?[0-9]|2[0-3])(?::([0-5][0-9]))?", str(value))
    if match is None:
        raise ConfigError(f"cannot parse timezone offset {value!r}")
    sign, hours, minutes = match.groups()
    offset = timedelta(hours=int(hours), minutes=int(minutes or 0))
    return timezone(-offset if sign == "-" else offset)


def _parse_date(value) -> date:
    """A YAML date, or its YYYY-MM-DD text in ASCII digits."""
    if isinstance(value, date):
        return value
    text = str(value)
    if re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        try:
            return date.fromisoformat(text)
        except ValueError:
            pass  # a month or day out of range
    raise ConfigError(f"invalid date {value!r}; expected YYYY-MM-DD")


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


# The keys each config mapping may hold; plans are read leniently.
_CONFIG_KEYS = ("stations", "campaigns", "rasters", "thresholds", "globe", "wind_profile",
                "irradiance", "ucp_formula", "baci_parameter", "output_dir", "seed")
_STATION_KEYS = ("path", "column_map", "sensor_heights")
_CAMPAIGN_KEYS = ("plan", "mobile_log", "cloud_cover_oktas")
_RASTER_KEYS = ("albedo", "vegetation", "irradiance", "ucp")


def _known(mapping, where: str, keys: tuple[str, ...]) -> dict:
    """`mapping`, a ConfigError naming `where` if it holds a key not in `keys`."""
    if not isinstance(mapping, dict):
        raise TypeError(f"{where} must be a mapping")
    unknown = [repr(k) for k in mapping if k not in keys]
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)} "
                          f"(known: {', '.join(keys)})")
    return mapping


def _number(label: str, value, positive: bool = False) -> float:
    """`value` as `float()` reads it; a ConfigError naming `label` unless that
    is finite, and above 0 when `positive`.

    A bool is not a number. A text is read, since YAML 1.1 resolves `1e5`
    (no dot) to a string.
    """
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (OverflowError, TypeError, ValueError):
        number = math.nan
    if not (math.isfinite(number) and (number > 0 or not positive)):
        rule = "positive and finite" if positive else "finite"
        raise ConfigError(f"{label} must be {rule}, got {value!r}")
    return number


def _positive(label: str, value) -> float:
    return _number(label, value, positive=True)


def _choice(label: str, value, choices: tuple[str, ...]) -> str:
    """`value`, a ConfigError naming `label` unless it is one of `choices`."""
    if value not in choices:
        raise ConfigError(f"{label} must be one of {', '.join(choices)}, got {value!r}")
    return value


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


# The field each key of a config section sets and the check its value goes
# through; the keys are the section's known keys, in the order they are checked.
_THRESHOLDS = {"day_t_max_above_c": ("t_max_above", _number),
               "day_t_min_above_c": ("t_min_above", _number),
               "day_max_cloud_oktas": ("max_cloud_oktas", _number),
               "drift_amplitude_short_c": ("short_window_amplitude", _positive),
               "drift_amplitude_long_c": ("long_window_amplitude", _positive),
               "drift_short_window_hours": ("short_window_hours", _positive),
               "drift_smoothing_seconds": ("smoothing_seconds", _positive),
               "stabilization_delta_c": ("stabilization_delta_c", _positive)}
_GLOBE = {"diameter_m": ("diameter", _positive), "emissivity": ("emissivity", _positive),
          "variant": ("formula_variant", lambda label, value: GlobeFormula(
              _choice(label, value, tuple(f.value for f in GlobeFormula))))}


def _fields(given: dict, table: dict, label: str, owner: type) -> dict:
    """The checked values of the keys in `given` that `table` maps to fields of
    the dataclass `owner`, by field name; a field no key sets keeps its default."""
    return {field: check(f"{label} {key}", given[key]) for key, (field, check) in table.items()
            if key in given and field in owner.__dataclass_fields__}


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

    def section(key: str, keys: tuple[str, ...]) -> dict:
        return _known(raw.get(key) or {}, key, keys)

    _known(raw, "config", _CONFIG_KEYS)
    columns = REQUIRED_COLUMNS + OPTIONAL_COLUMNS
    stations = {}
    for name, entry in (raw.get("stations") or {}).items():
        entry = {"path": entry} if isinstance(entry, str) else entry
        _known(entry, f"station {name!r}", _STATION_KEYS)
        column_map = entry.get("column_map") or {}
        heights = entry.get("sensor_heights") or {}
        if not (isinstance(column_map, dict) and set(column_map) <= set(columns)
                and all(isinstance(v, str) for v in column_map.values())):
            raise ConfigError(f"station {name!r}: column_map must map column names "
                              f"({', '.join(columns)}) to header names")
        if not (isinstance(heights, dict) and set(heights) <= {"wind"}):
            raise ConfigError(f"station {name!r}: sensor_heights must map fields "
                              "(wind) to finite heights above 0 m")
        wind_height = _number(f"station {name!r}: sensor_heights wind",
                              heights.get("wind", DEFAULT_WIND_HEIGHT_M), positive=True)
        stations[name] = StationConfig(resolve(entry["path"]), column_map, wind_height)
    if "control" not in stations:
        raise ConfigError("a control station must be configured")

    campaigns = {}
    for cid, entry in (raw.get("campaigns") or {}).items():
        _known(entry, f"campaign {cid!r}", _CAMPAIGN_KEYS)
        oktas = _number(f"campaign {cid!r}: cloud_cover_oktas", entry.get("cloud_cover_oktas"))
        if not 0 <= oktas <= 8:
            raise ConfigError(f"campaign {cid!r}: cloud_cover_oktas must be in [0, 8], "
                              f"got {oktas:g}")
        campaigns[cid] = CampaignConfig(resolve(entry["plan"]), resolve(entry["mobile_log"]),
                                        oktas)

    rasters = {name: resolve(p) for name, p in section("rasters", _RASTER_KEYS).items()}

    th = section("thresholds", tuple(_THRESHOLDS))
    day_thresholds = DayFilterThresholds(**_fields(th, _THRESHOLDS, "threshold",
                                                   DayFilterThresholds))
    drift_thresholds = DriftThresholds(**_fields(th, _THRESHOLDS, "threshold", DriftThresholds))
    globe = GlobeSpec(**_fields(section("globe", tuple(_GLOBE)), _GLOBE, "globe", GlobeSpec))
    wind = section("wind_profile", ("z0_m",))
    irr = section("irradiance", ("clear_sky_max_wm2",))

    seed = raw.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")

    z0 = _number("wind_profile z0_m", wind.get("z0_m", DEFAULT_Z0_M), True)
    # wind is converted to 10 m from each sensor's height, which needs z0 below it
    sensor, height = min([("the mobile sensor", MOBILE_SENSOR_HEIGHT_M)]
                         + [(f"station {n!r}", s.wind_height) for n, s in stations.items()],
                         key=lambda pair: pair[1])
    if not z0 < height:
        raise ConfigError(f"wind_profile z0_m must be below every wind sensor's height, "
                          f"got {z0!r} m with {sensor} at {height!r} m")

    output_dir = (base / raw.get("output_dir", "out")).resolve()
    return RunConfig(
        stations=stations,
        campaigns=campaigns,
        rasters=rasters,
        day_thresholds=day_thresholds,
        drift_thresholds=drift_thresholds,
        stabilization_delta_c=_fields(th, _THRESHOLDS, "threshold", RunConfig).get(
            "stabilization_delta_c", STABILIZATION_DELTA_C),
        globe=globe,
        z0=z0,
        irradiance_clear_sky_max=(
            _number("irradiance clear_sky_max_wm2", irr["clear_sky_max_wm2"], True)
            if "clear_sky_max_wm2" in irr else None),
        ucp_formula=_choice("ucp_formula", raw.get("ucp_formula", UCP_FORMULAS[0]), UCP_FORMULAS),
        baci_parameter=_choice("baci_parameter", raw.get("baci_parameter", "utci"), PARAMETERS),
        output_dir=output_dir,
        seed=seed,
    )
