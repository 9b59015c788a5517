"""Stop-and-go mobile campaign processing.

Turns a raw point-tagged mobile log into per-point heat-stress offsets:
radiative-day filtering, stop segmentation, black-globe stabilization
detection, driver aggregation, control matching, and the final UTCI-offset
computation, plus a drift check against an on-site fixed station when one
is available.

Columns: a `MobileLog` holds its rows as columns in time order, as a
`series.StationSeries` does, and a `StopSegment` holds views of one run of
them. Stabilization finds each window by `np.searchsorted` and aggregation
averages column slices with a Python `sum`, so windows and drivers are
those of a per-sample scan, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import date, tzinfo
from enum import Enum

import numpy as np

from . import thermal
from .errors import DayRejectedError, DomainError, MatchError, ValidityError
from .series import (FIELDS, HOUR_US, DriftReport, DriftThresholds, LoadReport,
                     StationSeries, drift_diagnostic, from_epoch_us, local_midnight_us,
                     nearest_sample, offset_series, parse_rows)
from .thermal import (DEFAULT_Z0_M, GlobeSpec, ReferenceConditions, UtciInput, UtciOffset,
                      utci_offset, vapor_pressure, wind_to_10m)

SEGMENT_SPLIT_GAP_S = 60.0
MIN_SEGMENT_S = 300.0
STABILIZATION_WINDOW_S = 180.0
STABILIZATION_DELTA_C = 0.15  # globe sensor uncertainty
MOBILE_SENSOR_HEIGHT_M = 1.5  # height of the mobile wind sensor

# Net radiation above which a day counts as strongly insolated
STRONG_INSOLATION_WM2 = 500.0


class Phase(Enum):
    BEFORE = "before"
    AFTER = "after"


class Environment(Enum):
    FULL_SUN = "full_sun"
    SHADE = "shade"
    VEGETATION_PROXIMITY = "vegetation_proximity"


class Insolation(Enum):
    STRONG = "strong"
    MODERATE = "moderate"
    SLIGHT = "slight"


class StabilityClass(Enum):
    A = "A"
    AB = "A-B"
    B = "B"
    BC = "B-C"
    C = "C"
    CD = "C-D"
    D = "D"
    E = "E"
    F = "F"


# Pasquill daytime classification: surface wind rows x insolation columns.
# Wind bins are half-open [lower, upper) in m/s at 10 m.
_PASQUILL_DAYTIME = (
    (2.0, (StabilityClass.A, StabilityClass.AB, StabilityClass.B)),
    (3.0, (StabilityClass.AB, StabilityClass.B, StabilityClass.C)),
    (5.0, (StabilityClass.B, StabilityClass.BC, StabilityClass.C)),
    (6.0, (StabilityClass.C, StabilityClass.CD, StabilityClass.D)),
    (math.inf, (StabilityClass.C, StabilityClass.D, StabilityClass.D)),
)
_INSOLATION_COLUMN = {Insolation.STRONG: 0, Insolation.MODERATE: 1, Insolation.SLIGHT: 2}


@dataclass(frozen=True)
class TraversePoint:
    point_id: str
    location: tuple[float, float]  # (lon, lat) or planar (x, y)
    environment: Environment
    displaced_from: str | None = None


@dataclass
class CampaignPlan:
    campaign_id: str
    phase: Phase
    day: date
    tz: tzinfo
    points: list[TraversePoint]
    control_station_id: str
    onsite_station_id: str | None = None

    def __post_init__(self):
        self._by_id = {p.point_id: p for p in self.points}
        if len(self._by_id) != len(self.points):
            raise DomainError(f"duplicate point ids in plan {self.campaign_id}")

    def point(self, point_id: str) -> TraversePoint:
        if point_id not in self._by_id:
            raise DomainError(f"unknown point id {point_id!r} in plan {self.campaign_id}")
        return self._by_id[point_id]


@dataclass(eq=False)
class MobileLog:
    """Time-ordered mobile readings as columns, plus the load report of their file.

    `t_us` holds sorted int64 epoch microseconds (rows at one time in file
    order), `point_ids` the traverse point of each row (an object array of
    str) and `columns` one float64 array per field in `FIELDS`, NaN where a
    value is blank; all have one entry per kept row.
    """

    t_us: np.ndarray = field(repr=False)
    point_ids: np.ndarray = field(repr=False)
    columns: dict[str, np.ndarray] = field(repr=False)
    load_report: LoadReport | None = None

    def __len__(self) -> int:
        return len(self.t_us)


@dataclass(eq=False)
class StopSegment:
    """A contiguous dwell at one traverse point: views of the log's columns."""

    point_id: str
    t_us: np.ndarray = field(repr=False)
    columns: dict[str, np.ndarray] = field(repr=False)
    stabilization_window: tuple[int, int] | None = None  # epoch microseconds
    too_short: bool = False

    @property
    def stabilized(self) -> bool:
        """Whether `detect_stabilization` found a window."""
        return self.stabilization_window is not None


@dataclass(frozen=True)
class DaySummary:
    t_max: float
    t_min: float
    cloud_cover_oktas: float
    stability_class: StabilityClass | None  # None: no wind readings, 12:00-16:00 local
    mean_daytime_wind: float | None  # m/s at 10 m; None as above

    def __post_init__(self):
        if not (0 <= self.cloud_cover_oktas <= 8):
            raise DomainError(f"cloud cover must be in [0, 8] oktas, got {self.cloud_cover_oktas}")
        if self.t_min > self.t_max:
            raise DomainError(f"t_min {self.t_min} exceeds t_max {self.t_max}")


@dataclass(frozen=True)
class DayFilterThresholds:
    t_max_above: float = 25.0
    t_min_above: float = 16.0
    max_cloud_oktas: float = 3.0


@dataclass(frozen=True)
class DayCriterion:
    label: str    # the condition a warm radiative day meets
    passed: bool
    reason: str   # why the day is rejected when the condition fails


@dataclass(frozen=True)
class DayFilterResult:
    criteria: tuple[DayCriterion, ...]

    @property
    def accepted(self) -> bool:
        return all(c.passed for c in self.criteria)

    @property
    def reasons(self) -> list[str]:
        """Rejection reasons of the failed criteria; empty when accepted."""
        return [c.reason for c in self.criteria if not c.passed]


@dataclass(frozen=True)
class AggregatedDrivers:
    """Stabilization-window means, ready for the UTCI evaluation."""

    timestamp: int  # window center, epoch microseconds
    t_air: float
    rh: float
    wind_10m: float
    t_mrt: float
    sample_counts: dict[str, int]


@dataclass(frozen=True)
class PointResult:
    drivers: AggregatedDrivers  # carries the window-center time
    offset: UtciOffset  # carries the point id

    @property
    def point_id(self) -> str:
        """The traverse point's id, as `offset` carries it."""
        return self.offset.point_id


@dataclass
class CampaignReport:
    campaign_id: str
    day_filter: DayFilterResult  # a rejected day was processed by override
    failures: list[tuple[str, str]]  # (point_id, reason)
    drift: DriftReport | None

    def summary(self) -> str:
        lines = [f"campaign {self.campaign_id}",
                 "day filter: " + ("accepted" if self.day_filter.accepted
                                   else "REJECTED (override)")]
        lines.extend(f"  - {r}" for r in self.day_filter.reasons)
        for point_id, reason in self.failures:
            lines.append(f"point {point_id} unusable: {reason}")
        if self.drift is not None:
            lines.append(self.drift.summary())
        return "\n".join(lines)


def pasquill_class(wind_10m: float, insolation: Insolation) -> StabilityClass:
    """Daytime Pasquill stability class from surface wind and insolation."""
    if not 0 <= wind_10m < math.inf:  # a mean of huge winds can overflow
        raise DomainError(f"wind speed must be finite and >= 0, got {wind_10m}")
    column = _INSOLATION_COLUMN[insolation]
    for upper, row in _PASQUILL_DAYTIME:
        if wind_10m < upper:
            return row[column]
    raise AssertionError("unreachable")


def day_filter(day: DaySummary,
               thresholds: DayFilterThresholds = DayFilterThresholds()) -> DayFilterResult:
    """Accept warm radiative days: hot, clear-sky, strongly unstable.

    Every criterion is judged, so every failed one is listed in the
    rejection reasons.
    """
    t = thresholds
    return DayFilterResult((
        DayCriterion(f"t_max > {t.t_max_above} degC", day.t_max > t.t_max_above,
                     f"t_max {day.t_max} degC not above {t.t_max_above} degC"),
        DayCriterion(f"t_min > {t.t_min_above} degC", day.t_min > t.t_min_above,
                     f"t_min {day.t_min} degC not above {t.t_min_above} degC"),
        DayCriterion(f"cloud cover <= {t.max_cloud_oktas} oktas",
                     day.cloud_cover_oktas <= t.max_cloud_oktas,
                     f"cloud cover {day.cloud_cover_oktas} oktas exceeds {t.max_cloud_oktas}"),
        DayCriterion("stability class in {A, A-B}",
                     day.stability_class in (StabilityClass.A, StabilityClass.AB),
                     "stability class unknown: no wind readings between 12:00 and 16:00 local"
                     if day.stability_class is None
                     else f"stability class {day.stability_class.value} is not A or A-B"),
    ))


def derive_day_summary(control: StationSeries, day: date, cloud_cover_oktas: float,
                       tz: tzinfo, z0: float = DEFAULT_Z0_M) -> DaySummary:
    """Build a day summary from control-station data plus operator cloud cover.

    Insolation is classed as strong when net radiation averaged over the
    12:00-14:00 local window exceeds 500 W/m2, else moderate (heuristic);
    the mean daytime wind is taken over 12:00-16:00 local and converted to
    10 m for the Pasquill lookup. Without a wind reading in that window the
    wind and the stability class are unknown (None), and the day filter
    rejects the day on stability.
    """
    midnight = local_midnight_us(day, tz)

    def cut(column, hour, hours):
        """The non-missing values of `column` from `hour` local time for `hours`."""
        start = midnight + hour * HOUR_US
        values = control.window(start, start + hours * HOUR_US).columns[column]
        return values[~np.isnan(values)].tolist()

    t_values = cut("t_air", 0, 24)
    if not t_values:
        raise MatchError(f"control series has no samples on {day.isoformat()}")

    noon_rn = cut("net_radiation", 12, 2)
    strong = bool(noon_rn) and sum(noon_rn) / len(noon_rn) > STRONG_INSOLATION_WM2
    insolation = Insolation.STRONG if strong else Insolation.MODERATE

    winds = cut("wind", 12, 4)
    mean_wind_10m = (wind_to_10m(sum(winds) / len(winds), control.wind_height, z0)
                     if winds else None)

    return DaySummary(
        t_max=max(t_values),
        t_min=min(t_values),
        cloud_cover_oktas=cloud_cover_oktas,
        stability_class=(None if mean_wind_10m is None
                         else pasquill_class(mean_wind_10m, insolation)),
        mean_daytime_wind=mean_wind_10m,
    )


MOBILE_REQUIRED = ("t_air", "t_globe", "wind")


def parse_mobile_csv(source) -> MobileLog:
    """Parse a point-tagged mobile log (timestamp, point_id, drivers).

    The log is read by the station parser's reader, `series.parse_rows`,
    with the same checks (header columns, UTC offset, finite numbers,
    sample domain checks); point_id, t_air, t_globe and wind must be
    present, rh may be blank. Bad rows are dropped and counted in the log's
    load report; a SchemaError is raised when no row survives. Samples are
    ordered by time, rows at the same time in file order.
    """
    t_us, table, point_ids, report = parse_rows(source, "mobile log", required=MOBILE_REQUIRED,
                                                label="point_id")
    return MobileLog(t_us, point_ids, dict(zip(FIELDS, table)), report)


def segment_stops(log: MobileLog, plan: CampaignPlan) -> list[StopSegment]:
    """Split the mobile log into per-point dwell segments.

    Contiguous runs of one point id become a segment; an internal time gap
    longer than 60 s splits the run; segments shorter than 5 minutes are
    flagged too short. The first unknown point id in time order is an error.
    """
    if not len(log):
        return []
    t, ids = log.t_us, log.point_ids
    split = (ids[1:] != ids[:-1]) | (np.diff(t) / 1e6 > SEGMENT_SPLIT_GAP_S)
    starts = np.flatnonzero(np.concatenate(([True], split)))
    ends = np.append(starts[1:], len(t))
    too_short = (t[ends - 1] - t[starts]) / 1e6 < MIN_SEGMENT_S
    segments = []
    for a, b, short in zip(starts.tolist(), ends.tolist(), too_short.tolist()):
        if ids[a] not in plan._by_id:
            raise DomainError(f"mobile log references unknown point id {ids[a]!r}")
        segments.append(StopSegment(ids[a], t[a:b],
                                    {name: c[a:b] for name, c in log.columns.items()},
                                    too_short=short))
    return segments


def detect_stabilization(segment: StopSegment,
                         delta_c: float = STABILIZATION_DELTA_C) -> StopSegment:
    """Find the latest window over which the globe reading has settled.

    A window starts at a sample time t_i, holds every sample up to
    t_i + 3 min and must end by the last sample. Starts are tried from the
    latest back; the first window whose globe range is within the sensor
    uncertainty (inclusive) is set on the returned copy of the segment.
    """
    t, globe = segment.t_us, segment.columns["t_globe"]
    if np.isnan(globe).any():
        raise DomainError(
            f"segment at {segment.point_id} has samples without globe readings")
    span_us = int(STABILIZATION_WINDOW_S * 1_000_000)
    lo = np.searchsorted(t, t, side="left").tolist()
    hi = np.searchsorted(t, t + span_us, side="right").tolist()
    values = globe.tolist()
    fits = int(np.searchsorted(t, t[-1] - span_us, side="right"))  # windows ending by t[-1]
    for i in range(fits - 1, -1, -1):
        window = values[lo[i]:hi[i]]
        if max(window) - min(window) <= delta_c:
            return replace(segment, stabilization_window=(int(t[i]), int(t[i]) + span_us))
    return replace(segment, stabilization_window=None)


def aggregate_point(segment: StopSegment, globe: GlobeSpec = GlobeSpec(),
                    z0: float = DEFAULT_Z0_M) -> AggregatedDrivers:
    """Average the drivers over the stabilization window.

    Each mean is a Python `sum` over the window's readings of that field,
    blanks left out. MRT is derived from the averaged globe/air/wind
    values; the wind speed is converted from the sensor height to 10 m with
    a neutral log profile for the UTCI evaluation.
    """
    if not segment.stabilized:
        raise DomainError(
            f"segment at {segment.point_id} never stabilized; point is unusable")
    lo, hi = segment.stabilization_window
    inside = (segment.t_us >= lo) & (segment.t_us <= hi)

    def mean_of(name):
        values = segment.columns[name][inside]
        values = values[~np.isnan(values)].tolist()
        if not values:
            raise DomainError(f"no {name} readings in stabilization window "
                              f"at {segment.point_id}")
        return sum(values) / len(values), len(values)

    t_air, n_t = mean_of("t_air")
    rh, n_rh = mean_of("rh")
    t_globe, n_g = mean_of("t_globe")
    wind, n_w = mean_of("wind")
    t_mrt = thermal.mrt_from_globe(t_globe, t_air, wind, globe)
    return AggregatedDrivers(
        timestamp=(lo + hi) // 2,
        t_air=t_air,
        rh=rh,
        wind_10m=wind_to_10m(wind, MOBILE_SENSOR_HEIGHT_M, z0),
        t_mrt=t_mrt,
        sample_counts={"t_air": n_t, "rh": n_rh, "t_globe": n_g, "wind": n_w},
    )


def match_control(timestamp_us: int, control: StationSeries) -> ReferenceConditions:
    """Reference conditions from the control sample nearest `timestamp_us`."""
    i = nearest_sample(control, timestamp_us)
    return ReferenceConditions(t_air=float(control.columns["t_air"][i]),
                               rh=float(control.columns["rh"][i]),
                               matched_at=int(control.t_us[i]))


def process_campaign(plan: CampaignPlan, log: MobileLog,
                     control: StationSeries,
                     day_summary: DaySummary,
                     onsite: StationSeries | None = None,
                     override_day_filter: bool = False,
                     day_thresholds: DayFilterThresholds = DayFilterThresholds(),
                     globe: GlobeSpec = GlobeSpec(), z0: float = DEFAULT_Z0_M,
                     stabilization_delta_c: float = STABILIZATION_DELTA_C,
                     drift_thresholds: DriftThresholds = DriftThresholds(),
                     ) -> tuple[list[PointResult], CampaignReport]:
    """Run the full per-point pipeline for one campaign.

    A day the filter rejects raises DayRejectedError unless
    `override_day_filter` is set. Per-point failures are collected and
    reported; the campaign only fails outright when no point is usable. A
    stop flagged too short is unusable before its stabilization is tried.
    When an on-site fixed station is supplied, its UTCI offset against the
    control is drift-checked over the traverse span; when the check cannot
    run, the reason is reported as a `__drift__` failure.
    """
    filter_result = day_filter(day_summary, day_thresholds)
    if not (filter_result.accepted or override_day_filter):
        raise DayRejectedError(filter_result.reasons)

    segments = segment_stops(log, plan)
    results: dict[str, PointResult] = {}
    failures: list[tuple[str, str]] = []
    seen: set[str] = set()
    for segment in segments:
        seen.add(segment.point_id)
        if segment.too_short:
            failures.append((segment.point_id,
                             f"segment at {segment.point_id} lasts "
                             f"{(segment.t_us[-1] - segment.t_us[0]) / 1e6:g} s, under the "
                             f"{MIN_SEGMENT_S:g} s minimum dwell; point is unusable"))
            continue
        try:
            stabilized = detect_stabilization(segment, stabilization_delta_c)
            drivers = aggregate_point(stabilized, globe=globe, z0=z0)
            ref = match_control(drivers.timestamp, control)
            mobile = UtciInput(drivers.t_air, drivers.t_mrt, drivers.wind_10m,
                               vapor_pressure(drivers.t_air, drivers.rh))
            offset = utci_offset(mobile, ref, segment.point_id)
            results[segment.point_id] = PointResult(drivers, offset)
        except (DomainError, ValidityError, MatchError) as exc:
            failures.append((segment.point_id, str(exc)))
    for p in plan.points:
        if p.point_id not in seen:
            failures.append((p.point_id, "no mobile samples recorded"))
    # keep only failures for points that never produced a result
    failures = [(pid, why) for pid, why in failures if pid not in results]
    if not results:
        raise DomainError(
            f"campaign {plan.campaign_id} produced no usable points: "
            + "; ".join(f"{pid}: {why}" for pid, why in failures)
        )

    drift = None
    if onsite is not None and log:
        span = (from_epoch_us(int(log.t_us[0])), from_epoch_us(int(log.t_us[-1])))
        try:
            # only the traverse span is differenced; the control stays whole
            offsets = offset_series(onsite.window(log.t_us[0], log.t_us[-1] + 1), control,
                                    "utci", globe=globe, z0=z0)
            drift = drift_diagnostic(offsets, span, drift_thresholds)
        except (DomainError, ValidityError, MatchError) as exc:
            failures.append(("__drift__", f"drift check skipped: {exc}"))

    report = CampaignReport(
        campaign_id=plan.campaign_id,
        day_filter=filter_result,
        failures=failures,
        drift=drift,
    )
    ordered = [results[p.point_id] for p in plan.points if p.point_id in results]
    return ordered, report
