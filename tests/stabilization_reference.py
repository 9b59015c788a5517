"""Per-sample stabilization and aggregation, the reference for the columnar ones.

These are `campaign.detect_stabilization` and `campaign.aggregate_point` as
they were while a stop segment held one record per reading: the
window scan re-reads the whole segment for every candidate start, and the
means are taken over the samples inside the window. The parity test
requires the columnar versions to find the same windows and the same
drivers, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timedelta

from microclimap import thermal
from microclimap.campaign import (STABILIZATION_DELTA_C, STABILIZATION_WINDOW_S,
                                  AggregatedDrivers)
from microclimap.errors import DomainError
from microclimap.thermal import GlobeSpec, wind_to_10m


@dataclass(frozen=True)
class Reading:
    """One timestamped mobile reading; None where a value is blank."""

    timestamp: datetime
    t_air: float
    rh: float | None
    t_globe: float | None
    wind: float | None


@dataclass
class SampleSegment:
    """A contiguous dwell at one traverse point, one record per reading."""

    point_id: str
    readings: list[Reading]
    stabilization_window: tuple[datetime, datetime] | None = None
    stabilized: bool = False
    too_short: bool = False


def detect_stabilization(segment: SampleSegment,
                         delta_c: float = STABILIZATION_DELTA_C,
                         window_s: float = STABILIZATION_WINDOW_S) -> SampleSegment:
    """Find the latest window over which the globe reading has settled.

    Scans fixed-length windows (3 min default) from the end of the segment
    backwards and keeps the first one whose globe-temperature range stays
    within the sensor uncertainty. Returns a copy of the segment with the
    stabilization fields set.
    """
    if any(r.t_globe is None for r in segment.readings):
        raise DomainError(
            f"segment at {segment.point_id} has samples without globe readings")
    times = [r.timestamp for r in segment.readings]
    span = timedelta(seconds=window_s)
    for i in range(len(times) - 1, -1, -1):
        end = times[i] + span
        if end > times[-1]:
            continue
        in_window = [r.t_globe for r in segment.readings
                     if times[i] <= r.timestamp <= end]
        if max(in_window) - min(in_window) <= delta_c:
            return replace(segment, stabilization_window=(times[i], end), stabilized=True)
    return replace(segment, stabilization_window=None, stabilized=False)


def aggregate_point(segment: SampleSegment, globe: GlobeSpec = GlobeSpec(),
                    measurement_height: float = 1.5, z0: float = 0.01) -> AggregatedDrivers:
    """Average the drivers over the stabilization window.

    MRT is derived from the averaged globe/air/wind values; the wind speed
    is converted from the measurement height to 10 m with a neutral log
    profile for the UTCI evaluation.
    """
    if not segment.stabilized or segment.stabilization_window is None:
        raise DomainError(
            f"segment at {segment.point_id} never stabilized; point is unusable")
    lo, hi = segment.stabilization_window
    window = [r for r in segment.readings if lo <= r.timestamp <= hi]

    def mean_of(attr):
        values = [getattr(r, attr) for r in window if getattr(r, attr) is not None]
        if not values:
            raise DomainError(f"no {attr} readings in stabilization window "
                              f"at {segment.point_id}")
        return sum(values) / len(values), len(values)

    t_air, n_t = mean_of("t_air")
    rh, n_rh = mean_of("rh")
    t_globe, n_g = mean_of("t_globe")
    wind, n_w = mean_of("wind")
    t_mrt = thermal.mrt_from_globe(t_globe, t_air, wind, globe)
    return AggregatedDrivers(
        timestamp=lo + (hi - lo) / 2,
        t_air=t_air,
        rh=rh,
        wind_10m=wind_to_10m(wind, measurement_height, z0),
        t_mrt=t_mrt,
        sample_counts={"t_air": n_t, "rh": n_rh, "t_globe": n_g, "wind": n_w},
    )
