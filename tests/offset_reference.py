"""Per-sample day blocks and drift check, the reference for the columnar ones.

These are `analysis._day_blocks` and `series.drift_diagnostic` as they were
while an offset series held one `datetime` and one float per sample: the
day blocks group the samples by date in a dict, and the drift check picks
its window sample by sample. The day key is the sample's date in the
local zone at `utc_offset` (the original grouped on UTC dates, offset 0).
The parity tests require the columnar versions to give the same sums,
counts and drift reports, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from microclimap.errors import DomainError
from microclimap.series import (DriftReport, DriftThresholds, DriftVerdict, _smooth_values,
                                epoch_us)


@dataclass
class ListOffsets:
    """Case-minus-control offsets as one list of times and one of values."""

    parameter: str
    instants: list[datetime]
    values: list[float]


def day_blocks(times: list[datetime], values: list[float], utc_offset: timedelta):
    """Group values by local calendar date, returning per-day sums and counts."""
    zone = timezone(utc_offset)
    days: dict = {}
    for t, v in zip(times, values):
        key = t.astimezone(zone).date()
        total, count = days.get(key, (0.0, 0))
        days[key] = (total + v, count + 1)
    ordered = sorted(days)
    sums = np.array([days[d][0] for d in ordered])
    counts = np.array([days[d][1] for d in ordered], dtype=float)
    return sums, counts


def drift_diagnostic(offsets: ListOffsets, window: tuple[datetime, datetime],
                     thresholds: DriftThresholds = DriftThresholds()) -> DriftReport:
    """Judge whether an offset series is stable over a window."""
    start, end = window
    if not offsets.instants:
        raise DomainError("empty offset series")
    if end < offsets.instants[0] or start > offsets.instants[-1]:
        raise DomainError("window lies outside the offset series range")
    idx = [i for i, t in enumerate(offsets.instants) if start <= t <= end]
    if len(idx) < 10:
        raise DomainError(f"need at least 10 samples in the window, found {len(idx)}")
    times = [offsets.instants[i] for i in idx]
    values = [offsets.values[i] for i in idx]

    smoothed = _smooth_values(np.array([epoch_us(t) for t in times], dtype=np.int64),
                              values, thresholds.smoothing_seconds)
    amplitude = max(smoothed) - min(smoothed)

    hours = np.array([(t - start).total_seconds() / 3600.0 for t in times])
    slope = float(np.polyfit(hours, np.array(values), 1)[0])

    duration_h = (end - start).total_seconds() / 3600.0
    threshold = (thresholds.short_window_amplitude
                 if duration_h <= thresholds.short_window_hours
                 else thresholds.long_window_amplitude)
    trend_excursion = abs(slope) * duration_h
    drifting = (amplitude > threshold
                or trend_excursion > threshold * (1.0 - 1e-9))
    verdict = DriftVerdict.DRIFTING if drifting else DriftVerdict.STABLE
    return DriftReport(
        parameter=offsets.parameter,
        window=window,
        amplitude=amplitude,
        trend_slope=slope,
        verdict=verdict,
        threshold=threshold,
        n_samples=len(idx),
    )
