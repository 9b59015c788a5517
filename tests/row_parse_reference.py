"""Row-by-row station and mobile log parsers, the reference for the bulk reader.

These are the parsers as they were before `series.parse_rows` read logs
column by column: `csv.DictReader` hands over one dict per row and every
row goes through `series.parse_row`. The parity tests require the bulk
reader to give the same series, mobile log and load report on any input.
The mobile log is built as `campaign.MobileLog` columns once every row is
read and sorted by time.
"""

from __future__ import annotations

import csv

import numpy as np

from microclimap.campaign import MOBILE_REQUIRED, MobileLog
from microclimap.errors import DomainError, SchemaError
from microclimap.series import (FIELDS, OPTIONAL_COLUMNS, REQUIRED_COLUMNS, STATION_CADENCE_S,
                                LoadReport, StationSeries, epoch_us, from_epoch_us, opened,
                                parse_row)


def parse_station_csv_rows(source, station_id: str,
                           column_map: dict[str, str] | None = None) -> StationSeries:
    """`series.parse_station_csv`, one `DictReader` row at a time."""
    colmap = {name: name for name in REQUIRED_COLUMNS + OPTIONAL_COLUMNS}
    if column_map:
        colmap.update(column_map)

    with opened(source, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"no rows in station {station_id!r}")
        missing = [colmap[c] for c in REQUIRED_COLUMNS if colmap[c] not in reader.fieldnames]
        if missing:
            raise SchemaError(f"station {station_id!r} lacks column(s): {', '.join(missing)}")

        report = LoadReport()
        times: list[int] = []
        values: list[list[float | None]] = []
        for lineno, row in enumerate(reader, start=2):
            report.rows_read += 1
            try:
                ts, row_values = parse_row(row, colmap)
            except (ValueError, DomainError) as exc:
                report.dropped_rows += 1
                report.drop_reasons.append(f"line {lineno}: {exc}")
                continue
            times.append(epoch_us(ts))
            values.append(row_values)
    if not report.rows_read:
        raise SchemaError(f"no rows in station {station_id!r}")
    if not times:
        raise SchemaError(f"no valid rows in station {station_id!r} ({report.drop_reasons[0]})")

    t_us = np.array(times, dtype=np.int64)
    order = np.argsort(t_us, kind="stable")
    t_us = t_us[order]
    first = np.diff(t_us, prepend=t_us[0] - 1) != 0
    for t in t_us[~first].tolist():
        report.dropped_rows += 1
        report.drop_reasons.append(f"duplicate timestamp {from_epoch_us(t).isoformat()}")
    t_us = t_us[first]
    table = np.array(values, dtype=float)
    kept = order[first]

    deltas = np.diff(t_us) / 1e6
    regular = np.sort(deltas[deltas <= 2 * STATION_CADENCE_S])
    if len(regular) >= 5:
        mid = len(regular) // 2
        median = float(regular[mid] if len(regular) % 2
                       else (regular[mid - 1] + regular[mid]) / 2)
        if abs(median - STATION_CADENCE_S) > 0.1 * STATION_CADENCE_S:
            raise SchemaError(f"station {station_id!r} is not at the {STATION_CADENCE_S}s "
                              f"station cadence: its median sample spacing is {median}s")
    return StationSeries(station_id=station_id, t_us=t_us,
                         columns={name: table[kept, k] for k, name in enumerate(FIELDS)},
                         load_report=report)


def parse_mobile_csv_rows(source) -> MobileLog:
    """`campaign.parse_mobile_csv`, one `DictReader` row at a time."""
    with opened(source, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError("no rows in mobile log")
        required = ("timestamp", "t_air", "rh", "t_globe", "wind", "point_id")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"mobile log lacks column(s): {', '.join(missing)}")
        colmap = {name: name for name in required}
        report = LoadReport()
        out = []
        for lineno, row in enumerate(reader, start=2):
            report.rows_read += 1
            try:
                point_id = (row["point_id"] or "").strip()
                if not point_id:
                    raise ValueError("missing point_id")
                ts, values = parse_row(row, colmap, MOBILE_REQUIRED)
                out.append((epoch_us(ts), point_id, values))
            except (ValueError, DomainError) as exc:
                report.dropped_rows += 1
                report.drop_reasons.append(f"line {lineno}: {exc}")
    if not report.rows_read:
        raise SchemaError("no rows in mobile log")
    if not out:
        raise SchemaError(f"no valid rows in mobile log ({report.drop_reasons[0]})")
    out.sort(key=lambda row: row[0])
    table = np.array([values for _, _, values in out], dtype=float)  # None -> NaN
    return MobileLog(np.array([t for t, _, _ in out], dtype=np.int64),
                     np.array([point_id for _, point_id, _ in out], dtype=object),
                     {name: table[:, k] for k, name in enumerate(FIELDS)}, report)
