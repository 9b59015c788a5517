"""Fixed-station time series: ingestion, differencing, drift checks.

Stations log one multi-parameter sample per minute. Series are kept
immutable after parsing; gaps are never interpolated, and all timestamps
are normalized to UTC internally.

Columns: a `StationSeries` holds its samples as columns only: `t_us`, the
timestamps as int64 microseconds since the Unix epoch (exact for every
`datetime`), and `columns`, one float64 array per field in `FIELDS` with
NaN where a value is missing. `StationSeries.samples` builds one
`WeatherSample` record per sample on each access, for callers that want
records. Derived parameters, matching, differencing and the day screen
read the columns, one array pass per series.

Ingest: station and mobile logs share one reader, `parse_rows`. It opens
the log, checks its header, reads every row once with `csv.reader`, as
`csv.DictReader` would see it (blank lines skipped and not numbered, short
rows read as blanks, extra fields ignored, the last of repeated headers
wins), and checks the rows
column by column: timestamps of exactly the form `YYYY-MM-DDTHH:MM:SS+HH:MM`
(or `-HH:MM`) are converted from their digits, and each value column goes
through `float()` in one `np.fromiter` pass. A row the column checks
cannot prove clean (a blank required field, a value that is not a finite
number, humidity outside [0, 100], negative wind, a blank label) falls
back to `parse_row`, the one row validator, which keeps it or words why it
is dropped; a row whose only odd cell is a timestamp of another form goes
through `parse_timestamp`, the first step of `parse_row`. So the drop
reasons, their order and every kept value are those of a row-by-row parse.
The kept rows come back in time order, rows at one time in file order.

Matching: `match_indices` pairs every query time with its nearest sample
in one `np.searchsorted`. The earlier sample wins an exact tie, and a pair
needs |dt| <= `MATCH_TOLERANCE_S` (inclusive). `nearest_sample` is the
one-element case and returns the sample's index.

Smoothing: `_smooth_values` is the centered moving average the drift check
applies to an offset series, each window found by `np.searchsorted`.

Windowing: a verdict differences only the samples it reads.
`StationSeries.window` is the one cut of a series to a time span: the
half-open span [start, end) in epoch microseconds. A local day starts at
`local_midnight_us` and lasts `DAY_US`. The series a cut is matched
against stays whole, so the matches at the window edges are the same as
for the whole record.
"""

from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import date, datetime, time, timedelta, timezone, tzinfo
from enum import Enum
from itertools import islice

import numpy as np

from . import thermal
from .errors import DomainError, MatchError, SchemaError
from .thermal import DEFAULT_Z0_M, GlobeSpec

REQUIRED_COLUMNS = ("timestamp", "t_air", "rh")
OPTIONAL_COLUMNS = ("t_globe", "wind", "net_radiation")

#: Sample fields held as float64 columns, NaN where missing.
FIELDS = ("t_air", "rh", "t_globe", "wind", "net_radiation")

#: Parameters that can be extracted or derived from a series.
PARAMETERS = FIELDS + ("vapor_pressure", "t_mrt", "utci")

#: Height of a station's wind sensor (m) when its config gives none.
DEFAULT_WIND_HEIGHT_M = 4.0

#: Sample spacing (s) every station log must keep.
STATION_CADENCE_S = 60.0

#: Largest |dt| (s) at which a sample matches a time.
MATCH_TOLERANCE_S = 60.0

#: Microseconds in an hour and in a day.
HOUR_US = 3_600_000_000
DAY_US = 24 * HOUR_US

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def epoch_us(when: datetime) -> int:
    """Microseconds since the Unix epoch, exact for a timezone-aware datetime."""
    return (when - _EPOCH) // _MICROSECOND


def from_epoch_us(us: int) -> datetime:
    """The UTC datetime `us` microseconds after the Unix epoch."""
    return _EPOCH + timedelta(microseconds=us)


def local_midnight_us(day: date, tz: tzinfo) -> int:
    """Epoch microseconds of 00:00 on `day` at the fixed UTC offset `tz`."""
    return epoch_us(datetime.combine(day, time(0), tz))


@contextmanager
def opened(source, mode: str = "r", newline: str | None = None, error=SchemaError):
    """The open file `source` names when it is a path, else `source` itself.

    A path opened as text reads as UTF-8 after any leading byte-order mark
    (BOM). A byte that is not UTF-8, or a line `csv` cannot read, raises
    `error` naming the file.
    """
    if not (isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")):
        yield source
        return
    with open(source, mode, encoding=None if "b" in mode else "utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(source, "rb") as raw:  # the decoder's offset counts from its chunk
                decoded(raw.read(), source, error)
            raise
        except csv.Error as exc:
            raise error(f"cannot read {source}: {exc}") from None


def decoded(data: bytes, name, error, start: int = 0, end: int | None = None) -> str:
    """`data[start:end]` decoded as UTF-8; `error` names `name` and the first bad
    byte with its offset in `data`."""
    try:
        return data[start:end].decode()
    except UnicodeDecodeError as exc:
        raise error(f"{name} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                    f"at offset {start + exc.start}") from None


class DriftVerdict(Enum):
    STABLE = "stable"
    DRIFTING = "drifting"


@dataclass(frozen=True)
class WeatherSample:
    """One timestamped multi-parameter reading; `parse_row` validates the values."""

    timestamp: datetime  # timezone-aware, stored as UTC
    t_air: float
    rh: float | None
    t_globe: float | None = None
    wind: float | None = None
    net_radiation: float | None = None


@dataclass
class LoadReport:
    rows_read: int = 0
    dropped_rows: int = 0
    drop_reasons: list[str] = field(default_factory=list)
    log_name: str = field(default="", compare=False)  # as `parse_rows` names the log

    def summary(self) -> str:
        return (f"{self.log_name}: dropped {self.dropped_rows} of {self.rows_read} rows "
                f"(first: {self.drop_reasons[0]})")


@dataclass(eq=False)
class StationSeries:
    """Sorted time series for one station, held as columns.

    `t_us` holds strictly increasing int64 epoch microseconds and `columns`
    one float64 array per field in `FIELDS`, all of the same length. The
    series is not meant to be mutated after construction.
    """

    station_id: str
    t_us: np.ndarray = field(repr=False)
    columns: dict[str, np.ndarray] = field(repr=False)
    wind_height: float = DEFAULT_WIND_HEIGHT_M  # m, read to convert wind to 10 m
    load_report: LoadReport = field(default_factory=LoadReport)

    @property
    def samples(self) -> list[WeatherSample]:
        """Every sample as a row record, NaN as None, built from the columns on each access."""
        values = [[None if math.isnan(v) else v for v in self.columns[name].tolist()]
                  for name in FIELDS]
        return [WeatherSample(from_epoch_us(t), *row)
                for t, *row in zip(self.t_us.tolist(), *values)]

    def window(self, start_us: int, end_us: int) -> StationSeries:
        """The samples with start_us <= t_us < end_us, as a series of their own."""
        lo, hi = np.searchsorted(self.t_us, [start_us, end_us]).tolist()
        return replace(self, t_us=self.t_us[lo:hi],
                       columns={name: c[lo:hi] for name, c in self.columns.items()})


#: The timestamp forms `datetime.fromisoformat` reads alike on every supported
#: Python: YYYY-MM-DD, 'T' or a space, HH:MM[:SS[.fff[fff]]], [+-]HH:MM; a
#: stamp without the offset matches too, to be dropped for lacking it.
_ISO_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}[T ][0-9]{2}:[0-9]{2}"
                            r"(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?"
                            r"(?:[+-][0-9]{2}:[0-9]{2})?")


def parse_timestamp(text: str) -> datetime:
    """The UTC datetime of an ISO 8601 timestamp cell; ValueError if it is bad.

    The stripped cell must have a form of `_ISO_TIMESTAMP` and a UTC offset,
    and its UTC instant must fall within the years 1 to 9999.
    """
    raw = text.strip()
    if not _ISO_TIMESTAMP.fullmatch(raw):
        raise ValueError(f"Invalid isoformat string: {raw!r}")
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        raise ValueError("timestamp lacks a UTC offset")
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp out of range: {raw}") from None


def parse_row(row: dict, colmap: dict[str, str],
              required: tuple[str, ...] = ("t_air", "rh"),
              ) -> tuple[datetime, list[float | None]]:
    """Validate one CSV row; ValueError or DomainError if it is bad.

    Returns the UTC timestamp and the values of `FIELDS` in order, None
    where a value is blank. The timestamp needs a UTC offset; `required`
    fields must be present; every present value must be a finite number,
    relative humidity must lie in [0, 100] and wind must not be negative.
    `colmap` maps canonical names to the file's headers.
    """
    ts = parse_timestamp(row.get(colmap["timestamp"]) or "")
    values = []
    for name in FIELDS:
        raw = (row.get(colmap.get(name, name), "") or "").strip()
        if raw == "":
            if name in required:
                raise ValueError(f"missing value for {name}")
            values.append(None)
            continue
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value for {name}")
        values.append(value)
    _, rh, _, wind, _ = values
    if rh is not None and not (0 <= rh <= 100):
        raise DomainError(f"relative humidity out of range at {ts}: {rh}")
    if wind is not None and wind < 0:
        raise DomainError(f"negative wind speed at {ts}: {wind}")
    return ts, values


# The one timestamp form the bulk reader converts itself: "2019-07-25T08:00:00+02:00".
_TS_LENGTH = 25
_TS_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23, 24]
_TS_PUNCTUATION = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":", 22: ":"}
_TS_SIGN = 19
# epoch microseconds of the first and last whole second a datetime can hold in UTC
_UTC_MIN_US = epoch_us(datetime.min.replace(tzinfo=timezone.utc))
_UTC_MAX_US = epoch_us(datetime.max.replace(tzinfo=timezone.utc, microsecond=0))


def _timestamps_us(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds of `YYYY-MM-DDTHH:MM:SS+HH:MM` cells, and where they hold.

    A cell counts only when it has exactly that form, a valid calendar date
    and time (year 1 or later, seconds up to 59), an offset under 24 h and a
    UTC instant a `datetime` can hold; `parse_row` reads those cells to the
    same instant. Other cells are left to it (their time reads 0).
    """
    n = len(cells)
    t_us = np.zeros(n, dtype=np.int64)
    lengths = np.fromiter(map(len, cells), dtype=np.intp, count=n)
    rows = np.flatnonzero(lengths == _TS_LENGTH)
    picked = cells if len(rows) == n else list(map(cells.__getitem__, rows.tolist()))
    # non-ASCII characters become "?", one byte each, which fails the form
    chars = np.frombuffer("".join(picked).encode("ascii", "replace"),
                          dtype=np.uint8).reshape(len(rows), _TS_LENGTH)
    digits = chars[:, _TS_DIGITS] - np.uint8(ord("0"))  # a non-digit wraps past 9
    ok = (digits <= 9).all(axis=1)
    for pos, char in _TS_PUNCTUATION.items():
        ok &= chars[:, pos] == ord(char)
    sign = chars[:, _TS_SIGN]
    ok &= (sign == ord("+")) | (sign == ord("-"))
    d = digits.T.astype(np.int64)
    year = d[0] * 1000 + d[1] * 100 + d[2] * 10 + d[3]
    month, day, hour, minute, second, off_h, off_m = (
        d[k] * 10 + d[k + 1] for k in range(4, 18, 2))
    months = (year - 1970) * 12 + month - 1  # months since January 1970
    ok &= (year >= 1) & (month >= 1) & (month <= 12)
    months = np.where(ok, months, 0)
    first_day = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    month_days = (months + 1).astype("datetime64[M]").astype("datetime64[D]").astype(
        np.int64) - first_day
    ok &= ((day >= 1) & (day <= month_days) & (hour <= 23) & (minute <= 59)
           & (second <= 59) & (off_h <= 23) & (off_m <= 59))
    offset_s = np.where(sign == ord("-"), -60, 60) * (off_h * 60 + off_m)
    seconds = (((first_day + day - 1) * 24 + hour) * 60 + minute) * 60 + second - offset_s
    us = seconds * 1_000_000
    ok &= (_UTC_MIN_US <= us) & (us <= _UTC_MAX_US)
    t_us[rows[ok]] = us[ok]
    clean = np.zeros(n, dtype=bool)
    clean[rows[ok]] = True
    return t_us, clean


def _float_column(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The cells as float64, NaN where blank or not a number, and the blank mask.

    Each cell goes through `float()`, the conversion `parse_row` uses. A
    column holding a blank or a bad cell takes a second pass, which reads
    blanks as "nan" and restarts the conversion after each bad cell.
    """
    n = len(cells)
    try:
        return np.fromiter(map(float, cells), dtype=float, count=n), np.zeros(n, dtype=bool)
    except ValueError:
        pass
    values: list[float] = []
    rest = iter([c or "nan" for c in cells])
    while True:
        try:
            values.extend(map(float, rest))  # keeps what it converted when one fails
            break
        except ValueError:
            values.append(math.nan)  # the bad cell, which `rest` has passed
    column = np.array(values, dtype=float)
    nan = np.flatnonzero(np.isnan(column))
    blank = np.zeros(n, dtype=bool)
    blank[nan] = [cells[i] == "" for i in nan.tolist()]
    return column, blank


def parse_rows(source, log_name: str, column_map: dict[str, str] | None = None,
               required: tuple[str, ...] = ("t_air", "rh"), label: str | None = None,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, LoadReport]:
    """Read a log CSV and validate its rows as `parse_row` would, column by column.

    Returns the kept rows in time order, rows at one time in file order:
    their int64 epoch microseconds (UTC), a float64 table with one row per
    field in `FIELDS` (NaN where blank), the stripped `label` of each row
    (None without a `label`) and the load report.

    `log_name` names the log in its errors ("station 'control'", "mobile log")
    and `column_map` remaps canonical column names to the file's header
    names. The header must carry the columns of `REQUIRED_COLUMNS` and of
    the `required` fields, and the `label` column; a log lacking one,
    holding no row or no valid row is a SchemaError. A row is read as
    `csv.DictReader` reads it: empty rows are skipped and not numbered, a
    short row reads blanks for its missing fields, extra fields are ignored
    and the last of repeated header names wins. `label` names a text column
    every kept row must carry; a blank one drops the row as "missing
    <label>" before its values are looked at. Rows the column checks cannot
    prove clean go through `parse_row` one by one, or only through
    `parse_timestamp` when the timestamp is their one odd cell, so each
    dropped row gets the reason a row-by-row parse gives, in file order
    ("line N: ...", the header being line 1).
    """
    colmap = {name: name for name in REQUIRED_COLUMNS + OPTIONAL_COLUMNS}
    colmap.update(column_map or {})
    extra = [] if label is None else [label]
    needed = [colmap[c] for c in dict.fromkeys(REQUIRED_COLUMNS + required)] + extra
    with opened(source, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"no rows in {log_name}")
        missing = [c for c in needed if c not in header]
        if missing:
            raise SchemaError(f"{log_name} lacks column(s): {', '.join(missing)}")
        n, cells = _read_cells(header, reader, [*colmap.values(), *extra])
    if not n:
        raise SchemaError(f"no rows in {log_name}")
    stamps = cells[colmap["timestamp"]]
    t_us, clean_stamps = _timestamps_us(stamps)
    clean = np.ones(n, dtype=bool)  # rows whose values and label are clean
    table = np.empty((len(FIELDS), n))
    for k, name in enumerate(FIELDS):
        values, blank = _float_column(cells[colmap[name]])
        if name in required:
            clean &= ~blank
        clean &= blank | np.isfinite(values)
        table[k] = values
    rh, wind = table[FIELDS.index("rh")], table[FIELDS.index("wind")]
    clean &= ~((rh < 0) | (rh > 100) | (wind < 0))
    labels = None
    if label is not None:
        labels = np.array([c.strip() for c in cells[label]], dtype=object)
        clean &= labels != ""

    report = LoadReport(rows_read=n, log_name=log_name)
    kept = clean & clean_stamps
    for i in np.flatnonzero(~kept).tolist():
        try:
            if clean[i]:  # the timestamp is the one odd cell: parse_row's first step
                t_us[i] = epoch_us(parse_timestamp(stamps[i]))
            else:
                if label is not None and not labels[i]:
                    raise ValueError(f"missing {label}")
                # parse_row reads no other field, and reads "" for a missing one
                ts, row_values = parse_row(
                    {name: column[i] for name, column in cells.items()}, colmap, required)
                t_us[i] = epoch_us(ts)
                table[:, i] = [math.nan if v is None else v for v in row_values]
        except ValueError as exc:  # DomainError is a ValueError
            report.dropped_rows += 1
            report.drop_reasons.append(f"line {i + 2}: {exc}")
            continue
        kept[i] = True
    if not kept.any():
        raise SchemaError(f"no valid rows in {log_name} ({report.drop_reasons[0]})")
    rows = np.flatnonzero(kept)
    rows = rows[np.argsort(t_us[rows], kind="stable")]
    return t_us[rows], table[:, rows], None if labels is None else labels[rows], report


# Rows held at once while reading. Rows freed while few are alive never
# reach the cyclic garbage collector's older generations, which would
# otherwise scan every row list read so far again and again.
_CHUNK_ROWS = 256


def _read_cells(header: list[str], rows, names: list[str]) -> tuple[int, dict[str, list[str]]]:
    """The number of non-empty `rows` and the cells of the columns `names`.

    A row reads as `csv.DictReader` reads it: empty rows are skipped, a
    field past the end of a short row and a name missing from `header` read
    "", extra fields are ignored and the last of repeated header names wins.
    """
    index = {name: i for i, name in enumerate(header)}
    columns: dict[str, list[str]] = {name: [] for name in names}
    n = 0
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        chunk = list(filter(None, chunk))  # drop empty rows
        n += len(chunk)
        width = min(map(len, chunk), default=0)
        for name, cells in columns.items():
            i = index.get(name)
            if i is None:
                cells.extend([""] * len(chunk))
            elif i < width:
                cells.extend([row[i] for row in chunk])
            else:
                cells.extend([row[i] if i < len(row) else "" for row in chunk])
    return n, columns


def parse_station_csv(source, station_id: str, column_map: dict[str, str] | None = None,
                      wind_height: float = DEFAULT_WIND_HEIGHT_M) -> StationSeries:
    """Parse a station log CSV into a validated series.

    `column_map` remaps canonical column names to the file's header names,
    and `wind_height` is the wind sensor's height in metres. The log is read
    by `parse_rows`; rows with unparseable or out-of-range values are
    dropped and counted in the series' load report, and so is every row
    repeating an earlier row's timestamp. Samples must be about
    `STATION_CADENCE_S` apart; holes longer than twice that are left out of
    that check.
    """
    t_us, table, _, report = parse_rows(source, f"station {station_id!r}", column_map)
    repeated = np.diff(t_us) == 0  # rows at the time of the row before them
    if repeated.any():
        for t in t_us[1:][repeated].tolist():
            report.dropped_rows += 1
            report.drop_reasons.append(f"duplicate timestamp {from_epoch_us(t).isoformat()}")
        first = np.append(True, ~repeated)
        t_us, table = t_us[first], table[:, first]

    deltas = np.diff(t_us) / 1e6
    # ignore gap deltas and require enough spacings for a meaningful median,
    # so isolated dropped rows do not masquerade as a cadence change
    regular = deltas[deltas <= 2 * STATION_CADENCE_S]
    if len(regular) >= 5:
        # np.median's result, written out: np.median imports numpy.ma on first use
        regular.sort()
        mid = len(regular) // 2
        median = float(regular[mid] if len(regular) % 2
                       else (regular[mid - 1] + regular[mid]) / 2)
        if abs(median - STATION_CADENCE_S) > 0.1 * STATION_CADENCE_S:
            raise SchemaError(f"station {station_id!r} is not at the {STATION_CADENCE_S}s "
                              f"station cadence: its median sample spacing is {median}s")

    return StationSeries(
        station_id=station_id,
        t_us=t_us,
        columns=dict(zip(FIELDS, table)),
        wind_height=wind_height,
        load_report=report,
    )


def parameter_values(series: StationSeries, parameter: str, rows,
                     globe: GlobeSpec = GlobeSpec(), z0: float = DEFAULT_Z0_M) -> np.ndarray:
    """One parameter of a series as a float64 array, NaN where it is undefined.

    `rows` (an index or mask array) selects samples; an unknown `parameter`
    is a DomainError. A
    derived value is undefined, and nothing is evaluated for that row,
    when the sample lacks a field it needs; validity errors are raised only
    for the rows that are evaluated. For station-level UTCI, missing globe
    readings fall back to MRT = air temperature and missing wind to the
    0.5 m/s sheltered floor.
    """
    if parameter not in PARAMETERS:
        raise DomainError(f"unknown parameter {parameter!r}")
    col = {name: c[rows] for name, c in series.columns.items()}
    if parameter in FIELDS:
        return col[parameter]
    t_air, rh, t_globe, wind = col["t_air"], col["rh"], col["t_globe"], col["wind"]
    out = np.full(len(t_air), np.nan)
    if parameter == "t_mrt":
        ok = ~np.isnan(t_globe) & ~np.isnan(wind)
        if ok.any():
            out[ok] = thermal.mrt_from_globe(t_globe[ok], t_air[ok], wind[ok], globe)
        return out
    ok = ~np.isnan(rh)
    if not ok.any():
        return out
    t_air, rh, t_globe, wind = t_air[ok], rh[ok], t_globe[ok], wind[ok]
    if parameter == "vapor_pressure":
        out[ok] = thermal.vapor_pressure(t_air, rh)
        return out
    t_mrt = t_air.copy()
    has_globe = ~np.isnan(t_globe) & ~np.isnan(wind)
    if has_globe.any():
        t_mrt[has_globe] = thermal.mrt_from_globe(
            t_globe[has_globe], t_air[has_globe], wind[has_globe], globe)
    wind_10m = np.full(len(t_air), 0.5)
    has_wind = ~np.isnan(wind)
    if has_wind.any():
        wind_10m[has_wind] = thermal.wind_to_10m(wind[has_wind], series.wind_height, z0)
    out[ok] = thermal.utci_values(t_air, t_mrt, wind_10m, thermal.vapor_pressure(t_air, rh))
    return out


def _smooth_values(t_us: np.ndarray, values: list[float],
                   window_seconds: float) -> list[float]:
    """Centered moving average with truncated edge windows.

    Sample j is in the window of sample i when |t_j - t_i| <= half the
    window. `t_us` is sorted, so each window is one contiguous run, averaged
    as a left-to-right `sum` over its length.
    """
    # past 1e12 s, a half window reaches every instant a datetime can hold
    half = timedelta(seconds=min(window_seconds / 2.0, 1e12)) // _MICROSECOND
    lo = np.searchsorted(t_us, t_us - half, side="left")
    hi = np.searchsorted(t_us, t_us + half, side="right")
    return [sum(values[a:b]) / (b - a) for a, b in zip(lo.tolist(), hi.tolist())]


@dataclass(eq=False)
class OffsetSeries:
    """Case-minus-control time series for one parameter, as two columns: the
    times in `t_us` (int64 epoch microseconds) and the offsets in `values`
    (float64). A `t_us` that is not an array is read as aware datetimes."""

    parameter: str
    case_id: str
    control_id: str
    t_us: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.t_us, np.ndarray):
            self.t_us = np.array(list(map(epoch_us, self.t_us)), dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)

    @property
    def times(self) -> list[datetime]:
        """The sample times as UTC datetimes, built from `t_us` on each access."""
        return list(map(from_epoch_us, self.t_us.tolist()))


def match_indices(times_us: np.ndarray, query_us: np.ndarray) -> np.ndarray:
    """Index of the nearest sample for each query time, or -1 if none is in tolerance.

    `times_us` must be sorted. The earlier sample wins an exact tie, and a
    match needs |dt| <= `MATCH_TOLERANCE_S`; dt is compared in float
    seconds, as `timedelta.total_seconds()` gives it.
    """
    n = len(times_us)
    if n == 0:
        return np.full(len(query_us), -1, dtype=np.intp)
    after = np.searchsorted(times_us, query_us, side="left")
    before = after - 1
    dt_before = np.where(before >= 0,
                         (query_us - times_us[np.maximum(before, 0)]) / 1e6, np.inf)
    dt_after = np.where(after < n,
                        (times_us[np.minimum(after, n - 1)] - query_us) / 1e6, np.inf)
    nearest = np.where(dt_after < dt_before, after, before)
    return np.where(np.minimum(dt_before, dt_after) <= MATCH_TOLERANCE_S, nearest, -1)


def nearest_sample(series: StationSeries, when_us: int) -> int:
    """Index of the sample nearest `when_us` within `MATCH_TOLERANCE_S`, or a MatchError."""
    (i,) = match_indices(series.t_us, np.array([when_us]))
    if i < 0:
        raise MatchError(f"no {series.station_id} sample within {MATCH_TOLERANCE_S}s "
                         f"of {from_epoch_us(when_us).isoformat()}")
    return int(i)


def offset_series(case: StationSeries, control: StationSeries, parameter: str,
                  globe: GlobeSpec = GlobeSpec(), z0: float = DEFAULT_Z0_M) -> OffsetSeries:
    """Case-minus-control differences at case timestamps.

    Each case sample is paired with the nearest control sample within
    `MATCH_TOLERANCE_S`; unmatched samples are skipped, and so are pairs where either
    side lacks a field the parameter needs. Derived parameters are computed
    on each side before differencing. An empty case series (say, a window
    without samples) gives an empty offset series.
    """
    if len(case.t_us) and (case.t_us[-1] < control.t_us[0]
                           or control.t_us[-1] < case.t_us[0]):
        raise MatchError(
            f"series {case.station_id} and {control.station_id} do not overlap in time"
        )
    matched = match_indices(control.t_us, case.t_us)
    rows = np.flatnonzero(matched >= 0)
    diff = (parameter_values(case, parameter, rows, globe, z0)
            - parameter_values(control, parameter, matched[rows], globe, z0))
    defined = ~np.isnan(diff)
    return OffsetSeries(parameter, case.station_id, control.station_id,
                        case.t_us[rows[defined]], diff[defined])


@dataclass(frozen=True)
class DriftThresholds:
    """Amplitude limits deciding whether an offset can be treated as constant."""

    short_window_amplitude: float = 1.0  # degC, windows up to short_window_hours
    long_window_amplitude: float = 2.0   # degC, longer windows
    short_window_hours: float = 2.0
    smoothing_seconds: float = 300.0


@dataclass(frozen=True)
class DriftReport:
    parameter: str
    window: tuple[datetime, datetime]
    amplitude: float      # degC, max - min of smoothed offsets
    trend_slope: float    # degC per hour, least squares on raw offsets
    verdict: DriftVerdict
    threshold: float
    n_samples: int

    def summary(self) -> str:
        start, end = self.window
        return (
            f"drift check on {self.parameter} offset "
            f"[{start.isoformat()} .. {end.isoformat()}]: "
            f"amplitude {self.amplitude:.3f} degC (threshold {self.threshold:.1f}), "
            f"trend {self.trend_slope:+.3f} degC/h, "
            f"n={self.n_samples} -> {self.verdict.value}"
        )


def drift_diagnostic(offsets: OffsetSeries, window: tuple[datetime, datetime],
                     thresholds: DriftThresholds = DriftThresholds()) -> DriftReport:
    """Judge whether an offset series is stable over a window.

    Offsets are smoothed (5 min default) before the amplitude (max - min)
    is taken; the trend slope comes from an ordinary least-squares fit on
    the raw offsets. The verdict is drifting when either the smoothed
    amplitude or the total excursion of the fitted trend across the window
    exceeds the threshold for the window duration class; smoothing
    deliberately does not hide a steady monotone drift.
    """
    start, end = window
    if not len(offsets.t_us):
        raise DomainError("empty offset series")
    start_us, end_us = epoch_us(start), epoch_us(end)
    if end_us < offsets.t_us[0] or start_us > offsets.t_us[-1]:
        raise DomainError("window lies outside the offset series range")
    inside = (start_us <= offsets.t_us) & (offsets.t_us <= end_us)
    t_us, values = offsets.t_us[inside], offsets.values[inside]
    if len(t_us) < 10:
        raise DomainError(f"need at least 10 samples in the window, found {len(t_us)}")

    smoothed = _smooth_values(t_us, values.tolist(), thresholds.smoothing_seconds)
    amplitude = max(smoothed) - min(smoothed)

    hours = (t_us - start_us) / 1e6 / 3600.0
    slope = float(np.polyfit(hours, values, 1)[0])

    duration_h = (end - start).total_seconds() / 3600.0
    threshold = (thresholds.short_window_amplitude
                 if duration_h <= thresholds.short_window_hours
                 else thresholds.long_window_amplitude)
    # small relative guard so a trend landing exactly on the threshold is
    # classified deterministically as drifting
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
        n_samples=len(t_us),
    )
