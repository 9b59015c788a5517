import io
import math
import random
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from conftest import T0, make_series
from hypothesis import given, settings
from hypothesis import strategies as st

from microclimap.errors import ConfigError, DomainError, MatchError, SchemaError
from microclimap.series import (DAY_US, FIELDS, DriftVerdict, _smooth_values,
                                drift_diagnostic, epoch_us, local_midnight_us,
                                offset_series, opened, parse_station_csv)

HEADER = "timestamp,t_air,rh,t_globe,wind,net_radiation\n"


def csv_rows(rows):
    return io.StringIO(HEADER + "".join(rows))


class TestParseStationCsv:
    def test_well_formed_file(self):
        src = csv_rows([
            "2019-07-25T08:00:00+02:00,25.0,50,26.0,1.0,400\n",
            "2019-07-25T08:01:00+02:00,25.1,50,26.1,1.1,410\n",
            "2019-07-25T08:02:00+02:00,25.2,49,26.2,1.2,420\n",
        ])
        series = parse_station_csv(src, station_id="ctrl")
        assert len(series.t_us) == 3
        assert series.load_report.dropped_rows == 0
        # timestamps normalized to UTC
        assert series.t_us[0] == epoch_us(datetime(2019, 7, 25, 6, 0, tzinfo=timezone.utc))

    def test_malformed_timestamp_row_dropped(self):
        src = csv_rows([
            "2019-07-25T08:00:00+02:00,25.0,50,,,\n",
            "not-a-timestamp,25.1,50,,,\n",
            "2019-07-25T08:01:00+02:00,25.2,50,,,\n",
        ])
        series = parse_station_csv(src, station_id="s")
        assert len(series.t_us) == 2
        assert series.load_report.dropped_rows == 1

    def test_ten_minute_hole_is_kept_unfilled(self):
        rows = [f"2019-07-25T08:{m:02d}:00+00:00,25.0,50,,,\n"
                for m in list(range(5)) + list(range(15, 20))]
        series = parse_station_csv(csv_rows(rows), station_id="s")
        steps = np.diff(series.t_us) // 1_000_000
        assert steps.tolist() == [60] * 4 + [660] + [60] * 4

    def test_missing_mandatory_column(self):
        src = io.StringIO("timestamp,rh\n2019-07-25T08:00:00+00:00,50\n")
        with pytest.raises(SchemaError, match="t_air"):
            parse_station_csv(src, station_id="s")

    @pytest.mark.parametrize("stamp", ["2019-07-25T08:00:00Z", "2019-07-25T08:00:00+0200",
                                       "20190725T080000+02:00", "2019-W30-4T08:00:00+02:00",
                                       "2019-07-25T08:00:00.12+02:00", "2019-07-25t08:00+02:00",
                                       "2019-07-25T08:00:00+02:00:00", "2019-07-25"])
    def test_timestamp_of_a_form_some_pythons_read_is_dropped(self, stamp):
        """Only the ISO forms every supported Python reads alike are kept."""
        src = csv_rows(["2019-07-25T08:01:00+02:00,25.0,50,,,\n", f"{stamp},25.1,50,,,\n"])
        report = parse_station_csv(src, station_id="s").load_report
        assert report.drop_reasons == [f"line 3: Invalid isoformat string: {stamp!r}"]

    @pytest.mark.parametrize("stamp", ["2019-07-25T06:00:00+00:00", "2019-07-25 08:00+02:00",
                                       "2019-07-25T08:00:00.000+02:00",
                                       " 2019-07-25T02:00:00.000000-04:00 "])
    def test_timestamp_forms_every_python_reads(self, stamp):
        series = parse_station_csv(csv_rows([f"{stamp},25.0,50,,,\n"]), station_id="s")
        assert series.t_us.tolist() == [epoch_us(datetime(2019, 7, 25, 6, tzinfo=timezone.utc))]

    def test_zero_valid_rows(self):
        src = csv_rows(["bad,25,50,,,\n"])
        with pytest.raises(SchemaError, match="no valid rows"):
            parse_station_csv(src, station_id="s")

    @pytest.mark.parametrize("text, message", [
        ("", "no rows in station 's'"),
        (HEADER, "no rows in station 's'"),
        ("time,rh\n", "station 's' lacks column(s): timestamp, t_air"),
        (HEADER + "bad,25,50,,,\n",
         "no valid rows in station 's' (line 2: Invalid isoformat string: 'bad')"),
    ])
    def test_schema_errors_name_the_station(self, text, message):
        with pytest.raises(SchemaError) as raised:
            parse_station_csv(io.StringIO(text), station_id="s")
        assert str(raised.value) == message

    def test_out_of_range_humidity_dropped(self):
        src = csv_rows([
            "2019-07-25T08:00:00+00:00,25.0,50,,,\n",
            "2019-07-25T08:01:00+00:00,25.0,140,,,\n",
            "2019-07-25T08:02:00+00:00,25.0,50,,,\n",
        ])
        series = parse_station_csv(src, station_id="s")
        assert len(series.t_us) == 2
        assert series.load_report.dropped_rows == 1

    def test_cadence_mismatch_rejected(self):
        rows = [f"2019-07-25T08:{2 * m:02d}:00+00:00,25.0,50,,,\n" for m in range(10)]
        with pytest.raises(SchemaError, match="cadence"):
            parse_station_csv(csv_rows(rows), station_id="s")

    def test_column_remapping(self):
        src = io.StringIO("time,Ta,RH\n2019-07-25T08:00:00+00:00,25.0,50\n"
                          "2019-07-25T08:01:00+00:00,25.5,51\n")
        series = parse_station_csv(
            src, station_id="s",
            column_map={"timestamp": "time", "t_air": "Ta", "rh": "RH"})
        assert series.columns["t_air"][1] == 25.5


# Injected bad rows, as (timestamp, t_air, rh, t_globe, wind, net_radiation)
# cells with the reason the parser gives, which quotes timestamps in UTC.
BAD_ROWS = [
    (("not-a-timestamp", "25.0", "50", "", "", ""),
     "Invalid isoformat string: 'not-a-timestamp'"),
    (("2019-07-25T08:00:30", "25.0", "50", "", "", ""), "timestamp lacks a UTC offset"),
    (("2019-07-25T08:00:30+00:00", "abc", "50", "", "", ""),
     "could not convert string to float: 'abc'"),
    (("2019-07-25T08:00:30+00:00", "", "50", "", "", ""), "missing value for t_air"),
    (("2019-07-25T10:00:30+02:00", "25.0", "50", "nan", "", ""),
     "non-finite value for t_globe"),
    (("2019-07-25T08:00:30+00:00", "25.0", "140", "", "", ""),
     "relative humidity out of range at 2019-07-25 08:00:30+00:00: 140.0"),
    (("2019-07-25T10:00:30+02:00", "25.0", "50", "", "-1", ""),
     "negative wind speed at 2019-07-25 08:00:30+00:00: -1.0"),
    (("0001-01-01T00:00:00+01:00", "25.0", "50", "", "", ""),
     "timestamp out of range: 0001-01-01T00:00:00+01:00"),
    (("9999-12-31T23:59:59-01:00", "25.0", "50", "", "", ""),
     "timestamp out of range: 9999-12-31T23:59:59-01:00"),
]


class TestOpened:
    """`opened` reads a path as UTF-8 and words what it cannot read."""

    @pytest.mark.parametrize("at", [0, 100, 8191, 8192, 20_000])
    def test_bad_byte_named_with_its_offset_in_the_file(self, tmp_path, at):
        rows = [f"2019-07-25T08:{i // 60:02d}:{i % 60:02d}+02:00,25.0,50,,,\n"
                for i in range(600)]
        data = (HEADER + "".join(rows)).encode()
        path = tmp_path / "station.csv"
        path.write_bytes(data[:at] + b"\xc3(" + data[at:])
        with pytest.raises(SchemaError) as caught:
            parse_station_csv(path, "s")
        assert str(caught.value) == (f"{path} is not UTF-8 text: byte 0xc3 at offset {at}")

    def test_error_class_is_the_callers(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_bytes(b"a: \x85\n")
        with pytest.raises(ConfigError, match="byte 0x85 at offset 3"):
            with opened(path, error=ConfigError) as fh:
                fh.read()

    def test_unreadable_csv_field(self, tmp_path):
        path = tmp_path / "station.csv"
        path.write_text(HEADER + '"' + "x" * 200_000 + '"\n')
        with pytest.raises(SchemaError, match=f"cannot read {path}: field larger than"):
            parse_station_csv(path, "s")

    def test_other_decode_errors_pass_through(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("fine\n")
        with pytest.raises(UnicodeDecodeError):
            with opened(path) as fh:
                fh.read()
                b"\xff".decode()


def messy_station_rows(seed):
    """Valid rows with holes and repeated timestamps, plus the bad rows, shuffled.

    Returns the shuffled rows as (cells, reason) pairs, reason None for a
    valid row.
    """
    rng = random.Random(seed)
    rows = []
    minute = 0
    for _ in range(120):
        minute += 1 if rng.random() > 0.05 else rng.randint(3, 12)
        when = datetime(2019, 7, 25, 6, tzinfo=timezone.utc) + timedelta(minutes=minute)
        local = when.astimezone(timezone(timedelta(hours=rng.choice([0, 2]))))
        copies = 2 if rng.random() < 0.1 else 1
        for _ in range(copies):
            cells = [local.isoformat(), repr(round(rng.uniform(20, 35), 2)),
                     repr(round(rng.uniform(20, 90), 1))]
            cells += [rng.choice(["", repr(round(rng.uniform(0, 5), 2))]) for _ in range(3)]
            rows.append((tuple(cells), None))
    rows += BAD_ROWS
    rng.shuffle(rows)
    return rows


def dict_reference_parse(rows):
    """The series the shuffled rows describe, kept in a dict keyed by time."""
    first: dict[int, list[float]] = {}
    repeats, reasons = [], []
    for lineno, (cells, reason) in enumerate(rows, start=2):
        if reason is not None:
            reasons.append(f"line {lineno}: {reason}")
            continue
        t = epoch_us(datetime.fromisoformat(cells[0]))
        values = [float(c) if c else math.nan for c in cells[1:]]
        if t in first:
            repeats.append(t)
        else:
            first[t] = values
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    reasons += [f"duplicate timestamp {(epoch + timedelta(microseconds=t)).isoformat()}"
                for t in sorted(repeats)]
    times = sorted(first)
    return times, [first[t] for t in times], reasons


class TestParseStationColumns:
    @pytest.mark.parametrize("seed", range(6))
    def test_shuffled_rows_match_dict_reference(self, seed):
        rows = messy_station_rows(seed)
        series = parse_station_csv(csv_rows(",".join(cells) + "\n" for cells, _ in rows),
                                   station_id="s")
        times, values, reasons = dict_reference_parse(rows)
        assert series.t_us.dtype == np.int64
        assert series.t_us.tolist() == times
        for k, name in enumerate(FIELDS):
            np.testing.assert_array_equal(series.columns[name], [v[k] for v in values])
        report = series.load_report
        assert report.rows_read == len(rows)
        assert report.dropped_rows == len(reasons)
        assert report.drop_reasons == reasons

    def test_missing_values_read_as_nan(self):
        series = make_series([{"t_air": 25.0, "wind": 1.5}, {"t_air": 26.0}])
        assert series.t_us.tolist() == [epoch_us(T0), epoch_us(T0 + timedelta(minutes=1))]
        wind, t_globe = series.columns["wind"], series.columns["t_globe"]
        assert wind[0] == 1.5 and math.isnan(wind[1]) and np.isnan(t_globe).all()


def smoothed(values, window_seconds=300.0):
    """`_smooth_values` over a minute series of air temperatures."""
    series = make_series(values)
    return _smooth_values(series.t_us, series.columns["t_air"].tolist(), window_seconds)


class TestSmooth:
    def test_constant_series_unchanged(self):
        assert smoothed([21.0] * 10) == [21.0] * 10

    def test_five_sample_center_mean(self):
        values = smoothed([0, 0, 10, 0, 0], 300)
        assert values[2] == pytest.approx(2.0, abs=1e-12)

    def test_truncated_edge_window(self):
        values = smoothed([0, 0, 10, 0, 0], 300)
        # the edge sample only sees itself and the two samples toward the center
        assert values[0] == pytest.approx(10 / 3, abs=1e-12)
        assert values[4] == pytest.approx(10 / 3, abs=1e-12)

    def test_interior_mean_preserved_for_periodic_series(self):
        # window covers one full period, so every complete window equals the
        # series mean and the end-effect-free interior preserves it
        period = [1.0, 2.0, 3.0, 4.0, 5.0]
        values = smoothed(period * 5, 300)
        interior = values[2:-2]
        assert all(abs(v - 3.0) < 1e-9 for v in interior)


def gap_scanning_smooth(times, values, window_seconds, gaps):
    """The moving average as first written: every gap is scanned per window element."""
    def gap_between(t1, t2):
        lo, hi = (t1, t2) if t1 <= t2 else (t2, t1)
        return any(g.start >= lo and g.end <= hi for g in gaps)

    half = timedelta(seconds=window_seconds / 2.0)
    out = []
    lo = 0
    hi = 0
    n = len(times)
    for i, t in enumerate(times):
        while lo < n and times[lo] < t - half:
            lo += 1
        if hi < i:
            hi = i
        while hi + 1 < n and times[hi + 1] <= t + half:
            hi += 1
        window = [values[j] for j in range(lo, hi + 1) if not gap_between(t, times[j])]
        out.append(sum(window) / len(window))
    return out


WINDOWS = st.sampled_from([60.0, 90.0, 120.0, 300.0, 300.000001, 1200.0])


class TestSmoothKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 400), min_size=1, max_size=80),
           st.lists(st.floats(-50, 50), min_size=80, max_size=80),
           WINDOWS)
    def test_matches_gap_scanning_oracle(self, steps, values, window_seconds):
        """Random sample times (s); the drift check's offsets carry no gaps."""
        times = [T0 + timedelta(seconds=s) for s in np.cumsum(steps).tolist()]
        values = values[:len(times)]
        t_us = np.array([epoch_us(t) for t in times], dtype=np.int64)
        assert (_smooth_values(t_us, values, window_seconds)
                == gap_scanning_smooth(times, values, window_seconds, []))


class TestOffsetSeries:
    def test_identical_series_zero_offsets(self):
        a = make_series([25.0, 26.0, 27.0], station_id="case")
        b = make_series([25.0, 26.0, 27.0], station_id="ctrl")
        offsets = offset_series(a, b, "t_air")
        assert offsets.values.tolist() == [0.0, 0.0, 0.0]

    def test_constant_shift(self):
        case = make_series([25.0, 26.0, 27.0], station_id="case")
        control = make_series([26.0, 27.0, 28.0], station_id="ctrl")
        assert offset_series(case, control, "t_air").values.tolist() == [-1.0, -1.0, -1.0]

    def test_sample_outside_tolerance_skipped(self):
        case = make_series([{"t_air": 25.0, "timestamp": T0},
                            {"t_air": 26.0, "timestamp": T0 + timedelta(seconds=90)},
                            {"t_air": 27.0, "timestamp": T0 + timedelta(seconds=150)}],
                           cadence_s=60, station_id="case")
        control = make_series([{"t_air": 20.0, "timestamp": T0},
                               {"t_air": 20.0, "timestamp": T0 + timedelta(seconds=300)}],
                              cadence_s=300, station_id="ctrl")
        offsets = offset_series(case, control, "t_air")
        # only the first case sample has a control match within 60 s
        assert offsets.t_us.tolist() == [epoch_us(T0)]

    def test_no_overlap_is_error(self):
        case = make_series([25.0, 25.0], station_id="case")
        control = make_series([25.0, 25.0], start=T0 + timedelta(days=2),
                              station_id="ctrl")
        with pytest.raises(MatchError, match="overlap"):
            offset_series(case, control, "t_air")

    def test_antisymmetry(self):
        a = make_series([25.0, 26.5, 24.0, 27.1], station_id="a", rh=40.0)
        b = make_series([26.0, 25.5, 25.0, 26.1], station_id="b", rh=55.0)
        fwd = offset_series(a, b, "vapor_pressure")
        bwd = offset_series(b, a, "vapor_pressure")
        assert fwd.values.tolist() == [-v for v in bwd.values.tolist()]

    def test_derived_parameter_differencing(self):
        from microclimap.thermal import vapor_pressure
        case = make_series([25.0], station_id="case", rh=60.0)
        control = make_series([24.0], station_id="ctrl", rh=50.0)
        offsets = offset_series(case, control, "vapor_pressure")
        expected = vapor_pressure(25.0, 60.0) - vapor_pressure(24.0, 50.0)
        assert offsets.values[0] == pytest.approx(expected, abs=1e-12)


def offset_from_values(values, start=T0, cadence_s=60.0):
    from microclimap.series import OffsetSeries
    times = [start + timedelta(seconds=i * cadence_s) for i in range(len(values))]
    return OffsetSeries("utci", "case", "ctrl", times, list(values))


class TestDriftDiagnostic:
    def test_constant_offset_is_stable(self):
        offsets = offset_from_values([1.5] * 120)
        report = drift_diagnostic(offsets, (T0, T0 + timedelta(hours=1)))
        assert report.amplitude == 0.0
        assert report.trend_slope == pytest.approx(0.0, abs=1e-12)
        assert report.verdict is DriftVerdict.STABLE

    def test_steady_two_degree_decline_drifts(self):
        n = 331  # 5.5 h at 1-minute cadence
        values = [-2.0 * i / (n - 1) for i in range(n)]
        offsets = offset_from_values(values)
        report = drift_diagnostic(offsets, (T0, T0 + timedelta(hours=5.5)))
        assert report.trend_slope == pytest.approx(-2.0 / 5.5, abs=1e-9)
        assert report.verdict is DriftVerdict.DRIFTING

    def test_small_sinusoid_stable_at_one_degree_threshold(self):
        # 0.8 degC peak-to-peak over a 2 h window, one full period
        n = 121
        values = [0.4 * math.sin(2 * math.pi * i / (n - 1)) for i in range(n)]
        offsets = offset_from_values(values)
        report = drift_diagnostic(offsets, (T0, T0 + timedelta(hours=2)))
        assert report.threshold == 1.0
        assert report.verdict is DriftVerdict.STABLE

    def test_verdict_invariant_under_constant_shift(self):
        n = 150
        values = [0.3 * math.sin(2 * math.pi * i / 60) for i in range(n)]
        base = drift_diagnostic(offset_from_values(values),
                                (T0, T0 + timedelta(hours=2)))
        shifted = drift_diagnostic(offset_from_values([v + 7.5 for v in values]),
                                   (T0, T0 + timedelta(hours=2)))
        assert shifted.amplitude == pytest.approx(base.amplitude, abs=1e-9)
        assert shifted.trend_slope == pytest.approx(base.trend_slope, abs=1e-9)
        assert shifted.verdict is base.verdict

    def test_window_outside_range_is_error(self):
        offsets = offset_from_values([1.0] * 30)
        with pytest.raises(DomainError, match="outside"):
            drift_diagnostic(offsets, (T0 + timedelta(days=1),
                                       T0 + timedelta(days=1, hours=2)))

    def test_too_few_samples(self):
        offsets = offset_from_values([1.0] * 5)
        with pytest.raises(DomainError, match="10 samples"):
            drift_diagnostic(offsets, (T0, T0 + timedelta(minutes=4)))


class TestColumns:
    def test_columns_built_at_construction(self):
        series = make_series([{"t_air": 25.0, "wind": 1.5},
                              {"t_air": 26.0, "t_globe": 31.0}])
        from microclimap.series import epoch_us
        assert series.t_us.dtype == np.int64
        assert series.t_us.tolist() == [epoch_us(T0), epoch_us(T0) + 60_000_000]
        assert series.columns["t_air"].tolist() == [25.0, 26.0]
        assert series.columns["wind"][0] == 1.5 and math.isnan(series.columns["wind"][1])
        assert math.isnan(series.columns["t_globe"][0])
        assert series.columns["t_globe"][1] == 31.0

    def test_epoch_microseconds_exact(self):
        from microclimap.series import epoch_us
        when = T0 + timedelta(microseconds=123_457)
        assert epoch_us(when) - epoch_us(T0) == 123_457

    def test_window_is_half_open(self):
        values = [{"t_air": 20.0 + i, "timestamp": T0 + timedelta(minutes=m)}
                  for i, m in enumerate([0, 1, 2, 10, 11, 12])]
        series = make_series(values)
        minute = 60_000_000
        cut = series.window(epoch_us(T0) + minute, epoch_us(T0) + 11 * minute)
        assert cut.t_us.tolist() == [epoch_us(T0) + m * minute for m in (1, 2, 10)]
        assert cut.columns["t_air"].tolist() == [21.0, 22.0, 23.0]
        assert series.window(epoch_us(T0) + 11 * minute, epoch_us(T0) + 11 * minute + 1
                             ).columns["t_air"].tolist() == [24.0]
        assert len(series.window(epoch_us(T0) + 300 * minute,
                                 epoch_us(T0) + 360 * minute).t_us) == 0

    def test_local_midnight_at_a_fixed_offset(self):
        plus_two = timezone(timedelta(hours=2))
        midnight = local_midnight_us(T0.date(), plus_two)
        assert midnight == epoch_us(datetime(2019, 7, 24, 22, 0, tzinfo=timezone.utc))
        assert local_midnight_us(T0.date() + timedelta(days=1), plus_two) == midnight + DAY_US


def test_unknown_parameter_is_a_domain_error():
    from microclimap.series import parameter_values
    series = make_series([25.0, 26.0])
    with pytest.raises(DomainError, match="unknown parameter 'bogus'"):
        parameter_values(series, "bogus", np.arange(2))


class TestMatchIndices:
    def test_exact_sixty_seconds_is_inclusive(self):
        from microclimap.series import nearest_sample
        control = make_series([25.0, 26.0], station_id="ctrl")
        assert nearest_sample(control, epoch_us(T0) - 60_000_000) == 0
        assert nearest_sample(control, epoch_us(T0) + 120_000_000) == 1
        with pytest.raises(MatchError):
            nearest_sample(control, epoch_us(T0) + 120_000_001)

    def test_equidistant_tie_takes_earlier_sample(self):
        from microclimap.series import nearest_sample
        control = make_series([25.0, 26.0], station_id="ctrl")
        assert nearest_sample(control, epoch_us(T0) + 30_000_000) == 0

    def test_empty_series_matches_nothing(self):
        from microclimap.series import match_indices
        out = match_indices(np.array([], dtype=np.int64), np.array([0, 5]))
        assert out.tolist() == [-1, -1]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 200), min_size=1, max_size=60),
           st.lists(st.integers(-100, 6000), min_size=1, max_size=40))
    def test_matches_brute_force_nearest_rule(self, steps, queries):
        """Sorted sample times with random gaps (seconds), queries anywhere."""
        from microclimap.series import MATCH_TOLERANCE_S, match_indices
        times = np.cumsum(steps).astype(np.int64) * 1_000_000
        query = np.array(queries, dtype=np.int64) * 1_000_000 // 2
        got = match_indices(times, query)
        for q, idx in zip(query.tolist(), got.tolist()):
            dts = [abs(t - q) / 1e6 for t in times.tolist()]
            best = min(dts)
            expected = dts.index(best) if best <= MATCH_TOLERANCE_S else -1  # earliest on a tie
            assert idx == expected


def whole_record_offsets(case, control, start_us, end_us, parameter="utci"):
    """Reference: difference the whole case record, then keep [start_us, end_us)."""
    full = offset_series(case, control, parameter)
    kept = (start_us <= full.t_us) & (full.t_us < end_us)
    return full.t_us[kept].tolist(), full.values[kept].tolist()


class TestWindowedOffsets:
    def station(self, station_id, n, phase):
        return make_series(
            [{"t_air": 28.0 + 2.0 * math.sin(i / 37.0 + phase),
              "rh": 40.0 + 10.0 * math.cos(i / 23.0),
              "t_globe": 33.0 + 3.0 * math.sin(i / 11.0 + phase),
              "wind": 0.5 + abs(math.sin(i / 7.0))} for i in range(n)],
            station_id=station_id)

    @pytest.mark.parametrize("lo,hi", [(0, 30), (17, 143), (150, 400), (-20, 5)])
    def test_window_equals_filtered_whole_record(self, lo, hi):
        case = self.station("case", 200, 0.0)
        control = self.station("ctrl", 210, 1.0)
        start, end = epoch_us(T0 + timedelta(minutes=lo)), epoch_us(T0 + timedelta(minutes=hi))
        windowed = offset_series(case.window(start, end), control, "utci")
        times, values = whole_record_offsets(case, control, start, end)
        assert windowed.t_us.tolist() == times
        assert np.allclose(windowed.values, values, rtol=0, atol=1e-9)

    def test_empty_window_gives_empty_offsets(self):
        case = self.station("case", 20, 0.0)
        control = self.station("ctrl", 20, 1.0)
        empty = case.window(epoch_us(T0) + DAY_US, epoch_us(T0) + 2 * DAY_US)
        offsets = offset_series(empty, control, "utci")
        assert offsets.t_us.tolist() == [] and offsets.values.tolist() == []

    def test_array_utci_agrees_with_scalar_per_sample(self):
        from microclimap.thermal import (UtciInput, mrt_from_globe, utci,
                                         vapor_pressure, wind_to_10m)
        case = self.station("case", 50, 0.0)
        control = make_series([27.0] * 50, rh=45.0, station_id="ctrl")
        offsets = offset_series(case, control, "utci")
        ctrl_u = utci(UtciInput(27.0, 27.0, 0.5, vapor_pressure(27.0, 45.0)))
        columns = (case.columns[name].tolist() for name in ("t_air", "rh", "t_globe", "wind"))
        for t_air, rh, t_globe, wind, value in zip(*columns, offsets.values):
            scalar = utci(UtciInput(
                t_air, mrt_from_globe(t_globe, t_air, wind),
                wind_to_10m(wind, 4.0), vapor_pressure(t_air, rh))) - ctrl_u
            assert value == pytest.approx(scalar, abs=1e-9)

    def test_validity_checked_only_on_evaluated_rows(self):
        from microclimap.errors import ValidityError
        case = make_series([30.0] * 12 + [55.0] + [30.0] * 8, station_id="case")
        control = make_series([30.0] * 21, station_id="ctrl")
        with pytest.raises(ValidityError, match="t_air=55.0"):
            offset_series(case, control, "utci")
        # the hot sample lies outside both windows, so it is never evaluated
        early = case.window(epoch_us(T0), epoch_us(T0 + timedelta(minutes=10)))
        assert offset_series(early, control, "utci").values.tolist() == [0.0] * 10
        # an unmatched hot sample is not evaluated either: this control
        # ends at minute 9, so case minutes 0-10 match and minute 12 does not
        short = make_series([30.0] * 10, station_id="ctrl")
        assert len(offset_series(case, short, "utci").values) == 11
