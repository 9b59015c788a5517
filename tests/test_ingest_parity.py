"""The bulk log reader against the row-by-row reference parsers.

Hypothesis writes CSV logs that mix clean rows with every kind of row the
column checks must hand to `parse_row`: blank, non-numeric, non-finite and
padded values, humidity and wind out of range, timestamps in other forms or
out of range, short and long rows, blank lines, repeated timestamps, quoted
fields and CRLF line ends. The bulk reader must give what the reference
gives, bit for bit, including the load report and any SchemaError.
"""

import io
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from row_parse_reference import parse_mobile_csv_rows, parse_station_csv_rows

from microclimap.campaign import parse_mobile_csv
from microclimap.errors import SchemaError
from microclimap.series import FIELDS, parse_station_csv

START = datetime(2019, 7, 25, 6, tzinfo=timezone.utc)

# Cells the column checks cannot prove clean, by column.
ODD_TIMESTAMPS = (
    lambda t: t.replace(tzinfo=None).isoformat(),                  # no offset
    lambda t: t.strftime("%Y-%m-%dT%H:%M:%SZ"),                    # Z
    lambda t: t.astimezone(timezone(timedelta(hours=5, minutes=30))).isoformat(),
    lambda t: t.astimezone(timezone(-timedelta(hours=9, minutes=45))).isoformat(),
    lambda t: t.isoformat() + ":30",                               # +00:00:30
    lambda t: t.isoformat(sep=" "),
    lambda t: t.isoformat().replace("T", "t"),
    lambda t: f" {t.isoformat()} ",
    lambda t: t.isoformat(timespec="milliseconds"),
    lambda t: t.isoformat()[:-6] + "-00:00",
    lambda t: t.isoformat()[:-6] + "+05:60",
    lambda t: t.isoformat()[:-6] + "+23:60",
    lambda t: t.isoformat()[:-6] + "+24:00",
    lambda t: t.strftime("%Y-%m-%dT24:%M:%S+00:00"),
    lambda t: "0001-01-01T00:00:00+01:00",                         # before year 1 in UTC
    lambda t: "9999-12-31T23:59:59-01:00",                         # after year 9999 in UTC
    lambda t: "0001-01-01T00:59:59+00:59",
    lambda t: "0000-06-01T00:00:00+00:00",
    lambda t: "0000-12-31T23:30:00-01:00",                         # year 0, in range in UTC
    lambda t: "2019-02-29T08:00:00+00:00",
    lambda t: "2020-02-29T08:00:00+00:00",
    lambda t: "2019-13-01T08:00:00+00:00",
    lambda t: "2019-07-25T08:00:60+00:00",
    lambda t: "2019-07-25T08:60:00+00:00",
    lambda t: "２０19-07-25T08:00:00+00:00",
    lambda t: "2019-07-25T08:00:00+01:00\x00",
    lambda t: "not-a-timestamp",
    lambda t: "",
)
ODD_VALUES = ("", " ", "nan", "NaN", "-nan", "inf", "-Infinity", "1e400", "1_0", " 25.5",
              "25.5 ", "\t25", "+3", ".5", "5.", "-0", "-0.0", "abc", "n/a", "1,5", "25\n",
              "١٢", "0x10", "140", "100", "100.0000001", "-1", "-1e-300", "0")


@st.composite
def log_texts(draw, mobile=False):
    """A log CSV: header, rows built around clean 1-minute rows, and its line end."""
    header = ["timestamp", "t_air", "rh", "t_globe", "wind", "net_radiation"]
    if mobile:
        header.insert(1, "point_id")
    if draw(st.booleans()):
        header = draw(st.permutations(header))
    extra = draw(st.sampled_from([[], ["note"], ["t_air"], ["rh", "wind"]]))
    header = list(header) + extra  # a repeated name reads its last column
    minute = 0
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        minute += draw(st.sampled_from([0, 1, 1, 1, 1, 2, 7]))
        when = START + timedelta(minutes=minute)
        local = when.astimezone(timezone(timedelta(hours=draw(st.sampled_from([0, 2, -3])))))
        cells = {
            "timestamp": local.isoformat(),
            "point_id": draw(st.sampled_from(["P1", "P2", " P3 ", "P,4"])),
            "t_air": repr(round(draw(st.floats(-10, 45)), 2)),
            "rh": repr(round(draw(st.floats(0, 100)), 1)),
            "t_globe": draw(st.sampled_from(["", "31.25", "40.5"])),
            "wind": draw(st.sampled_from(["", "0.0", "1.5", "3.25"])),
            "net_radiation": draw(st.sampled_from(["", "450", "-40.5"])),
            "note": "x",
        }
        for _ in range(draw(st.integers(0, 2))):
            column = draw(st.sampled_from(header))
            if column == "timestamp":
                cells[column] = draw(st.sampled_from(ODD_TIMESTAMPS))(local)
            elif column == "point_id":
                cells[column] = draw(st.sampled_from(["", "  ", "P9"]))
            else:
                cells[column] = draw(st.sampled_from(ODD_VALUES))
        row = [cells[name] for name in header]
        shape = draw(st.sampled_from(["whole"] * 6 + ["short", "long", "blank line", "spaces"]))
        if shape == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif shape == "long":
            row = row + ["surplus", ""]
        elif shape == "blank line":
            rows.append([])
        elif shape == "spaces":
            row = ["  "]
        rows.append(row)
    quote_all = draw(st.booleans())
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(",".join(quoted(cell, quote_all) for cell in row) + end
                   for row in [header] + rows)


def quoted(cell, always=False):
    """The cell as a CSV field, quoted when asked or when it must be."""
    if always or any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def both(parse, reference, text, **kwargs):
    """Both parsers' results, or both SchemaError messages (which must agree)."""
    try:
        expected = reference(io.StringIO(text, newline=""), **kwargs)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as raised:
            parse(io.StringIO(text, newline=""), **kwargs)
        assert str(raised.value) == str(exc)
        return None, None
    return parse(io.StringIO(text, newline=""), **kwargs), expected


class TestStationParity:
    @given(log_texts())
    def test_matches_row_by_row_parse(self, text):
        got, expected = both(parse_station_csv, parse_station_csv_rows, text, station_id="s")
        if got is None:
            return
        assert got.t_us.dtype == np.int64
        assert got.t_us.tolist() == expected.t_us.tolist()
        for name in FIELDS:  # bitwise, NaN positions included
            assert (got.columns[name].view(np.int64).tolist()
                    == expected.columns[name].view(np.int64).tolist()), name
        assert got.load_report == expected.load_report

    @given(log_texts())
    def test_matches_with_remapped_columns(self, text):
        text = text.replace("t_air", "Ta", 1).replace("timestamp", "time", 1)
        got, expected = both(parse_station_csv, parse_station_csv_rows, text, station_id="s",
                             column_map={"t_air": "Ta", "timestamp": "time"})
        if got is not None:
            assert_same_station_columns(got, expected)
            assert got.load_report == expected.load_report


def assert_same_station_columns(got, expected):
    """Times and every column bit for bit, NaN placement included."""
    assert got.t_us.tobytes() == expected.t_us.tobytes()
    for name in FIELDS:
        assert got.columns[name].tobytes() == expected.columns[name].tobytes(), name


def assert_same_mobile_log(got, expected):
    """Times, point ids (in time order) and columns bitwise, and the load report."""
    assert got.t_us.dtype == np.int64
    assert got.t_us.tolist() == expected.t_us.tolist()
    assert got.point_ids.tolist() == expected.point_ids.tolist()
    assert all(type(p) is str for p in got.point_ids.tolist())
    for name in FIELDS:  # bitwise, NaN positions and -0.0 included
        assert (got.columns[name].view(np.int64).tolist()
                == expected.columns[name].view(np.int64).tolist()), name
    assert len(got) == expected.load_report.rows_read - expected.load_report.dropped_rows
    assert got.load_report == expected.load_report


class TestMobileParity:
    @given(log_texts(mobile=True))
    def test_matches_row_by_row_parse(self, text):
        got, expected = both(parse_mobile_csv, parse_mobile_csv_rows, text)
        if got is not None:
            assert_same_mobile_log(got, expected)


def test_mobile_rows_at_one_time_keep_file_order():
    # enough rows that an unstable sort would reorder equal times
    lines = ["timestamp,point_id,t_air,rh,t_globe,wind"]
    for i in range(300):
        when = START + timedelta(seconds=15 * ((i * 7) % 11))
        lines.append(f"{when.isoformat()},P{i},30.0,40,{30 + i / 100!r},1.0")
    got, expected = both(parse_mobile_csv, parse_mobile_csv_rows, "\n".join(lines) + "\n")
    assert got.point_ids.tolist() == expected.point_ids.tolist()


def one_odd_cell(column, make, mobile=False):
    """Six clean rows with one odd cell in the fourth, as a log CSV."""
    header = ["timestamp", "point_id", "t_air", "rh", "t_globe", "wind", "net_radiation"]
    if not mobile:
        header.remove("point_id")
    lines = [",".join(header)]
    for i in range(6):
        when = (START + timedelta(minutes=i)).astimezone(timezone(timedelta(hours=2)))
        cells = {"timestamp": when.isoformat(), "point_id": "P1", "t_air": "30.5",
                 "rh": "40", "t_globe": "41.25", "wind": "1.5", "net_radiation": "450"}
        if i == 3:
            cells[column] = make(when)
        lines.append(",".join(quoted(cells[name]) for name in header))
    return "\r\n".join(lines) + "\r\n"


ODD_CELLS = ([("timestamp", make) for make in ODD_TIMESTAMPS]
             + [(column, lambda t, cell=cell: cell)
                for column in FIELDS for cell in ODD_VALUES]
             + [("point_id", lambda t, cell=cell: cell) for cell in ("", "  ", " P2 ", "P,4")])


@pytest.mark.parametrize("column, make", ODD_CELLS)
def test_each_odd_cell_matches(column, make):
    text = one_odd_cell(column, make)
    got, expected = both(parse_station_csv, parse_station_csv_rows, text, station_id="s")
    if got is not None:
        assert_same_station_columns(got, expected)
        assert got.load_report == expected.load_report
    got, expected = both(parse_mobile_csv, parse_mobile_csv_rows,
                         one_odd_cell(column, make, mobile=True))
    if got is not None:
        assert_same_mobile_log(got, expected)


@pytest.mark.parametrize("text", [
    "",
    "\n",
    "timestamp,t_air\n2019-07-25T08:00:00+00:00,25\n",
    "timestamp,t_air,rh\n",
    "timestamp,t_air,rh\n\n\n",
    "timestamp,t_air,rh\nbad,25,50\n",
])
def test_station_schema_errors_match(text):
    assert both(parse_station_csv, parse_station_csv_rows, text, station_id="s") == (None, None)


@pytest.mark.parametrize("text", [
    "",
    "timestamp,t_air,rh,t_globe,wind\n",
    "timestamp,point_id,t_air,rh,t_globe\n",
    "timestamp,point_id,t_air,rh,t_globe,wind\n",
    "timestamp,point_id,t_air,rh,t_globe,wind\n2019-07-25T08:00:00+00:00,,30,40,31,1\n",
])
def test_mobile_schema_errors_match(text):
    assert both(parse_mobile_csv, parse_mobile_csv_rows, text) == (None, None)
