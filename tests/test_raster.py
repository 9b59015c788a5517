import hashlib
import io
import math
import platform
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from datetime import date
from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import T0, UTC, src_env
from hypothesis import given, settings
from hypothesis import strategies as st

from microclimap import raster

from microclimap.campaign import (AggregatedDrivers, CampaignPlan, Environment,
                                  Phase, PointResult, TraversePoint)
from microclimap.cli import _replace_file
from microclimap.errors import DomainError, GridError
from microclimap.raster import (RasterLayer, Semantic, compute_ucp,
                                export_heat_map, geojson_dumps,
                                normalize_irradiance, parse_ascii_grid,
                                sample_at, write_ascii_grid)
from microclimap.series import epoch_us
from microclimap.thermal import ReferenceConditions, UtciInput, utci_offset, vapor_pressure

NODATA = -9999.0


def layer(values, semantic, xll=0.0, yll=0.0, cellsize=1.0, nodata=NODATA):
    arr = np.array(values, dtype=float)
    return RasterLayer(ncols=arr.shape[1], nrows=arr.shape[0],
                       xllcorner=xll, yllcorner=yll, cellsize=cellsize,
                       nodata=nodata, values=arr, semantic=semantic)


def grid_text(rows, nodata=NODATA):
    lines = [f"ncols {len(rows[0])}", f"nrows {len(rows)}",
             "xllcorner 0.0", "yllcorner 0.0", "cellsize 1.0",
             f"NODATA_value {nodata}"]
    lines += [" ".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


#: The parse kernel where this platform can run it, then forced off.
PARSE_KERNEL_SETTINGS = (raster._EXACT_PARSE, False)

needs_parse_kernel = pytest.mark.skipif(not raster._EXACT_PARSE,
                                        reason="numpy's long double is not the x87 format")


def float_reads(monkeypatch) -> list[bytes]:
    """The tokens the codec hands to `float()` one at a time from now on, in any thread."""
    reads = []
    real_floats = raster._floats

    def floats(tokens):
        reads.extend(tokens)
        return real_floats(tokens)

    monkeypatch.setattr(raster, "_floats", floats)
    return reads


def repr_writes(monkeypatch) -> list[float]:
    """The cells the codec hands to `repr()` one at a time from now on, in any thread."""
    writes = []

    def counting_repr(value):
        writes.append(value)
        return repr(value)

    monkeypatch.setattr(raster, "repr", counting_repr, raising=False)
    return writes


def parse_grid(source, semantic):
    """`parse_ascii_grid` of the grid's bytes with the parse kernel on and forced off.

    Both must give the same layer or the same GridError text; the layer is
    returned and the error raised.
    """
    data = (source.getvalue().encode() if isinstance(source, io.StringIO)
            else Path(source).read_bytes())
    outcomes = []
    for kernel in PARSE_KERNEL_SETTINGS:
        with mock.patch.object(raster, "_EXACT_PARSE", kernel):
            try:
                outcomes.append(parse_ascii_grid(io.BytesIO(data), semantic))
            except GridError as exc:
                outcomes.append(exc)
    on, off = outcomes
    if isinstance(off, GridError):
        assert isinstance(on, GridError) and str(on) == str(off), (on, off)
        raise off
    assert_same_layer(on, off)
    return on


class TestParseAsciiGrid:
    def test_two_by_two_albedo(self):
        grid = parse_grid(io.StringIO(grid_text([[0.25, 0.25],
                                                 [0.25, 0.25]])),
                          Semantic.ALBEDO)
        assert grid.values.size == 4
        assert grid.values.shape == (2, 2)
        assert grid.cellsize == 1.0

    def test_albedo_above_one_is_range_error(self):
        src = io.StringIO(grid_text([[0.25, 1.3], [0.25, 0.25]]))
        with pytest.raises(GridError, match="1.3"):
            parse_grid(src, Semantic.ALBEDO)

    def test_nodata_cells_preserved(self):
        src = io.StringIO(grid_text([[0.25, NODATA], [NODATA, 0.5]]))
        grid = parse_grid(src, Semantic.ALBEDO)
        assert grid.mask().sum() == 2
        assert grid.values[0, 1] == NODATA

    def test_nodata_exempt_from_range_check(self):
        src = io.StringIO(grid_text([[0.25, NODATA]]))
        parse_grid(src, Semantic.VEGETATION_FRACTION)  # no error

    def test_missing_header_key(self):
        src = io.StringIO("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\n0.1 0.2\n")
        with pytest.raises(GridError, match="cellsize"):
            parse_grid(src, Semantic.ALBEDO)

    def test_value_count_mismatch(self):
        src = io.StringIO(grid_text([[0.1, 0.2]]).replace("0.1 0.2", "0.1"))
        with pytest.raises(GridError, match="expected 2"):
            parse_grid(src, Semantic.ALBEDO)

    def test_non_numeric_cell(self):
        src = io.StringIO(grid_text([[0.1, 0.2]]).replace("0.2", "abc"))
        with pytest.raises(GridError):
            parse_grid(src, Semantic.ALBEDO)

    def test_raw_irradiance_not_bounds_checked(self):
        src = io.StringIO(grid_text([[850.0, 900.0]]))
        grid = parse_grid(src, Semantic.IRRADIANCE_RAW)
        assert grid.values[0, 0] == 850.0

    def test_round_trip_bit_exact(self):
        values = [[0.1, 1 / 3, NODATA], [0.7000000000000001, 0.0, 1.0]]
        original = layer(values, Semantic.ALBEDO, xll=652_100.25, yll=6_860_300.5)
        buf = io.BytesIO()
        write_ascii_grid(original, buf)
        again = parse_grid(io.StringIO(buf.getvalue().decode()), Semantic.ALBEDO)
        assert np.array_equal(again.values, original.values)
        assert again.xllcorner == original.xllcorner
        assert again.nodata == original.nodata
        # a second write is byte-identical
        buf2 = io.BytesIO()
        write_ascii_grid(again, buf2)
        assert buf2.getvalue() == buf.getvalue()


    @pytest.mark.parametrize("token, shown", [("nan", "nan"), ("NaN", "nan"),
                                              ("inf", "inf"), ("-inf", "-inf"),
                                              ("1e400", "inf")])
    def test_non_finite_cell_rejected(self, token, shown):
        text = grid_text([[0.25, 0.5], [0.75, 0.0]]).replace("0.75", token)
        for semantic in (Semantic.UCP, Semantic.IRRADIANCE_RAW):
            with pytest.raises(GridError, match=(f"^non-finite cell value {shown} "
                                                 "at row 2, column 1$")):
                parse_grid(io.StringIO(text), semantic)

    @pytest.mark.parametrize("nodata", ["nan", "inf"])
    def test_non_finite_nodata_rejected(self, nodata):
        src = io.StringIO(grid_text([[0.25, 0.5]], nodata=nodata))
        with pytest.raises(GridError, match="NODATA_value must be finite"):
            parse_grid(src, Semantic.ALBEDO)

    def test_non_numeric_header_value(self):
        src = io.StringIO(grid_text([[0.25, 0.5]]).replace("cellsize 1.0", "cellsize one"))
        with pytest.raises(GridError, match="malformed header line: 'cellsize one'"):
            parse_grid(src, Semantic.ALBEDO)

    @pytest.mark.parametrize("line, message", [
        ("ncols nan", "ncols must be a positive integer, got nan"),
        ("ncols 1e400", "ncols must be a positive integer, got inf"),
        ("ncols 2.5", "ncols must be a positive integer, got 2.5"),
        ("ncols 0", "ncols must be a positive integer, got 0.0"),
        ("nrows -1", "nrows must be a positive integer, got -1.0"),
        ("xllcorner inf", "xllcorner must be finite, got inf"),
        ("yllcorner -inf", "yllcorner must be finite, got -inf"),
        ("cellsize nan", "cellsize must be finite, got nan"),
        ("cellsize -1", "cellsize must be > 0, got -1.0"),
    ])
    def test_unusable_header_value(self, line, message):
        key = line.split()[0]
        text = re.sub(f"^{key} .*$", line, grid_text([[0.25, 0.5]]), count=1, flags=re.M)
        with pytest.raises(GridError, match=f"^{re.escape(message)}$"):
            parse_grid(io.StringIO(text), Semantic.ALBEDO)

    @pytest.mark.parametrize("again", ["nrows 1", "NROWS 1", "NODATA_value -1"])
    def test_repeated_header_key(self, again):
        text = grid_text([[0.25, 0.5]]).replace("cellsize 1.0\n", f"cellsize 1.0\n{again}\n")
        with pytest.raises(GridError, match=f"^repeated header key: {again.split()[0]}$"):
            parse_grid(io.StringIO(text), Semantic.ALBEDO)

    @pytest.mark.parametrize("old, new", [(b"0.5", b"0.\xff"), (b"cellsize 1.0", b"cellsize \xff")])
    def test_grid_that_is_not_utf8(self, tmp_path, old, new):
        data = grid_text([[0.25, 0.5]]).encode().replace(old, new)
        path = tmp_path / "grid.asc"
        path.write_bytes(data)
        message = f"grid is not UTF-8 text: byte 0xff at offset {data.index(0xFF)}"
        with pytest.raises(GridError, match=f"^{message}$"):
            parse_ascii_grid(path, Semantic.ALBEDO)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_line_ends_read_as_universal_newlines(self, tmp_path, newline):
        path = tmp_path / "grid.asc"
        path.write_bytes(grid_text([[0.25, 0.5], [0.75, 1.0]]).encode().replace(b"\n", newline))
        grid = parse_ascii_grid(path, Semantic.ALBEDO)
        assert grid.values.tolist() == [[0.25, 0.5], [0.75, 1.0]]

    def test_integral_header_numbers_in_any_notation(self):
        text = grid_text([[0.25, 0.5]]).replace("ncols 2", "ncols 2.0")
        text = text.replace("nrows 1", "nrows 1e0")
        grid = parse_grid(io.StringIO(text), Semantic.ALBEDO)
        assert (grid.ncols, grid.nrows) == (2, 1)


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 64 bytes to parse and 7 cells to write: a 40x40 grid spans many."""
    monkeypatch.setattr(raster, "_BLOCK_BYTES", 64)
    monkeypatch.setattr(raster, "_BLOCK_CELLS", 7)


def parse_error(text, semantic=Semantic.IRRADIANCE_RAW):
    """The GridError text of parsing `text`, the same with the kernel on and off."""
    with pytest.raises(GridError) as info:
        parse_grid(io.StringIO(text), semantic)
    return str(info.value)


def grid_40(row=None, token=None):
    """A 40x40 grid of 0.25, with `token` in column 8 of `row` if given."""
    rows = [[0.25] * 40 for _ in range(40)]
    if row is not None:
        rows[row][7] = token
    return grid_text(rows)


def assert_same_layer(a, b):
    assert not isinstance(a, str) and not isinstance(b, str), (a, b)
    assert a.values.shape == b.values.shape
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))
    for field in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata"):
        assert getattr(a, field) == getattr(b, field)


finite = st.floats(allow_nan=False, allow_infinity=False)
#: Whitespace between two cell values: irregular wraps, tabs, blank lines.
separators = st.sampled_from([" ", " ", " ", "  ", "\t", "\n", "\n", " \n", "\n\n", "\n \n"])


def grid_file(head, tokens, seps, tail):
    return head + tokens[0] + "".join(sep + t for sep, t in zip(seps, tokens[1:])) + tail


@st.composite
def grid_parts(draw):
    """Header, cell tokens, the whitespace after each and the text's end.

    The header keys come in any order and case, NODATA_value is optional,
    cells may hold nodata, and the cell rows wrap irregularly.
    """
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    has_nodata_line = draw(st.booleans())
    nodata = draw(st.sampled_from([-9999.0, -1.0, 0.0])) if has_nodata_line else -9999.0
    header = [("ncols", str(ncols)), ("nrows", str(nrows)),
              ("xllcorner", repr(draw(finite))), ("yllcorner", repr(draw(finite))),
              ("cellsize", repr(draw(st.floats(1e-3, 1e3))))]
    if has_nodata_line:
        header.append(("NODATA_value", repr(nodata)))
    lines = [f"{draw(st.sampled_from([key, key.upper()]))} {value}"
             for key, value in draw(st.permutations(header))]
    head = "\n".join(lines) + draw(st.sampled_from(["\n", "\n\n"]))
    n = nrows * ncols
    cells = draw(st.lists(st.one_of(finite, st.just(nodata), st.just(-0.0)),
                          min_size=n, max_size=n))
    fmt = draw(st.sampled_from([repr, "{:.6g}".format, "{:.17e}".format]))
    seps = draw(st.lists(separators, min_size=n - 1, max_size=n - 1))
    return head, [fmt(v) for v in cells], seps, draw(st.sampled_from(["", "\n", " \n\n"]))


@pytest.mark.usefixtures("small_blocks")
class TestBlockBoundaries:
    """Grids of many blocks read and write as the per-cell path and `repr` do."""

    @settings(max_examples=60, deadline=None)
    @given(parts=grid_parts(), block=st.sampled_from([1, 5, 64]))
    def test_parse_matches_per_cell_path(self, parts, block):
        text = grid_file(*parts)
        with mock.patch.object(raster, "_BLOCK_BYTES", block):
            grid = parse_grid(io.StringIO(text), Semantic.IRRADIANCE_RAW)
        want = np.array(text.split()[-grid.values.size:], dtype=float)
        assert np.array_equal(grid.values.ravel().view(np.int64), want.view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(parts=grid_parts(), data=st.data())
    def test_errors_match_per_cell_path(self, parts, data):
        head, tokens, seps, tail = parts
        kind = data.draw(st.sampled_from(["bad", "drop", "extra", "bad+drop"]))
        if "bad" in kind:
            index = data.draw(st.integers(0, len(tokens) - 1))
            tokens[index] = data.draw(st.sampled_from(["x", "1..0", "0x1", "--1", "nan", "-",
                                                       ".", "-.", "5-", "1-2", "1e", "1\x0b2"]))
        if "drop" in kind and len(tokens) > 1:
            index = data.draw(st.integers(0, len(tokens) - 1))
            del tokens[index]
            del seps[min(index, len(seps) - 1)]
        if kind == "extra":
            tokens.append("0.5")
            seps.append(data.draw(separators))
        try:  # parse_grid compares the kernel with the per-cell path
            parse_grid(io.StringIO(grid_file(head, tokens, seps, tail)), Semantic.IRRADIANCE_RAW)
        except GridError:
            pass

    @pytest.mark.parametrize("row", [0, 39])
    @pytest.mark.parametrize("token, message", [
        ("x", "non-numeric cell value: could not convert string to float: 'x'"),
        ("5-", "non-numeric cell value: could not convert string to float: '5-'"),
        ("nan", "non-finite cell value nan at row {row}, column 8"),
        ("inf", "non-finite cell value inf at row {row}, column 8"),
    ])
    def test_bad_cell_in_first_or_last_block(self, row, token, message):
        assert parse_error(grid_40(row, token)) == message.format(row=row + 1)

    @pytest.mark.parametrize("row", [0, 39])
    @pytest.mark.parametrize("cells, found", [("", 1599), ("0.25 0.25 ", 1601)])
    def test_dropped_or_extra_cell_in_first_or_last_block(self, row, cells, found):
        lines = grid_40().splitlines()
        lines[6 + row] = lines[6 + row].replace("0.25 ", cells, 1)
        message = f"expected 1600 cell values, found {found}"
        assert parse_error("\n".join(lines) + "\n") == message

    @pytest.mark.parametrize("row", [0, 39])
    def test_count_checked_before_values_in_first_or_last_block(self, row):
        lines = grid_40().splitlines()
        lines[6 + row] = lines[6 + row].replace("0.25", "x", 1)
        lines[6 + 39 - row] = lines[6 + 39 - row].replace("0.25 ", "", 1)
        assert parse_error("\n".join(lines) + "\n") == "expected 1600 cell values, found 1599"

    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12)), data=st.data())
    def test_write_matches_repr(self, shape, data):
        cells = data.draw(st.lists(st.one_of(finite, st.just(NODATA), st.just(-0.0)),
                                   min_size=shape[0] * shape[1],
                                   max_size=shape[0] * shape[1]))
        grid = layer(np.reshape(cells, shape), Semantic.IRRADIANCE_RAW,
                     xll=data.draw(finite), yll=data.draw(finite))
        sink = io.BytesIO()
        write_ascii_grid(grid, sink)
        head = (f"ncols {shape[1]}\nnrows {shape[0]}\nxllcorner {grid.xllcorner!r}\n"
                f"yllcorner {grid.yllcorner!r}\ncellsize 1.0\nNODATA_value {NODATA!r}\n")
        rows = "".join(" ".join(map(repr, row)) + "\n" for row in grid.values.tolist())
        assert sink.getvalue() == (head + rows).encode()

    def test_write_to_a_path_matches_a_binary_file(self, tmp_path):
        grid = layer(np.linspace(0.0, 1.0, 30 * 20).reshape(30, 20), Semantic.UCP)
        write_ascii_grid(grid, tmp_path / "grid.asc")
        sink = io.BytesIO()
        write_ascii_grid(grid, sink)
        assert (tmp_path / "grid.asc").read_bytes() == sink.getvalue()
        assert sink.tell() == len(sink.getvalue())

    @needs_parse_kernel
    def test_workers_count_every_cell_float_reads_alone(self, monkeypatch):
        # midpoint quotients and float()-only tokens in many blocks, read by
        # more workers than this machine may have cores, switching often
        monkeypatch.setattr(raster, "_BLOCK_BYTES", 256)
        monkeypatch.setattr(raster, "_MAX_WORKERS", 4)
        monkeypatch.setattr(raster.os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        reads = float_reads(monkeypatch)
        threads = set()
        real_block = raster._decode_block

        def block(text):
            threads.add(threading.get_ident())
            return real_block(text)

        monkeypatch.setattr(raster, "_decode_block", block)
        alone = ["1e-05", "nan", "9007199254740993", "-1.0000000000000001110", "+2"]
        tokens = [alone[i // 7 % 5] if i % 7 == 3 else f"0.{i}" for i in range(4000)]
        text = " ".join(tokens).encode()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = raster._decode_cells(text)
        finally:
            sys.setswitchinterval(interval)
        want = np.array(text.split(), dtype=float)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # 9007199254740993 is a midpoint quotient, divided again without float()
        assert Counter(reads) == Counter(token.encode() for i, token in enumerate(tokens)
                                         if i % 7 == 3 and token != "9007199254740993")
        assert 1 <= len(threads) <= 4

    @needs_parse_kernel
    def test_exponent_grid_converts_each_block_in_one_pass(self, monkeypatch):
        """A grid `np.savetxt` writes, an exponent in every cell, reads as
        `float()` reads it, with one `_floats` call per block."""
        monkeypatch.setattr(raster, "_BLOCK_BYTES", 4096)
        blocks, passes = [], []
        real_block, real_floats = raster._decode_block, raster._floats
        monkeypatch.setattr(raster, "_decode_block",
                            lambda text: blocks.append(len(text.split())) or real_block(text))
        monkeypatch.setattr(raster, "_floats",
                            lambda tokens: passes.append(len(tokens)) or real_floats(tokens))
        values = np.random.default_rng(11).normal(0.0, 1e3, (40, 30))
        buf = io.BytesIO()
        buf.write(b"ncols 30\nnrows 40\nxllcorner 0\nyllcorner 0\ncellsize 1\n")
        np.savetxt(buf, values)
        grid = parse_ascii_grid(io.BytesIO(buf.getvalue()), Semantic.IRRADIANCE_RAW)
        want = np.array([float(token) for token in buf.getvalue().split()[10:]])
        assert np.array_equal(grid.values.ravel().view(np.int64), want.view(np.int64))
        assert np.array_equal(grid.values, values)
        assert len(blocks) > 1 and sorted(passes) == sorted(blocks)

    def test_block_reads_odd_and_alone_tokens_in_one_pass(self, monkeypatch):
        """An exponent, `nan`, 20 fraction digits and a negative zero among
        plain decimals read as `float()` reads them, by one `_floats` call
        on the kernel's block and by none on the per-cell path."""
        reads = [b"1e-05", b"nan", b"0.12345678901234567890", b"-0.0"]
        tokens = [b"0.25", reads[0], b"-3.5", reads[1], b"7", reads[2], reads[3], b"0.125"]
        data = b"ncols 8\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n" + b" ".join(tokens)
        want = np.array([float(token) for token in tokens])
        real_floats = raster._floats
        monkeypatch.setattr(raster, "_grid_layer", lambda header, nodata, cells, semantic: cells)
        for kernel in PARSE_KERNEL_SETTINGS:
            passes = []
            monkeypatch.setattr(raster, "_EXACT_PARSE", kernel)
            monkeypatch.setattr(raster, "_floats",
                                lambda tokens: passes.append(tokens) or real_floats(tokens))
            cells = parse_ascii_grid(io.BytesIO(data), Semantic.IRRADIANCE_RAW)
            assert np.array_equal(cells.view(np.int64), want.view(np.int64)), kernel
            assert passes == ([reads] if kernel else []), kernel

    def test_pool_is_imported_only_to_convert_a_grid(self):
        code = ("import sys, microclimap.cli; "
                "assert 'concurrent.futures' not in sys.modules, 'imported'")
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("nrows, ncols", [(80, 80), (200, 200)], ids=["80x80", "200x200"])
    def test_one_block_grid_is_converted_without_a_pool(self, tmp_path, nrows, ncols):
        proc = run_python(ONE_BLOCK_GRID, str(tmp_path / "grid.asc"), str(nrows), str(ncols))
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("shape, rows", [
    ((80, 80), [80]), ((200, 200), [200]), ((1, 100_000), [1]), ((3, 40_000), [1, 1, 1]),
    ((1000, 1000), [34] * 29 + [14]),  # 30 full blocks of 32,768 cells
])
def test_write_blocks_are_whole_rows_one_per_full_block(monkeypatch, shape, rows):
    blocks = []
    monkeypatch.setattr(raster, "_map_blocks", lambda convert, b: blocks.extend(b) or [])
    list(raster._grid_rows(np.zeros(shape)))
    assert [len(block) for block in blocks] == rows


def run_python(code, *args):
    """Run `code` in a fresh interpreter that imports this checkout's package."""
    return subprocess.run([sys.executable, "-c", code, *args], env=src_env(),
                          capture_output=True, text=True, timeout=120)


#: A grid of argv[2] rows and argv[3] columns under two full write blocks and
#: one parse block (80x80 and 200x200, the grids of season-baci and
#: dense-traverse) is converted in the calling thread. Shrunk blocks send the
#: same grid through the pool, which must give the same bytes and values.
ONE_BLOCK_GRID = """
import sys
from pathlib import Path
import numpy as np
from microclimap import raster

path = Path(sys.argv[1])
nrows, ncols = int(sys.argv[2]), int(sys.argv[3])
values = np.random.default_rng(5).random((nrows, ncols))
grid = raster.RasterLayer(ncols=ncols, nrows=nrows, xllcorner=0.0, yllcorner=0.0,
                          cellsize=1.0, nodata=-9999.0, values=values,
                          semantic=raster.Semantic.ALBEDO)

def round_trip():
    raster.write_ascii_grid(grid, path)
    return path.read_bytes(), raster.parse_ascii_grid(path, raster.Semantic.ALBEDO).values

text, cells = round_trip()
assert "concurrent.futures" not in sys.modules, "one block started a pool"
raster._BLOCK_BYTES, raster._BLOCK_CELLS = 4096, 500
pooled_text, pooled_cells = round_trip()
assert "concurrent.futures" in sys.modules, "many blocks ran without a pool"
assert pooled_text == text
assert np.array_equal(pooled_cells.view(np.int64), cells.view(np.int64))
assert np.array_equal(cells.view(np.int64), values.view(np.int64))
"""


def computed_grid(path, values, nodata=NODATA, header_gap="", edit=("", "")):
    """Write a UCP grid and its cells sidecar as the `ucp` command does.

    `edit` (old, new) changes the text before the sidecar digests it.
    """
    grid = layer(values, Semantic.UCP, xll=10.0, yll=-3.5, cellsize=0.5, nodata=nodata)
    sink = io.BytesIO()
    write_ascii_grid(grid, sink)
    text = sink.getvalue().replace(b"NODATA_value", header_gap.encode() + b"NODATA_value")
    text = text.replace(*(part.encode() for part in edit), 1)
    path.write_bytes(text)
    raster.cells_sidecar_path(path).write_bytes(b"".join(raster.cells_sidecar(text, grid)))
    return path


def ucp_values(seed=0, shape=(12, 10), nodata=NODATA):
    """Cells in [0, 1] that do not print short, the two ends and a nodata cell."""
    values = np.random.default_rng(seed).random(shape)
    values[0, :3] = (0.0, 1.0, 1 / 3)
    values[-1, -1] = nodata
    return values


def spoil_grid(path):
    path.write_text(path.read_text().replace("0.0 1.0", "0.5 1.0", 1))


def truncate_sidecar(path):
    sidecar = raster.cells_sidecar_path(path)
    sidecar.write_bytes(sidecar.read_bytes()[:-8])


def truncate_digest(path):
    sidecar = raster.cells_sidecar_path(path)
    sidecar.write_bytes(sidecar.read_bytes()[:20])


def foreign_sidecar(path):
    other = computed_grid(path.with_name("other.asc"), ucp_values(seed=1))
    raster.cells_sidecar_path(path).write_bytes(raster.cells_sidecar_path(other).read_bytes())


def flip_cell_byte(path):
    sidecar = raster.cells_sidecar_path(path)
    data = bytearray(sidecar.read_bytes())
    data[40] ^= 1
    sidecar.write_bytes(bytes(data))


def short_cells_with_matching_digest(path):
    grid = parse_ascii_grid(path, Semantic.UCP)
    fewer = layer(grid.values[:-1], Semantic.UCP)
    raster.cells_sidecar_path(path).write_bytes(
        b"".join(raster.cells_sidecar(path.read_bytes(), fewer)))


def remove_sidecar(path):
    raster.cells_sidecar_path(path).unlink()


class TestCellsSidecar:
    """`read_ascii_grid` takes a current sidecar and otherwise parses the text."""

    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []
        real = raster.parse_ascii_grid

        def spy(source, semantic):
            calls.append(source)
            return real(source, semantic)

        monkeypatch.setattr(raster, "parse_ascii_grid", spy)
        return calls

    def test_sidecar_beside_the_grid(self, tmp_path):
        assert raster.cells_sidecar_path(tmp_path / "ucp.asc") == tmp_path / ".ucp.asc.cells"
        path = computed_grid(tmp_path / "ucp.asc", ucp_values())
        data = raster.cells_sidecar_path(path).read_bytes()
        assert len(data) == 32 + 8 * 12 * 10
        assert np.array_equal(np.frombuffer(data, dtype="<f8", offset=32).reshape(12, 10),
                              ucp_values())

    def test_hit_is_bit_equal_without_a_parse(self, tmp_path, parses):
        path = computed_grid(tmp_path / "ucp.asc", ucp_values())
        want = parse_ascii_grid(path, Semantic.UCP)
        parses.clear()
        got = raster.read_ascii_grid(path, Semantic.UCP)
        assert parses == []
        assert_same_layer(got, want)
        assert got.semantic is Semantic.UCP
        assert got.values.flags.writeable

    @pytest.mark.parametrize("spoil", [spoil_grid, truncate_sidecar, truncate_digest,
                                       foreign_sidecar, flip_cell_byte,
                                       short_cells_with_matching_digest, remove_sidecar])
    def test_anything_else_is_parsed(self, tmp_path, parses, spoil):
        path = computed_grid(tmp_path / "ucp.asc", ucp_values())
        spoil(path)
        want = parse_ascii_grid(path, Semantic.UCP)
        parses.clear()
        got = raster.read_ascii_grid(path, Semantic.UCP)
        assert len(parses) == 1
        assert_same_layer(got, want)

    def test_long_header_is_read_with_the_sidecar(self, tmp_path, parses):
        # NODATA_value follows 5000 blank lines
        path = computed_grid(tmp_path / "ucp.asc", ucp_values(nodata=-1.0), nodata=-1.0,
                             header_gap="\n" * 5000)
        got = raster.read_ascii_grid(path, Semantic.UCP)
        assert parses == []
        assert got.nodata == -1.0

    def test_grid_after_a_bom_is_read_with_the_sidecar(self, tmp_path, parses):
        path = computed_grid(tmp_path / "ucp.asc", ucp_values(), edit=("ncols", "\ufeffncols"))
        assert path.read_bytes().startswith(b"\xef\xbb\xbfncols 10\n")
        got = raster.read_ascii_grid(path, Semantic.UCP)
        assert parses == []
        assert_same_layer(got, parse_ascii_grid(path, Semantic.UCP))

    def test_edited_grid_keeps_the_parse_errors(self, tmp_path, monkeypatch):
        for kernel in PARSE_KERNEL_SETTINGS:
            monkeypatch.setattr(raster, "_EXACT_PARSE", kernel)
            path = computed_grid(tmp_path / "ucp.asc", ucp_values())
            path.write_text(path.read_text().replace("0.0 1.0", "nan 1.0", 1))
            with pytest.raises(GridError, match="non-finite cell value nan at row 1, column 1"):
                raster.read_ascii_grid(path, Semantic.UCP)
            path.write_text(path.read_text().rsplit("\n", 2)[0] + "\n")
            with pytest.raises(GridError, match="expected 120 cell values, found 110"):
                raster.read_ascii_grid(path, Semantic.UCP)

    @pytest.mark.parametrize("old, new, message", [
        ("ncols 10\n", "ncols 10.5\n", "ncols must be a positive integer, got 10.5"),
        ("nrows 12\n", "nrows 12\nnrows 12\n", "repeated header key: nrows"),
        ("cellsize 0.5\n", "cellsize nan\n", "cellsize must be finite, got nan"),
    ])
    def test_current_sidecar_of_an_unusable_header_is_not_taken(self, tmp_path, parses,
                                                                old, new, message):
        path = computed_grid(tmp_path / "ucp.asc", ucp_values(), edit=(old, new))
        with pytest.raises(GridError, match=f"^{re.escape(message)}$"):
            raster.read_ascii_grid(path, Semantic.UCP)
        assert len(parses) == 1

    def test_sidecar_is_written_without_copying_the_cells(self, tmp_path):
        grid = layer(np.random.default_rng(3).random((1000, 1000)), Semantic.UCP)
        text = b"ncols 1000\n"  # the digest covers whatever the grid file holds
        path = tmp_path / ".ucp.asc.cells"
        tracemalloc.start()
        try:
            _replace_file(path, *raster.cells_sidecar(text, grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.values.nbytes  # 8 MB; digest + tobytes() took 16 MB
        data = path.read_bytes()
        assert data[32:] == grid.values.astype("<f8").tobytes()
        assert data[:32] == hashlib.sha256(text + data[32:]).digest()

    def test_grid_without_sidecar_loads(self, tmp_path):
        path = tmp_path / "given.asc"
        path.write_text(grid_text([[0.25, 0.5], [0.75, 1.0]]))
        assert_same_layer(raster.read_ascii_grid(path, Semantic.UCP),
                          parse_ascii_grid(path, Semantic.UCP))
        assert not raster.cells_sidecar_path(path).exists()


class TestNormalizeIrradiance:
    def test_scaling(self):
        raw = layer([[800.0, 1000.0], [0.0, 500.0]], Semantic.IRRADIANCE_RAW)
        out = normalize_irradiance(raw, clear_sky_max=1000.0)
        assert out.semantic is Semantic.IRRADIANCE_NORMALIZED
        assert out.values.tolist() == [[0.8, 1.0], [0.0, 0.5]]

    def test_values_above_reference_clamped(self):
        raw = layer([[1200.0]], Semantic.IRRADIANCE_RAW)
        assert normalize_irradiance(raw, 1000.0).values[0, 0] == 1.0

    def test_nodata_untouched(self):
        raw = layer([[NODATA, 500.0]], Semantic.IRRADIANCE_RAW)
        out = normalize_irradiance(raw, 1000.0)
        assert out.values[0, 0] == NODATA

    def test_reference_must_be_positive(self):
        raw = layer([[500.0]], Semantic.IRRADIANCE_RAW)
        with pytest.raises(DomainError):
            normalize_irradiance(raw, 0.0)


class TestComputeUcp:
    def test_bare_sunlit_pavement_anchor(self):
        albedo = layer([[0.0]], Semantic.ALBEDO)
        veg = layer([[0.0]], Semantic.VEGETATION_FRACTION)
        sun = layer([[1.0]], Semantic.IRRADIANCE_NORMALIZED)
        assert compute_ucp(albedo, veg, sun).values[0, 0] == 1.0

    def test_dense_vegetation_anchor(self):
        albedo = layer([[0.4]], Semantic.ALBEDO)
        veg = layer([[1.0]], Semantic.VEGETATION_FRACTION)
        sun = layer([[0.9]], Semantic.IRRADIANCE_NORMALIZED)
        assert compute_ucp(albedo, veg, sun).values[0, 0] == 0.0

    def test_product_form_value(self):
        albedo = layer([[0.25]], Semantic.ALBEDO)
        veg = layer([[0.5]], Semantic.VEGETATION_FRACTION)
        sun = layer([[0.8]], Semantic.IRRADIANCE_NORMALIZED)
        out = compute_ucp(albedo, veg, sun)
        assert out.values[0, 0] == pytest.approx(0.30, abs=1e-12)
        assert out.semantic is Semantic.UCP

    def test_nodata_propagates_from_any_input(self):
        albedo = layer([[NODATA, 0.2, 0.2]], Semantic.ALBEDO)
        veg = layer([[0.1, NODATA, 0.1]], Semantic.VEGETATION_FRACTION)
        sun = layer([[0.9, 0.9, 0.9]], Semantic.IRRADIANCE_NORMALIZED)
        out = compute_ucp(albedo, veg, sun)
        assert out.values[0, 0] == NODATA
        assert out.values[0, 1] == NODATA
        assert out.values[0, 2] != NODATA

    def test_misaligned_grids_rejected(self):
        albedo = layer([[0.2]], Semantic.ALBEDO)
        veg = layer([[0.1]], Semantic.VEGETATION_FRACTION, xll=5.0)
        sun = layer([[0.9]], Semantic.IRRADIANCE_NORMALIZED)
        with pytest.raises(GridError, match="co-registered"):
            compute_ucp(albedo, veg, sun)

    def test_wrong_semantic_rejected(self):
        raw_sun = layer([[900.0]], Semantic.IRRADIANCE_RAW)
        albedo = layer([[0.2]], Semantic.ALBEDO)
        veg = layer([[0.1]], Semantic.VEGETATION_FRACTION)
        with pytest.raises(GridError, match="irradiance"):
            compute_ucp(albedo, veg, raw_sun)

    def test_weighted_sum_form(self):
        albedo = layer([[0.0]], Semantic.ALBEDO)
        veg = layer([[0.0]], Semantic.VEGETATION_FRACTION)
        sun = layer([[1.0]], Semantic.IRRADIANCE_NORMALIZED)
        out = compute_ucp(albedo, veg, sun, formula="weighted_sum")
        assert out.values[0, 0] == 1.0

    def test_unknown_formula(self):
        a = layer([[0.2]], Semantic.ALBEDO)
        v = layer([[0.1]], Semantic.VEGETATION_FRACTION)
        s = layer([[0.9]], Semantic.IRRADIANCE_NORMALIZED)
        with pytest.raises(DomainError, match="geometric"):
            compute_ucp(a, v, s, formula="geometric")

    unit = st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9)

    @given(alb=unit, veg=unit, sun=unit)
    def test_output_always_in_unit_interval(self, alb, veg, sun):
        shape = (3, 3)
        out = compute_ucp(
            layer(np.reshape(alb, shape), Semantic.ALBEDO),
            layer(np.reshape(veg, shape), Semantic.VEGETATION_FRACTION),
            layer(np.reshape(sun, shape), Semantic.IRRADIANCE_NORMALIZED))
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0

    @given(alb=unit, veg=unit, sun=unit)
    def test_cellwise_monotonicity(self, alb, veg, sun):
        shape = (3, 3)
        a = np.reshape(alb, shape)
        v = np.reshape(veg, shape)
        s = np.reshape(sun, shape)

        def ucp(a_, v_, s_):
            return compute_ucp(layer(a_, Semantic.ALBEDO),
                               layer(v_, Semantic.VEGETATION_FRACTION),
                               layer(s_, Semantic.IRRADIANCE_NORMALIZED)).values

        base = ucp(a, v, s)
        # brighter/greener surfaces never increase the indicator
        assert np.all(ucp(a + (1 - a) * 0.5, v, s) <= base + 1e-12)
        assert np.all(ucp(a, v + (1 - v) * 0.5, s) <= base + 1e-12)
        # more sun never decreases it
        assert np.all(ucp(a, v, s * 0.5) <= base + 1e-12)


class TestSampleAt:
    def make(self):
        return layer([[0.6, 0.8], [0.2, 0.4]], Semantic.UCP)

    def test_cell_center_exact(self):
        grid = self.make()
        assert sample_at(grid, 0.5, 0.5) == 0.2
        assert sample_at(grid, 1.5, 1.5) == 0.8

    def test_midpoint_between_two_cells(self):
        assert sample_at(self.make(), 1.0, 0.5) == pytest.approx(0.3, abs=1e-12)

    def test_outside_extent_is_error(self):
        with pytest.raises(DomainError, match="outside"):
            sample_at(self.make(), 2.5, 0.5)

    def test_corner_clamped_to_nearest_center(self):
        assert sample_at(self.make(), 0.0, 0.0) == 0.2

    def test_nodata_neighbor_falls_back_to_nearest(self):
        grid = layer([[0.6, NODATA], [0.2, 0.4]], Semantic.UCP)
        assert sample_at(grid, 0.6, 1.4) == 0.6

    def test_nearest_nodata_returns_none(self):
        grid = layer([[NODATA, NODATA], [NODATA, 0.4]], Semantic.UCP)
        assert sample_at(grid, 0.5, 1.5) is None

    @given(x=st.floats(0.0, 3.0), y=st.floats(0.0, 3.0),
           cells=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9))
    def test_bilinear_bounded_by_neighbors(self, x, y, cells):
        grid = layer(np.reshape(cells, (3, 3)), Semantic.UCP)
        value = sample_at(grid, x, y)
        assert grid.values.min() - 1e-12 <= value <= grid.values.max() + 1e-12


def heat_plan(locations):
    points = [TraversePoint(f"P{i + 1}", loc, Environment.FULL_SUN)
              for i, loc in enumerate(locations)]
    return CampaignPlan(campaign_id="c1", phase=Phase.BEFORE,
                        day=date(2019, 7, 25), tz=UTC, points=points,
                        control_station_id="ctrl")


def heat_result(point_id, t_mrt=45.0):
    drivers = AggregatedDrivers(
        timestamp=epoch_us(T0), t_air=30.0, rh=40.0, wind_10m=0.5, t_mrt=t_mrt,
        sample_counts={"t_air": 13})
    ref = ReferenceConditions(t_air=30.0, rh=40.0, matched_at=epoch_us(T0))
    mobile = UtciInput(30.0, t_mrt, 0.5, vapor_pressure(30.0, 40.0))
    return PointResult(drivers, utci_offset(mobile, ref, point_id))


class TestExportHeatMap:
    def test_three_points_without_raster(self):
        plan = heat_plan([(0.5, 0.5), (1.5, 0.5), (0.5, 1.5)])
        results = [heat_result(f"P{i}") for i in (1, 2, 3)]
        collection = export_heat_map(results, plan)
        assert len(collection["features"]) == 3
        props = collection["features"][0]["properties"]
        assert "ucp" not in props
        assert list(props) == ["point_id", "phase", "environment", "utci_mobile",
                               "utci_ref", "offset_c", "stress_category"]
        assert props["offset_c"] == pytest.approx(
            props["utci_mobile"] - props["utci_ref"], abs=2e-3)

    def test_ucp_sampled_when_raster_supplied(self):
        plan = heat_plan([(0.5, 0.5), (1.5, 0.5), (0.5, 1.5)])
        grid = layer([[0.6, 0.8], [0.2, 0.4]], Semantic.UCP)
        results = [heat_result(f"P{i}") for i in (1, 2, 3)]
        collection = export_heat_map(results, plan, ucp=grid)
        for feature in collection["features"]:
            assert 0.0 <= feature["properties"]["ucp"] <= 1.0
        assert collection["features"][0]["properties"]["ucp"] == 0.2

    def test_empty_results_rejected(self):
        plan = heat_plan([(0.5, 0.5)])
        with pytest.raises(DomainError, match="no point results"):
            export_heat_map([], plan)

    def test_serialization_is_deterministic(self):
        plan = heat_plan([(0.5, 0.5), (1.5, 1.5)])
        results = [heat_result("P1"), heat_result("P2", t_mrt=50.0)]
        first = geojson_dumps(export_heat_map(results, plan))
        second = geojson_dumps(export_heat_map(list(reversed(results)), plan))
        assert first == second
        assert first.endswith("}\n")


class TestLayerValidation:
    def test_shape_mismatch(self):
        with pytest.raises(GridError, match="shape"):
            RasterLayer(ncols=3, nrows=2, xllcorner=0, yllcorner=0, cellsize=1,
                        nodata=NODATA, values=np.zeros((2, 2)),
                        semantic=Semantic.ALBEDO)

    def test_nonpositive_cellsize(self):
        with pytest.raises(GridError, match="cellsize"):
            layer([[0.2]], Semantic.ALBEDO, cellsize=0.0)

    def test_extent(self):
        grid = layer([[0.2, 0.3]], Semantic.ALBEDO, xll=10.0, yll=20.0,
                     cellsize=2.0)
        assert grid.extent() == (10.0, 20.0, 14.0, 22.0)

    @pytest.mark.parametrize("fields, phrase", [
        ({"xllcorner": math.nan}, "xllcorner must be finite, got nan"),
        ({"cellsize": math.inf}, "cellsize must be finite, got inf"),
        ({"ncols": 0, "nrows": 0}, "ncols must be a positive integer, got 0"),
    ], ids=["nan-corner", "infinite-cellsize", "no-cells"])
    def test_layer_obeys_the_grid_file_geometry(self, fields, phrase):
        """A layer built in code is refused for what refuses its grid file."""
        geometry = {"ncols": 1, "nrows": 1, "xllcorner": 0.0, "yllcorner": 0.0,
                    "cellsize": 1.0, **fields}
        values = np.zeros((geometry["nrows"], geometry["ncols"]))
        with pytest.raises(GridError, match=re.escape(phrase)):
            RasterLayer(**geometry, nodata=NODATA, values=values, semantic=Semantic.ALBEDO)
        header = "".join(f"{key} {value}\n" for key, value in geometry.items())
        with pytest.raises(GridError, match=re.escape(phrase)):
            parse_ascii_grid(io.BytesIO((header + "0.5\n").encode()), Semantic.ALBEDO)


def float_from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


finite_bit_patterns = st.integers(0, 2**64 - 1).map(float_from_bits).filter(math.isfinite)


@st.composite
def near_midpoints(draw):
    """A decimal at, or within a few units of its last digit of, the midpoint
    between a double and the next one up, in plain notation."""
    low = draw(st.floats(1e-3, 1e18))
    midpoint = (Decimal(low) + Decimal(math.nextafter(low, math.inf))) / 2
    digits = draw(st.integers(15, 21))
    rounding = draw(st.sampled_from([ROUND_FLOOR, ROUND_CEILING, ROUND_HALF_EVEN]))
    value = Context(prec=digits, rounding=rounding).plus(midpoint)
    return format(draw(st.sampled_from([value, midpoint])), "f")


def with_leading_zeros(token, zeros):
    sign = "-" if token.startswith("-") else ""
    return sign + "0" * zeros + token[len(sign):]


#: Token texts `float()` reads: every notation the parse kernel takes itself
#: and every one it hands to `float()` alone.
number_tokens = st.one_of(
    finite_bit_patterns.map(repr),
    st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 30)).map(
        lambda t: f"{t[0]:.{t[1]}f}"),
    st.tuples(st.floats(allow_nan=False), st.integers(0, 20)).map(lambda t: f"{t[0]:.{t[1]}e}"),
    st.integers(-10**20, 10**20).map(str),
    st.tuples(finite_bit_patterns.map(repr), st.integers(1, 25)).map(
        lambda t: with_leading_zeros(*t)),
    st.sampled_from(["-0.0", "0.0", "-0", "0", "0.", "-0.", ".0", "-.0", "00.00", "-000.000",
                     ".5", "1.", "-.5", "-5.", "+1.5", "1_000.5", "nan", "-inf", "1e400",
                     "9007199254740993", "9223372036854775807", "9223372036854775808",
                     "-9223372036854775808", "18446744073709551616", "-9999.0",
                     "0.00012345678901234567", "1.0000000000000001110"]),
    near_midpoints(),
)

#: Cells of grids to write: any finite double, plus the edges of the
#: kernel's range, powers of two, short decimals and the nodata value.
cell_values = st.one_of(
    finite,
    finite_bit_patterns,
    st.floats(0.0, 1.0),
    st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)),
    st.tuples(st.integers(-10**17, 10**17), st.integers(0, 22)).map(lambda t: t[0] / 10**t[1]),
    # quarters in [2**50, 2**51) and eighths in [2**49, 2**50): at 17 digits
    # |x| * 10 or |x| * 100 may end in exactly .5
    st.tuples(st.integers(2**52, 2**53 - 1), st.sampled_from([4, 8])).map(
        lambda t: t[0] / t[1]),
    st.sampled_from([0.0, -0.0, NODATA, 1e-4, math.nextafter(1e-4, 0), math.nextafter(1e-4, 1),
                     -1e-4, 1e16, math.nextafter(1e16, 0), 1e15, math.nextafter(1e15, 0),
                     1e-3, math.nextafter(1e-3, 0), 0.1, 999999999999999.9, 123456789012345.67]),
)


def read_until_unreadable(data, dtype, sep, warn=False):
    """`np.fromstring(data, dtype, sep=" ")` as older numpy reads text: up
    to the first number it cannot read to a separator, where it issues a
    DeprecationWarning if `warn` is set."""
    assert sep == " "
    numbers = []
    for token in data.split():
        number = re.match(rb"-?[0-9]*", token)[0]
        numbers.append(int(number) if number.strip(b"-") else 0)
        if len(number) < len(token):
            if warn:
                warnings.warn("string or file could not be read to its end due to "
                              "unmatched data", DeprecationWarning)
            break
    return np.array(numbers, dtype=dtype)


class TestCodec:
    """The block codec reads as `float()` and writes as `repr()`, bit for bit.

    CI runs these with `--hypothesis-profile=codec` (10,000 examples each).
    """

    @needs_parse_kernel
    @settings(deadline=None)
    @given(tokens=st.lists(number_tokens, min_size=1, max_size=40), data=st.data())
    def test_parse_matches_float(self, tokens, data):
        seps = data.draw(st.lists(separators, min_size=len(tokens) - 1,
                                  max_size=len(tokens) - 1))
        text = grid_file(data.draw(st.sampled_from(["", " ", "\n"])), tokens, seps,
                         data.draw(st.sampled_from(["", "\n", " \n\n"])))
        block = data.draw(st.sampled_from([1, 16, 200, 1 << 20]))
        want = np.array(text.split(), dtype=float)
        with mock.patch.object(raster, "_BLOCK_BYTES", block):
            got = raster._decode_cells(text.encode())
        assert got is not None
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)), data=st.data())
    def test_write_matches_repr(self, shape, data):
        cells = data.draw(st.lists(cell_values, min_size=shape[0] * shape[1],
                                   max_size=shape[0] * shape[1]))
        grid = np.reshape(cells, shape)
        block = data.draw(st.sampled_from([1, 5, 1 << 16]))
        with mock.patch.object(raster, "_BLOCK_CELLS", block):
            got = b"".join(raster._grid_rows(grid))
        assert got.decode() == "".join(" ".join(map(repr, row)) + "\n" for row in grid.tolist())

    @pytest.mark.parametrize("cells", [
        [2.0 ** e for e in range(-14, 55)],  # every power of two the kernel takes, and past it
        [2**50 + 0.25, 2**50 + 0.75, 2**49 + 0.125, 2**49 + 0.375, 1234567890123456.25],
    ], ids=["powers of two", "exact ties"])
    def test_write_matches_repr_on(self, cells):
        grid = np.array([cells, [-c for c in cells]])
        assert b"".join(raster._grid_rows(grid)).decode() == "".join(
            " ".join(map(repr, row)) + "\n" for row in grid.tolist())

    @needs_parse_kernel
    @pytest.mark.parametrize("token", ["9007199254740993", "-9007199254740995",
                                       "1.0000000000000001110", "4503599627370496.5"])
    def test_parse_divides_midpoint_quotients_again(self, token, monkeypatch):
        # each of these long-double quotients lands exactly on a float64
        # midpoint, but the mantissa of 1.0000000000000001110 is beyond
        # int64, so float() reads that token alone
        reads = float_reads(monkeypatch)
        got = raster._decode_cells(f"1.5 {token} 2.5".encode())
        assert got is not None
        assert got.tolist() == [1.5, float(token), 2.5]
        beyond_int64 = abs(int(token.replace(".", ""))) > np.iinfo(np.int64).max
        assert reads == ([token.encode()] if beyond_int64 else [])

    @needs_parse_kernel
    @pytest.mark.parametrize("text", ["1 2 x", "1 - 2", "1 . 2", "-", "5 -", "-.", "1-2", "5-",
                                      "5-.", "--1", "1..2", "1.2.3", "1\x0b2", "1\x1c2",
                                      "1 2\xa03", "1 ٢", "1e5 . 1e5", "nan\t.\n", "1 2 5-",
                                      "1 2 1-2", "1\t2\n-1-2", "5- 1e-05 3", "3 1-2 nan 3",
                                      "1 2-\r\n", "1 --2"])
    @pytest.mark.parametrize("reader", ["numpy", "stops silently", "warns and stops",
                                        "warns and stops, as an error"])
    def test_parse_leaves_what_it_cannot_read_to_the_per_cell_path(self, text, reader,
                                                                   monkeypatch):
        # older numpy reads a text with a '-' inside a token up to the '-'
        # and only warns; the kernel must not rely on either behaviour, and
        # a process run under `-W error` makes that warning an exception
        if reader == "stops silently":
            monkeypatch.setattr(raster.np, "fromstring", read_until_unreadable)
        elif reader.startswith("warns and stops"):
            monkeypatch.setattr(raster.np, "fromstring", partial(read_until_unreadable, warn=True))
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("error" if reader.endswith("error") else "default",
                                  DeprecationWarning)
            assert raster._decode_cells(text.encode()) is None

    @needs_parse_kernel
    def test_parse_leaves_the_warnings_filters_as_they_were(self, monkeypatch):
        # two threads' decodes overlap: the first starts, the second starts,
        # the first ends, then the second ends
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        real_map_blocks = raster._map_blocks

        def map_blocks(convert, blocks):
            if threading.current_thread().name == "first":
                first_in.set()
                second_in.wait(5)
            else:
                first_in.wait(5)
                second_in.set()
                first_out.wait(5)
            return list(real_map_blocks(convert, blocks))

        monkeypatch.setattr(raster, "_map_blocks", map_blocks)
        got = {}

        def decode(text):
            got[threading.current_thread().name] = raster._decode_cells(text).tolist()
            first_out.set()

        before = list(warnings.filters)
        threads = [threading.Thread(target=decode, args=(text,), name=name)
                   for name, text in (("first", b"1.5 2"), ("second", b"-3 0.25"))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert got == {"first": [1.5, 2.0], "second": [-3.0, 0.25]}
        assert warnings.filters == before

    def test_decades_are_the_least_doubles_at_or_above_each_power_of_ten(self):
        for e, decade in zip(range(-5, 18), raster._DECADES.tolist()):
            assert Fraction(decade) >= Fraction(10) ** e > Fraction(math.nextafter(decade, 0))

    def test_random_grid_stays_in_the_kernel(self, monkeypatch):
        """Under 0.1% of a million random cells take `repr()` or `float()` alone."""
        writes, reads = repr_writes(monkeypatch), float_reads(monkeypatch)
        kept = []
        real_decode_cells = raster._decode_cells

        def decode_cells(data, start=0):
            cells = real_decode_cells(data, start)
            kept.append(cells is not None)
            return cells

        monkeypatch.setattr(raster, "_decode_cells", decode_cells)
        grid = layer(np.random.default_rng(10).random((1000, 1000)), Semantic.UCP)
        sink = io.BytesIO()
        write_ascii_grid(grid, sink)
        text = sink.getvalue().decode()
        assert len(writes) < 1000
        rows = text.splitlines()[6:56]
        assert rows == [" ".join(map(repr, row)) for row in grid.values[:50].tolist()]
        again = parse_ascii_grid(io.BytesIO(text.encode()), Semantic.UCP)
        assert np.array_equal(again.values.view(np.int64), grid.values.view(np.int64))
        if raster._EXACT_PARSE:
            assert kept == [True]  # the per-cell path converts a text the kernel leaves
            assert len(reads) < 1000

    @pytest.mark.skipif(not (sys.platform.startswith("linux")
                             and platform.machine() == "x86_64"),
                        reason="the guard is pinned down for x86-64 Linux only")
    def test_parse_kernel_guard_holds_on_x86_64_linux(self):
        assert raster._EXACT_PARSE
