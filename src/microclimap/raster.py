"""Raster layers and the Urban Cooling Potential indicator.

Grids travel as ESRI ASCII (.asc) files in planar coordinates; the site
extent is sub-hectare so no geodesic math is attempted. The UCP indicator
maps each cell to [0, 1]: 1 for bare sun-exposed dark pavement, 0 for
dense, shaded vegetation.

Cells are converted in numpy blocks, not by one `float()` or `repr()` per
cell, with exactly the values `float()` reads and the text `repr()` writes:

- Reading (`_decode_cells`). A token `-?digits[.digits]` is an integer
  mantissa m over 10**k, k its fraction digits. One
  `np.fromstring(..., np.int64)` reads m from the text with every '.'
  deleted, and one `np.fromstring(..., np.uint64)` reads 10**k from a copy
  in which a '.' is 1 and every other token byte 0 (a token without a '.'
  reads 0 there, and its m is divided by 1). In the x87 80-bit long
  double, whose 64-bit significand holds |m| < 2**63 and 10**k (k < 20)
  exactly, m / 10**k is one correctly rounded division (Clinger 1990), and
  rounding that quotient to float64 gives float()'s value unless it lies
  exactly on a float64 midpoint; those cells are divided again as Python
  integers. Other tokens (an exponent, `nan`, `+`, `_`, 20 or more fraction
  digits, a mantissa beyond int64, a negative zero) go through `float()`,
  in one list per block. A text the kernel would split or read differently
  from `str.split()` and `float()` (a non-ASCII or control byte, a token
  `float()` rejects) is converted cell by cell instead, so every error
  keeps its wording. The kernel finds a '-' inside a token, or a token
  without a digit, from the text itself rather than from how
  `np.fromstring` reacts, which differs between numpy versions. The
  kernel runs only where numpy's long double is the x87 format
  (`_EXACT_PARSE`); elsewhere every cell goes through `float()`.
- Writing (`_encode_rows`). For x with 1e-4 <= |x| < 1e16, `repr` writes
  in fixed notation the nearest decimal of the fewest significant digits
  that reads back as x (as Ryu does, Adams 2018). The nearest 16-digit
  decimal N / 10**s is found exactly: |x| splits into two 26-bit halves
  and 10**s into two short terms, so every partial product is an exact
  float64. N reads back as x when |N - x * 10**s| is below half an ulp of
  x times 10**s, or equal to it with x's last significand bit even.
  Unless x is a power of two its rounding interval is symmetric, so the
  nearest p-digit decimal reads back whenever any p-digit one does: when
  the 16-digit one does, the nearest 15-digit one is tried, and its digits
  without trailing zeros are the shortest if it reads back too; when it
  does not, no shorter one can, and the nearest 17-digit one always does.
  A power of two in this range is itself a decimal of at most 16 digits,
  which those rounds find exactly. numpy byte columns lay out the digits.
  Zeros are written the same way; cells outside that range and exact ties
  in a rounding go through `repr()`. Only exact float64 and int64
  operations are used, so this runs everywhere.

Grid text stays bytes from end to end: a file is read as bytes, the header
comes from its leading lines and the cells are cut into blocks of about
`_BLOCK_BYTES` at a whitespace byte. The blocks, and on writing one row
block per full `_BLOCK_CELLS` cells, are converted by one block codec on
every grid size and platform. Several blocks run on a thread pool with one
worker per CPU this process may run on, up to two. Parts of each block's
work hold the GIL, so on two cores two workers take about 70% of one
worker's time to write a grid and 50-100% of it to read one. A grid of one
block is converted in the calling thread and starts no pool. The text is
decoded as UTF-8 only to word an error or to convert the cells one at a time.

A grid the program computes gets a binary sidecar beside it: `.NAME.cells`
holds a SHA-256 over the grid file's bytes followed by the cell bytes, then
the cells as little-endian float64, row-major. `read_ascii_grid` takes the
cells from there when the digest and the cell count match, which spares
re-parsing a million text cells; the header still comes from the text and
every cell check still runs. A grid that was edited by hand, or has no
current sidecar, is parsed and validated in full. Since the text holds the
`repr` of each cell, both ways give the same bits.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DomainError, GridError
from .series import decoded, opened
from .thermal import heat_stress_category

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")

_CELLS_DTYPE = np.dtype("<f8")
_DIGEST_BYTES = 32  # SHA-256

#: Whether the parse kernel can run: numpy's long double must be the x87
#: 80-bit format, whose 64-bit significand holds every operand exactly and
#: whose low 11 significand bits, stored first, show a float64 midpoint.
_EXACT_PARSE = np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little"
#: Grid text parsed per block (about 50,000 cells of 20 bytes).
_BLOCK_BYTES = 1 << 20
#: Cells that make one more block of whole rows to write. A block's
#: temporaries take about 300 bytes a cell, and each worker holds one block's.
_BLOCK_CELLS = 1 << 15
#: Most threads that convert grid blocks; two is the only count measured.
_MAX_WORKERS = 2

_INT64 = np.iinfo(np.int64)
_UINT64_MAX = np.iinfo(np.uint64).max

_SPACES = (b" ", b"\t", b"\n", b"\r")  # the whitespace `_MARKS` keeps
_SPACE = re.compile(b"[%s]" % b"".join(_SPACES))
#: A line end as universal newlines read it.
_LINE_END = re.compile(rb"\r\n?|\n")


def _token_marks() -> bytes:
    """`bytes.translate` table that makes a token's fraction-digit count readable.

    A digit or '-' becomes '0' and a '.' '1', so a token with k fraction
    digits reads as 10**k. ASCII whitespace becomes a space, any other
    control byte '!', and every other byte 'x'.
    """
    table = bytearray(b"x" * 256)
    table[:33] = b"!" * 33
    table[127] = ord("!")
    for byte in b"".join(_SPACES):
        table[byte] = ord(" ")
    for byte in b"0123456789-":
        table[byte] = ord("0")
    table[ord(".")] = ord("1")
    return bytes(table)


_MARKS = _token_marks()

#: 10**s = (hi + lo) * 2**s for s <= 20, where 5**s < 2**47 splits into hi
#: (24 bits) and lo (23 bits), so a 26-bit number times either is exact.
_POW5 = [5 ** s for s in range(21)]
_SCALE_HI = np.array([float(f >> 23 << 23) * 2.0 ** s for s, f in enumerate(_POW5)])
_SCALE_LO = np.array([float(f & 0x7FFFFF) * 2.0 ** s for s, f in enumerate(_POW5)])
_TENS = np.array([float(10 ** s) for s in range(21)])  # 10**s, exact
#: float("1e<e>") for e = -5..17: the least float64 >= 10**e, since each of
#: these is exact or rounded up.
_DECADES = np.array([float(f"1e{e}") for e in range(-5, 18)])


class Semantic(Enum):
    ALBEDO = "albedo"
    VEGETATION_FRACTION = "vegetation_fraction"
    IRRADIANCE_NORMALIZED = "irradiance_normalized"
    IRRADIANCE_RAW = "irradiance_raw"  # W/m2, input to normalize_irradiance
    UCP = "ucp"


#: Semantics whose non-nodata values must lie in [0, 1].
_UNIT_INTERVAL_SEMANTICS = frozenset({
    Semantic.ALBEDO, Semantic.VEGETATION_FRACTION,
    Semantic.IRRADIANCE_NORMALIZED, Semantic.UCP,
})


@dataclass
class RasterLayer:
    """Row-major grid; row 0 is the northernmost row, as in the file."""

    ncols: int
    nrows: int
    xllcorner: float
    yllcorner: float
    cellsize: float
    nodata: float
    values: np.ndarray  # shape (nrows, ncols), nodata cells hold the sentinel
    semantic: Semantic

    def __post_init__(self):
        _grid_shape(vars(self))
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.nrows, self.ncols):
            raise GridError(
                f"value grid shape {self.values.shape} does not match "
                f"declared {self.nrows} rows x {self.ncols} cols")
        if not self.cellsize > 0:
            raise GridError(f"cellsize must be > 0, got {self.cellsize}")
        if not math.isfinite(self.nodata):
            raise GridError(f"NODATA_value must be finite, got {self.nodata}")
        finite = np.isfinite(self.values)
        if not finite.all():
            row, col = divmod(int(np.flatnonzero(~finite)[0]), self.ncols)
            raise GridError(f"non-finite cell value {self.values[row, col]} "
                            f"at row {row + 1}, column {col + 1}")
        self._check_bounds()

    def _check_bounds(self):
        if self.semantic in _UNIT_INTERVAL_SEMANTICS:
            data = self.values[self.mask()]
            if data.size and (data.min() < 0 or data.max() > 1):
                bad = data[(data < 0) | (data > 1)][0]
                raise GridError(
                    f"{self.semantic.value} layer holds value {bad} outside [0, 1]")

    def mask(self) -> np.ndarray:
        """Boolean mask of valid (non-nodata) cells."""
        return self.values != self.nodata

    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the outer grid edge."""
        return (self.xllcorner, self.yllcorner,
                self.xllcorner + self.ncols * self.cellsize,
                self.yllcorner + self.nrows * self.cellsize)

    def aligned_with(self, other: "RasterLayer") -> bool:
        return (self.ncols == other.ncols and self.nrows == other.nrows
                and self.xllcorner == other.xllcorner
                and self.yllcorner == other.yllcorner
                and self.cellsize == other.cellsize)


def _map_blocks(convert, blocks: list):
    """`convert(block)` for each block, in order.

    A single block is converted in the calling thread. More run on one
    worker per CPU this process may run on, up to `_MAX_WORKERS`, and are
    yielded as the workers finish them; one worker runs the same code.
    """
    if len(blocks) < 2:
        yield from map(convert, blocks)
        return
    from concurrent.futures import ThreadPoolExecutor  # only a grid of many blocks needs it

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(min(cpus or 1, _MAX_WORKERS)) as pool:
        yield from pool.map(convert, blocks)


def _read_header(data: bytes) -> tuple[dict[str, float], float, int]:
    """Header values, the nodata value and the offset where the cell values start.

    The header is every leading line of the grid bytes `data` whose first
    word is a header key; blank lines are skipped. A key may appear once.
    Lines end as universal newlines end them and read as UTF-8 after any leading BOM.
    """
    header: dict[str, float] = {}
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    while start < len(data):
        end = _LINE_END.search(data, start)
        end = len(data) if end is None else end.end()
        line = decoded(data, "grid", GridError, start, end)
        parts = line.split(None, 2)  # a cell row is not split further
        if parts:
            key = parts[0].lower()
            if key not in _HEADER_KEYS + ("nodata_value",):
                break
            try:
                (value,) = map(float, parts[1:])  # exactly one number
            except ValueError:
                raise GridError(f"malformed header line: {line.strip()!r}") from None
            if key in header:
                raise GridError(f"repeated header key: {parts[0]}")
            header[key] = value
        start = end
    nodata = header.pop("nodata_value", -9999.0)
    return header, nodata, start


def _grid_shape(geometry) -> tuple[int, int]:
    """(ncols, nrows) of a grid header, or of a layer's fields, once every
    geometry value is checked: ncols and nrows positive integers, the rest finite."""
    missing = [k for k in _HEADER_KEYS if k not in geometry]
    if missing:
        raise GridError(f"missing header keys: {', '.join(missing)}")
    for key in ("ncols", "nrows"):
        value = geometry[key]
        if not (math.isfinite(value) and value >= 1 and value == int(value)):
            raise GridError(f"{key} must be a positive integer, got {value}")
    for key in ("xllcorner", "yllcorner", "cellsize"):
        if not math.isfinite(geometry[key]):
            raise GridError(f"{key} must be finite, got {geometry[key]}")
    return int(geometry["ncols"]), int(geometry["nrows"])


def _grid_layer(header: dict[str, float], nodata: float, cells: np.ndarray,
                semantic: Semantic) -> RasterLayer:
    """The layer a checked header describes, holding `cells` in row-major order."""
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    return RasterLayer(ncols=ncols, nrows=nrows, xllcorner=header["xllcorner"],
                       yllcorner=header["yllcorner"], cellsize=header["cellsize"],
                       nodata=nodata, values=cells.reshape(nrows, ncols), semantic=semantic)


def _exact_double(mantissa: np.ndarray, divisor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float64 of mantissa / divisor (both uint64), and where it may be off.

    Both operands are exact long doubles, so their quotient is correctly
    rounded to 64 bits, and rounding it to float64 is correct unless it
    fell exactly on a float64 midpoint: then the flag is set.
    """
    quotient = mantissa.astype(np.longdouble) / divisor.astype(np.longdouble)
    low_bits = np.ndarray(quotient.shape, np.uint64, quotient, strides=quotient.strides)
    return quotient.astype(np.float64), (low_bits & 0x7FF) == 0x400


def _token_end(marks: bytes, pos: int) -> int:
    """Where the token at or after `pos` ends: the next space in `marks`, or its end."""
    end = marks.find(b" ", pos)
    return len(marks) if end < 0 else end


def _token_starts(marks: bytes) -> np.ndarray:
    """Where each whitespace-separated token of `marks` starts."""
    word = np.frombuffer(marks, np.uint8) != ord(" ")
    starts = np.flatnonzero(word[1:] > word[:-1]) + 1
    return np.r_[0, starts] if word[:1].any() else starts


def _floats(tokens: list[bytes]) -> list[float] | None:
    """`float()` of each token, or None when one does not convert."""
    try:
        return [float(token) for token in tokens]
    except ValueError:
        return None


def _dashes_lead_tokens(text: bytes) -> bool:
    """Whether every '-' in `text`, whose whitespace is ASCII, starts a token."""
    leading = text.startswith(b"-") + sum(text.count(space + b"-") for space in _SPACES)
    return leading == text.count(b"-")


def _decode_run(text: bytes, marks: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Cells of tokens made of digits, '.' and '-', and which of them `float()` must read:
    a mantissa beyond int64, 20 or more fraction digits or a negative zero.

    Those cells are left for the caller. None when a token is malformed.
    An older numpy that stops reading where it cannot read on, with or
    without a DeprecationWarning, is caught by what the text holds: every
    '-' must start a token, and the digits must read as many numbers as the
    marks, which hold only '0', '1' and spaces. Under a filter that makes
    the warning an error the read raises it.
    """
    if marks.isspace() or not marks:
        return np.empty(0), np.zeros(0, bool)  # np.fromstring reads whitespace as one 0
    if b"-" in text and not _dashes_lead_tokens(text):
        return None
    digits = text.replace(b".", b"")
    if digits.isspace():
        return None  # np.fromstring would read this token without a digit as 0
    try:
        mantissa = np.fromstring(digits, np.int64, sep=" ")
        power = np.fromstring(marks, np.uint64, sep=" ")  # 10**k, or 0 without a '.'
    except (ValueError, DeprecationWarning):
        return None
    if mantissa.size != power.size:
        return None  # a token without a digit
    if text.count(b".") != np.count_nonzero(power):
        return None  # a token with two '.'
    # saturated reads: a mantissa beyond int64, or 20 or more fraction digits
    alone = (mantissa == _INT64.max) | (mantissa == _INT64.min) | (power == _UINT64_MAX)
    divisor = np.maximum(power, 1)
    negative = mantissa < 0
    if b"-" in text and text.count(b"-") != np.count_nonzero(negative):
        zeros = np.flatnonzero(mantissa == 0)  # a '-' with no digit, or a negative zero
        dash = np.frombuffer(text, np.uint8)[_token_starts(marks)[zeros]] == ord("-")
        alone[zeros[dash]] = True
    values, midpoint = _exact_double(np.abs(mantissa).view(np.uint64), divisor)
    np.negative(values, out=values, where=negative)
    for i in np.flatnonzero(midpoint & ~alone).tolist():
        values[i] = int(mantissa[i]) / int(divisor[i])  # a correctly rounded quotient
    return values, alone


def _decode_block(text: bytes) -> np.ndarray | None:
    """Cells of one block of grid text.

    None where the per-cell path must convert the text: a control byte
    `str.split()` may split on, or a token `float()` rejects. Each token
    with a byte other than a digit, '.' or '-' is decoded as a 0; those
    tokens and the ones `_decode_run` leaves are then read by one `_floats`
    call and put back by index.
    """
    marks = text.translate(_MARKS)
    if b"!" in marks:
        return None
    starts, odd, gaps = None, False, [(0, len(text))]
    if b"x" in marks:
        starts = _token_starts(marks)
        odd = np.zeros(starts.size, bool)
        odd[np.searchsorted(starts, np.flatnonzero(np.frombuffer(marks, np.uint8) == ord("x")),
                            "right") - 1] = True
        odd_starts = starts[odd].tolist()
        gaps = list(zip([0, *(_token_end(marks, start) for start in odd_starts)],
                        [*odd_starts, len(text)]))
    run = _decode_run(b"0".join(text[start:end] for start, end in gaps),
                      b"0".join(marks[start:end] for start, end in gaps))
    if run is None:
        return None
    values, alone = run
    read = np.flatnonzero(alone | odd)
    if read.size:
        starts = _token_starts(marks) if starts is None else starts
        floats = _floats([text[start:_token_end(marks, start)] for start in starts[read].tolist()])
        if floats is None:
            return None
        values[read] = floats
    return values


def _decode_cells(data: bytes, start: int = 0) -> np.ndarray | None:
    """The numbers in `data[start:]` as `float()` reads them, converted block by block.

    None when the per-cell path must convert the text: to split it exactly
    as `str.split()` does, to word an error, or because this platform's
    long double cannot run the kernel.
    """
    if not _EXACT_PARSE:
        return None
    spans = []
    while start < len(data):
        cut = _SPACE.search(data, start + _BLOCK_BYTES)
        end = len(data) if cut is None else cut.start()
        spans.append((start, end))
        start = end
    blocks = list(_map_blocks(lambda span: _decode_block(data[span[0]:span[1]]), spans))
    if any(cells is None for cells in blocks):
        return None
    return np.concatenate(blocks) if blocks else np.empty(0)


def parse_ascii_grid(source, semantic: Semantic) -> RasterLayer:
    """Read an ESRI ASCII grid and validate it against the declared semantic.

    `source` is a path or a binary file, read as UTF-8 after any leading BOM.
    """
    with opened(source, "rb") as fh:
        data = fh.read()
    header, nodata, start = _read_header(data)
    ncols, nrows = _grid_shape(header)
    cells = _decode_cells(data, start)
    if cells is None or cells.size != ncols * nrows:  # this path words every error
        tokens = decoded(data, "grid", GridError, start).split()
        if len(tokens) != ncols * nrows:
            raise GridError(
                f"expected {ncols * nrows} cell values, found {len(tokens)}")
        try:
            cells = np.array(tokens, dtype=float)
        except ValueError as exc:
            raise GridError(f"non-numeric cell value: {exc}") from exc
    return _grid_layer(header, nodata, cells, semantic)


def cells_sidecar_path(grid_path) -> Path:
    """Where the binary copy of a grid's cells lives: `.NAME.cells` beside it."""
    grid_path = Path(grid_path)
    return grid_path.with_name(f".{grid_path.name}.cells")


def _cells_digest(grid: bytes, cells: np.ndarray) -> bytes:
    digest = hashlib.sha256(grid)
    digest.update(cells)
    return digest.digest()


def cells_sidecar(grid: bytes, layer: RasterLayer) -> tuple[bytes, np.ndarray]:
    """The sidecar content for `layer`, whose grid file holds the bytes `grid`:
    the digest and the cells, to be written one after the other.

    The cells are `layer.values` itself when that is already contiguous
    little-endian float64, so writing them copies nothing.
    """
    cells = np.ascontiguousarray(layer.values, dtype=_CELLS_DTYPE)
    return _cells_digest(grid, cells), cells


def _layer_from_sidecar(path: Path, semantic: Semantic) -> RasterLayer | None:
    """The grid at `path` built from its sidecar, or None unless that is current.

    Current means the digest matches the grid file's bytes and the stored
    cells, and there are exactly nrows x ncols cells.
    """
    try:
        with open(cells_sidecar_path(path), "rb") as fh:
            size = os.fstat(fh.fileno()).st_size - _DIGEST_BYTES
            if size < 0 or size % _CELLS_DTYPE.itemsize:
                return None
            digest = fh.read(_DIGEST_BYTES)
            cells = np.empty(size // _CELLS_DTYPE.itemsize, dtype=_CELLS_DTYPE)
            if fh.readinto(cells) != size:
                return None
        grid = path.read_bytes()
    except OSError:
        return None
    if _cells_digest(grid, cells) != digest:
        return None
    try:
        header, nodata, _ = _read_header(grid)
        ncols, nrows = _grid_shape(header)
    except GridError:
        return None
    if cells.size != ncols * nrows:
        return None
    return _grid_layer(header, nodata, cells, semantic)


def read_ascii_grid(path, semantic: Semantic) -> RasterLayer:
    """`parse_ascii_grid(path, semantic)`, from the grid's sidecar when it is current.

    Any other case, a missing, short or foreign sidecar or an edited grid,
    runs the full parse with its errors.
    """
    layer = _layer_from_sidecar(Path(path), semantic)
    return parse_ascii_grid(path, semantic) if layer is None else layer


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**s rounded to the nearest integer, and their distance, both exact.

    a splits into two halves of at most 26 bits (Veltkamp) and 10**s into
    `_SCALE_HI` + `_SCALE_LO`, so the four partial products are exact. Their
    whole parts sum exactly in int64; their fractional parts are multiples
    of one power of two no smaller than 2**-49 and sum below 4, so they sum
    exactly in float64 (the callers keep a * 10**s between 1e14 and 1e17).
    """
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    low = a - high
    whole = np.zeros(a.shape, np.int64)
    fraction = np.zeros(a.shape)
    for term in (high * _SCALE_HI[s], high * _SCALE_LO[s],
                 low * _SCALE_HI[s], low * _SCALE_LO[s]):
        floor = np.floor(term)
        whole += floor.astype(np.int64)
        fraction += term - floor
    up = np.floor(fraction + 0.5)
    return (whole + up.astype(np.int64)).view(np.uint64), np.abs(fraction - up)


def _reads_back(distance, half_ulp, s, even) -> np.ndarray:
    """Whether a decimal `distance` * 10**-s away from a float64 reads as it.

    `float()` rounds to nearest with ties to even; half an ulp times 10**s
    is exact, a power of two times an exact 10**s.
    """
    half = half_ulp * _TENS[s]
    return (distance < half) | ((distance == half) & even)


def _shortest_decimals(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, s, ok): N / 10**s is the decimal `repr` writes for each a.

    a is positive and in [1e-4, 1e16). ok is False where a round needed is
    an exact tie, which `repr` breaks its own way.
    """
    e10 = np.floor(np.log10(a)).astype(np.int64)
    e10 += a >= _DECADES[e10 + 6]  # log10 may be one off next to a power of ten
    e10 -= a < _DECADES[e10 + 5]
    half_ulp = np.spacing(a) / 2
    even = (a.view(np.int64) & 1) == 0
    s = 15 - e10  # 16 significant digits
    n, distance = _scaled(a, s)
    ok = distance != 0.5
    back = ok & _reads_back(distance, half_ulp, s, even)
    i = np.flatnonzero(back)
    s15 = np.maximum(s[i] - 1, 0)
    n15, distance = _scaled(a[i], s15)
    ok[i] = distance != 0.5
    shorter = ok[i] & _reads_back(distance, half_ulp[i], s15, even[i])
    n[i[shorter]], s[i[shorter]] = n15[shorter], s15[shorter]
    j = np.flatnonzero(ok & ~back)
    s[j] += 1
    n[j], distance = _scaled(a[j], s[j])
    ok[j] = (distance != 0.5) & _reads_back(distance, half_ulp[j], s[j], even[j])
    return n, s, ok


def _digit_rows(n: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each n < 10**17, most significant first, as (17, len(n))."""
    digits = np.empty((17, n.size), np.uint8)
    for part, rows in (((n % 10**9).astype(np.uint32), range(16, 7, -1)),
                       ((n // 10**9).astype(np.uint32), range(7, -1, -1))):
        for row in rows:
            quotient = part // 10
            digits[row] = part - quotient * 10
            part = quotient
    return digits


def _encode_rows(rows: np.ndarray) -> bytes:
    """ASCII lines of `rows`, each cell written as `repr` writes it.

    Each cell is laid out as byte columns: a sign, "0." and up to three
    zeros before a decimal whose point precedes all 17 digits, the digits
    of N each followed by a slot for the point, a "0" after a point with no
    fraction digit, and the separator. Unused slots hold NUL and are
    deleted at the end.
    """
    x = rows.ravel()
    a = np.abs(x)
    kernel = (a >= 1e-4) & (a < 1e16)
    n = np.zeros(x.size, np.uint64)  # zeros stay 0 / 10**0
    s = np.zeros(x.size, np.int64)
    cells = np.flatnonzero(kernel)
    n[cells], s[cells], ok = _shortest_decimals(a[cells])
    by_repr = np.flatnonzero(~kernel & (a != 0)).tolist() + cells[~ok].tolist()
    digits = _digit_rows(n)
    zero = digits == 0
    s = s.astype(np.int8)
    lead = np.zeros(x.size, np.int8)  # leading and trailing zero digits
    trail = np.zeros(x.size, np.int8)
    for zeros, count in ((zero, lead), (zero[::-1], trail)):
        run = np.ones(x.size, bool)
        for row in zeros:
            run &= row
            count += run
    first = np.maximum(np.minimum(lead, 16 - s), 0)  # digits shown: first <= place < stop
    stop = 17 - np.minimum(s, trail)
    places = np.arange(17, dtype=np.int8)[:, None]
    shown = (places >= first) & (places < stop)
    chars = (digits + ord("0")) * shown
    columns = [np.signbit(x) * np.uint8(ord("-"))]
    if s.max() >= 17:
        columns += [(s >= 17) * np.uint8(ord("0")), (s >= 17) * np.uint8(ord("."))]
        columns += [(s >= 17 + z) * np.uint8(ord("0")) for z in range(1, s.max() - 16)]
    points = np.bincount(16 - s[s <= 16], minlength=17)
    for place in range(17):
        if shown[place].any():
            columns.append(chars[place])
        if points[place]:
            columns.append((s == 16 - place) * np.uint8(ord(".")))
    columns.append((trail >= s) * np.uint8(ord("0")))
    separator = np.full(x.size, ord(" "), np.uint8)
    separator[rows.shape[1] - 1::rows.shape[1]] = ord("\n")
    columns.append(separator)
    texts = [repr(v).encode() for v in x[by_repr].tolist()]
    width = max([len(t) + 1 for t in texts], default=0)
    columns += [np.zeros(x.size, np.uint8)] * (width - len(columns))
    layout = np.stack(columns, axis=1)
    if texts:
        ends = separator[by_repr].tobytes()
        fields = b"".join((text + ends[i:i + 1]).ljust(len(columns), b"\0")
                          for i, text in enumerate(texts))
        layout[by_repr] = np.frombuffer(fields, np.uint8).reshape(len(texts), -1)
    return layout.tobytes().translate(None, b"\0")


def _grid_rows(values: np.ndarray):
    """ASCII lines of the rows of `values`, each cell as `repr` writes it, yielded
    in even blocks of rows, one per whole `_BLOCK_CELLS` cells (at least one)."""
    step = -(-len(values) // max(1, values.size // _BLOCK_CELLS))
    blocks = [values[i:i + step] for i in range(0, len(values), step)]
    yield from _map_blocks(_encode_rows, blocks)


def write_ascii_grid(layer: RasterLayer, sink) -> None:
    """Write an ESRI ASCII grid to a path or a binary file; cell values
    round-trip bit-exactly."""
    with opened(sink, "wb") as fh:
        fh.write(f"ncols {layer.ncols}\n"
                 f"nrows {layer.nrows}\n"
                 f"xllcorner {layer.xllcorner!r}\n"
                 f"yllcorner {layer.yllcorner!r}\n"
                 f"cellsize {layer.cellsize!r}\n"
                 f"NODATA_value {layer.nodata!r}\n".encode())
        fh.writelines(_grid_rows(layer.values))


def normalize_irradiance(raw: RasterLayer, clear_sky_max: float) -> RasterLayer:
    """Scale a raw irradiance grid (W/m2) into [0, 1].

    `clear_sky_max` is the unobstructed-sky reference and must be supplied
    explicitly; it is never inferred from the data.
    """
    if clear_sky_max <= 0:
        raise DomainError(f"clear-sky reference must be > 0, got {clear_sky_max}")
    mask = raw.mask()
    values = raw.values.copy()
    values[mask] = np.clip(values[mask] / clear_sky_max, 0.0, 1.0)
    return replace(raw, values=values, semantic=Semantic.IRRADIANCE_NORMALIZED)


#: The formulas `compute_ucp` evaluates; the first is the default.
UCP_FORMULAS = ("product", "weighted_sum")


def compute_ucp(albedo: RasterLayer, vegetation: RasterLayer,
                irradiance: RasterLayer, formula: str = UCP_FORMULAS[0]) -> RasterLayer:
    """Cellwise Urban Cooling Potential from co-registered input layers.

    The default product form UCP = S * (1 - albedo) * (1 - vegetation)
    reproduces both anchors: 1 on sunlit zero-albedo bare pavement, 0 under
    full vegetation cover. The weighted-sum alternative is the mean of
    irradiance, 1 - albedo and 1 - vegetation, each weighted 1/3.
    Nodata in any input propagates to the output.
    """
    for name, layer, semantic in (("albedo", albedo, Semantic.ALBEDO),
                                  ("vegetation", vegetation, Semantic.VEGETATION_FRACTION),
                                  ("irradiance", irradiance, Semantic.IRRADIANCE_NORMALIZED)):
        if layer.semantic is not semantic:
            raise GridError(f"{name} layer has semantic {layer.semantic.value}")
        if not layer.aligned_with(albedo):
            raise GridError(f"{name} layer is not co-registered with the albedo layer")
    mask = albedo.mask() & vegetation.mask() & irradiance.mask()
    s = irradiance.values
    if formula == "product":
        ucp = s * (1.0 - albedo.values) * (1.0 - vegetation.values)
    elif formula == "weighted_sum":
        w = 1 / 3
        ucp = w * s + w * (1.0 - albedo.values) + w * (1.0 - vegetation.values)
    else:
        raise DomainError(f"unknown UCP formula {formula!r}")
    ucp = np.clip(ucp, 0.0, 1.0)
    return replace(albedo, values=np.where(mask, ucp, albedo.nodata), semantic=Semantic.UCP)


def sample_at(layer: RasterLayer, x: float, y: float) -> float | None:
    """Bilinear sample at a planar location.

    Interpolates between the four surrounding cell centers; when any of
    them is nodata, falls back to the nearest cell. Returns None if even
    that cell is nodata.
    """
    xmin, ymin, xmax, ymax = layer.extent()
    if not (xmin <= x <= xmax and ymin <= y <= ymax):
        raise DomainError(
            f"location ({x}, {y}) outside raster extent "
            f"[{xmin}, {xmax}] x [{ymin}, {ymax}]")
    # fractional cell-center coordinates; row 0 is the top (northern) row
    gc = (x - layer.xllcorner) / layer.cellsize - 0.5
    gr = (ymax - y) / layer.cellsize - 0.5
    gc = min(max(gc, 0.0), layer.ncols - 1.0)
    gr = min(max(gr, 0.0), layer.nrows - 1.0)
    c0, r0 = int(math.floor(gc)), int(math.floor(gr))
    c1, r1 = min(c0 + 1, layer.ncols - 1), min(r0 + 1, layer.nrows - 1)
    fc, fr = gc - c0, gr - r0
    corners = [layer.values[r0, c0], layer.values[r0, c1],
               layer.values[r1, c0], layer.values[r1, c1]]
    if any(v == layer.nodata for v in corners):
        nearest = layer.values[round(gr), round(gc)]
        return None if nearest == layer.nodata else float(nearest)
    top = corners[0] * (1 - fc) + corners[1] * fc
    bottom = corners[2] * (1 - fc) + corners[3] * fc
    return float(top * (1 - fr) + bottom * fr)


def export_heat_map(results, plan, ucp: RasterLayer | None = None) -> dict:
    """Build a GeoJSON FeatureCollection of per-point heat-stress results.

    One Point feature per traverse point with the UTCI offset, stress
    category, environment and phase; when a UCP raster is supplied each
    feature also carries the sampled UCP value. Key order and coordinate
    precision (6 decimals) are fixed so output files are byte-deterministic.
    """
    if not results:
        raise DomainError("no point results to export")
    features = []
    for result in sorted(results, key=lambda r: r.offset.point_id):
        point = plan.point(result.offset.point_id)
        properties = {
            "point_id": result.offset.point_id,
            "phase": plan.phase.value,
            "environment": point.environment.value,
            "utci_mobile": round(result.offset.utci_mobile, 3),
            "utci_ref": round(result.offset.utci_ref, 3),
            "offset_c": round(result.offset.value, 3),
            "stress_category": heat_stress_category(result.offset.utci_mobile).value,
        }
        if ucp is not None:
            value = sample_at(ucp, *point.location)
            if value is not None:
                properties["ucp"] = round(value, 4)
        features.append({
            "type": "Feature",
            "geometry": {
                "type": "Point",
                "coordinates": [round(point.location[0], 6),
                                round(point.location[1], 6)],
            },
            "properties": properties,
        })
    return {"type": "FeatureCollection", "features": features}


def geojson_dumps(collection: dict) -> str:
    """Serialize GeoJSON with stable formatting for golden-file comparison."""
    return json.dumps(collection, indent=2, ensure_ascii=True) + "\n"
