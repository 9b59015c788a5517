"""Raster layers and the Urban Cooling Potential indicator.

Grids travel as ESRI ASCII (.asc) files in planar coordinates; the site
extent is sub-hectare so no geodesic math is attempted. The UCP indicator
maps each cell to [0, 1]: 1 for bare sun-exposed dark pavement, 0 for
dense, shaded vegetation.

Grids of at least `_FORK_MIN_CELLS` cells are parsed and written on two
cores where Linux offers them: a forked child converts one half of the
cells while this process converts the other. Values and written bytes are
identical to the one-core path, which also runs whenever a worker fails.

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

import hashlib
import json
import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DomainError, GridError
from .series import opened
from .thermal import heat_stress_category

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")

#: Smallest grid parsed and written on two cores. A fork round trip costs
#: about 5 ms; one core converts a million cells in about 0.6 s (2-vCPU
#: x86-64 VM).
_FORK_MIN_CELLS = 250_000

_CELLS_DTYPE = np.dtype("<f8")
_DIGEST_BYTES = 32  # SHA-256
#: Leading bytes of a grid decoded to find its header when the sidecar is
#: used; a header that runs past them sends the read to the full parse.
_HEADER_BYTES = 4096


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
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.nrows, self.ncols):
            raise GridError(
                f"value grid shape {self.values.shape} does not match "
                f"declared {self.nrows} rows x {self.ncols} cols")
        if self.cellsize <= 0:
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


def _fork_possible(cells: int) -> bool:
    """Whether a grid of `cells` cells is worth splitting with a forked child.

    Forking is only safe with no other thread that could hold a lock the
    child would need.
    """
    return (cells >= _FORK_MIN_CELLS and sys.platform.startswith("linux")
            and hasattr(os, "fork") and len(os.sched_getaffinity(0)) > 1
            and threading.active_count() == 1)


def _in_forked_child(child_part, parent_part):
    """Run `child_part()` in a forked child while this process runs `parent_part()`.

    Returns `(child result, parent result)`, or None when the child failed
    in any way. The child sends its result back pickled over a pipe and
    leaves through `os._exit`, so it flushes no buffer it inherited. An
    exception from `parent_part` propagates; the child is always reaped.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(child_part(), pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            parent_result = parent_part()
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        return None
    return pickle.loads(payload), parent_result


def _read_header(text: str) -> tuple[dict[str, float], float, int]:
    """Header values, the nodata value and the offset where the cell values start.

    The header is every leading line whose first word is a header key;
    blank lines are skipped.
    """
    header: dict[str, float] = {}
    nodata = -9999.0
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end + 1
        line = text[start:end]
        parts = line.split(None, 2)  # a cell row is not split further
        if parts:
            key = parts[0].lower()
            if key not in _HEADER_KEYS + ("nodata_value",):
                break
            try:
                (value,) = map(float, parts[1:])  # exactly one number
            except ValueError:
                raise GridError(f"malformed header line: {line.strip()!r}") from None
            if key == "nodata_value":
                nodata = value
            else:
                header[key] = value
        start = end
    return header, nodata, start


def _cell_values(text: str) -> np.ndarray:
    """The whitespace-separated numbers in `text`, converted as `float()` would."""
    return np.array(text.split(), dtype=float)


def _parse_cells_on_two_cores(text: str, start: int) -> np.ndarray | None:
    """Cell values of `text[start:]`, converted in two halves cut at a newline.

    None when there is no newline to cut at, when a half holds a value that
    does not convert, or when the child fails.
    """
    cut = text.find("\n", start + (len(text) - start) // 2)
    if cut < 0:
        return None
    try:
        halves = _in_forked_child(lambda: _cell_values(text[start:cut]),
                                  lambda: _cell_values(text[cut:]))
    except ValueError:
        return None
    return None if halves is None else np.concatenate(halves)


def parse_ascii_grid(source, semantic: Semantic) -> RasterLayer:
    """Read an ESRI ASCII grid and validate it against the declared semantic."""
    with opened(source) as fh:
        text = fh.read()
    header, nodata, start = _read_header(text)
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise GridError(f"missing header keys: {', '.join(missing)}")
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    cells = (_parse_cells_on_two_cores(text, start)
             if _fork_possible(ncols * nrows) else None)
    if cells is None:  # one core, or a worker failed: this path words every error
        tokens = text[start:].split()
        if len(tokens) != ncols * nrows:
            raise GridError(
                f"expected {ncols * nrows} cell values, found {len(tokens)}")
        try:
            cells = np.array(tokens, dtype=float)
        except ValueError as exc:
            raise GridError(f"non-numeric cell value: {exc}") from exc
    elif cells.size != ncols * nrows:
        raise GridError(f"expected {ncols * nrows} cell values, found {cells.size}")
    return RasterLayer(
        ncols=ncols, nrows=nrows,
        xllcorner=header["xllcorner"], yllcorner=header["yllcorner"],
        cellsize=header["cellsize"], nodata=nodata,
        values=cells.reshape(nrows, ncols), semantic=semantic,
    )


def cells_sidecar_path(grid_path) -> Path:
    """Where the binary copy of a grid's cells lives: `.NAME.cells` beside it."""
    grid_path = Path(grid_path)
    return grid_path.with_name(f".{grid_path.name}.cells")


def _cells_digest(grid: bytes, cells: np.ndarray) -> bytes:
    digest = hashlib.sha256(grid)
    digest.update(cells)
    return digest.digest()


def cells_sidecar(grid: bytes, layer: RasterLayer) -> bytes:
    """The sidecar content for `layer`, whose grid file holds the bytes `grid`."""
    cells = np.ascontiguousarray(layer.values, dtype=_CELLS_DTYPE)
    return _cells_digest(grid, cells) + cells.tobytes()


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
    head_end = grid.find(b"\n", _HEADER_BYTES) + 1 or len(grid)
    try:
        header, nodata, start = _read_header(grid[:head_end].decode("ascii"))
    except (UnicodeDecodeError, GridError):
        return None
    if ((start == head_end and head_end < len(grid))  # header may go on
            or any(k not in header for k in _HEADER_KEYS)):
        return None
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if cells.size != ncols * nrows:
        return None
    return RasterLayer(
        ncols=ncols, nrows=nrows,
        xllcorner=header["xllcorner"], yllcorner=header["yllcorner"],
        cellsize=header["cellsize"], nodata=nodata,
        values=cells.reshape(nrows, ncols), semantic=semantic,
    )


def read_ascii_grid(path, semantic: Semantic) -> RasterLayer:
    """`parse_ascii_grid(path, semantic)`, from the grid's sidecar when it is current.

    Any other case, a missing, short or foreign sidecar or an edited grid,
    runs the full parse with its errors.
    """
    layer = _layer_from_sidecar(Path(path), semantic)
    return parse_ascii_grid(path, semantic) if layer is None else layer


def _grid_rows(values: np.ndarray) -> str:
    """Rows of cell values as text lines; `repr` round-trips every float."""
    return "".join(" ".join(map(repr, row.tolist())) + "\n" for row in values)


def write_ascii_grid(layer: RasterLayer, sink) -> None:
    """Write an ESRI ASCII grid; cell values round-trip bit-exactly."""
    values = layer.values
    halves = None
    if _fork_possible(values.size):
        middle = layer.nrows // 2
        halves = _in_forked_child(lambda: _grid_rows(values[:middle]),
                                  lambda: _grid_rows(values[middle:]))
    with opened(sink, "w") as fh:
        fh.write(f"ncols {layer.ncols}\n")
        fh.write(f"nrows {layer.nrows}\n")
        fh.write(f"xllcorner {layer.xllcorner!r}\n")
        fh.write(f"yllcorner {layer.yllcorner!r}\n")
        fh.write(f"cellsize {layer.cellsize!r}\n")
        fh.write(f"NODATA_value {layer.nodata!r}\n")
        for part in halves or (_grid_rows(values),):
            fh.write(part)


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


def compute_ucp(albedo: RasterLayer, vegetation: RasterLayer,
                irradiance: RasterLayer, formula: str = "product",
                weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
                ) -> RasterLayer:
    """Cellwise Urban Cooling Potential from co-registered input layers.

    The default product form UCP = S * (1 - albedo) * (1 - vegetation)
    reproduces both anchors: 1 on sunlit zero-albedo bare pavement, 0 under
    full vegetation cover. The weighted-sum alternative uses `weights` for
    (irradiance, 1 - albedo, 1 - vegetation), normalized to sum to one.
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
        w = np.array(weights, dtype=float)
        if w.min() < 0 or w.sum() <= 0:
            raise DomainError(f"weights must be non-negative with positive sum: {weights}")
        w = w / w.sum()
        ucp = w[0] * s + w[1] * (1.0 - albedo.values) + w[2] * (1.0 - vegetation.values)
    else:
        raise DomainError(f"unknown UCP formula {formula!r}")
    ucp = np.clip(ucp, 0.0, 1.0)
    nodata = albedo.nodata
    out = np.where(mask, ucp, nodata)
    return RasterLayer(
        ncols=albedo.ncols, nrows=albedo.nrows,
        xllcorner=albedo.xllcorner, yllcorner=albedo.yllcorner,
        cellsize=albedo.cellsize, nodata=nodata,
        values=out, semantic=Semantic.UCP,
    )


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
