"""Deterministic synthetic study sites, one generator for every workload.

A site is a directory holding a run config, station CSVs, campaign plans,
mobile logs and ESRI ASCII grids, plus an in-memory ``Site`` record of what
was injected: each usable stop's target UTCI offset, the number of stops
that never settle or are too short, the case-station step and the kept
station rows. The same ``(workload, seed)`` always gives byte-identical
files.

Station records follow a diurnal curve that passes the day filter (t_max
above 25 degC, t_min above 16 degC, noon net radiation above 500 W/m2,
light wind). About 1% of station rows are malformed and a few logger gaps
are cut out, away from the minutes a traverse stop is matched against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

import oracle

TZ_TEXT = "+02:00"
TZ = timezone(timedelta(hours=2))
STATION_CADENCE_S = 60
MOBILE_CADENCE_S = 15
SETTLE_SAMPLES = 13         # 180 s stabilization window at 15 s cadence
STOP_SAMPLES = (21, 24)     # >= 300 s dwell, so a stop is never flagged too short
SHORT_SAMPLES = (6, 10)     # < 180 s: no stabilization window fits
MALFORMED_SHARE = 0.01
GAPS_PER_STATION = 3
CLEAR_SKY_MAX = 1000.0
NODATA = -9999.0
X0, Y0, CELL = 652000.0, 6860000.0, 1.0
FIRST_DAY = date(2019, 7, 22)

#: Shape of each workload; every count here is injected exactly.
WORKLOADS = {
    "season-baci": dict(
        days=4, campaign_days=(0, 3), stations=("control", "case", "onsite"),
        stops=20, never_settle=2, too_short=1, grid=(80, 80),
        traverse_start_h=12.0, control_span="days"),
    "dense-traverse": dict(
        days=2, campaign_days=(0, 1), stations=("control",),
        stops=240, never_settle=24, too_short=6, grid=(200, 200),
        traverse_start_h=0.5, control_span="traverse"),
    "megacell-grid": dict(
        days=2, campaign_days=(0, 1), stations=("control", "case"),
        stops=20, never_settle=2, too_short=1, grid=(1000, 1000),
        traverse_start_h=12.0, control_span="days"),
}

# (column, replacement) per kind of malformed station row; each makes the
# parser drop the row. None strips the timestamp's UTC offset.
_MALFORMED = ((1, "n/a"), (2, ""), (2, "130.5"), (0, None), (1, "nan"), (4, "-1.0"))

# Case station runs warmer than the control before the midpoint, cooler after.
CASE_OFFSET_BEFORE = 0.6
CASE_OFFSET_AFTER = -0.5


@dataclass
class Campaign:
    campaign_id: str
    targets: dict[str, float]          # usable point id -> target offset (degC)
    unusable: int                      # stops that never settle or are too short
    n_points: int
    mobile_rows: int


@dataclass
class Site:
    workload: str
    seed: int
    root: Path
    config: Path
    commands: list[tuple[str, list[str]]]
    campaigns: dict[str, Campaign]
    matched_points: int
    baci_effect: float | None          # oracle value; None when no case station
    case_step_c: float | None
    dropped_rows: dict[str, int]       # station -> malformed rows injected
    station_rows: dict[str, int]
    grids: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    def sizes(self) -> dict:
        """Input sizes and injected faults, for the run metadata."""
        return {
            "rows_per_station": self.station_rows,
            "malformed_rows": self.dropped_rows,
            "case_step_c": self.case_step_c,
            "unusable_stops": {c.campaign_id: c.unusable for c in self.campaigns.values()},
            "stops": {c.campaign_id: c.n_points for c in self.campaigns.values()},
            "mobile_rows": {c.campaign_id: c.mobile_rows
                            for c in self.campaigns.values()},
            "grid_cells": int(self.grids["albedo"].size),
        }


def _epoch(day: date, hour: float) -> int:
    local = datetime(day.year, day.month, day.day, tzinfo=TZ) + timedelta(hours=hour)
    return int(local.timestamp())


def _iso(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, timezone.utc).isoformat()


def _fmt(values, decimals):
    """Format to fixed decimals and return (strings, the floats they parse to)."""
    strings = [f"{v:.{decimals}f}" for v in np.asarray(values).tolist()]
    return strings, np.array(strings, dtype=float)


# ---------------------------------------------------------------- grids

def _grids(rng, nrows, ncols):
    y, x = np.mgrid[0:nrows, 0:ncols].astype(float)
    ph = rng.uniform(0, 2 * math.pi, 4)
    albedo = np.clip(0.12 + 0.3 * (0.5 + 0.5 * np.sin(x / 37 + ph[0]) * np.cos(y / 53 + ph[1]))
                     + rng.normal(0, 0.03, x.shape), 0.02, 0.9)
    vegetation = np.clip(0.45 + 0.5 * np.sin(x / 61 + ph[2]) * np.sin(y / 29 + ph[3])
                         + rng.normal(0, 0.05, x.shape), 0.0, 1.0)
    irradiance = np.clip(700 + 350 * np.cos(x / 47 + ph[1]) * np.sin(y / 71 + ph[0])
                         + rng.normal(0, 25, x.shape), 50.0, 1100.0)
    albedo[:8, :8] = NODATA  # nodata corner, kept clear of every stop
    return {"albedo": albedo, "vegetation": vegetation, "irradiance": irradiance}


def _write_grid(path: Path, values: np.ndarray):
    nrows, ncols = values.shape
    lines = [f"ncols {ncols}", f"nrows {nrows}", f"xllcorner {X0!r}",
             f"yllcorner {Y0!r}", f"cellsize {CELL!r}", f"NODATA_value {NODATA!r}"]
    lines.extend(" ".join(map(repr, row)) for row in values.tolist())
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------- stops

def _layout(rng, n, n_never, n_short, start):
    """Stop kinds and 15 s sample times, back to back from ``start``."""
    kinds = np.array(["settled"] * (n - n_never - n_short) + ["never"] * n_never
                     + ["short"] * n_short)
    kinds = kinds[rng.permutation(n)]
    stops = []
    t = start
    for kind in kinds.tolist():
        lo, hi = SHORT_SAMPLES if kind == "short" else STOP_SAMPLES
        times = t + MOBILE_CADENCE_S * np.arange(int(rng.integers(lo, hi)))
        stops.append((kind, times))
        t = int(times[-1]) + MOBILE_CADENCE_S * int(rng.integers(1, 3))
    return stops


def _matched_minute(stop_times) -> int:
    """Control minute a settled stop is matched to (nearest, ties earlier)."""
    center = int(stop_times[-SETTLE_SAMPLES]) + (SETTLE_SAMPLES - 1) * MOBILE_CADENCE_S // 2
    minute = center // 60 * 60
    return minute if center - minute <= 30 else minute + 60


# ---------------------------------------------------------------- stations

def _weather(rng, times, first_midnight, n_days):
    """Smooth diurnal air temperature, humidity, wind and net radiation."""
    noons = first_midnight + 43200 + 86400 * np.arange(-1, n_days + 2)
    mean = np.interp(times, noons, rng.uniform(23.5, 25.5, noons.size))
    amp = np.interp(times, noons, rng.uniform(5.5, 6.5, noons.size))
    hour = ((times - first_midnight) % 86400) / 3600.0
    t_air = mean + amp * np.sin(2 * math.pi * (hour - 9.0) / 24.0)
    sun = np.where((hour > 6) & (hour < 20), np.sin(math.pi * (hour - 6) / 14), 0.0)
    return t_air, sun


def _station(rng, name, times, base_t, sun, protected, midpoint):
    n = times.size
    t_air = base_t + rng.normal(0, 0.05, n)
    if name == "case":
        t_air += np.where(times < midpoint, CASE_OFFSET_BEFORE, CASE_OFFSET_AFTER)
    elif name == "onsite":
        t_air += 0.3
    rh = np.clip(75 - 2.2 * (t_air - 18) + rng.normal(0, 0.5, n), 25, 95)
    wind = 0.55 + 0.2 * rng.random(n)
    rn = np.where(sun > 0, 780 * sun, -40.0) + rng.normal(0, 5, n)
    ta_s, ta = _fmt(t_air, 2)
    rh_s, rh = _fmt(rh, 2)
    wind_s, wind = _fmt(wind, 2)
    rn_s, _ = _fmt(rn, 1)
    if name == "control":
        tg_s, tg = [""] * n, np.full(n, np.nan)
    else:
        excess = (6.0 if name == "case" else 4.0) * sun
        tg_s, tg = _fmt(t_air + excess + rng.normal(0, 0.05, n), 2)

    # logger gaps, then ~1% malformed rows, never on a protected minute
    keep = np.ones(n, dtype=bool)
    free = ~protected
    for _ in range(GAPS_PER_STATION):
        length = int(rng.integers(10, 60))
        for _attempt in range(100):
            s = int(rng.integers(1, n - length - 1))
            if free[s - 1:s + length + 1].all():
                keep[s:s + length] = False
                free[s - 1:s + length + 1] = False
                break
    candidates = np.flatnonzero(free)
    bad = np.sort(rng.choice(candidates, size=max(1, int(MALFORMED_SHARE * n)),
                             replace=False))
    columns = [[_iso(int(t)) for t in times.tolist()], ta_s, rh_s, tg_s, wind_s, rn_s]
    rows = [list(fields) for fields in zip(*columns)]
    for k, i in enumerate(bad.tolist()):
        column, value = _MALFORMED[k % len(_MALFORMED)]
        rows[i][column] = rows[i][0][:-len("+00:00")] if value is None else value
    written = keep.copy()
    keep[bad] = False
    text = "timestamp,t_air,rh,t_globe,wind,net_radiation\n" + "".join(
        ",".join(rows[i]) + "\n" for i in np.flatnonzero(written).tolist())
    kept = {"time": times[keep], "t_air": ta[keep], "rh": rh[keep],
            "t_globe": tg[keep], "wind": wind[keep]}
    return text, kept, int(bad.size), int(written.sum())


# ---------------------------------------------------------------- site

def generate(workload: str, seed: int, root: Path) -> Site:
    """Write the site for ``workload``/``seed`` under ``root`` and describe it."""
    shape = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    root.mkdir(parents=True, exist_ok=True)
    days = [FIRST_DAY + timedelta(days=d) for d in range(shape["days"])]
    camp_days = [days[i] for i in shape["campaign_days"]]
    first_midnight = _epoch(days[0], 0.0)

    # grids first: stop targets follow the UCP at each stop
    nrows, ncols = shape["grid"]
    grids = _grids(rng, nrows, ncols)
    for name, values in grids.items():
        _write_grid(root / f"{name}.asc", values)
    ucp = oracle.expected_ucp(grids["albedo"], grids["vegetation"],
                              grids["irradiance"], CLEAR_SKY_MAX, NODATA)

    # stop timing, so station rows near matched minutes can be protected
    layouts = {}
    for cid, day in zip(("before", "after"), camp_days):
        layouts[cid] = _layout(rng, shape["stops"], shape["never_settle"],
                               shape["too_short"],
                               _epoch(day, shape["traverse_start_h"]))
    matched = sorted({_matched_minute(t) for layout in layouts.values()
                      for kind, t in layout if kind == "settled"})

    # station records
    if shape["control_span"] == "days":
        spans = [(first_midnight, _epoch(days[-1], 24.0))]
    else:
        spans = [(int(layout[0][1][0]) // 60 * 60 - 900,
                  int(layout[-1][1][-1]) // 60 * 60 + 960)
                 for layout in layouts.values()]
    times = np.concatenate([np.arange(lo, hi, STATION_CADENCE_S) for lo, hi in spans])
    base_t, sun = _weather(rng, times, first_midnight, shape["days"])
    protected = np.zeros(times.size, dtype=bool)
    for m in matched:
        protected |= np.abs(times - m) <= 180
    for i in range(1, len(spans)):
        protected |= np.abs(times - spans[i][0]) <= 300   # keep block edges intact
    midpoint = (_epoch(camp_days[0], 24.0) + _epoch(camp_days[1], 0.0)) // 2
    kept, dropped, rows = {}, {}, {}
    for name in shape["stations"]:
        text, kept[name], dropped[name], rows[name] = _station(
            rng, name, times, base_t, sun, protected, midpoint)
        (root / f"{name}.csv").write_text(text)
    control = kept["control"]

    # mobile logs and plans
    campaigns = {}
    before_usable: set[str] = set()
    matched_points = 0
    for cid, day in zip(("before", "after"), camp_days):
        prefix = "B" if cid == "before" else "A"
        layout = layouts[cid]
        n = len(layout)
        cols = rng.uniform(15, ncols - 15, n)
        rows_ = rng.uniform(15, nrows - 15, n)
        env = rng.choice(["full_sun", "shade", "vegetation_proximity"], n,
                         p=[0.5, 0.25, 0.25])
        ids = [f"{prefix}{k + 1:04d}" for k in range(n)]
        displaced = {}
        if cid == "after":
            for k in range(n):
                if rng.random() < 0.9:
                    displaced[ids[k]] = f"B{k + 1:04d}"
        kinds = [kind for kind, _ in layout]
        settled = [k for k in range(n) if kinds[k] == "settled"]

        # drivers of settled stops and the globe readings for their targets
        minutes = np.array([_matched_minute(layout[k][1]) for k in settled])
        j = oracle.nearest_index(control["time"], minutes)
        if np.any(j < 0):
            raise RuntimeError("a protected control minute is missing")
        ref_t, ref_rh = control["t_air"][j], control["rh"][j]
        t_air_s, t_air = _fmt(ref_t + rng.uniform(-0.5, 1.0, len(settled)), 2)
        rh_s, rh = _fmt(np.clip(ref_rh - 3 + rng.normal(0, 1, len(settled)), 20, 95), 2)
        wind_s, wind = _fmt(rng.uniform(0.2, 1.2, len(settled)), 2)
        cell_ucp = ucp[np.round(rows_[settled]).astype(int),
                       np.round(cols[settled]).astype(int)]
        base = np.select([env[settled] == "full_sun", env[settled] == "shade"],
                         [1.0, -1.0], 0.0)
        _, offset = _fmt(base + 5.0 * cell_ucp + rng.normal(0, 0.3, len(settled)), 4)
        globe = oracle.globe_for_offset(offset, t_air, rh, wind, ref_t, ref_rh)

        lines = ["timestamp,point_id,t_air,rh,t_globe,wind"]
        targets = {}
        for pos, k in enumerate(settled):
            targets[ids[k]] = float(offset[pos])
        drivers = {k: pos for pos, k in enumerate(settled)}
        for k, (kind, stop_times) in enumerate(layout):
            stamps = [_iso(int(t)) for t in stop_times.tolist()]
            if kind == "settled":
                pos = drivers[k]
                g = float(globe[pos])
                pre = len(stamps) - SETTLE_SAMPLES
                for i, ts in enumerate(stamps):
                    reading = g + 0.6 * (pre - i) if i < pre else g
                    lines.append(f"{ts},{ids[k]},{t_air_s[pos]},{rh_s[pos]},"
                                 f"{reading!r},{wind_s[pos]}")
            else:
                ta = f"{float(np.interp(stop_times[0], times, base_t)):.2f}"
                for i, ts in enumerate(stamps):
                    reading = float(ta) + 4.0 + (0.4 * (-1) ** i if kind == "never" else 0.0)
                    lines.append(f"{ts},{ids[k]},{ta},55.00,{reading:.2f},0.60")
        (root / f"{cid}_mobile.csv").write_text("\n".join(lines) + "\n")

        plan = [f"campaign_id: {cid}", f"phase: {cid}", f"date: {day.isoformat()}",
                f'timezone: "{TZ_TEXT}"', "control_station: control"]
        if "onsite" in shape["stations"]:
            plan.append("onsite_station: onsite")
        start_h = datetime.fromtimestamp(int(layout[0][1][0]), TZ)
        end_h = datetime.fromtimestamp(int(layout[-1][1][-1]) + 60, TZ)
        plan.append(f'measurement_window: ["{start_h:%H:%M}", "{end_h:%H:%M}"]')
        plan.append("points:")
        for k in range(n):
            x = X0 + CELL * cols[k]
            y = Y0 + CELL * (nrows - rows_[k])
            extra = (f", displaced_from: {displaced[ids[k]]}"
                     if ids[k] in displaced else "")
            plan.append(f"  - {{point_id: {ids[k]}, lon: {x:.2f}, lat: {y:.2f}, "
                        f"environment: {env[k]}{extra}}}")
        (root / f"{cid}_plan.yaml").write_text("\n".join(plan) + "\n")

        if cid == "before":
            before_usable = set(targets)
        else:
            matched_points = sum(1 for pid in targets
                                 if displaced.get(pid, pid) in before_usable)
        campaigns[cid] = Campaign(cid, targets, n - len(settled), n, len(lines) - 1)

    stations = "\n".join(f"  {name}: {name}.csv" for name in shape["stations"])
    camp_text = "\n".join(
        f"  {cid}:\n    plan: {cid}_plan.yaml\n    mobile_log: {cid}_mobile.csv\n"
        f"    cloud_cover_oktas: {1 if cid == 'before' else 2}"
        for cid in campaigns)
    config = root / "run.yaml"
    config.write_text(
        f"stations:\n{stations}\ncampaigns:\n{camp_text}\n"
        "rasters:\n  albedo: albedo.asc\n  vegetation: vegetation.asc\n"
        f"  irradiance: irradiance.asc\nirradiance:\n  clear_sky_max_wm2: {CLEAR_SKY_MAX:g}\n"
        f"output_dir: out\nseed: {seed}\n")

    baci = step = None
    if "case" in kept:
        periods = [(_epoch(d, 0.0), _epoch(d, 24.0) - 1) for d in camp_days]
        baci = oracle.expected_baci_effect(kept["case"], control, periods)
        step = CASE_OFFSET_AFTER - CASE_OFFSET_BEFORE

    commands = [
        ("check_day", ["check-day", camp_days[0].isoformat()]),
        ("ucp", ["ucp"]),
        ("process", ["process", "before"]),
        ("process", ["process", "after"]),
        ("compare", ["compare", "before", "after"]),
    ]
    return Site(workload=workload, seed=seed, root=root, config=config,
                commands=commands, campaigns=campaigns,
                matched_points=matched_points, baci_effect=baci,
                case_step_c=step, dropped_rows=dropped, station_rows=rows,
                grids={**grids, "ucp": ucp})
