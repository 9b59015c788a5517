"""Shared builders for synthetic stations, mobile logs, and oracle inversion."""

from __future__ import annotations

import math
import os
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
from hypothesis import settings

import microclimap
from microclimap.campaign import MobileLog
from microclimap.series import FIELDS, StationSeries, epoch_us

UTC = timezone.utc
T0 = datetime(2019, 7, 25, 8, 0, tzinfo=UTC)


def src_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = Path(microclimap.__file__).parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))

# CI runs the property tests that set no example count of their own, the
# parser and kernel parity tests among them, with `--hypothesis-profile=ci`,
# and the grid codec's parity tests (`-k codec`) again with
# `--hypothesis-profile=codec`.
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.register_profile("codec", max_examples=10_000, deadline=None)


def make_series(values, start=T0, cadence_s=60.0, station_id="case",
                rh=50.0, t_globe=None, wind=None,
                net_radiation=None):
    """Station series from a list of air temperatures (other fields constant).

    `values` may also be a list of dicts overriding individual sample fields
    (None for a missing value).
    """
    times, rows = [], []
    for i, v in enumerate(values):
        fields = {"t_air": v} if not isinstance(v, dict) else dict(v)
        fields.setdefault("rh", rh)
        fields.setdefault("t_globe", t_globe)
        fields.setdefault("wind", wind)
        fields.setdefault("net_radiation", net_radiation)
        times.append(fields.pop("timestamp", start + timedelta(seconds=i * cadence_s)))
        rows.append([fields[name] for name in FIELDS])
    table = np.array(rows, dtype=float).reshape(len(rows), len(FIELDS))  # None -> NaN
    return StationSeries(station_id=station_id,
                         t_us=np.array([epoch_us(t) for t in times], dtype=np.int64),
                         columns={name: table[:, k] for k, name in enumerate(FIELDS)})


def make_mobile_log(point_blocks, start=T0, cadence_s=15.0):
    """Mobile log from [(point_id, n, fields[, block_start]), ...] blocks.

    Each block follows the one before it at the cadence, or begins at its
    own `block_start` when it gives one. `fields` maps sample fields to
    constants or callables of the sample index within the block (None for a
    missing value); rh defaults to 50.
    """
    times, point_ids, rows = [], [], []
    t = start
    for point_id, n, fields, *block_start in point_blocks:
        if block_start:
            (t,) = block_start
        for i in range(n):
            resolved = {"rh": 50.0, **{k: (v(i) if callable(v) else v)
                                       for k, v in fields.items()}}
            times.append(epoch_us(t))
            point_ids.append(point_id)
            rows.append([resolved.get(name) for name in FIELDS])
            t += timedelta(seconds=cadence_s)
    table = np.array(rows, dtype=float).reshape(len(rows), len(FIELDS))  # None -> NaN
    return MobileLog(np.array(times, dtype=np.int64), np.array(point_ids, dtype=object),
                     {name: table[:, k] for k, name in enumerate(FIELDS)})


def bisect_root(f, lo, hi, tol=1e-10, max_iter=200):
    """Plain bisection; f(lo) and f(hi) must bracket a root."""
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    assert flo * fhi < 0, f"no sign change on [{lo}, {hi}]"
    for _ in range(max_iter):
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0 or hi - lo < tol:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2


def invert_utci_for_mrt(target_utci, t_air, wind_10m, vp_hpa):
    """Find the MRT giving a target UTCI, via the independent reference poly."""
    from utci_reference import utci_reference

    def f(t_mrt):
        return utci_reference(t_air, max(wind_10m, 0.5), t_mrt - t_air,
                              vp_hpa / 10.0) - target_utci

    return bisect_root(f, t_air - 29.9, t_air + 69.9)


def invert_globe_for_mrt(t_mrt, t_air, wind, diameter=0.15, emissivity=0.95):
    """Find the globe reading whose ISO 7726 forced-convection MRT is t_mrt."""
    h = 1.1e8 * wind ** 0.6 / (emissivity * diameter ** 0.4)

    def f(t_globe):
        radicand = (t_globe + 273.0) ** 4 + h * (t_globe - t_air)
        if radicand < 0:
            return -1e9
        return radicand ** 0.25 - 273.0 - t_mrt

    return bisect_root(f, min(t_air, t_mrt) - 5.0, max(t_air, t_mrt) + 5.0)


# Mobile wind speed at 1.5 m whose 10 m log-profile equivalent is 0.5 m/s,
# i.e. exactly the sheltered reference wind.
V15_FOR_HALF = 0.5 * math.log(150) / math.log(1000)


def globe_for_offset(delta, t_air=30.0, rh=40.0):
    """Globe reading whose stabilized UTCI offset against constant reference
    conditions equals `delta`, built by inverting the reference polynomial."""
    from microclimap.thermal import vapor_pressure
    from utci_reference import utci_reference

    vp = vapor_pressure(t_air, rh)
    ref_u = utci_reference(t_air, 0.5, 0.0, vp / 10.0)
    if delta == 0.0:
        return t_air
    t_mrt = invert_utci_for_mrt(ref_u + delta, t_air, 0.5, vp)
    return invert_globe_for_mrt(t_mrt, t_air, V15_FOR_HALF)
