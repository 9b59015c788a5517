"""Independent reference physics for building inputs and checking outputs.

Nothing here imports the package under test. UTCI comes from the literal
polynomial transliteration in ``tests/utci_reference.py``; vapor pressure,
globe-to-MRT conversion and the wind profile are re-derived from their
published formulas. Every function works elementwise on numpy arrays.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

# Magnus form, hPa
_ES0, _A, _B = 6.1078, 17.27, 237.3
# ISO 7726 forced-convection globe coefficient
_ISO_GLOBE_COEFF = 1.1e8
GLOBE_DIAMETER = 0.15
GLOBE_EMISSIVITY = 0.95
Z0 = 0.01
STATION_WIND_HEIGHT = 4.0
MOBILE_WIND_HEIGHT = 1.5
REF_WIND_10M = 0.5


def _load_reference_polynomial():
    path = REPO_ROOT / "tests" / "utci_reference.py"
    spec = importlib.util.spec_from_file_location("_bench_utci_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.utci_reference


utci_reference = _load_reference_polynomial()


def vapor_pressure(t_air, rh):
    """Partial vapor pressure (hPa)."""
    return np.asarray(rh) / 100.0 * _ES0 * np.exp(_A * np.asarray(t_air)
                                                   / (np.asarray(t_air) + _B))


def _globe_h(wind):
    return (_ISO_GLOBE_COEFF * np.asarray(wind, dtype=float) ** 0.6
            / (GLOBE_EMISSIVITY * GLOBE_DIAMETER ** 0.4))


def mrt_from_globe(t_globe, t_air, wind):
    """ISO 7726 forced-convection mean radiant temperature (degC)."""
    t_globe = np.asarray(t_globe, dtype=float)
    radicand = (t_globe + 273.0) ** 4 + _globe_h(wind) * (t_globe - np.asarray(t_air))
    return radicand ** 0.25 - 273.0


def wind_to_10m(wind, height):
    """Neutral log-profile wind at 10 m."""
    return np.asarray(wind, dtype=float) * np.log(10.0 / Z0) / np.log(height / Z0)


def utci(t_air, t_mrt, wind_10m, vp_hpa):
    """UTCI (degC) with the polynomial's low-wind clamp."""
    t_air = np.asarray(t_air, dtype=float)
    vel = np.maximum(np.asarray(wind_10m, dtype=float), 0.5)
    return utci_reference(t_air, vel, np.asarray(t_mrt) - t_air,
                          np.asarray(vp_hpa) / 10.0)


def bisect(f, lo, hi, iterations=100):
    """Vectorised bisection for increasing f; lo/hi must bracket the roots."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    if np.any(f(lo) > 0) or np.any(f(hi) < 0):
        raise ValueError("bisection bracket does not contain every root")
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        below = f(mid) < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return (lo + hi) / 2.0


def reference_utci(t_air, rh):
    """UTCI of the shaded, sheltered reference: MRT = air, 0.5 m/s wind."""
    return utci(t_air, t_air, REF_WIND_10M, vapor_pressure(t_air, rh))


def globe_for_offset(offset, t_air, rh, wind, ref_t_air, ref_rh):
    """Mobile globe readings whose stabilized UTCI offset equals ``offset``.

    Inverts the reference polynomial for MRT, then the ISO 7726 relation for
    the globe temperature. ``wind`` is measured at the mobile 1.5 m height.
    """
    target = reference_utci(ref_t_air, ref_rh) + offset
    vel = wind_to_10m(wind, MOBILE_WIND_HEIGHT)
    vp = vapor_pressure(t_air, rh)
    t_mrt = bisect(lambda m: utci(t_air, m, vel, vp) - target,
                   t_air - 29.9, t_air + 69.9)
    lo = np.minimum(t_air, t_mrt) - 5.0
    hi = np.maximum(t_air, t_mrt) + 5.0
    return bisect(lambda g: mrt_from_globe(g, t_air, wind) - t_mrt, lo, hi)


def station_utci(t_air, rh, t_globe, wind):
    """Station-level UTCI: globe MRT where a globe reading exists, else MRT = air."""
    t_globe = np.asarray(t_globe, dtype=float)
    has_globe = ~np.isnan(t_globe)
    t_mrt = np.where(has_globe,
                     mrt_from_globe(np.where(has_globe, t_globe, t_air), t_air, wind),
                     t_air)
    return utci(t_air, t_mrt, wind_to_10m(wind, STATION_WIND_HEIGHT),
                vapor_pressure(t_air, rh))


def nearest_index(times, when, tolerance_s=60.0):
    """Index of the nearest sample to each ``when`` (ties go to the earlier one).

    Returns -1 where no sample lies within the tolerance.
    """
    times = np.asarray(times)
    i = np.searchsorted(times, when, side="left")
    prev = np.clip(i - 1, 0, len(times) - 1)
    nxt = np.clip(i, 0, len(times) - 1)
    d_prev = np.where(i > 0, np.abs(when - times[prev]), np.inf)
    d_next = np.where(i < len(times), np.abs(times[nxt] - when), np.inf)
    best = np.where(d_prev <= d_next, prev, nxt)
    dist = np.minimum(d_prev, d_next)
    return np.where(dist <= tolerance_s, best, -1)


def expected_baci_effect(case, control, periods):
    """Mean after-minus-before case-minus-control station UTCI offset.

    ``case``/``control`` map column names to arrays of the rows the station
    parser keeps (``time`` in epoch seconds, NaN for an empty globe cell);
    ``periods`` is ``[(before_lo, before_hi), (after_lo, after_hi)]`` in
    epoch seconds, inclusive.
    """
    idx = nearest_index(control["time"], case["time"])
    ok = idx >= 0
    j = idx[ok]
    u_case = station_utci(case["t_air"][ok], case["rh"][ok], case["t_globe"][ok],
                          case["wind"][ok])
    u_ctrl = station_utci(control["t_air"][j], control["rh"][j],
                          control["t_globe"][j], control["wind"][j])
    diff = u_case - u_ctrl
    t = case["time"][ok]
    means = [diff[(t >= lo) & (t <= hi)].mean() for lo, hi in periods]
    return float(means[1] - means[0])


def expected_ucp(albedo, vegetation, irradiance, clear_sky_max, nodata):
    """Product-form UCP with nodata propagation."""
    mask = (albedo != nodata) & (vegetation != nodata) & (irradiance != nodata)
    s = np.clip(irradiance / clear_sky_max, 0.0, 1.0)
    ucp = np.clip(s * (1.0 - albedo) * (1.0 - vegetation), 0.0, 1.0)
    return np.where(mask, ucp, nodata)
