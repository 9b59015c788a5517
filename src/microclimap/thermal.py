"""Thermophysical primitives for pedestrian heat-stress assessment.

Covers the chain from raw instrument readings to a comparable heat-stress
number: saturation/partial vapor pressure, mean radiant temperature from a
black-globe thermometer, the UTCI equivalent temperature (operational
polynomial approximation), its assessment scale, and the offset of a
measured point against a shaded/sheltered virtual reference.

All functions are pure; identical inputs give bit-identical outputs.
`vapor_pressure`, `mrt_from_globe`, `wind_to_10m` and `utci_values` take
Python floats or equally shaped numpy arrays through one implementation;
float inputs keep the scalar `math` path, so their results do not depend
on numpy's vectorised kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._utci_coeffs import UTCI_POLYNOMIAL_TERMS
from .errors import DomainError, ValidityError

# Magnus saturation vapor pressure over water, result in hPa
MAGNUS_ES0 = 6.1078
MAGNUS_A = 17.27
MAGNUS_B = 237.3  # degC

# Validity bounds of the UTCI polynomial approximation
UTCI_T_AIR_MIN = -50.0
UTCI_T_AIR_MAX = 50.0
UTCI_WIND_MIN = 0.5   # m/s at 10 m; lower values are clamped up
UTCI_WIND_MAX = 17.0  # m/s at 10 m; higher values are an error
UTCI_DTR_MIN = -30.0  # t_mrt - t_air, degC
UTCI_DTR_MAX = 70.0
UTCI_VP_MAX = 50.0    # hPa

# Convective coefficient of the 150 mm standard globe (ASHRAE form)
ASHRAE_GLOBE_COEFF = 2.47e8
# Forced-convection coefficient of the general globe (ISO 7726 form)
ISO7726_GLOBE_COEFF = 1.1e8


class GlobeFormula(Enum):
    """Which globe-to-MRT conversion to apply."""

    ASHRAE_STANDARD_GLOBE = "ashrae_standard_globe"
    ISO7726_FORCED = "iso7726_forced"


class HeatStressCategory(Enum):
    """Ten-class UTCI assessment scale."""

    EXTREME_COLD_STRESS = "extreme cold stress"
    VERY_STRONG_COLD_STRESS = "very strong cold stress"
    STRONG_COLD_STRESS = "strong cold stress"
    MODERATE_COLD_STRESS = "moderate cold stress"
    SLIGHT_COLD_STRESS = "slight cold stress"
    NO_THERMAL_STRESS = "no thermal stress"
    MODERATE_HEAT_STRESS = "moderate heat stress"
    STRONG_HEAT_STRESS = "strong heat stress"
    VERY_STRONG_HEAT_STRESS = "very strong heat stress"
    EXTREME_HEAT_STRESS = "extreme heat stress"


# Lower bounds of each class; intervals are half-open [lower, upper)
_STRESS_SCALE = (
    (46.0, HeatStressCategory.EXTREME_HEAT_STRESS),
    (38.0, HeatStressCategory.VERY_STRONG_HEAT_STRESS),
    (32.0, HeatStressCategory.STRONG_HEAT_STRESS),
    (26.0, HeatStressCategory.MODERATE_HEAT_STRESS),
    (9.0, HeatStressCategory.NO_THERMAL_STRESS),
    (0.0, HeatStressCategory.SLIGHT_COLD_STRESS),
    (-13.0, HeatStressCategory.MODERATE_COLD_STRESS),
    (-27.0, HeatStressCategory.STRONG_COLD_STRESS),
    (-40.0, HeatStressCategory.VERY_STRONG_COLD_STRESS),
)


@dataclass(frozen=True)
class GlobeSpec:
    """Black-globe sensor geometry and conversion variant."""

    diameter: float = 0.15       # m
    emissivity: float = 0.95     # dimensionless
    formula_variant: GlobeFormula = GlobeFormula.ISO7726_FORCED

    def __post_init__(self):
        if not (self.diameter > 0):
            raise DomainError(f"globe diameter must be > 0, got {self.diameter}")
        if not (0 < self.emissivity <= 1):
            raise DomainError(f"globe emissivity must be in (0, 1], got {self.emissivity}")


@dataclass(frozen=True)
class UtciInput:
    """Drivers of the UTCI polynomial, already at reference heights."""

    t_air: float          # degC
    t_mrt: float          # degC
    wind_10m: float       # m/s
    vapor_pressure: float  # hPa


@dataclass(frozen=True)
class ReferenceConditions:
    """Shaded/sheltered virtual reference built from control-station readings.

    MRT is pinned to the control air temperature and wind to 0.5 m/s so the
    reference behaves like a calm courtyard, independent of the control
    station's actual exposure.
    """

    t_air: float   # degC, control station at match time
    rh: float      # %, control station at match time
    matched_at: int | None = None  # epoch microseconds of the control sample

    def to_utci_input(self) -> UtciInput:
        return UtciInput(
            t_air=self.t_air,
            t_mrt=self.t_air,
            wind_10m=0.5,
            vapor_pressure=vapor_pressure(self.t_air, self.rh),
        )


@dataclass(frozen=True)
class UtciOffset:
    """Signed departure of a measured point's UTCI from the reference UTCI."""

    utci_mobile: float                 # degC
    utci_ref: float                    # degC
    point_id: str = ""
    control_matched_at: int | None = None  # epoch microseconds, as `matched_at`

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"UTCI offset must be finite, got {self.value}")

    @property
    def value(self) -> float:
        """The offset in degC: utci_mobile - utci_ref."""
        return self.utci_mobile - self.utci_ref


def _require(ok, error, message, *values):
    """Raise `error` unless `ok` holds, naming the first failing element.

    `ok` is a bool for scalar inputs or a boolean array for array inputs;
    `message` is a format string filled with `values`, each taken at the
    first failing element when it is an array. NaN fails every check.
    """
    if isinstance(ok, np.ndarray):
        bad = np.flatnonzero(~ok)
        if not bad.size:
            return
        values = [v[bad[0]] if isinstance(v, np.ndarray) else v for v in values]
    elif ok:
        return
    raise error(message.format(*values))


def _finite(x):
    return np.isfinite(x) if isinstance(x, np.ndarray) else math.isfinite(x)


def vapor_pressure(t_air, rh):
    """Partial water vapor pressure (hPa) from air temperature and humidity.

    Uses the Magnus saturation form es(T) = 6.1078 * exp(17.27*T / (T+237.3)).
    Accepts floats or equally shaped arrays.
    """
    _require(_finite(t_air) & _finite(rh), DomainError,
             "non-finite input: t_air={}, rh={}", t_air, rh)
    _require((0 <= rh) & (rh <= 100), DomainError,
             "relative humidity must be in [0, 100], got {}", rh)
    _require((-60 < t_air) & (t_air < 60), DomainError,
             "air temperature must be in (-60, 60) degC, got {}", t_air)
    exp = np.exp if isinstance(t_air, np.ndarray) else math.exp
    es = MAGNUS_ES0 * exp(MAGNUS_A * t_air / (t_air + MAGNUS_B))
    return rh / 100.0 * es


def mrt_from_globe(t_globe, t_air, wind, spec: GlobeSpec = GlobeSpec()):
    """Mean radiant temperature (degC) from a black-globe reading.

    The ASHRAE variant assumes the 150 mm standard globe; the ISO 7726
    forced-convection variant uses the sensor diameter and emissivity from
    `spec`. `wind` is the speed at the globe's height. Accepts floats or
    equally shaped arrays.
    """
    _require(wind >= 0, DomainError, "wind speed must be >= 0, got {}", wind)
    if spec.formula_variant is GlobeFormula.ASHRAE_STANDARD_GLOBE:
        h = ASHRAE_GLOBE_COEFF * wind ** 0.5
    else:
        h = ISO7726_GLOBE_COEFF * wind ** 0.6 / (spec.emissivity * spec.diameter ** 0.4)
    radicand = (t_globe + 273.0) ** 4 + h * (t_globe - t_air)
    _require(radicand >= 0, DomainError,
             "no physical MRT for t_globe={}, t_air={}, wind={}: "
             "radiative balance is negative", t_globe, t_air, wind)
    return radicand ** 0.25 - 273.0


def clamp_wind(wind_10m):
    """Apply the polynomial's wind convention: clamp low speeds up to 0.5 m/s."""
    _require(wind_10m <= UTCI_WIND_MAX, ValidityError,
             f"wind_10m={{}} m/s exceeds the {UTCI_WIND_MAX} m/s validity bound",
             wind_10m)
    _require(wind_10m >= 0, DomainError, "wind speed must be >= 0, got {}", wind_10m)
    if isinstance(wind_10m, np.ndarray):
        return np.maximum(wind_10m, UTCI_WIND_MIN)
    return max(wind_10m, UTCI_WIND_MIN)


# Each table term as its coefficient and four indices into the powers list
# of `_utci_polynomial`: first index 0, which holds the float 1.0, once for
# each driver the term raises to the power 0, then the powers it uses, in
# table order. x ** 0 is exactly 1, so this changes no bit; with the 1.0
# factors first, an array evaluation multiplies arrays only for the powers
# a term uses (504 of the 840 factors).
_TERM_FACTORS = tuple(
    (coeff, *[0] * powers.count(0), *[6 * d + n for d, n in enumerate(powers) if n])
    for *powers, coeff in UTCI_POLYNOMIAL_TERMS)


def _utci_polynomial(ta, vel, d_tr, pa):
    """t_air plus every table term, over powers 0..6 of each driver.

    The powers are computed once as ``x ** n``, so for Python floats every
    term is bit-identical to evaluating the powers inside the term; for
    arrays the loop runs element-wise.
    """
    p = [1.0, *(x ** n for x in (ta, vel, d_tr, pa) for n in range(1, 7))]
    result = ta
    for coeff, i, j, k, l in _TERM_FACTORS:
        result = result + coeff * p[i] * p[j] * p[k] * p[l]
    return result


def utci_values(t_air, t_mrt, wind_10m, vp):
    """UTCI (degC) of floats or of equally shaped arrays, element-wise.

    `vp` is the vapor pressure in hPa. Wind below 0.5 m/s is clamped up to
    0.5; every other validity bound is enforced on every element as an
    error naming the violated bound.
    """
    _require((UTCI_T_AIR_MIN <= t_air) & (t_air <= UTCI_T_AIR_MAX), ValidityError,
             f"t_air={{}} outside validity range [{UTCI_T_AIR_MIN}, {UTCI_T_AIR_MAX}] degC",
             t_air)
    vel = clamp_wind(wind_10m)
    d_tr = t_mrt - t_air
    _require((UTCI_DTR_MIN <= d_tr) & (d_tr <= UTCI_DTR_MAX), ValidityError,
             "t_mrt - t_air = {} outside validity range "
             f"[{UTCI_DTR_MIN}, {UTCI_DTR_MAX}] degC", d_tr)
    _require((0 <= vp) & (vp <= UTCI_VP_MAX), ValidityError,
             f"vapor_pressure={{}} outside validity range [0, {UTCI_VP_MAX}] hPa", vp)
    return _utci_polynomial(t_air, vel, d_tr, vp / 10.0)  # vapor pressure in kPa


def utci(inp: UtciInput) -> float:
    """UTCI equivalent temperature (degC) via the operational polynomial.

    Wind below 0.5 m/s is clamped up to 0.5; every other validity bound is
    enforced as an error naming the violated bound.
    """
    return utci_values(inp.t_air, inp.t_mrt, inp.wind_10m, inp.vapor_pressure)


def utci_offset(mobile: UtciInput, ref: ReferenceConditions,
                point_id: str = "") -> UtciOffset:
    """Difference between the UTCI at a measured point and the reference UTCI.

    Positive values mean more heat stress at the point than in a shaded,
    sheltered location under the same weather.
    """
    try:
        utci_mobile = utci(mobile)
    except (ValidityError, DomainError) as exc:
        raise type(exc)(f"mobile side: {exc}") from exc
    try:
        utci_ref = utci(ref.to_utci_input())
    except (ValidityError, DomainError) as exc:
        raise type(exc)(f"reference side: {exc}") from exc
    return UtciOffset(
        utci_mobile=utci_mobile,
        utci_ref=utci_ref,
        point_id=point_id,
        control_matched_at=ref.matched_at,
    )


def heat_stress_category(utci_value: float) -> HeatStressCategory:
    """Map a UTCI value onto the ten-class assessment scale.

    Class boundaries are half-open [lower, upper), so e.g. 32.0 falls in
    strong heat stress.
    """
    if not math.isfinite(utci_value):
        raise DomainError(f"UTCI value must be finite, got {utci_value}")
    for lower, category in _STRESS_SCALE:
        if utci_value >= lower:
            return category
    return HeatStressCategory.EXTREME_COLD_STRESS


#: Aerodynamic roughness length (m) when the config gives none.
DEFAULT_Z0_M = 0.01


def wind_to_10m(wind, height: float, z0: float = DEFAULT_Z0_M):
    """Convert a wind speed to 10 m height with a neutral log profile.

    z0 is the aerodynamic roughness length in meters. Accepts a float or an
    array of speeds.
    """
    _require(wind >= 0, DomainError, "wind speed must be >= 0, got {}", wind)
    if not (0 < z0 < height):
        raise DomainError(f"need 0 < z0 < height, got z0={z0}, height={height}")
    if height == 10.0:
        return wind
    return wind * math.log(10.0 / z0) / math.log(height / z0)
