"""microclimap: pedestrian heat-stress mapping from microclimate surveys.

Turns fixed-station logs and mobile stop-and-go traverses into spatially
mapped UTCI offsets, with radiative-day selection, drift validation, and
an Urban Cooling Potential raster comparison.
"""

from .thermal import (GlobeFormula, GlobeSpec, HeatStressCategory, ReferenceConditions,
                      UtciInput, UtciOffset, heat_stress_category, mrt_from_globe, utci,
                      utci_offset, vapor_pressure, wind_to_10m)

__all__ = [
    "GlobeFormula", "GlobeSpec", "HeatStressCategory", "ReferenceConditions",
    "UtciInput", "UtciOffset", "heat_stress_category", "mrt_from_globe", "utci",
    "utci_offset", "vapor_pressure", "wind_to_10m",
]

__version__ = "0.1.0"
