"""README's config table against the defaults `load_config` gives."""

import re
from pathlib import Path

import pytest
import yaml

from microclimap.config import load_config
from microclimap.errors import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"

#: Where a loaded config holds the value of each README row checked here.
LOADED = {
    "stations.<name>.sensor_heights": lambda cfg: {"wind": cfg.station("control").wind_height},
    "thresholds.day_t_max_above_c": lambda cfg: cfg.day_thresholds.t_max_above,
    "thresholds.day_t_min_above_c": lambda cfg: cfg.day_thresholds.t_min_above,
    "thresholds.day_max_cloud_oktas": lambda cfg: cfg.day_thresholds.max_cloud_oktas,
    "thresholds.drift_amplitude_short_c": lambda cfg: cfg.drift_thresholds.short_window_amplitude,
    "thresholds.drift_amplitude_long_c": lambda cfg: cfg.drift_thresholds.long_window_amplitude,
    "thresholds.drift_short_window_hours": lambda cfg: cfg.drift_thresholds.short_window_hours,
    "thresholds.drift_smoothing_seconds": lambda cfg: cfg.drift_thresholds.smoothing_seconds,
    "thresholds.stabilization_delta_c": lambda cfg: cfg.stabilization_delta_c,
    "globe.diameter_m": lambda cfg: cfg.globe.diameter,
    "globe.emissivity": lambda cfg: cfg.globe.emissivity,
    "globe.variant": lambda cfg: cfg.globe.formula_variant.value,
    "wind_profile.z0_m": lambda cfg: cfg.z0,
    "ucp_formula": lambda cfg: cfg.ucp_formula,
    "baci_parameter": lambda cfg: cfg.baci_parameter,
    "output_dir": lambda cfg: cfg.output_dir.name,
    "seed": lambda cfg: cfg.seed,
}


def documented_defaults() -> dict:
    """Each row of README's config table whose default is a number, a word in
    backticks or a mapping of numbers, as key -> that default read as YAML."""
    table = README.read_text().split("| key | default | rule |\n|---|---|---|\n", 1)[1]
    defaults = {}
    for key, cell in re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", table, re.MULTILINE):
        value = yaml.safe_load(cell.strip("`"))
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        word = re.fullmatch(r"`\w+`", cell) is not None
        numbers = isinstance(value, dict) and value and all(
            isinstance(v, (int, float)) for v in value.values())
        if number or word or numbers:
            defaults[key] = value
    return defaults


def test_every_such_row_is_checked():
    assert set(documented_defaults()) == set(LOADED)


@pytest.mark.parametrize("key", LOADED)
def test_absent_key_takes_the_documented_default(tmp_path, key):
    (tmp_path / "control.csv").write_text("")
    (tmp_path / "run.yaml").write_text("stations:\n  control: control.csv\n")
    cfg = load_config(tmp_path / "run.yaml")
    assert LOADED[key](cfg) == documented_defaults()[key]


@pytest.mark.parametrize("sections, phrase", [
    ("thresholds: {day_t_max_above_c: x, drift_amplitude_short_c: -1}",
     "threshold day_t_max_above_c must be finite"),
    ("globe: {emissivity: 1.5, variant: bogus}", "globe variant must be one of"),
    ("thresholds: {stabilization_delta_c: 0}\nwind_profile: {z0_m: 2.0}",
     "wind_profile z0_m must be below"),
])
def test_first_bad_value_in_check_order_is_reported(tmp_path, sections, phrase):
    (tmp_path / "control.csv").write_text("")
    (tmp_path / "run.yaml").write_text(f"stations:\n  control: control.csv\n{sections}\n")
    with pytest.raises(ConfigError, match=phrase):
        load_config(tmp_path / "run.yaml")
