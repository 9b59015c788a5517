import csv
import functools
import gc
import hashlib
import importlib.util
import inspect
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
import traceback
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import UTC, V15_FOR_HALF, globe_for_offset, src_env

from microclimap import config as config_mod
from microclimap import raster as raster_mod
from microclimap.cli import main
from microclimap.errors import ConfigError

BEFORE_DAY = date(2019, 7, 25)
AFTER_DAY = date(2020, 7, 22)
BEFORE_TARGETS = {"P1": 5.0, "P2": 1.0, "P3": 0.0}
AFTER_TARGETS = {"P1": 4.0, "P2": 0.5, "P3": 0.0}

PLAN_TZ = timezone(timedelta(hours=2))  # the zone of the fixture's plans
STATION_HEADER = "timestamp,t_air,rh,t_globe,wind,net_radiation\n"
MOBILE_HEADER = "timestamp,point_id,t_air,rh,t_globe,wind\n"


def write_station(path, t_air_for, whole_local_days=False):
    """Fixed-station CSV covering 09:00-15:00 UTC on both campaign days, or
    every minute of both campaign days in local time (+02:00)."""
    rows = [STATION_HEADER]
    for day in (BEFORE_DAY, AFTER_DAY):
        if whole_local_days:
            start, minutes = datetime.combine(day, time(0, 0), PLAN_TZ).astimezone(UTC), 1440
        else:
            start, minutes = datetime.combine(day, time(9, 0), UTC), 361
        for i in range(minutes):
            t = start + timedelta(minutes=i)
            rn = 650.0 if 10 <= t.hour < 12 else 300.0
            rows.append(f"{t.isoformat()},{t_air_for(day, t)!r},40.0,,1.0,{rn!r}\n")
    path.write_text("".join(rows))


def write_mobile(path, day, targets):
    rows = [MOBILE_HEADER]
    t = datetime.combine(day, time(10, 10), UTC)  # 12:10 local
    for pid, delta in targets.items():
        t_globe = globe_for_offset(delta)
        for _ in range(49):  # 12 min dwell
            rows.append(f"{t.isoformat()},{pid},30.0,40.0,"
                        f"{t_globe!r},{V15_FOR_HALF!r}\n")
            t += timedelta(seconds=15)
    path.write_text("".join(rows))


def write_plan(path, campaign_id, phase, day, onsite="onsite", tz="+02:00"):
    path.write_text(textwrap.dedent(f"""\
        campaign_id: {campaign_id}
        phase: {phase}
        date: {day.isoformat()}
        timezone: "{tz}"
        control_station: control
        onsite_station: {onsite}
        points:
          - {{point_id: P1, lon: 0.5, lat: 0.5, environment: full_sun}}
          - {{point_id: P2, lon: 1.5, lat: 0.5, environment: shade}}
          - {{point_id: P3, lon: 0.5, lat: 1.5, environment: vegetation_proximity}}
        """))


def write_grid(path, rows, nodata=-9999.0):
    lines = [f"ncols {len(rows[0])}", f"nrows {len(rows)}",
             "xllcorner 0.0", "yllcorner 0.0", "cellsize 1.0",
             f"NODATA_value {nodata}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def site(tmp_path):
    """A complete synthetic study site in a temporary directory."""
    return build_site(tmp_path)


def build_site(tmp_path):
    """Write a complete synthetic study site into the directory `tmp_path`."""
    write_station(tmp_path / "control.csv", lambda day, t: 30.0)
    write_station(tmp_path / "onsite.csv", lambda day, t: 30.0)
    # on-site logger with a strong warm trend: +3 degC per hour
    write_station(tmp_path / "onsite_bad.csv",
                  lambda day, t: 30.0 + 3.0 * (t.hour - 9 + t.minute / 60))
    # treated site runs warmer before the renovation, cooler after
    write_station(tmp_path / "case.csv",
                  lambda day, t: 30.8 if day == BEFORE_DAY else 29.8)

    write_mobile(tmp_path / "before_mobile.csv", BEFORE_DAY, BEFORE_TARGETS)
    write_mobile(tmp_path / "after_mobile.csv", AFTER_DAY, AFTER_TARGETS)
    write_plan(tmp_path / "before_plan.yaml", "before", "before", BEFORE_DAY)
    write_plan(tmp_path / "after_plan.yaml", "after", "after", AFTER_DAY)
    write_plan(tmp_path / "drift_plan.yaml", "driftcase", "before", BEFORE_DAY,
               onsite="onsite_bad")

    write_grid(tmp_path / "albedo.asc", [[0.1, 0.3], [0.2, 0.4]])
    write_grid(tmp_path / "veg.asc", [[0.6, 0.2], [0.1, 0.0]])
    write_grid(tmp_path / "irr.asc", [[400.0, 900.0], [800.0, 1000.0]])

    (tmp_path / "run.yaml").write_text(textwrap.dedent("""\
        stations:
          control: control.csv
          case: case.csv
          onsite: onsite.csv
          onsite_bad: onsite_bad.csv
        campaigns:
          before:
            plan: before_plan.yaml
            mobile_log: before_mobile.csv
            cloud_cover_oktas: 1
          after:
            plan: after_plan.yaml
            mobile_log: after_mobile.csv
            cloud_cover_oktas: 2
          cloudy:
            plan: before_plan.yaml
            mobile_log: before_mobile.csv
            cloud_cover_oktas: 6
          driftcase:
            plan: drift_plan.yaml
            mobile_log: before_mobile.csv
            cloud_cover_oktas: 1
        rasters:
          albedo: albedo.asc
          vegetation: veg.asc
          irradiance: irr.asc
        irradiance:
          clear_sky_max_wm2: 1000
        output_dir: out
        seed: 3
        """))
    return tmp_path


def run(site, *args):
    return CliRunner().invoke(main, ["-c", str(site / "run.yaml"), *args])


class TestCheckDay:
    def test_qualifying_day_exits_zero(self, site):
        result = run(site, "check-day", BEFORE_DAY.isoformat())
        assert result.exit_code == 0, result.output
        assert "verdict: accepted" in result.output
        assert result.output.count("[pass]") == 4

    def test_cloud_override_rejects(self, site):
        result = run(site, "check-day", BEFORE_DAY.isoformat(), "--oktas", "6")
        assert result.exit_code == 1
        assert "[FAIL] cloud cover" in result.output
        assert "verdict: rejected" in result.output

    def test_day_without_data_exits_two(self, site):
        result = run(site, "check-day", "2019-06-01", "--oktas", "1")
        assert result.exit_code == 2

    def test_day_without_campaign_or_oktas_exits_two(self, site):
        result = run(site, "check-day", "2019-06-01")
        assert result.exit_code == 2
        assert "--oktas" in result.output


def drop_wind_column(path):
    """Rewrite a station CSV without its wind column."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    wind = rows[0].index("wind")
    path.write_text("".join(",".join(r[:wind] + r[wind + 1:]) + "\n" for r in rows))


NO_WIND_REASON = "stability class unknown: no wind readings between 12:00 and 16:00 local"


class TestDayWithoutWind:
    """A control without afternoon wind readings leaves the stability class unknown."""

    def test_check_day_rejects_with_the_reason(self, site):
        drop_wind_column(site / "control.csv")
        result = run(site, "check-day", BEFORE_DAY.isoformat())
        assert result.exit_code == 1, result.output
        assert "stability class=n/a, mean daytime wind=n/a\n" in result.stdout
        assert f"  [FAIL] stability class in {{A, A-B}}: {NO_WIND_REASON}\n" in result.stdout
        assert result.stdout.count("[pass]") == 3
        assert result.stdout.endswith("verdict: rejected\n")

    def test_process_exits_one_unless_forced(self, site):
        drop_wind_column(site / "control.csv")
        result = run(site, "process", "before")
        assert result.exit_code == 1, result.output
        assert result.stderr == ("campaign day rejected:\n"
                                 f"  - {NO_WIND_REASON}\n"
                                 "use --force-day to process anyway\n")
        assert not (site / "out" / "before").exists()
        forced = run(site, "process", "before", "--force-day")
        assert forced.exit_code == 0, forced.output
        report = (site / "out" / "before" / "report.txt").read_text()
        assert f"day filter: REJECTED (override)\n  - {NO_WIND_REASON}\n" in report


class TestProcess:
    def test_campaign_outputs_written(self, site):
        result = run(site, "process", "before")
        assert result.exit_code == 0, result.output
        out = site / "out" / "before"
        assert (out / "points.csv").exists()
        assert (out / "points.geojson").exists()
        assert (out / "report.txt").exists()

    def test_recovered_offsets_match_targets(self, site):
        run(site, "process", "before")
        from microclimap.cli import read_point_results_csv
        rows = read_point_results_csv(site / "out" / "before" / "points.csv")
        assert [r["point_id"] for r in rows] == ["P1", "P2", "P3"]
        for row in rows:
            assert row["offset_c"] == pytest.approx(
                BEFORE_TARGETS[row["point_id"]], abs=1e-3)

    def test_unknown_campaign_exits_two(self, site):
        result = run(site, "process", "nope")
        assert result.exit_code == 2

    def test_rejected_day_exits_one_unless_forced(self, site):
        result = run(site, "process", "cloudy")
        assert result.exit_code == 1
        assert "cloud cover" in result.output
        forced = run(site, "process", "cloudy", "--force-day")
        assert forced.exit_code == 0, forced.output
        report = (site / "out" / "cloudy" / "report.txt").read_text()
        assert "override" in report

    def test_configured_day_thresholds_reject_the_day(self, site):
        config = site / "run.yaml"
        config.write_text(config.read_text() + "thresholds: {day_t_max_above_c: 40}\n")
        result = run(site, "process", "before")
        assert result.exit_code == 1
        assert "campaign day rejected" in result.output
        forced = run(site, "process", "before", "--force-day")
        assert forced.exit_code == 0, forced.output
        report = (site / "out" / "before" / "report.txt").read_text()
        assert "day filter: REJECTED (override)" in report

    def test_drifting_onsite_station_exits_three(self, site):
        result = run(site, "process", "driftcase")
        assert result.exit_code == 3
        assert "drift" in result.output
        allowed = run(site, "process", "driftcase", "--allow-drift")
        assert allowed.exit_code == 0, allowed.output

    def test_outputs_byte_deterministic(self, site):
        run(site, "process", "before")
        out = site / "out" / "before"
        first = {name: (out / name).read_bytes()
                 for name in ("points.csv", "points.geojson", "report.txt")}
        run(site, "process", "before")
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob


class TestUcp:
    def test_raster_written(self, site):
        result = run(site, "ucp")
        assert result.exit_code == 0, result.output
        from microclimap.raster import Semantic, parse_ascii_grid
        grid = parse_ascii_grid(site / "out" / "ucp.asc", Semantic.UCP)
        # bottom-left cell: S=0.8, albedo=0.2, vegetation=0.1
        assert grid.values[1, 0] == pytest.approx(0.8 * 0.8 * 0.9, abs=1e-12)

    def test_normalized_irradiance_grid(self, site):
        """Without an `irradiance:` section the grid is read as normalized already."""
        assert run(site, "ucp").exit_code == 0
        from_raw = (site / "out" / "ucp.asc").read_bytes()
        write_grid(site / "irr.asc", [[0.4, 0.9], [0.8, 1.0]])  # the raw grid over 1000
        config = site / "run.yaml"
        config.write_text(config.read_text().replace("irradiance:\n  clear_sky_max_wm2: 1000\n",
                                                     ""))
        assert run(site, "ucp").exit_code == 0
        assert (site / "out" / "ucp.asc").read_bytes() == from_raw

    def test_processed_points_pick_up_ucp(self, site):
        run(site, "ucp")
        run(site, "process", "before")
        geojson = (site / "out" / "before" / "points.geojson").read_text()
        assert '"ucp":' in geojson

    def test_missing_layers_exit_two(self, site, tmp_path):
        bare = site / "bare.yaml"
        bare.write_text("stations:\n  control: control.csv\n")
        result = CliRunner().invoke(main, ["-c", str(bare), "ucp"])
        assert result.exit_code == 2
        assert "missing raster" in result.output


class TestCompare:
    def test_full_comparison(self, site):
        assert run(site, "process", "before").exit_code == 0
        assert run(site, "process", "after").exit_code == 0
        assert run(site, "ucp").exit_code == 0
        result = run(site, "compare", "before", "after")
        assert result.exit_code == 0, result.output
        out = site / "out" / "compare_before_after"
        assert (out / "point_deltas.csv").exists()
        assert (out / "scatter.csv").exists()
        assert (out / "scatter.svg").exists()
        report = (out / "report.txt").read_text()
        assert "matched points: 3" in report
        assert "BACI effect" in report
        assert "spearman_rho" in report

    def test_correlation_needs_three_pairs(self, site):
        # only P1's cell holds a UCP value, so the two campaigns give two pairs
        write_grid(site / "ucp_sparse.asc", [[-9999.0, -9999.0], [0.5, -9999.0]])
        config = site / "run.yaml"
        config.write_text(config.read_text().replace("irradiance: irr.asc",
                                                     "irradiance: irr.asc\n  ucp: ucp_sparse.asc"))
        for args in (("process", "before"), ("process", "after")):
            assert run(site, *args).exit_code == 0
        result = run(site, "compare", "before", "after")
        assert result.exit_code == 0, result.output
        lines = result.stdout.splitlines()
        assert "correlation unavailable: need at least 3 pairs, got 2" in lines
        out = site / "out" / "compare_before_after"
        assert (out / "scatter.csv").read_text().count("\n") == 3  # header and two pairs

    def test_baci_effect_is_negative_after_renovation(self, site):
        run(site, "process", "before")
        run(site, "process", "after")
        result = run(site, "compare", "before", "after")
        report = (site / "out" / "compare_before_after" / "report.txt").read_text()
        line = next(l for l in report.splitlines() if l.startswith("BACI effect"))
        assert "-" in line.split("(")[0]  # cooler offsets after the works

    def baci_line(self, site):
        assert run(site, "process", "before").exit_code == 0
        assert run(site, "process", "after").exit_code == 0
        result = run(site, "compare", "before", "after")
        assert result.exit_code == 0, result.output
        return next(l for l in result.stdout.splitlines() if l.startswith("BACI effect"))

    def test_whole_local_day_is_one_day_block(self, site):
        # each campaign day runs from 22:00 UTC the day before: two UTC dates
        write_station(site / "control.csv", lambda day, t: 30.0, whole_local_days=True)
        write_station(site / "case.csv", lambda day, t: 30.8 if day == BEFORE_DAY else 29.8,
                      whole_local_days=True)
        line = self.baci_line(site)
        assert "CI unavailable: the before and after periods each hold one day block" in line
        assert "n_before=1440, n_after=1440" in line

    def test_plans_in_different_zones_give_no_baci(self, site):
        write_plan(site / "after_plan.yaml", "after", "after", AFTER_DAY, tz="+01:00")
        assert self.baci_line(site) == ("BACI effect unavailable: before and after plans "
                                        "use different time zones (UTC+02:00 and UTC+01:00)")

    def test_baci_on_mean_radiant_temperature(self, site):
        # globe readings equal to the air temperature: t_mrt follows t_air
        for name in ("case.csv", "control.csv"):
            header, *rows = (site / name).read_text().splitlines(keepends=True)
            cells = [row.split(",") for row in rows]
            (site / name).write_text(header + "".join(",".join(c[:3] + c[1:2] + c[4:])
                                                      for c in cells))
        config = site / "run.yaml"
        config.write_text(config.read_text() + "baci_parameter: t_mrt\n")
        line = self.baci_line(site)
        assert line.startswith("BACI effect: -1.000 degC (CI unavailable: ")
        assert "n_before=361, n_after=361" in line

    def test_missing_processed_results_exit_two(self, site):
        result = run(site, "compare", "before", "after")
        assert result.exit_code == 2
        assert "process" in result.output

    def test_unknown_campaign_exits_two(self, site):
        result = run(site, "compare", "before", "nope")
        assert result.exit_code == 2


class TestConfigErrors:
    def test_missing_config_file(self, site):
        result = CliRunner().invoke(main, ["-c", str(site / "absent.yaml"),
                                           "ucp"])
        assert result.exit_code == 2

    def test_config_without_control_station(self, site):
        bad = site / "bad.yaml"
        bad.write_text("stations:\n  case: case.csv\n")
        result = CliRunner().invoke(main, ["-c", str(bad), "ucp"])
        assert result.exit_code == 2
        assert "control" in result.output

    def test_dangling_path_in_config(self, site):
        bad = site / "dangling.yaml"
        bad.write_text("stations:\n  control: nowhere.csv\n")
        result = CliRunner().invoke(main, ["-c", str(bad), "ucp"])
        assert result.exit_code == 2
        assert "does not exist" in result.output


@pytest.mark.parametrize("value, offset", [
    (None, timedelta(0)), ("", timedelta(0)), ("UTC", timedelta(0)), ("utc", timedelta(0)),
    ("+02:00", timedelta(hours=2)), ("+2", timedelta(hours=2)),
    ("-03:30", -timedelta(hours=3, minutes=30)), (2, timedelta(hours=2)),
    ("-0:30", -timedelta(minutes=30)), ("+23:59", timedelta(hours=23, minutes=59)),
])
def test_plan_time_zones(value, offset):
    assert config_mod._parse_tz(value).utcoffset(None) == offset


@pytest.mark.parametrize("value", ["CET", "+02:00:00", "+2h", "+02:-30", "+02:60", "+1_0",
                                   "+\uff12", "+-2", "--2", "+2:5", "+24:00", " +2"])
def test_unparseable_time_zone(site, value):
    plan = site / "before_plan.yaml"
    plan.write_text(plan.read_text().replace('timezone: "+02:00"', f'timezone: "{value}"'),
                    encoding="utf-8")
    TestMalformedConfigExitsTwo.assert_one_line_exit_two(
        run(site, "process", "before"),
        f"cannot process campaign: invalid plan file {plan}: "
        f"cannot parse timezone offset {value!r}")


class TestRobustInputs:
    def test_out_of_range_onsite_row_skips_drift_check(self, site):
        hot = datetime.combine(BEFORE_DAY, time(10, 20), UTC)  # inside the traverse
        write_station(site / "onsite.csv",
                      lambda day, t: 55.0 if t == hot else 30.0)
        result = run(site, "process", "before")
        assert result.exit_code == 0, result.output
        reason = "drift check skipped: t_air=55.0 outside validity range"
        assert reason in (site / "out" / "before" / "report.txt").read_text()
        assert reason in result.stderr

    def test_non_numeric_and_nan_mobile_values_dropped(self, site):
        path = site / "before_mobile.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[5][2] = "warm"  # t_air
        rows[9][4] = "nan"   # t_globe
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        result = run(site, "process", "before")
        assert result.exit_code == 0, result.output
        assert "mobile log: dropped 2 of 147 rows (first: line 6:" in result.stderr

    def test_out_of_range_case_row_reported_by_compare(self, site):
        hot = datetime.combine(BEFORE_DAY, time(11, 0), UTC)
        write_station(site / "case.csv", lambda day, t: 55.0 if t == hot else 30.0)
        run(site, "process", "before")
        run(site, "process", "after")
        result = run(site, "compare", "before", "after")
        assert result.exit_code == 0, result.output
        report = (site / "out" / "compare_before_after" / "report.txt").read_text()
        assert "BACI effect unavailable: t_air=55.0 outside validity range" in report

    def test_unreadable_mobile_log_exits_two(self, site):
        (site / "before_mobile.csv").write_text(
            MOBILE_HEADER + "2019-07-25T10:10:00+00:00,P1,30.0,40.0,nan,0.5\n")
        result = run(site, "process", "before")
        assert result.exit_code == 2
        assert "no valid rows in mobile log" in result.stderr

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00",
                                       "9999-12-31T23:59:59-01:00"])
    def test_out_of_range_timestamps_dropped_not_raised(self, site, stamp):
        for name in ("control.csv", "before_mobile.csv"):
            path = site / name
            lines = path.read_text().splitlines(keepends=True)
            lines[3] = stamp + lines[3][lines[3].index(","):]
            path.write_text("".join(lines))
        result = run(site, "check-day", BEFORE_DAY.isoformat())
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.exit_code == 0, result.output
        result = run(site, "process", "before")
        assert result.exit_code == 0, result.output
        assert f"(first: line 4: timestamp out of range: {stamp})" in result.stderr


class TestBaciWindow:
    def test_windowed_estimate_equals_whole_record(self, site):
        from microclimap import analysis
        from microclimap.cli import day_offsets, load_station
        from microclimap.config import load_config, load_plan
        from microclimap.series import OffsetSeries, epoch_us, offset_series

        cfg = load_config(site / "run.yaml")
        case, control = load_station(cfg, "case"), load_station(cfg, "control")
        whole = offset_series(case, control, cfg.baci_parameter)
        windowed, reference = [], []
        for name in ("before", "after"):
            plan = load_plan(cfg.campaigns[name].plan_path)
            start = datetime.combine(plan.day, time(0, 0), plan.tz)
            end = datetime.combine(plan.day, time(23, 59, 59), plan.tz)
            kept = (epoch_us(start) <= whole.t_us) & (whole.t_us <= epoch_us(end))
            reference.append(OffsetSeries(whole.parameter, "case", "control",
                                          whole.t_us[kept], whole.values[kept]))
            windowed.append(day_offsets(cfg, case, control, plan))
            assert windowed[-1].t_us.tolist() == reference[-1].t_us.tolist()
        got = analysis.baci_effect(analysis.BaciDataset(*windowed), seed=cfg.seed)
        ref = analysis.baci_effect(analysis.BaciDataset(*reference), seed=cfg.seed)
        for field in ("effect", "ci_low", "ci_high"):
            assert getattr(got, field) == pytest.approx(getattr(ref, field), abs=1e-9)
        assert (got.n_before, got.n_after) == (ref.n_before, ref.n_after)


def load_tracer():
    """`perfbench/tracer.py` as a module, loaded from the checkout as it is."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerHooks:
    """The benchmark tracer's count hooks read what the traced functions take and return."""

    @staticmethod
    def hook_counts(hooks, name, fn, *args, **kwargs):
        """Call `fn`, then apply the hook for `name` to the bound arguments and
        the result, as the tracer does after a traced call."""
        result = fn(*args, **kwargs)
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return hooks[name](bound.arguments, result)

    def test_hooks_count_the_fixture(self, site):
        from microclimap import analysis, series
        from microclimap.config import load_config, load_plan

        hooks = load_tracer().HOOKS
        cfg = load_config(site / "run.yaml")
        stations = {}
        for name in ("case", "control"):
            path = cfg.station(name).path
            assert self.hook_counts(hooks, "series.parse_station_csv", series.parse_station_csv,
                                    path, station_id=name) == {
                "rows": 722, "dropped": 0, "station": name}
            stations[name] = series.parse_station_csv(path, station_id=name)
        periods = []
        for campaign in ("before", "after"):
            plan = load_plan(cfg.campaigns[campaign].plan_path)
            midnight = series.local_midnight_us(plan.day, plan.tz)
            case = stations["case"].window(midnight, midnight + series.DAY_US)
            assert self.hook_counts(hooks, "series.offset_series", series.offset_series, case,
                                    stations["control"], "utci") == {
                "case_samples": 361, "matched": 361}
            periods.append(series.offset_series(case, stations["control"], "utci"))
        assert self.hook_counts(hooks, "analysis.baci_effect", analysis.baci_effect,
                                analysis.BaciDataset(*periods), seed=cfg.seed) == {
            "resamples": 2000}


class TestMalformedConfigExitsTwo:
    """Each malformed config or plan exits 2 with a one-line reason."""

    @staticmethod
    def assert_one_line_exit_two(result, phrase):
        assert result.exit_code == 2, result.output
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and phrase in lines[0], result.stderr

    def test_malformed_config_yaml(self, site):
        (site / "run.yaml").write_text("stations: [control: control.csv\n")
        self.assert_one_line_exit_two(run(site, "ucp"), "malformed YAML in config file")

    def test_config_that_is_a_list(self, site):
        (site / "run.yaml").write_text("- control.csv\n")
        self.assert_one_line_exit_two(
            run(site, "ucp"), f"config error: config file {site / 'run.yaml'} is not a mapping")

    @pytest.mark.parametrize("args", [("check-day", BEFORE_DAY.isoformat()),
                                      ("process", "before")])
    def test_plan_that_is_a_list(self, site, args):
        (site / "before_plan.yaml").write_text("- P1\n")
        self.assert_one_line_exit_two(
            run(site, *args), f"plan file {site / 'before_plan.yaml'} is not a mapping")

    @pytest.mark.parametrize("args", [("check-day", BEFORE_DAY.isoformat()),
                                      ("process", "before"),
                                      ("compare", "before", "after")])
    def test_malformed_plan_yaml(self, site, args):
        (site / "before_plan.yaml").write_text("campaign_id: before\npoints: [{a: 1\n")
        self.assert_one_line_exit_two(run(site, *args), "malformed YAML in plan file")

    @pytest.mark.parametrize("args", [("check-day", BEFORE_DAY.isoformat()),
                                      ("process", "before")])
    def test_plan_naming_unconfigured_control_station(self, site, args):
        plan = site / "before_plan.yaml"
        plan.write_text(plan.read_text().replace("control_station: control",
                                                 "control_station: nowhere"))
        self.assert_one_line_exit_two(run(site, *args), "no station 'nowhere' configured")

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    def test_malformed_plan_names_line_and_column(self, site, loader, monkeypatch):
        if not hasattr(yaml, loader):
            pytest.skip(f"PyYAML built without {loader}")
        monkeypatch.setattr(config_mod, "_YAML_LOADER", getattr(yaml, loader))
        plan = site / "before_plan.yaml"
        plan.write_text("points:\n  - {point_id: P1, lon: 0.5\n  - {point_id: P2}\n")
        with pytest.raises(ConfigError) as caught:
            config_mod.load_plan(plan)
        assert str(caught.value).startswith(f"malformed YAML in plan file {plan}: ")
        assert str(caught.value).endswith(" at line 3, column 5")

    @pytest.mark.parametrize("entry, args", [
        ("control: control.csv", ("check-day", BEFORE_DAY.isoformat())),
        ("plan: before_plan.yaml", ("process", "before")),
        ("mobile_log: before_mobile.csv", ("process", "before")),
        ("albedo: albedo.asc", ("ucp",)),
    ])
    def test_configured_path_that_is_a_directory(self, site, entry, args):
        (site / "adir").mkdir()
        config = site / "run.yaml"
        key = entry.split(":")[0]
        config.write_text(config.read_text().replace(entry, f"{key}: adir", 1))
        adir = (site / "adir").resolve()
        self.assert_one_line_exit_two(
            run(site, *args), f"config error: configured path is not a regular file: {adir}")

    def test_plan_without_points_under_compare(self, site):
        plan = site / "before_plan.yaml"
        kept = plan.read_text().split("points:")[0]
        plan.write_text(kept)
        self.assert_one_line_exit_two(run(site, "compare", "before", "after"),
                                      "missing key 'points'")

    def test_station_mapping_without_path(self, site):
        config = site / "run.yaml"
        config.write_text(config.read_text().replace(
            "control: control.csv", "control: {column_map: {t_air: temp}}"))
        self.assert_one_line_exit_two(run(site, "ucp"), "missing key 'path'")

    def test_non_integer_seed(self, site):
        config = site / "run.yaml"
        config.write_text(config.read_text().replace("seed: 3", "seed: abc"))
        self.assert_one_line_exit_two(
            run(site, "ucp"), "config error: seed must be a non-negative integer, got 'abc'")

    def test_section_that_is_not_a_mapping(self, site):
        config = site / "run.yaml"
        config.write_text(config.read_text() + "thresholds: [1.0, 2.0]\n")
        self.assert_one_line_exit_two(run(site, "ucp"), "invalid config file")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_files_take_the_umask(site, umask, mode):
    previous = os.umask(umask)
    try:
        for args in FIXTURE_COMMANDS:
            assert run(site, *args).exit_code in (0, 3)
    finally:
        os.umask(previous)
    files = [path for path in (site / "out").rglob("*") if path.is_file()]
    assert len(files) == len(FIXTURE_DIGESTS) - 1  # all but the check-day stdout
    assert {str(path): path.stat().st_mode & 0o777 for path in files} == {
        str(path): mode for path in files}


def test_failed_write_leaves_no_file(tmp_path):
    from microclimap.cli import _replace_file
    target = tmp_path / "out" / "grid.asc"
    with pytest.raises(TypeError):
        _replace_file(target, b"ncols 1\n", "nrows 1\n")  # a str chunk in a bytes file
    assert list((tmp_path / "out").iterdir()) == []


def _truncate_ucp(site):
    ucp = site / "out" / "ucp.asc"
    ucp.write_text(ucp.read_text().rsplit("\n", 2)[0] + "\n")  # last row gone


def _nan_in_ucp(site):
    ucp = site / "out" / "ucp.asc"
    lines = ucp.read_text().splitlines(keepends=True)
    lines[-1] = "nan " + lines[-1].split(" ", 1)[1]
    ucp.write_text("".join(lines))


def _shift_ucp(site):
    ucp = site / "out" / "ucp.asc"
    ucp.write_text(ucp.read_text().replace("xllcorner 0.0", "xllcorner 10.0"))


def _fractional_ncols_in_ucp(site):
    ucp = site / "out" / "ucp.asc"
    ucp.write_text(ucp.read_text().replace("ncols 2", "ncols 2.5"))


BAD_UCP = pytest.mark.parametrize("spoil, phrase", [
    (_truncate_ucp, "expected 4 cell values, found 2"),
    (_nan_in_ucp, "non-finite cell value nan at row 2, column 1"),
    (_shift_ucp, "location (0.5, 0.5) outside raster extent"),
    (_fractional_ncols_in_ucp, "ncols must be a positive integer, got 2.5"),
])


class TestBadUcpRaster:
    """A UCP raster that cannot be read or sampled exits 2 and writes nothing."""

    @BAD_UCP
    def test_process(self, site, spoil, phrase):
        assert run(site, "ucp").exit_code == 0
        spoil(site)
        TestMalformedConfigExitsTwo.assert_one_line_exit_two(
            run(site, "process", "before"), "cannot use UCP raster: " + phrase)
        assert not (site / "out" / "before").exists()

    @BAD_UCP
    def test_compare(self, site, spoil, phrase):
        for args in (("ucp",), ("process", "before"), ("process", "after")):
            assert run(site, *args).exit_code == 0
        spoil(site)
        TestMalformedConfigExitsTwo.assert_one_line_exit_two(
            run(site, "compare", "before", "after"), "cannot use UCP raster: " + phrase)
        assert not (site / "out" / "compare_before_after").exists()


class TestBadGridHeader:
    """An input grid whose header value is unusable exits 2 with one line."""

    @pytest.mark.parametrize("old, new, phrase", [
        ("ncols 2", "ncols nan", "ncols must be a positive integer, got nan"),
        ("ncols 2", "ncols 1e400", "ncols must be a positive integer, got inf"),
        ("ncols 2", "ncols 2.5", "ncols must be a positive integer, got 2.5"),
        ("ncols 2", "ncols 0", "ncols must be a positive integer, got 0.0"),
        ("cellsize 1.0", "cellsize nan", "cellsize must be finite, got nan"),
        ("nrows 2", "nrows 2\nnrows 2", "repeated header key: nrows"),
    ])
    def test_ucp(self, site, old, new, phrase):
        grid = site / "albedo.asc"
        grid.write_text(grid.read_text().replace(old, new, 1))
        TestMalformedConfigExitsTwo.assert_one_line_exit_two(
            run(site, "ucp"), "UCP computation failed: " + phrase)
        assert not (site / "out" / "ucp.asc").exists()


class TestUcpSidecar:
    """`ucp` writes a checked binary copy of its cells that later reads take."""

    def test_process_and_compare_skip_the_text_parse(self, site, monkeypatch):
        assert run(site, "ucp").exit_code == 0
        assert (site / "out" / ".ucp.asc.cells").is_file()

        def no_parse(*args, **kwargs):
            raise AssertionError("the UCP grid was parsed")

        monkeypatch.setattr(raster_mod, "parse_ascii_grid", no_parse)
        for args in (("process", "before"), ("process", "after"),
                     ("compare", "before", "after")):
            result = run(site, *args)
            assert result.exit_code == 0, result.output
        assert '"ucp":' in (site / "out" / "before" / "points.geojson").read_text()

    def test_outputs_same_without_sidecar(self, site):
        assert run(site, "ucp").exit_code == 0
        out = site / "out"
        outputs = {}
        for sidecar in (True, False):
            if not sidecar:
                (out / ".ucp.asc.cells").unlink()
            for args in (("process", "before"), ("process", "after"),
                         ("compare", "before", "after")):
                assert run(site, *args).exit_code == 0
            outputs[sidecar] = {p.relative_to(out): p.read_bytes()
                                for p in sorted(out.rglob("*")) if p.is_file()}
        assert outputs[True].pop(Path(".ucp.asc.cells"))
        assert outputs[True] == outputs[False]

    def test_configured_ucp_without_sidecar_loads(self, site):
        write_grid(site / "given_ucp.asc", [[0.25, 0.5], [0.75, 1.0]])
        config = site / "run.yaml"
        config.write_text(config.read_text().replace(
            "  irradiance: irr.asc\n", "  irradiance: irr.asc\n  ucp: given_ucp.asc\n"))
        assert run(site, "process", "before").exit_code == 0
        geojson = (site / "out" / "before" / "points.geojson").read_text()
        assert '"ucp": 0.75' in geojson  # P1 at (0.5, 0.5): bottom-left cell
        assert not (site / ".given_ucp.asc.cells").exists()


def _set_cell(name, column, value):
    """Spoil one cell of the campaign's points.csv."""
    def spoil(site):
        path = site / "out" / name / "points.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][rows[0].index(column)] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return spoil


def _drop_column(site):
    path = site / "out" / "after" / "points.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("offset_c")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([r[:drop] + r[drop + 1:] for r in rows])


def _no_rows(site):
    path = site / "out" / "before" / "points.csv"
    path.write_text(path.read_text().splitlines(keepends=True)[0])


BAD_POINTS = pytest.mark.parametrize("spoil, phrase", [
    (_set_cell("before", "offset_c", "abc"), "line 2: offset_c 'abc' is not a number"),
    (_set_cell("after", "lon", "east"), "line 2: lon 'east' is not a number"),
    (_set_cell("after", "lat", ""), "line 2: lat '' is not a number"),
    (_set_cell("before", "utci_mobile", "x"), "line 2: utci_mobile 'x' is not a number"),
    (_set_cell("after", "utci_ref", "-"), "line 2: utci_ref '-' is not a number"),
    (_set_cell("after", "offset_c", "nan"), "line 2: offset_c nan is not finite"),
    (_set_cell("before", "lat", "inf"), "line 2: lat inf is not finite"),
    (_drop_column, "lacks column(s) offset_c"),
    (_set_cell("after", "point_id", "P9"), "unknown point id 'P9' in plan after"),
    (_no_rows, "no point results in"),
])


class TestMalformedPointResults:
    """A points.csv that compare cannot read exits 2 and writes nothing."""

    @BAD_POINTS
    def test_compare(self, site, spoil, phrase):
        for args in (("ucp",), ("process", "before"), ("process", "after")):
            assert run(site, *args).exit_code == 0
        spoil(site)
        result = run(site, "compare", "before", "after")
        TestMalformedConfigExitsTwo.assert_one_line_exit_two(result, phrase)
        assert result.stderr.startswith("cannot compare campaigns: ")
        assert not (site / "out" / "compare_before_after").exists()


IMPORT_GUARD = """
import sys
from microclimap.cli import main

config, day = sys.argv[1:]
for args in (["check-day", day], ["ucp"], ["process", "before"],
             ["process", "after"], ["compare", "before", "after"]):
    try:
        main(["-c", config, *args], standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code
    assert code == 0, (args, code)
    assert "scipy" not in sys.modules, args
    assert "numpy.ma" not in sys.modules, args
"""


def test_no_command_imports_scipy(site):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(site / "run.yaml"),
         BEFORE_DAY.isoformat()],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (site / "out" / "compare_before_after" / "scatter.csv").exists()


FIXTURE_COMMANDS = (("ucp",), ("process", "before"), ("process", "after"),
                    ("process", "driftcase"), ("process", "cloudy", "--force-day"),
                    ("compare", "before", "after"))


def in_process(site, *args):
    """Exit code and stdout of one command run through `CliRunner`."""
    result = run(site, *args)
    return result.exit_code, result.stdout


def in_subprocess(site, *args):
    """Exit code and stdout of one command run as `python -m microclimap.cli`."""
    proc = subprocess.run(
        [sys.executable, "-m", "microclimap.cli", "-c", str(site / "run.yaml"), *args],
        env=src_env(), capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def fixture_runs(site, invoke=in_process):
    """Exit codes of check-day and the fixture commands, and the SHA-256 of
    the check-day stdout and of every file the commands write."""
    code, stdout = invoke(site, "check-day", BEFORE_DAY.isoformat())
    codes = [code] + [invoke(site, *args)[0] for args in FIXTURE_COMMANDS]
    digests = {"check-day stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    out = site / "out"
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digests[path.relative_to(out).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return codes, digests


#: Digests of the fixture outputs; any change to an output byte fails here.
FIXTURE_DIGESTS = {
    "check-day stdout":
        "fe6c944638ad6a31028c8aa343e2fd952d21fcb183864bb45f5109388a28bc49",
    "ucp.asc":
        "aec2cf8255ade9265ca5442ac6473d255fa469cf2c1d3353efd9918c46d63bc1",
    ".ucp.asc.cells":
        "f5f39f5f66d8974984590423f634f49014c1f9cea47aa7cec89b42fc9c2068f9",
    "before/points.csv":
        "318fb98a9477213bb115aa19692388f9296f26a276ddb4379cdd46df2bb06f74",
    "before/points.geojson":
        "bd4dc836d1739f8b488e844c99d7a99d726b988195ec7307ddc7be6b9a6b486e",
    "before/report.txt":
        "be11e77f069b27dc0709acc4ade96f1e6883f85d3c193533a03c30bed66061fd",
    "after/points.csv":
        "3f15a54e5c17b0cd81e2593810d5311a07fd62dcfcc7351152fb8b3cfac95f1d",
    "after/points.geojson":
        "241f8b3add696c1c27b974393f7c33c588bf4f1973182d65f38faeb82a2b123e",
    "after/report.txt":
        "bf2a4b58e48b8fabed46722849dcff1270cc6928272ce2122ec8a0337669aed3",
    "driftcase/points.csv":
        "318fb98a9477213bb115aa19692388f9296f26a276ddb4379cdd46df2bb06f74",
    "driftcase/points.geojson":
        "bd4dc836d1739f8b488e844c99d7a99d726b988195ec7307ddc7be6b9a6b486e",
    "driftcase/report.txt":
        "45dd6f342d889023b07db0f5a69ce1eceb3e55e4c606fa125df2c8469a3fa240",
    "cloudy/points.csv":
        "318fb98a9477213bb115aa19692388f9296f26a276ddb4379cdd46df2bb06f74",
    "cloudy/points.geojson":
        "bd4dc836d1739f8b488e844c99d7a99d726b988195ec7307ddc7be6b9a6b486e",
    "cloudy/report.txt":
        "bf4db1ec68d3bdf7f921473165f7dc993130ade7df61999ea2f2b8c9bff42ce8",
    "compare_before_after/point_deltas.csv":
        "657692ea7e4501b115380210977373be8a49e757760c0abd0c6ad69e8bbc4384",
    "compare_before_after/report.txt":
        "44b0df7d948a02c5af29fba55cbce640ad1646bd8be42bb7776f1f56943e2149",
    "compare_before_after/scatter.csv":
        "752053c64c19733a5bb3395f9f130e90f9a38a6e72bcbb7c6125dcfad22b24a5",
    "compare_before_after/scatter.svg":
        "58b69ba90cbf4759472d8e55d3ab60bfc33e3ca1e6afa5aa1a4db6519c8cedf4",
}


def test_fixture_outputs_byte_identical(site):
    assert fixture_runs(site)[1] == FIXTURE_DIGESTS


#: The station and mobile logs of the fixture site.
FIXTURE_LOGS = ("control.csv", "onsite.csv", "onsite_bad.csv", "case.csv",
                "before_mobile.csv", "after_mobile.csv")


def at_plus_two(rows):
    """Each row's timestamp written as the same instant at +02:00."""
    return [[datetime.fromisoformat(row[0]).astimezone(PLAN_TZ).isoformat(), *row[1:]]
            for row in rows]


def shuffled(rows):
    """The rows in an order drawn from a fixed seed."""
    rows = list(rows)
    random.Random(20190725).shuffle(rows)
    return rows


def rows_rewritten(site, transform):
    """Every log with its rows passed through `transform`, which changes each log."""
    for name in FIXTURE_LOGS:
        text = (site / name).read_text()
        header, *lines = text.splitlines()
        rows = transform([line.split(",") for line in lines])
        changed = "\n".join([header, *map(",".join, rows)]) + "\n"
        assert changed != text
        (site / name).write_text(changed)
    return site


@pytest.mark.parametrize("transform", [at_plus_two, shuffled])
def test_equivalent_logs_give_the_same_outputs(site, transform):
    """Logs that state the same samples give the same exit codes and output bytes."""
    rows_rewritten(site, transform)
    assert fixture_runs(site) == ([0, 0, 0, 0, 3, 0, 0], FIXTURE_DIGESTS)


#: The station logs of the fixture site.
STATION_LOGS = ("control.csv", "onsite.csv", "onsite_bad.csv", "case.csv")


def append_station_rows(site, times):
    """Append a row at each of `times` to every station log, with the air at
    50 degC, warmer than any reading of the fixture."""
    for name in STATION_LOGS:
        with open(site / name, "a") as fh:
            fh.writelines(f"{t.isoformat()},50.0,40.0,,1.0,300.0\n" for t in times)


def crlf_line_ends(site):
    """Every log with CRLF line ends."""
    for name in FIXTURE_LOGS:
        path = site / name
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return site


def station_columns_reversed(site):
    """Every station log with its columns in reverse order."""
    for name in STATION_LOGS:
        lines = (site / name).read_text().splitlines()
        (site / name).write_text("".join(",".join(line.split(",")[::-1]) + "\n"
                                         for line in lines))
    return site


def far_station_day(site):
    """Every station log with a day logged far from both campaigns."""
    start = datetime(2021, 3, 1, 9, tzinfo=UTC)
    append_station_rows(site, [start + timedelta(minutes=i) for i in range(361)])
    return site


def next_local_day(site):
    """Every station log with every minute of the local day after the before day."""
    start = datetime.combine(BEFORE_DAY + timedelta(days=1), time(0, 0), PLAN_TZ)
    append_station_rows(site, [(start + timedelta(minutes=i)).astimezone(UTC)
                               for i in range(1440)])
    return site


def copied_site(site):
    """The whole site copied to another directory."""
    copy = site.with_name(f"{site.name}-copy")
    shutil.copytree(site, copy)
    return copy


def yaml_keys_reversed(site):
    """The config and every plan with the keys of each mapping in reverse order."""
    def reversed_keys(node):
        if isinstance(node, dict):
            return {key: reversed_keys(value) for key, value in reversed(node.items())}
        return [reversed_keys(item) for item in node] if isinstance(node, list) else node

    for name in ("run.yaml", "before_plan.yaml", "after_plan.yaml", "drift_plan.yaml"):
        path = site / name
        path.write_text(yaml.safe_dump(reversed_keys(yaml.safe_load(path.read_text())),
                                       sort_keys=False))
    return site


def grid_header_lines_reversed(site):
    """Every input grid with its six header lines in reverse order."""
    for name in ("albedo.asc", "veg.asc", "irr.asc"):
        lines = (site / name).read_text().splitlines(keepends=True)
        (site / name).write_text("".join(lines[5::-1] + lines[6:]))
    return site


@pytest.mark.parametrize("transform", [
    crlf_line_ends, station_columns_reversed, far_station_day, next_local_day,
    copied_site, yaml_keys_reversed, grid_header_lines_reversed])
def test_equivalent_sites_give_the_same_outputs(site, transform):
    """A site that states the same study otherwise gives the same exit codes and
    output bytes."""
    assert fixture_runs(transform(site)) == ([0, 0, 0, 0, 3, 0, 0], FIXTURE_DIGESTS)


#: Every transform of the two tests above, in an order in which each keeps
#: what the others mean: rows are appended before the logs are rewritten,
#: columns are reversed after the timestamps are, line ends change after every
#: rewrite of a line, and the site is copied last.
COMPOSABLE = (far_station_day, next_local_day,
              functools.partial(rows_rewritten, transform=at_plus_two),
              functools.partial(rows_rewritten, transform=shuffled), station_columns_reversed,
              yaml_keys_reversed, grid_header_lines_reversed, crlf_line_ends, copied_site)


@settings(max_examples=40, deadline=None)
@given(chosen=st.tuples(*[st.booleans()] * len(COMPOSABLE)))
@example(chosen=(True,) * len(COMPOSABLE))
def test_composed_equivalences_give_the_same_outputs(chosen):
    """Any mix of the equivalent logs and sites gives the same exit codes and
    output bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        site = Path(tmp) / "site"
        site.mkdir()
        for name, blob in fuzz_site().items():
            (site / name).write_bytes(blob)
        for apply, transform in zip(chosen, COMPOSABLE):
            site = transform(site) if apply else site
        assert fixture_runs(site) == ([0, 0, 0, 0, 3, 0, 0], FIXTURE_DIGESTS)


#: A locale whose preferred encoding is ASCII, with Python's UTF-8 mode and
#: its coercion of the C locale both off.
C_LOCALE = {"PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}


def test_outputs_are_utf8_whatever_the_locale(site):
    """A point named in French gives the exit codes and output bytes of a UTF-8
    locale under the C locale too, as `python -m microclimap.cli`."""
    for name in ("before_plan.yaml", "after_plan.yaml", "before_mobile.csv",
                 "after_mobile.csv"):
        path = site / name
        path.write_text(path.read_text().replace("P1", "Pr\u00e9au"), encoding="utf-8")
    utf8 = copied_site(site)
    commands = (("process", "before"), ("process", "after"), ("compare", "before", "after"))
    codes = []
    for args in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "microclimap.cli", "-c", str(site / "run.yaml"), *args],
            env=dict(src_env(), **C_LOCALE), capture_output=True, timeout=120)
        assert b"Traceback" not in proc.stderr, proc.stderr.decode(errors="replace")
        codes.append(proc.returncode)
    assert codes == [in_process(utf8, *args)[0] for args in commands] == [0, 0, 0]
    assert "Pr\u00e9au" in (site / "out" / "before" / "points.csv").read_bytes().decode()
    outputs = {path.relative_to(utf8): path.read_bytes()
               for path in (utf8 / "out").rglob("*") if path.is_file()}
    assert {path.relative_to(site): path.read_bytes()
            for path in (site / "out").rglob("*") if path.is_file()} == outputs


#: `run` called as the console script calls it, on the config in argv[1].
RUN_FREEZES = """
import gc, sys
from microclimap import cli

assert gc.get_freeze_count() == 0
sys.argv[1:] = ["-c", sys.argv[1], "ucp"]
try:
    cli.run()
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert gc.get_freeze_count() > 0
"""


class TestEntryPoint:
    """`run`, the process entry, freezes the import-time objects; `main` never does."""

    @pytest.mark.parametrize("args", [("check-day", BEFORE_DAY.isoformat()), ("ucp",),
                                      ("process", "before")])
    def test_main_leaves_the_collector_as_it_was(self, site, args):
        frozen = gc.get_freeze_count()
        assert run(site, *args).exit_code == 0
        assert gc.get_freeze_count() == frozen

    def test_run_freezes(self, site):
        proc = subprocess.run([sys.executable, "-c", RUN_FREEZES, str(site / "run.yaml")],
                              env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (site / "out" / "ucp.asc").exists()

    def test_module_entry_matches_cli_runner(self, site):
        codes, digests = fixture_runs(site, in_subprocess)
        assert digests == FIXTURE_DIGESTS
        shutil.rmtree(site / "out")
        assert fixture_runs(site) == (codes, FIXTURE_DIGESTS)


assert_one_line_exit_two = TestMalformedConfigExitsTwo.assert_one_line_exit_two


def insert_byte(path, byte=0xFF, at=None):
    """Insert one byte into a file, by default in the middle; returns its offset."""
    blob = path.read_bytes()
    at = len(blob) // 2 if at is None else at
    path.write_bytes(blob[:at] + bytes([byte]) + blob[at:])
    return at


class TestExitCodeMap:
    """Inputs that once ended in a traceback exit 2 with one line."""

    @pytest.mark.parametrize("name, args", [
        ("control.csv", ("check-day", BEFORE_DAY.isoformat())),
        ("control.csv", ("process", "before")),
        ("onsite.csv", ("process", "before")),
        ("before_mobile.csv", ("process", "before")),
        ("before_plan.yaml", ("process", "before")),
    ])
    def test_bad_byte(self, site, name, args):
        at = insert_byte(site / name)
        assert_one_line_exit_two(
            run(site, *args), f"{site / name} is not UTF-8 text: byte 0xff at offset {at}")

    def test_bad_byte_in_plan_under_compare(self, site):
        for args in (("process", "before"), ("process", "after")):
            assert run(site, *args).exit_code == 0
        at = insert_byte(site / "after_plan.yaml", 0x85, at=3)
        assert_one_line_exit_two(
            run(site, "compare", "before", "after"),
            f"cannot compare campaigns: {site / 'after_plan.yaml'} is not UTF-8 text: "
            f"byte 0x85 at offset {at}")

    def test_bad_byte_in_case_station_reported_by_compare(self, site):
        for args in (("process", "before"), ("process", "after")):
            assert run(site, *args).exit_code == 0
        at = insert_byte(site / "case.csv", 0xC3)
        result = run(site, "compare", "before", "after")
        assert result.exit_code == 0, result.output
        assert (f"BACI effect unavailable: {site / 'case.csv'} is not UTF-8 text: "
                f"byte 0xc3 at offset {at}") in result.stdout

    def test_bad_byte_in_config(self, site):
        at = insert_byte(site / "run.yaml")
        assert_one_line_exit_two(
            run(site, "ucp"), f"config error: {site / 'run.yaml'} is not UTF-8 text: "
                              f"byte 0xff at offset {at}")

    @pytest.mark.parametrize("args", [("ucp",), ("process", "before")])
    def test_output_dir_that_is_a_file(self, site, args):
        (site / "out").write_text("not a directory\n")
        assert_one_line_exit_two(run(site, *args), "cannot write outputs: [Errno")

    def test_compare_output_dir_that_is_a_file(self, site):
        for args in (("process", "before"), ("process", "after")):
            assert run(site, *args).exit_code == 0
        (site / "out" / "compare_before_after").write_text("not a directory\n")
        assert_one_line_exit_two(run(site, "compare", "before", "after"),
                                 "cannot write outputs: [Errno")

    @pytest.mark.parametrize("entry, phrase", [
        ("{path: control.csv, column_map: [1, 2]}", "column_map must map column names"),
        ("{path: control.csv, column_map: {t_air: 1}}", "column_map must map column names"),
        ("{path: control.csv, column_map: {temp: t_air}}", "column_map must map column names"),
        ("{path: control.csv, sensor_heights: {wind: abc}}",
         "sensor_heights wind must be positive and finite, got 'abc'"),
        ("{path: control.csv, sensor_heights: {wind: .nan}}",
         "sensor_heights wind must be positive and finite, got nan"),
        ("{path: control.csv, sensor_heights: {wind: 0}}",
         "sensor_heights wind must be positive and finite, got 0"),
        ("{path: control.csv, sensor_heights: {wind: true}}",
         "sensor_heights wind must be positive and finite, got True"),
        ("{path: control.csv, sensor_heights: {gust: 4}}", "sensor_heights must map fields"),
        ("{path: control.csv, sensor_heights: [4]}", "sensor_heights must map fields"),
        ("{path: control.csv, sensor_heights: {t_air: 2}}", "sensor_heights must map fields"),
    ])
    def test_malformed_station_entry(self, site, entry, phrase):
        config = site / "run.yaml"
        config.write_text(config.read_text().replace("control: control.csv",
                                                     f"control: {entry}"))
        for args in (("check-day", BEFORE_DAY.isoformat()), ("process", "before")):
            assert_one_line_exit_two(
                run(site, *args), f"config error: station 'control': {phrase}")

    @pytest.mark.parametrize("height", ["10", "1e1", "'10'"])
    def test_valid_station_entry_is_used(self, site, height):
        config = site / "run.yaml"
        config.write_text(config.read_text().replace(
            "control: control.csv",
            "control: {path: control.csv, column_map: {t_air: t_air}, "
            f"sensor_heights: {{wind: {height}}}}}"))
        result = run(site, "check-day", BEFORE_DAY.isoformat())
        assert result.exit_code == 0, result.output
        assert "mean daytime wind=1.00 m/s" in result.stdout  # measured at 10 m

    @pytest.mark.parametrize("entry, z0, sensor", [
        ("control.csv", "2.0", "2.0 m with the mobile sensor at 1.5 m"),
        ("control.csv", "1.5", "1.5 m with the mobile sensor at 1.5 m"),
        ("{path: control.csv, sensor_heights: {wind: 0.5}}", "1.0",
         "1.0 m with station 'control' at 0.5 m"),
    ])
    def test_roughness_length_at_or_above_a_wind_sensor(self, site, entry, z0, sensor):
        config = site / "run.yaml"
        config.write_text(config.read_text().replace("control: control.csv", f"control: {entry}")
                          + f"wind_profile: {{z0_m: {z0}}}\n")
        for args in (("check-day", BEFORE_DAY.isoformat()), ("process", "before")):
            assert_one_line_exit_two(
                run(site, *args), "config error: wind_profile z0_m must be below every wind "
                                  f"sensor's height, got {sensor}")

    def test_overflowing_mean_wind(self, site):
        path = site / "control.csv"
        header, *rows = path.read_text().splitlines(keepends=True)
        cells = [row.split(",") for row in rows]
        path.write_text(header + "".join(",".join(c[:4] + ["1e308"] + c[5:]) for c in cells))
        assert_one_line_exit_two(
            run(site, "check-day", BEFORE_DAY.isoformat()),
            "cannot evaluate day: wind speed must be finite and >= 0, got inf")

    @pytest.mark.parametrize("value", ["2019-02-30", "2019-13-01"])
    def test_plan_date_no_calendar_holds(self, site, value):
        plan = site / "before_plan.yaml"
        plan.write_text(plan.read_text().replace("campaign_id: before",
                                                 f"campaign_id: {value}"))
        assert_one_line_exit_two(
            run(site, "process", "before"), f"malformed YAML in plan file {plan}: ")

    def test_plan_station_of_another_type(self, site):
        plan = site / "before_plan.yaml"
        plan.write_text(plan.read_text().replace("onsite_station: onsite",
                                                 "onsite_station: [1]"))
        assert_one_line_exit_two(
            run(site, "process", "before"), "no station '[1]' configured")

    @pytest.mark.parametrize("value", [".nan", ".inf", "0", "-1"])
    def test_unusable_drift_smoothing(self, site, value):
        config = site / "run.yaml"
        config.write_text(config.read_text()
                          + f"thresholds: {{drift_smoothing_seconds: {value}}}\n")
        assert_one_line_exit_two(
            run(site, "process", "before"),
            "threshold drift_smoothing_seconds must be positive and finite")

    def test_smoothing_wider_than_any_record(self, site):
        config = site / "run.yaml"
        config.write_text(config.read_text() + "thresholds: {drift_smoothing_seconds: 1e20}\n")
        result = run(site, "process", "before")
        assert result.exit_code == 0, result.output
        assert "drift check on utci offset" in (site / "out" / "before" / "report.txt").read_text()

    def test_infinite_seed(self, site):
        config = site / "run.yaml"
        config.write_text(config.read_text().replace("seed: 3", "seed: .inf"))
        assert_one_line_exit_two(
            run(site, "ucp"), "config error: seed must be a non-negative integer, got inf")

    def test_negative_seed(self, site):
        config = site / "run.yaml"
        config.write_text(config.read_text().replace("seed: 3", "seed: -1"))
        assert_one_line_exit_two(
            run(site, "ucp"), "config error: seed must be a non-negative integer, got -1")

    @pytest.mark.parametrize("value, shown", [("1.7", "1.7"), ("true", "True")])
    def test_seed_that_is_not_an_integer(self, site, value, shown):
        config = site / "run.yaml"
        config.write_text(config.read_text().replace("seed: 3", f"seed: {value}"))
        assert_one_line_exit_two(
            run(site, "ucp"), f"config error: seed must be a non-negative integer, got {shown}")

    @pytest.mark.parametrize("value, shown", [(".inf", "inf"), (".nan", "nan"), ("0", "0"),
                                              ("-1000", "-1000"), ("yes", "True")])
    def test_unusable_clear_sky_maximum(self, site, value, shown):
        config = site / "run.yaml"
        config.write_text(config.read_text().replace("clear_sky_max_wm2: 1000",
                                                     f"clear_sky_max_wm2: {value}"))
        assert_one_line_exit_two(
            run(site, "ucp"), "config error: irradiance clear_sky_max_wm2 must be positive "
                              f"and finite, got {shown}")
        assert not (site / "out").exists()

    @pytest.mark.parametrize("line, phrase", [
        ("baci_parameter: utcii", "baci_parameter must be one of t_air, rh, t_globe, wind, "
                                  "net_radiation, vapor_pressure, t_mrt, utci, got 'utcii'"),
        ("ucp_formula: prodct", "ucp_formula must be one of product, weighted_sum, "
                                "got 'prodct'"),
        ("globe: {variant: iso}", "globe variant must be one of ashrae_standard_globe, "
                                  "iso7726_forced, got 'iso'"),
    ])
    def test_unknown_name_under_every_command(self, site, line, phrase):
        config = site / "run.yaml"
        config.write_text(config.read_text() + line + "\n")
        for args in FUZZ_COMMANDS:
            assert_one_line_exit_two(run(site, *args), "config error: " + phrase)

    @pytest.mark.parametrize("old, new, phrase", [
        ("    cloud_cover_oktas: 1\n", "", "must be finite, got None"),
        ("cloud_cover_oktas: 1", "cloud_cover_oktas: 9", "must be in [0, 8], got 9"),
        ("cloud_cover_oktas: 1", "cloud_cover_oktas: -1", "must be in [0, 8], got -1"),
        ("cloud_cover_oktas: 1", "cloud_cover_oktas: .nan", "must be finite, got nan"),
        ("cloud_cover_oktas: 1", "cloud_cover_oktas: clear", "must be finite, got 'clear'"),
    ])
    def test_unusable_cloud_cover(self, site, old, new, phrase):
        config = site / "run.yaml"
        config.write_text(config.read_text().replace(old, new, 1))
        for args in (("check-day", BEFORE_DAY.isoformat()), ("process", "before")):
            assert_one_line_exit_two(
                run(site, *args), f"config error: campaign 'before': cloud_cover_oktas {phrase}")

    @pytest.mark.parametrize("old, new, phrase", [
        ("seed: 3", "seed: 3\nglobe: {diameter: 0.05}", "in globe: 'diameter'"),
        ("seed: 3", "seed: 3\nthresholds: {day_t_max_abve_c: 40}",
         "in thresholds: 'day_t_max_abve_c'"),
        ("seed: 3", "seed: 3\nwind_profile: {z0: 0.5}", "in wind_profile: 'z0'"),
        ("seed: 3", "seed: 3\nsed: 4", "in config: 'sed'"),
        ("clear_sky_max_wm2: 1000", "clear_sky_max: 1000", "in irradiance: 'clear_sky_max'"),
        ("  albedo: albedo.asc", "  albedo: albedo.asc\n  albedo2: albedo.asc",
         "in rasters: 'albedo2'"),
        ("control: control.csv", "control: {path: control.csv, heights: {wind: 4}}",
         "in station 'control': 'heights'"),
        ("    cloud_cover_oktas: 6", "    cloud_cover_oktas: 6\n    oktas: 6",
         "in campaign 'cloudy': 'oktas'"),
    ])
    def test_unknown_config_key(self, site, old, new, phrase):
        config = site / "run.yaml"
        config.write_text(config.read_text().replace(old, new, 1))
        for args in (("check-day", BEFORE_DAY.isoformat()), ("ucp",)):
            assert_one_line_exit_two(run(site, *args), "config error: unknown key(s) " + phrase)

    @pytest.mark.parametrize("name", ["day_t_max_above_c", "day_t_min_above_c",
                                      "day_max_cloud_oktas"])
    def test_non_finite_day_threshold(self, site, name):
        config = site / "run.yaml"
        config.write_text(config.read_text() + f"thresholds: {{{name}: .nan}}\n")
        for args in (("check-day", BEFORE_DAY.isoformat()), ("process", "before")):
            assert_one_line_exit_two(
                run(site, *args), f"config error: threshold {name} must be finite, got nan")

    def test_station_header_without_timestamp(self, site):
        path = site / "onsite.csv"
        path.write_text(path.read_text().replace("timestamp", "time", 1))
        assert_one_line_exit_two(
            run(site, "process", "before"),
            "cannot process campaign: station 'onsite' lacks column(s): timestamp")

    def test_bad_check_day_date(self, site):
        assert_one_line_exit_two(
            run(site, "check-day", "2019-13-40"),
            "cannot evaluate day: invalid date '2019-13-40'; expected YYYY-MM-DD")

    @pytest.mark.parametrize("args, phrase", [
        (("20190725",), "invalid date '20190725'; expected YYYY-MM-DD"),
        (("2019-W30-4",), "invalid date '2019-W30-4'; expected YYYY-MM-DD"),
        (("2019-07-25", "--tz", "+02:-30"), "cannot parse timezone offset '+02:-30'"),
    ], ids=["compact", "week", "offset"])
    def test_check_day_reads_one_date_and_offset_form(self, site, args, phrase):
        """Only YYYY-MM-DD names a day, on every supported Python."""
        assert_one_line_exit_two(run(site, "check-day", *args), f"cannot evaluate day: {phrase}")


def test_day_offsets_keep_the_last_half_second_of_the_local_day(site):
    from microclimap.cli import day_offsets, load_station
    from microclimap.config import load_config, load_plan
    from microclimap.series import epoch_us

    last = datetime.combine(BEFORE_DAY, time(23, 59, 59, 500_000), PLAN_TZ)
    midnight = datetime.combine(BEFORE_DAY + timedelta(days=1), time(0, 0), PLAN_TZ)
    for name in ("case.csv", "control.csv"):
        with open(site / name, "a") as fh:
            for t in (last, midnight):
                fh.write(f"{t.astimezone(UTC).isoformat()},30.0,40.0,,1.0,300.0\n")
    cfg = load_config(site / "run.yaml")
    case, control = load_station(cfg, "case"), load_station(cfg, "control")
    offsets = day_offsets(cfg, case, control, load_plan(cfg.campaigns["before"].plan_path))
    assert offsets.t_us[-1] == epoch_us(last)  # kept, as the day screen counts it
    assert epoch_us(midnight) not in offsets.t_us  # the next day's first instant


#: The commands the fuzz test runs, in pipeline order.
FUZZ_COMMANDS = (("check-day", BEFORE_DAY.isoformat()), ("ucp",), ("process", "before"),
                 ("process", "after"), ("compare", "before", "after"))

#: Every kind of input; outputs read by later commands are spoiled once written.
FUZZ_TARGETS = ("control.csv", "case.csv", "onsite.csv", "before_mobile.csv",
                "after_mobile.csv", "before_plan.yaml", "after_plan.yaml", "run.yaml",
                "albedo.asc", "veg.asc", "irr.asc", "out/ucp.asc", "out/.ucp.asc.cells",
                "out/before/points.csv", "out/after/points.csv")

NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
YAML_VALUE = re.compile(rb"(?<=: )[^,}\n]+")

@functools.cache
def fuzz_site() -> dict[str, bytes]:
    """The files of the fixture site, built once; callers only read them."""
    with tempfile.TemporaryDirectory() as tmp:
        return {p.name: p.read_bytes() for p in build_site(Path(tmp)).iterdir()}


def mutate(blob: bytes, data) -> bytes:
    """`blob` with one mutation drawn from `data`."""
    lines = blob.splitlines(keepends=True) or [b""]
    kind = data.draw(st.sampled_from(["byte", "truncate", "drop", "duplicate", "swap",
                                      "field", "number", "yaml type"]))
    if kind == "byte":
        at = data.draw(st.integers(0, len(blob)))
        byte = data.draw(st.sampled_from([0xFF, 0x85, 0xC3]) | st.integers(0, 255))
        return blob[:at] + bytes([byte]) + blob[at:]
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, len(blob)))]
    if kind in ("drop", "duplicate", "swap", "field"):
        i, j = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = lines[i].rstrip(b"\r\n") + b",1\n"
        return b"".join(lines)
    pattern, tokens = ((NUMBER, [b"nan", b"inf", b"-1e308", b"x", b""]) if kind == "number"
                       else (YAML_VALUE, [b"[1]", b"{a: 1}"]))
    matches = list(pattern.finditer(blob))
    if not matches:
        return blob
    m = matches[data.draw(st.integers(0, len(matches) - 1))]
    return blob[:m.start()] + data.draw(st.sampled_from(tokens)) + blob[m.end():]


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(FUZZ_TARGETS), data=st.data())
def test_mutated_input_exits_by_the_map(target, data):
    """One mutated input never ends in a traceback or an exit code outside the map."""
    with tempfile.TemporaryDirectory() as tmp:
        site = Path(tmp)
        for name, blob in fuzz_site().items():
            (site / name).write_bytes(blob)
        mutated = False
        for args in FUZZ_COMMANDS:
            path = site / target
            if not mutated and path.is_file():
                path.write_bytes(mutate(path.read_bytes(), data))
                mutated = True
            result = run(site, *args)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                args, "".join(traceback.format_exception(result.exception)))
            assert result.exit_code in (0, 1, 2, 3), (args, result.output)
            if result.exit_code == 1:
                assert ("campaign day rejected:" in result.stderr
                        or "verdict: rejected" in result.stdout), (args, result.output)
