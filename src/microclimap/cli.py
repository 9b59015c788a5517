"""Command-line orchestration of the full pipeline.

Subcommands: check-day, process, compare, ucp. All data comes from one
declarative YAML config; logs go to stderr, data to files only, and every
output file is written atomically (temp + rename) so interrupted runs
never leave corrupt partial files.

Exit codes: 0 ok, 1 criterion rejection, 2 data missing or invalid,
3 drift detected. `ExitCodes.invoke` is the one place an error becomes an
exit code.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import os
import sys
from datetime import timezone
from pathlib import Path

import click

from . import analysis, campaign as campaign_mod, raster as raster_mod, series as series_mod
from .config import RunConfig, load_config, load_plan, _parse_date, _parse_tz
from .errors import ConfigError, DayRejectedError, DomainError, MicroclimapError, SchemaError
from .series import DriftVerdict
from .thermal import heat_stress_category

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_MISSING = 2
EXIT_DRIFT = 3

POINT_CSV_COLUMNS = (
    "point_id", "timestamp", "lon", "lat", "environment", "phase",
    "t_air", "rh", "t_mrt", "wind_10m", "utci_mobile", "utci_ref",
    "offset_c", "stress_category",
)


def write_atomic(path: Path, text: str) -> None:
    """Write `text` as UTF-8, whatever the locale, through `_replace_file`."""
    _replace_file(path, text.encode())


def _replace_file(path: Path, *chunks) -> None:
    """Write the bytes-like `chunks` one after another to `path` through a temp
    file in its directory plus rename.

    An array's buffer is written without a copy. The temp file
    `.NAME.<random hex>` is created as `open` creates a new file, so the
    kernel gives it 0o666 minus the umask bits.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def log(message: str) -> None:
    click.echo(message, err=True)


def doing(what: str) -> None:
    """Name the step the running command takes next: a package error or an
    OSError in it exits 2 with the one line "<what>: <error>"."""
    click.get_current_context().meta["microclimap.doing"] = what


class ExitCodes(click.Group):
    """A group whose commands exit by one map of errors to exit codes.

    A rejected campaign day exits 1 with its reasons. Any other package
    error, or an OSError, exits 2 with one line led by the step named by
    `doing` ("config error" while the config loads). Any other exception is
    a bug and keeps its traceback.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DayRejectedError as exc:
            log("campaign day rejected:")
            for reason in exc.reasons:
                log(f"  - {reason}")
            log("use --force-day to process anyway")
            ctx.exit(EXIT_REJECTED)
        except (MicroclimapError, OSError) as exc:
            log(f"{ctx.meta.get('microclimap.doing', 'config error')}: {exc}")
            ctx.exit(EXIT_MISSING)


def load_station(cfg: RunConfig, name: str) -> series_mod.StationSeries:
    entry = cfg.station(name)
    return series_mod.parse_station_csv(entry.path, station_id=name,
                                        column_map=entry.column_map,
                                        wind_height=entry.wind_height)


def _csv_text(rows) -> str:
    """`rows` as CSV text, each line ended by CRLF as `csv.writer` ends it."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def point_results_csv(results, plan) -> str:
    """Serialize point results with full-precision, deterministic formatting."""
    rows = [POINT_CSV_COLUMNS]
    for r in results:
        point = plan.point(r.offset.point_id)
        rows.append([
            r.offset.point_id,
            series_mod.from_epoch_us(r.drivers.timestamp).isoformat(),
            repr(point.location[0]), repr(point.location[1]),
            point.environment.value, plan.phase.value,
            repr(r.drivers.t_air), repr(r.drivers.rh),
            repr(r.drivers.t_mrt), repr(r.drivers.wind_10m),
            repr(r.offset.utci_mobile), repr(r.offset.utci_ref), repr(r.offset.value),
            heat_stress_category(r.offset.utci_mobile).value,
        ])
    return _csv_text(rows)


#: Columns of points.csv that `compare` reads as finite numbers.
_POINT_NUMBERS = ("lon", "lat", "offset_c", "utci_mobile", "utci_ref")


def read_point_results_csv(path: Path) -> list[dict]:
    """Rows of a points.csv with the numbers `compare` reads as floats.

    A missing column, a missing or non-numeric number, a non-finite number
    or an unreadable file is a `SchemaError`; a missing file is a `ConfigError`.
    """
    if not path.exists():
        raise ConfigError(f"missing processed results {path}; run `process` first")
    rows = []
    with series_mod.opened(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        missing = [c for c in ("point_id", "environment") + _POINT_NUMBERS
                   if c not in (reader.fieldnames or ())]
        if missing and reader.fieldnames:
            raise SchemaError(f"{path} lacks column(s) {', '.join(missing)}")
        for row in reader:
            for key in _POINT_NUMBERS:
                try:
                    row[key] = float(row[key])
                except ValueError:
                    raise SchemaError(f"{path} line {reader.line_num}: {key} "
                                      f"{row[key]!r} is not a number") from None
                if not math.isfinite(row[key]):
                    raise SchemaError(f"{path} line {reader.line_num}: {key} "
                                      f"{row[key]!r} is not finite")
            rows.append(row)
    if not rows:
        raise SchemaError(f"no point results in {path}")
    return rows


def _load_ucp_raster(cfg: RunConfig) -> raster_mod.RasterLayer | None:
    """The configured UCP raster, else the one `ucp` wrote, else None."""
    path = cfg.rasters.get("ucp", cfg.output_dir / "ucp.asc")
    return raster_mod.read_ascii_grid(path, raster_mod.Semantic.UCP) if path.exists() else None


@click.group(cls=ExitCodes)
@click.option("--config", "-c", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Run configuration YAML.")
@click.pass_context
def main(ctx, config_path):
    """Pedestrian heat-stress mapping from fixed and mobile microclimate logs."""
    ctx.obj = load_config(config_path)


@main.command("check-day")
@click.argument("day")
@click.option("--oktas", type=float, default=None,
              help="Observed cloud cover; defaults to the matching campaign's value.")
@click.option("--tz", "tz_offset", default=None,
              help="Local UTC offset like +02:00; defaults to the matching campaign's zone.")
@click.pass_obj
def check_day(cfg: RunConfig, day, oktas, tz_offset):
    """Report whether DAY (YYYY-MM-DD) qualifies as a warm radiative day."""
    doing("cannot evaluate day")
    day = _parse_date(day)
    tz = _parse_tz(tz_offset) if tz_offset else None
    control_id = "control"
    for entry in cfg.campaigns.values():
        plan = load_plan(entry.plan_path)
        if plan.day == day:
            oktas = entry.cloud_cover_oktas if oktas is None else oktas
            tz = plan.tz if tz is None else tz
            control_id = plan.control_station_id
            break
    if oktas is None:
        raise ConfigError(f"no campaign on {day}; pass --oktas explicitly")
    control = load_station(cfg, control_id)
    summary = campaign_mod.derive_day_summary(control, day, oktas, tz or timezone.utc,
                                              z0=cfg.z0)
    result = campaign_mod.day_filter(summary, cfg.day_thresholds)
    stability, wind = summary.stability_class, summary.mean_daytime_wind
    click.echo(f"day {day.isoformat()}: t_max={summary.t_max:.1f} degC, "
               f"t_min={summary.t_min:.1f} degC, "
               f"cloud cover={summary.cloud_cover_oktas:g} oktas, "
               f"stability class={'n/a' if stability is None else stability.value}, "
               f"mean daytime wind={'n/a' if wind is None else f'{wind:.2f} m/s'}")
    for c in result.criteria:
        click.echo(f"  [pass] {c.label}" if c.passed else f"  [FAIL] {c.label}: {c.reason}")
    click.echo("verdict: " + ("accepted" if result.accepted else "rejected"))
    sys.exit(EXIT_OK if result.accepted else EXIT_REJECTED)


@main.command("process")
@click.argument("campaign_id")
@click.option("--allow-drift", is_flag=True,
              help="Exit 0 even when the on-site drift check fails.")
@click.option("--force-day", is_flag=True,
              help="Process even if the day filter rejects the campaign day.")
@click.pass_obj
def process(cfg: RunConfig, campaign_id, allow_drift, force_day):
    """Run the mobile pipeline for one campaign and write its outputs."""
    doing("cannot process campaign")
    entry = cfg.campaign(campaign_id)
    plan = load_plan(entry.plan_path)
    control = load_station(cfg, plan.control_station_id)
    onsite = load_station(cfg, plan.onsite_station_id) if plan.onsite_station_id else None
    mobile_log = campaign_mod.parse_mobile_csv(entry.mobile_log_path)
    summary = campaign_mod.derive_day_summary(control, plan.day, entry.cloud_cover_oktas,
                                              plan.tz, z0=cfg.z0)
    mobile_report = mobile_log.load_report
    if mobile_report.dropped_rows:
        log(f"mobile log: dropped {mobile_report.dropped_rows} of "
            f"{mobile_report.rows_read} rows (first: {mobile_report.drop_reasons[0]})")

    results, report = campaign_mod.process_campaign(
        plan, mobile_log, control,
        day_summary=summary, onsite=onsite,
        override_day_filter=force_day,
        day_thresholds=cfg.day_thresholds,
        globe=cfg.globe, z0=cfg.z0,
        stabilization_delta_c=cfg.stabilization_delta_c,
        drift_thresholds=cfg.drift_thresholds,
    )
    doing("cannot use UCP raster")
    collection = raster_mod.export_heat_map(results, plan, _load_ucp_raster(cfg))
    doing("cannot write outputs")
    out = cfg.output_dir / campaign_id
    write_atomic(out / "points.csv", point_results_csv(results, plan))
    write_atomic(out / "points.geojson", raster_mod.geojson_dumps(collection))
    write_atomic(out / "report.txt", report.summary() + "\n")
    log(f"wrote {len(results)} point results to {out}")
    for point_id, reason in report.failures:
        log(f"point {point_id} unusable: {reason}")

    if (report.drift is not None
            and report.drift.verdict is DriftVerdict.DRIFTING
            and not allow_drift):
        log("drift detected on the on-site station: " + report.drift.summary())
        sys.exit(EXIT_DRIFT)


def _match_points(before_rows, after_rows, after_plan):
    """Pair after points with their before counterparts via displaced_from."""
    before_by_id = {r["point_id"]: r for r in before_rows}
    matched, unmatched = [], []
    for row in after_rows:
        point = after_plan.point(row["point_id"])
        before_id = point.displaced_from or row["point_id"]
        if before_id in before_by_id:
            matched.append((before_by_id[before_id], row))
        else:
            unmatched.append(row["point_id"])
    return matched, unmatched


def day_offsets(cfg: RunConfig, case, control, plan) -> series_mod.OffsetSeries:
    """Case-minus-control offsets over the plan's local day.

    Only that day of the case record is differenced; the control stays
    whole, so matches at the day's edges are those of the whole record.
    """
    midnight = series_mod.local_midnight_us(plan.day, plan.tz)
    return series_mod.offset_series(case.window(midnight, midnight + series_mod.DAY_US), control,
                                    cfg.baci_parameter, globe=cfg.globe, z0=cfg.z0)


@main.command("compare")
@click.argument("before_id")
@click.argument("after_id")
@click.pass_obj
def compare(cfg: RunConfig, before_id, after_id):
    """Before/after comparison: per-point deltas, BACI effect, UCP correlation."""
    doing("cannot compare campaigns")
    before_plan = load_plan(cfg.campaign(before_id).plan_path)
    after_plan = load_plan(cfg.campaign(after_id).plan_path)
    before_rows = read_point_results_csv(cfg.output_dir / before_id / "points.csv")
    after_rows = read_point_results_csv(cfg.output_dir / after_id / "points.csv")
    matched, unmatched = _match_points(before_rows, after_rows, after_plan)
    doing("cannot use UCP raster")
    ucp = _load_ucp_raster(cfg)
    samples = [] if ucp is None else [
        (row["offset_c"], raster_mod.sample_at(ucp, row["lon"], row["lat"]))
        for row in before_rows + after_rows]
    doing("cannot write outputs")
    pairs = [(offset, value) for offset, value in samples if value is not None]

    out = cfg.output_dir / f"compare_{before_id}_{after_id}"
    report_lines = [f"comparison {before_id} -> {after_id}", f"matched points: {len(matched)}"]
    report_lines += [f"unmatched after point: {point_id}" for point_id in unmatched]

    write_atomic(out / "point_deltas.csv", _csv_text(
        [("point_id_before", "point_id_after", "environment",
          "offset_before_c", "offset_after_c", "delta_c")]
        + [(b["point_id"], a["point_id"], a["environment"], repr(b["offset_c"]),
            repr(a["offset_c"]), repr(a["offset_c"] - b["offset_c"])) for b, a in matched]))

    # BACI on the fixed stations over the two campaign days, in local day blocks
    try:
        if before_plan.tz != after_plan.tz:  # fixed offsets, equal when the offsets are
            raise ConfigError(f"before and after plans use different time zones "
                              f"({before_plan.tz} and {after_plan.tz})")
        case = load_station(cfg, "case")
        control = load_station(cfg, "control")
        estimate = analysis.baci_effect(
            analysis.BaciDataset(before=day_offsets(cfg, case, control, before_plan),
                                 after=day_offsets(cfg, case, control, after_plan),
                                 utc_offset=before_plan.tz.utcoffset(None)),
            seed=cfg.seed)
        report_lines.append(estimate.summary())
    except MicroclimapError as exc:
        report_lines.append(f"BACI effect unavailable: {exc}")

    # Figure-5 style association against the configured UCP raster
    if ucp is None:
        report_lines.append("no UCP raster configured; correlation skipped")
    else:
        try:
            corr = analysis.correlate_offset_ucp(pairs)
            report_lines.append(
                f"offset vs UCP: spearman_rho={corr.spearman_rho:.3f}, "
                f"pearson_r={corr.pearson_r:.3f}, n={corr.n}")
        except DomainError as exc:
            report_lines.append(f"correlation unavailable: {exc}")
        if pairs:
            write_atomic(out / "scatter.csv", analysis.scatter_csv(pairs))
            write_atomic(out / "scatter.svg", analysis.scatter_svg(pairs))

    write_atomic(out / "report.txt", "\n".join(report_lines) + "\n")
    click.echo("\n".join(report_lines))


@main.command("ucp")
@click.pass_obj
def ucp(cfg: RunConfig):
    """Compute the Urban Cooling Potential raster from the configured layers."""
    doing("UCP computation failed")
    missing = [n for n in ("albedo", "vegetation", "irradiance") if n not in cfg.rasters]
    if missing:
        raise ConfigError(f"missing raster layers in config: {', '.join(missing)}")
    albedo = raster_mod.parse_ascii_grid(cfg.rasters["albedo"], raster_mod.Semantic.ALBEDO)
    vegetation = raster_mod.parse_ascii_grid(cfg.rasters["vegetation"],
                                             raster_mod.Semantic.VEGETATION_FRACTION)
    if cfg.irradiance_clear_sky_max is not None:
        raw = raster_mod.parse_ascii_grid(cfg.rasters["irradiance"],
                                          raster_mod.Semantic.IRRADIANCE_RAW)
        irradiance = raster_mod.normalize_irradiance(raw, cfg.irradiance_clear_sky_max)
    else:
        irradiance = raster_mod.parse_ascii_grid(
            cfg.rasters["irradiance"], raster_mod.Semantic.IRRADIANCE_NORMALIZED)
    result = raster_mod.compute_ucp(albedo, vegetation, irradiance, formula=cfg.ucp_formula)
    doing("cannot write outputs")
    buf = io.BytesIO()
    raster_mod.write_ascii_grid(result, buf)
    grid = buf.getvalue()
    grid_path = cfg.output_dir / "ucp.asc"
    _replace_file(grid_path, grid)
    _replace_file(raster_mod.cells_sidecar_path(grid_path),
                  *raster_mod.cells_sidecar(grid, result))
    log(f"wrote {grid_path}")


def run() -> None:
    """Process entry point: `main` with the import-time objects frozen.

    The modules, functions and classes imported so far live until exit, so
    `gc.freeze()` moves them out of the cyclic collector's generations:
    collections during the command and at interpreter shutdown no longer
    traverse them. Objects the command creates are collected as before, and
    the interpreter exits normally. `main` itself never freezes, so
    in-process callers (tests, `CliRunner`) keep their collector as it was.
    """
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
