"""In-process span tracing of one CLI command, and per-layer metrics from spans.

Run as a script, it imports the package, wraps each traced public function
in every ``microclimap.*`` namespace that binds it (``campaign`` imports
``utci`` and ``nearest_sample`` by name, ``cli`` imports ``load_plan``),
wraps the click command callbacks, runs one command in-process and writes
the spans it kept in memory as JSON when the command ends::

    python perfbench/tracer.py --spans spans.json --run-id ID -- -c run.yaml ucp

A span is ``[id, parent_id, name, start_s, end_s, counts]``; spans of one
benchmark run share the run id. The program's own code is not modified.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import re
import statistics
import subprocess
import sys
import time

#: Public functions traced per layer (module of ``microclimap``).
TRACED = {
    "config": ("load_config", "load_plan"),
    "series": ("parse_station_csv", "offset_series", "nearest_sample",
               "drift_diagnostic"),
    "thermal": ("utci", "mrt_from_globe"),
    "campaign": ("derive_day_summary", "parse_mobile_csv", "segment_stops",
                 "detect_stabilization", "aggregate_point", "match_control",
                 "process_campaign"),
    "raster": ("parse_ascii_grid", "write_ascii_grid", "normalize_irradiance",
               "compute_ucp", "export_heat_map", "geojson_dumps", "sample_at"),
    "analysis": ("baci_effect", "correlate_offset_ucp", "scatter_svg", "scatter_csv"),
    "cli": ("point_results_csv", "read_point_results_csv", "write_atomic"),
}
COMMANDS = ("check_day", "ucp", "process", "compare")

# Counts taken from a traced call's bound arguments and result.
HOOKS = {
    "series.parse_station_csv": lambda a, r: {
        "rows": r.load_report.rows_read, "dropped": r.load_report.dropped_rows,
        "station": a["station_id"]},
    "series.offset_series": lambda a, r: {
        "case_samples": len(a["case"].samples), "matched": len(r.times)},
    "series.drift_diagnostic": lambda a, r: {"in_window": r.n_samples},
    "campaign.parse_mobile_csv": lambda a, r: {"rows": len(r)},
    "campaign.detect_stabilization": lambda a, r: {"stabilized": int(r.stabilized)},
    "campaign.process_campaign": lambda a, r: {
        "results": len(r[0]), "planned": len(a["plan"].points)},
    "raster.parse_ascii_grid": lambda a, r: {"cells": r.ncols * r.nrows},
    "raster.write_ascii_grid": lambda a, r: {"bytes": a["sink"].tell()},
    "analysis.baci_effect": lambda a, r: {"resamples": a["bootstrap_n"]},
    "cli.write_atomic": lambda a, r: {"bytes": len(a["text"].encode())},
}


class Tracer:
    """Keeps spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            record = [sid, stack[-1] if stack else None, name, clock(), 0.0, None]
            spans.append(record)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record[5] = hook(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    record[5] = {"hook_failed": 1}
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every traced function; returns the names that were not found."""
        from microclimap import cli  # imports every layer

        modules = [m for name, m in list(sys.modules.items())
                   if name == "microclimap" or name.startswith("microclimap.")]
        missing = []
        for layer, names in TRACED.items():
            home = sys.modules[f"microclimap.{layer}"]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    missing.append(f"{layer}.{fname}")
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr in [k for k, v in vars(module).items() if v is original]:
                        setattr(module, attr, wrapped)
        for command in cli.main.commands.values():
            name = command.name.replace("-", "_")
            command.callback = self.wrap(f"cli.{name}", command.callback)
        return missing


def _run_command(cli_args: list[str]) -> int:
    import click
    from microclimap import cli

    try:
        rv = cli.main.main(args=cli_args, prog_name="microclimap", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    return rv if isinstance(rv, int) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file to write spans to")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args
    tracer = Tracer()
    missing = tracer.install()
    code = _run_command(cli_args)
    sys.stdout.flush()
    with open(opts.spans, "w") as fh:
        json.dump({"run_id": opts.run_id, "argv": cli_args, "exit_code": code,
                   "missing": missing, "spans": tracer.spans}, fh)
    return code


# ---------------------------------------------------------------- aggregation

#: Per-layer metrics in report order: (name, unit).
PER_LAYER = [
    ("import.microclimap.cli.s", "s"), ("import.microclimap.analysis.s", "s"),
    ("config.load_config.s", "s"), ("config.load_plan.s", "s"),
    ("config.load_plan.calls", "count"),
    ("series.parse_station_csv.s", "s"), ("series.parse_station_csv.calls", "count"),
    ("series.parse_station_csv.rows_per_s", "rows/s"),
    ("series.parse_station_csv.dropped_rows", "count"),
    ("series.offset_series.s", "s"), ("series.offset_series.calls", "count"),
    ("series.offset_series.case_samples", "count"),
    ("series.offset_series.match_ratio", "ratio"),
    ("series.nearest_sample.s", "s"), ("series.nearest_sample.calls", "count"),
    ("series.drift_diagnostic.s", "s"),
    ("campaign.drift_window_ratio", "ratio"),
    ("thermal.utci.s", "s"), ("thermal.utci.calls", "count"),
    ("thermal.utci.us_per_call", "us"), ("thermal.mrt_from_globe.calls", "count"),
    ("campaign.derive_day_summary.s", "s"),
    ("campaign.parse_mobile_csv.s", "s"), ("campaign.parse_mobile_csv.rows", "count"),
    ("campaign.segment_stops.s", "s"),
    ("campaign.detect_stabilization.s", "s"),
    ("campaign.detect_stabilization.calls", "count"),
    ("campaign.aggregate_point.s", "s"), ("campaign.match_control.s", "s"),
    ("campaign.process_campaign.s", "s"),
    ("campaign.stabilized_ratio", "ratio"), ("campaign.points_usable_ratio", "ratio"),
    ("raster.parse_ascii_grid.s", "s"), ("raster.parse_ascii_grid.calls", "count"),
    ("raster.parse_ascii_grid.cells_per_s", "cells/s"),
    ("raster.write_ascii_grid.s", "s"), ("raster.write_ascii_grid.bytes", "bytes"),
    ("raster.normalize_irradiance.s", "s"), ("raster.compute_ucp.s", "s"),
    ("raster.export_heat_map.s", "s"), ("raster.geojson_dumps.s", "s"),
    ("raster.sample_at.calls", "count"),
    ("analysis.baci_effect.s", "s"), ("analysis.baci_effect.resamples", "count"),
    ("analysis.correlate_offset_ucp.s", "s"), ("analysis.scatter_svg.s", "s"),
    ("analysis.scatter_csv.s", "s"),
    ("cli.point_results_csv.s", "s"), ("cli.read_point_results_csv.s", "s"),
    ("cli.write_atomic.s", "s"), ("cli.write_atomic.bytes", "bytes"),
    ("cli.write_atomic.calls", "count"),
] + [(f"cli.{c}.self_s", "s") for c in COMMANDS] + [("trace.overhead_s", "s")]


def aggregate(span_files: list[dict]) -> dict:
    """Totals per span name over every traced command of one sequence.

    For each name: ``s`` and ``calls`` over outermost spans (a recursive
    call into the same function is not counted twice), ``self_s`` as span
    time not covered by child spans, and the sum of every hook count.
    Also returns the parser's per-station dropped-row counts and the
    drift-window numbers, which need the span tree.
    """
    totals: dict[str, dict] = {}
    dropped = []
    drift_differenced = drift_in_window = 0
    for doc in span_files:
        spans = {s[0]: s for s in doc["spans"]}
        child_time: dict[int, float] = {}
        for sid, parent, name, start, end, counts in spans.values():
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for sid, parent, name, start, end, counts in spans.values():
            t = totals.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
            t["self_s"] += (end - start) - child_time.get(sid, 0.0)
            parent_name = spans[parent][2] if parent is not None else None
            if parent_name == name:
                continue
            t["s"] += end - start
            t["calls"] += 1
            for key, value in (counts or {}).items():
                if key == "station":
                    continue
                t[key] = t.get(key, 0) + value
            if name == "series.parse_station_csv" and counts and "station" in counts:
                dropped.append((counts["station"], counts["dropped"]))
            if name == "series.offset_series" and parent_name == "campaign.process_campaign":
                drift_differenced += (counts or {}).get("case_samples", 0)
            if name == "series.drift_diagnostic":
                drift_in_window += (counts or {}).get("in_window", 0)
    return {"totals": totals, "dropped": dropped,
            "drift": (drift_in_window, drift_differenced)}


def layer_metrics(agg: dict, imports: dict[str, float], overhead_s: float) -> dict:
    """Every PER_LAYER metric; 0 where the layer did not run on the workload."""
    t = agg["totals"]

    def get(name, key):
        return t.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "import.microclimap.cli.s": imports.get("microclimap.cli", 0.0),
        "import.microclimap.analysis.s": imports.get("microclimap.analysis", 0.0),
        "series.parse_station_csv.rows_per_s": ratio(
            get("series.parse_station_csv", "rows"), get("series.parse_station_csv", "s")),
        "series.parse_station_csv.dropped_rows": get("series.parse_station_csv", "dropped"),
        "series.offset_series.case_samples": get("series.offset_series", "case_samples"),
        "series.offset_series.match_ratio": ratio(
            get("series.offset_series", "matched"),
            get("series.offset_series", "case_samples")),
        "campaign.drift_window_ratio": ratio(*agg["drift"]),
        "thermal.utci.us_per_call": 1e6 * ratio(get("thermal.utci", "s"),
                                                get("thermal.utci", "calls")),
        "campaign.parse_mobile_csv.rows": get("campaign.parse_mobile_csv", "rows"),
        "campaign.stabilized_ratio": ratio(
            get("campaign.detect_stabilization", "stabilized"),
            get("campaign.detect_stabilization", "calls")),
        "campaign.points_usable_ratio": ratio(
            get("campaign.process_campaign", "results"),
            get("campaign.process_campaign", "planned")),
        "raster.parse_ascii_grid.cells_per_s": ratio(
            get("raster.parse_ascii_grid", "cells"), get("raster.parse_ascii_grid", "s")),
        "raster.write_ascii_grid.bytes": get("raster.write_ascii_grid", "bytes"),
        "analysis.baci_effect.resamples": get("analysis.baci_effect", "resamples"),
        "cli.write_atomic.bytes": get("cli.write_atomic", "bytes"),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name not in values:
            span, _, key = name.rpartition(".")
            values[name] = get(span, key)
        out[name] = {"value": values[name], "unit": unit}
    return out


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def import_times(python: str, env: dict, cwd, repeats: int = 3) -> dict[str, float]:
    """Median cumulative import time (s) per ``microclimap`` module, from -X importtime."""
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import microclimap.cli"],
                              cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(3).strip().startswith("microclimap"):
                samples.setdefault(m.group(3).strip(), []).append(int(m.group(2)) / 1e6)
    return {name: statistics.median(v) for name, v in samples.items()}


if __name__ == "__main__":
    sys.exit(main())
