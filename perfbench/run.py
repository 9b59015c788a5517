"""End-to-end benchmark of the microclimap CLI on generated study sites.

Usage (from the repository root)::

    python3 perfbench/run.py --workload season-baci --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

With ``--trace 0`` it generates the workload's site from the seed, times a
fresh-interpreter import + ``load_config`` (set-up) several times, then
runs the workload's command sequence as sequential subprocesses, one at a
time, for ``--seconds``, and reports medians of the end-to-end metrics.
With ``--trace 1`` it runs the sequence once untraced and once under
``tracer.py`` and reports the per-layer metrics and the tracing overhead.
Every invocation's outputs are checked against the generator's oracle and
must be byte-identical across repeats and between untraced and traced
runs. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a run record with metadata goes
to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("season-baci", "dense-traverse", "megacell-grid")
RUN_DEADLINE_S = 165.0      # a run must end within 180 s
SETUP_CODE = ("import sys; from microclimap.cli import main; "
              "from microclimap.config import load_config; load_config(sys.argv[1])")

#: End-to-end metrics in report order: (name, unit).
END_TO_END = [("setup_s", "s"), ("check_day_s", "s"), ("ucp_s", "s"),
              ("process_s", "s"), ("compare_s", "s"), ("pipeline_s", "s"),
              ("peak_rss_mb", "MB")]


@dataclass
class Op:
    """One CLI invocation and what came of it."""

    name: str
    args: list[str]
    exit_code: int
    wall_s: float
    rss_mb: float
    stdout: str
    problems: list[str]


class Runner:
    def __init__(self, site, deadline: float):
        self.site = site
        self.deadline = deadline
        self.python = sys.executable
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src")
                        + (os.pathsep + path if path else ""))
        self.logs = site.root.parent / "logs"
        self.logs.mkdir(exist_ok=True)

    def spawn(self, argv: list[str], tag: str) -> tuple[int, float, float, str]:
        """Run one subprocess to completion: (exit code, wall s, max RSS MB, stdout)."""
        out_path, err_path = self.logs / f"{tag}.out", self.logs / f"{tag}.err"
        timeout = max(0.1, self.deadline - time.monotonic())
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.site.root, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text()

    def setup_probe(self, tag: str) -> Op:
        """A fresh interpreter importing the CLI and loading the config."""
        args = ["-c", SETUP_CODE, str(self.site.config)]
        code, wall, rss, stdout = self.spawn([self.python, *args], tag)
        problems = [] if code == 0 else [f"exit code {code}"]
        return Op("setup", args, code, wall, rss, stdout, problems)

    def sequence(self, tag: str, traced_spans: Path | None = None) -> tuple[list[Op], float]:
        """Run the workload's commands in order; returns ops and pipeline wall time."""
        shutil.rmtree(self.site.root / "out", ignore_errors=True)
        ops = []
        start = time.perf_counter()
        for i, (name, args) in enumerate(self.site.commands):
            cli = ["-c", str(self.site.config), *args]
            if traced_spans is None:
                argv = [self.python, "-m", "microclimap.cli", *cli]
            else:
                argv = [self.python, str(HERE / "tracer.py"),
                        "--spans", str(traced_spans / f"{i}.json"),
                        "--run-id", f"{self.site.workload}-s{self.site.seed}", "--", *cli]
            code, wall, rss, stdout = self.spawn(argv, f"{tag}-{i}-{name}")
            ops.append(Op(name, args, code, wall, rss, stdout, []))
        return ops, time.perf_counter() - start


def check_sequence(site, ops: list[Op], reference: list[str] | None) -> list[str]:
    """Check each op (fully, or against the reference digests); returns digests."""
    digests = []
    for i, op in enumerate(ops):
        digest = checks.op_digest(site, op.args, op.stdout)
        digests.append(digest)
        if reference is None:
            op.problems = checks.check_op(site, op.args, op.exit_code, op.stdout)
        elif op.exit_code != checks.EXPECTED_EXIT:
            op.problems = [f"exit code {op.exit_code}"]
        elif digest != reference[i]:
            op.problems = ["outputs differ from the first run of the same inputs"]
    return digests


def metadata(site, seed: int) -> dict:
    import yaml

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    versions = {}
    for dist in ("numpy", "scipy", "PyYAML", "click"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "versions": versions,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "workload": site.workload,
        "seed": seed,
        "inputs": site.sizes(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def measure_end_to_end(runner, seconds: float) -> tuple[dict, list[Op], dict]:
    """Rounds of one set-up probe plus one sequence until ``seconds`` are used.

    A shared machine's speed can drift over seconds to minutes, so samples
    of every metric are spread over the whole window, not taken in a block.
    """
    site = runner.site
    runner.setup_probe("setup-warm")
    ops: list[Op] = []
    pipelines, peaks = [], []
    reference = None
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        ops.append(runner.setup_probe(f"setup-{len(pipelines)}"))
        seq, pipeline = runner.sequence(f"seq{len(pipelines)}")
        digests = check_sequence(site, seq, reference)
        reference = reference or digests
        ops.extend(seq)
        pipelines.append(pipeline)
        peaks.append(max(op.rss_mb for op in seq))
        now = time.monotonic()
        last = now - round_start
        # another round if that brings the end nearer the window's end
        if (now - start) + last / 2 > seconds or now + 2 * last > runner.deadline:
            break

    def times(name):
        return [op.wall_s for op in ops if op.name == name]

    samples = {"setup_s": times("setup"), "check_day_s": times("check_day"),
               "ucp_s": times("ucp"), "process_s": times("process"),
               "compare_s": times("compare"), "pipeline_s": pipelines,
               "peak_rss_mb": peaks}
    metrics = {name: {"value": _median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    return metrics, ops, samples


def measure_per_layer(runner) -> tuple[dict, list[Op], dict]:
    """Untraced, traced, untraced again: the overhead is traced minus the
    mean of the two untraced sequences around it, which cancels a steady
    drift in machine speed."""
    site = runner.site
    plain, plain_s = runner.sequence("plain")
    reference = check_sequence(site, plain, None)
    spans_dir = site.root.parent / "spans"
    spans_dir.mkdir(exist_ok=True)
    traced, traced_s = runner.sequence("traced", traced_spans=spans_dir)
    check_sequence(site, traced, reference)
    after, after_s = runner.sequence("plain-after")
    check_sequence(site, after, reference)
    span_files = []
    for i, op in enumerate(traced):
        path = spans_dir / f"{i}.json"
        if path.exists():
            span_files.append(json.loads(path.read_text()))
        else:
            op.problems.append("traced run wrote no spans")
    agg = tracer.aggregate(span_files)
    traced[0].problems.extend(checks.check_dropped_rows(site, agg["dropped"]))
    imports = tracer.import_times(runner.python, runner.env, site.root)
    metrics = tracer.layer_metrics(agg, imports, traced_s - (plain_s + after_s) / 2)
    extra = {"pipeline_untraced_s": [plain_s, after_s], "pipeline_traced_s": traced_s,
             "imports_s": imports,
             "missing_functions": sorted({m for d in span_files for m in d["missing"]}),
             "span_files": span_files}
    return metrics, plain + traced + after, extra


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import sitegen

    started = time.monotonic()
    work = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        site = sitegen.generate(workload, seed, work / "site")
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                       check=True, capture_output=True)
        runner = Runner(site, started + RUN_DEADLINE_S)
        if trace:
            metrics, ops, extra = measure_per_layer(runner)
        else:
            metrics, ops, extra = measure_end_to_end(runner, seconds)
        meta = metadata(site, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    span_files = extra.pop("span_files", None)
    failed = [op for op in ops if op.problems]
    record = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
        "error_rate": len(failed) / len(ops),
        "problems": [f"{op.name} {' '.join(op.args)}: {p}" for op in failed
                     for p in op.problems],
        "meta": meta,
        "trace": trace,
        "samples": extra,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"BENCH_{workload}_s{seed}_t{trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    if span_files is not None:
        (results / f"SPANS_{workload}_s{seed}.json").write_text(json.dumps(span_files))
    return record


def print_report(workload: str, record: dict):
    samples = record["samples"]
    print(f"== {workload} (seed {record['meta']['seed']}, trace {record['trace']})")
    for name, metric in record["metrics"].items():
        n = f"  n={len(samples[name])}" if name in samples else ""
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}{n}")
    print(f"  {'error_rate':42s} {record['error_rate']:>14.6g} ratio"
          f"  n={record['attempted']}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print("meta " + json.dumps(record["meta"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    for needed in (ROOT / "src" / "microclimap" / "cli.py",
                   ROOT / "tests" / "utci_reference.py"):
        if not needed.is_file():
            print(f"benchmark needs {needed.relative_to(ROOT)}: run it from a "
                  "checkout of the repository", file=sys.stderr)
            return 2

    workloads = WORKLOADS if opts.workload == "all" else (opts.workload,)
    records = {}
    for workload in workloads:
        records[workload] = run_workload(workload, opts.seed, opts.seconds, opts.trace)
        print_report(workload, records[workload])
    if len(records) == 1:
        metrics = records[workload]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in records.items()
                   for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in records.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records.values()),
                      "failed": sum(r["failed"] for r in records.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
