"""Output checks for each CLI invocation of a benchmark sequence.

``check_op`` compares one command's exit code and files with what the site
generator injected; ``op_digest`` fingerprints those files so repeated and
traced runs can be required to reproduce them byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re

import numpy as np

EXPECTED_EXIT = 0
OFFSET_TOLERANCE_C = 1e-6      # generator inverts the reference polynomial to 1e-10
BACI_TOLERANCE_C = 0.0015      # report prints the effect with 3 decimals
UCP_TOLERANCE = 1e-12


def op_files(site, args) -> list:
    """Files one invocation writes, in a fixed order."""
    out = site.root / "out"
    if args[0] == "ucp":
        return [out / "ucp.asc"]
    if args[0] == "process":
        d = out / args[1]
        return [d / "points.csv", d / "points.geojson", d / "report.txt"]
    if args[0] == "compare":
        d = out / f"compare_{args[1]}_{args[2]}"
        return [d / "point_deltas.csv", d / "report.txt", d / "scatter.csv",
                d / "scatter.svg"]
    return []


def op_digest(site, args, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in op_files(site, args):
        h.update(path.name.encode())
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def check_op(site, args, exit_code: int, stdout: str) -> list[str]:
    """Problems found in one invocation's outputs; empty when it is correct."""
    if exit_code != EXPECTED_EXIT:
        return [f"exit code {exit_code}, expected {EXPECTED_EXIT}"]
    missing = [p.name for p in op_files(site, args) if not p.exists()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    if args[0] == "check-day":
        return [] if "verdict: accepted" in stdout else ["day not accepted"]
    if args[0] == "ucp":
        return _check_ucp(site)
    if args[0] == "process":
        return _check_process(site, site.campaigns[args[1]])
    if args[0] == "compare":
        return _check_compare(site)
    return [f"no check for command {args[0]!r}"]


def _check_ucp(site) -> list[str]:
    tokens = (site.root / "out" / "ucp.asc").read_text().split()
    header = dict(zip(tokens[0:12:2], tokens[1:12:2]))
    want = site.grids["ucp"]
    if (int(header.get("ncols", -1)), int(header.get("nrows", -1))) != want.shape[::-1]:
        return [f"ucp.asc header {header} does not match grid {want.shape}"]
    got = np.array(tokens[12:], dtype=float)
    if got.size != want.size:
        return [f"ucp.asc holds {got.size} cells, expected {want.size}"]
    err = float(np.max(np.abs(got - want.ravel())))
    return [f"ucp.asc differs from the formula by up to {err:.3g}"] if err > UCP_TOLERANCE else []


def _check_process(site, campaign) -> list[str]:
    out = site.root / "out" / campaign.campaign_id
    with open(out / "points.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    got = {r["point_id"]: float(r["offset_c"]) for r in rows}
    if set(got) != set(campaign.targets):
        problems.append(f"{campaign.campaign_id}: usable points {len(got)}, "
                        f"expected {len(campaign.targets)}")
    bad = [pid for pid, target in campaign.targets.items()
           if pid in got and abs(got[pid] - target) > OFFSET_TOLERANCE_C]
    if bad:
        pid = bad[0]
        problems.append(f"{campaign.campaign_id}: {len(bad)} offsets off target, "
                        f"e.g. {pid} {got[pid]!r} vs {campaign.targets[pid]!r}")
    report = (out / "report.txt").read_text().splitlines()
    unusable = sum(1 for line in report
                   if line.startswith("point ") and " unusable: " in line)
    if unusable != campaign.unusable:
        problems.append(f"{campaign.campaign_id}: {unusable} unusable stops reported, "
                        f"{campaign.unusable} injected")
    features = json.loads((out / "points.geojson").read_text())["features"]
    if len(features) != len(campaign.targets):
        problems.append(f"{campaign.campaign_id}: {len(features)} GeoJSON features")
    return problems


def _check_compare(site) -> list[str]:
    out = site.root / "out" / "compare_before_after"
    report = (out / "report.txt").read_text()
    problems = []
    m = re.search(r"^matched points: (\d+)$", report, re.M)
    if not m or int(m.group(1)) != site.matched_points:
        problems.append(f"matched points {m and m.group(1)}, expected {site.matched_points}")
    if site.baci_effect is None:
        if "BACI effect unavailable" not in report:
            problems.append("BACI effect reported without a case station")
    else:
        m = re.search(r"^BACI effect: ([-+]\d+\.\d+) degC", report, re.M)
        if not m or abs(float(m.group(1)) - site.baci_effect) > BACI_TOLERANCE_C:
            problems.append(f"BACI effect {m and m.group(1)}, oracle "
                            f"{site.baci_effect:+.4f}")
    usable = sum(len(c.targets) for c in site.campaigns.values())
    m = re.search(r"^offset vs UCP: .* n=(\d+)$", report, re.M)
    if not m or int(m.group(1)) != usable:
        problems.append(f"correlation over {m and m.group(1)} points, expected {usable}")
    pairs = (out / "scatter.csv").read_text().count("\n") - 1
    if pairs != usable:
        problems.append(f"scatter.csv holds {pairs} pairs, expected {usable}")
    return problems


def check_dropped_rows(site, parsed: list[tuple[str, int]]) -> list[str]:
    """Dropped-row counts seen by the traced station parser versus those injected."""
    return [f"{station}: parser dropped {dropped} rows, "
            f"{site.dropped_rows.get(station)} malformed rows injected"
            for station, dropped in parsed if dropped != site.dropped_rows.get(station)]
