"""Print how the benchmark's end-to-end metrics moved from record to record.

    python3 tools/bench_trend.py [ROOT]

ROOT (default: the repository holding this script) holds BENCHMARK.json
and the BENCH_pr<N>.json records that tools/bench_record.py wrote, one per
change.  For each workload and each end-to-end metric that BENCHMARK.json
names, the output has one row per record, in order of N, with the parent's
and the change's median over that record's paired runs and the change's
median relative to the parent's.  A record that lacks the workload or the
metric prints "-" in its place.  Traced workloads are left out, because
the end-to-end metrics are measured untraced.  The script only reads; it
uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

RECORD = re.compile(r"BENCH_pr(\d+)\.json")


def records(root: Path) -> list[tuple[str, dict]]:
    """("pr<N>", contents) of each BENCH_pr<N>.json under root, in order of N."""
    numbered = []
    for path in root.glob("BENCH_pr*.json"):
        match = RECORD.fullmatch(path.name)
        if match is not None:
            numbered.append((int(match[1]), path))
    return [(f"pr{n}", json.loads(path.read_text())) for n, path in sorted(numbered)]


def trend_rows(root: Path) -> list[tuple[str, ...]]:
    """(workload, metric, record, parent, change, change vs parent) per row."""
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    metrics = [metric["name"] for metric in benchmark["end_to_end"]]
    loaded = records(root)
    rows = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in metrics:
            for name, record in loaded:
                entry = record.get(workload, {}).get("metrics", {}).get(metric)
                if entry is None:
                    rows.append((workload, metric, name, "-", "-", "-"))
                    continue
                parent, change = entry["parent"]["median"], entry["change"]["median"]
                relative = f"{change / parent - 1:+.1%}"
                rows.append((workload, metric, name, f"{parent:.4f}", f"{change:.4f}", relative))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1],
        help="directory holding BENCHMARK.json and the BENCH_pr*.json records",
    )
    args = parser.parse_args(argv)
    header = ("workload", "metric", "record", "parent", "change", "vs parent")
    rows = [header, *trend_rows(args.root)]
    widths = [max(len(row[k]) for row in rows) for k in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
