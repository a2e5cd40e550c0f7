"""Summarise the benchmark run records of a parent tree and a change tree.

    python3 tools/bench_record.py PARENT_TREE CHANGE_TREE OUTPUT.json

benchmarks/run.py writes one record per run to
<tree>/.bench_runs/<workload>-seed<N>-trace<T>.json.  Runs of the two
trees are paired by workload, seed and trace flag; a run on one side
only is left out.  Traced runs are summarised as the workload
"<workload> traced".  For each workload and metric the output holds each
side's median and quartiles over the paired runs, the values in seed
order, the number of pairs, and the number of pairs the change wins.
Every metric of the benchmark is lower-is-better, so the change wins a
pair when its value is lower; a tie counts for neither side.  Operations
attempted and failed are summed per side.  For each untraced workload,
"operations_unscaled_s" holds each operation's median raw cold and warm
seconds per side, over every pass of the paired runs, not scaled to the
reference loop; it shows which operations a change moved.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")
SIDES = ("parent", "change")


def load_records(tree: Path) -> dict[tuple[str, int], dict]:
    """{(workload key, seed): run record} for every record under tree."""
    records = {}
    for path in sorted((tree / ".bench_runs").glob("*-trace*.json")):
        match = RECORD.fullmatch(path.name)
        if match is None:
            continue
        key = match["workload"] + (" traced" if match["trace"] == "1" else "")
        records[key, int(match["seed"])] = json.loads(path.read_text())
    return records


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def operation_medians(runs: dict[str, list[dict]]) -> dict:
    """{operation: {"cold"|"warm": {side: median raw seconds}}}, in pass order."""
    out: dict[str, dict] = {}
    for mode in ("cold", "warm"):
        for side in SIDES:
            seconds: dict[str, list[float]] = {}
            for run in runs[side]:
                for one_pass in run[mode]:
                    for op in one_pass:
                        seconds.setdefault(op["op"], []).append(op["seconds"])
            for name, values in seconds.items():
                out.setdefault(name, {}).setdefault(mode, {})[side] = statistics.median(values)
    return out


def summarise(parent: dict, change: dict) -> dict:
    """The summary of the runs both sides made, keyed by workload."""
    paired = sorted(set(parent) & set(change))
    out: dict[str, dict] = {}
    for workload in sorted({key for key, _ in paired}):
        seeds = [seed for key, seed in paired if key == workload]
        records = {side: [tree[workload, seed] for seed in seeds]
                   for side, tree in zip(SIDES, (parent, change))}
        runs = {side: [record["result"] for record in records[side]] for side in SIDES}
        metrics = {}
        for name, first in runs["parent"][0]["metrics"].items():
            values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                      for side in SIDES}
            metrics[name] = {
                "unit": first["unit"],
                "pairs": len(seeds),
                "wins": sum(c < p for p, c in zip(values["parent"], values["change"])),
                **{side: {**spread(values[side]), "values": values[side]} for side in SIDES},
            }
        out[workload] = {
            "seeds": seeds,
            **{field: {side: sum(run[field] for run in runs[side]) for side in SIDES}
               for field in ("attempted", "failed")},
            "metrics": metrics,
        }
        if not workload.endswith(" traced"):
            out[workload]["operations_unscaled_s"] = operation_medians(records)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("output", type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    summary = summarise(load_records(args.parent), load_records(args.change))
    if not summary:
        print("error: no run was recorded on both sides", file=sys.stderr)
        return 1
    args.output.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
