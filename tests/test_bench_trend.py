"""tools/bench_trend.py over the BENCH_pr*.json records checked in at the
root, and over a tiny synthetic pair of records."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "bench_trend.py"


def trend(root=None):
    """The tool's rows under its header, each split into its cells."""
    argv = [sys.executable, str(SCRIPT)] + ([str(root)] if root else [])
    result = subprocess.run(argv, capture_output=True, text=True, check=True)
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["workload", "metric", "record", "parent", "change", "vs", "parent"]
    return [row.split() for row in rows]


def test_bench_trend_prints_one_row_per_record_in_pr_order():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    numbers = sorted(
        int(re.fullmatch(r"BENCH_pr(\d+)\.json", path.name)[1])
        for path in ROOT.glob("BENCH_pr*.json")
    )
    records = {n: json.loads((ROOT / f"BENCH_pr{n}.json").read_text()) for n in numbers}
    rows = iter(trend())
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in (entry["name"] for entry in benchmark["end_to_end"]):
            for n in numbers:
                expected = records[n][workload]["metrics"][metric]
                assert next(rows)[:5] == [
                    workload,
                    metric,
                    f"pr{n}",
                    f"{expected['parent']['median']:.4f}",
                    f"{expected['change']['median']:.4f}",
                ]
    assert next(rows, None) is None


def test_bench_trend_marks_what_a_record_lacks(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"workloads": [{"name": "export"}], "end_to_end": [{"name": "warm_s"}]})
    )
    warm = {"warm_s": {"parent": {"median": 0.08}, "change": {"median": 0.06}}}
    (tmp_path / "BENCH_pr10.json").write_text(json.dumps({"export": {"metrics": warm}}))
    (tmp_path / "BENCH_pr9.json").write_text(json.dumps({"family": {"metrics": warm}}))
    assert trend(tmp_path) == [
        ["export", "warm_s", "pr9", "-", "-", "-"],
        ["export", "warm_s", "pr10", "0.0800", "0.0600", "-25.0%"],
    ]
