"""tools/bench_record.py on two tiny synthetic run records per side."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def write_run(tree, workload, seed, trace, cold_s, failed=0):
    runs = tree / ".bench_runs"
    runs.mkdir(parents=True, exist_ok=True)
    result = {
        "correct": True,
        "attempted": 10,
        "failed": failed,
        "metrics": {"cold_s": {"value": cold_s, "unit": "s"}},
    }
    path = runs / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({"result": result, "raw": {}}))


def test_bench_record_pairs_runs_by_seed(tmp_path):
    parent, change, output = tmp_path / "parent", tmp_path / "change", tmp_path / "out.json"
    for seed, before, after in (1, 2.0, 1.0), (2, 3.0, 3.0), (3, 4.0, 1.5):
        write_run(parent, "export", seed, 0, before)
        write_run(change, "export", seed, 0, after, failed=int(seed == 3))
    write_run(parent, "export", 9, 0, 0.5)  # no partner: left out
    write_run(parent, "export", 1, 1, 2.0)
    write_run(change, "export", 1, 1, 2.5)
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change), str(output)],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    summary = json.loads(output.read_text())
    assert sorted(summary) == ["export", "export traced"]
    export = summary["export"]
    assert export["seeds"] == [1, 2, 3]
    assert export["attempted"] == {"parent": 30, "change": 30}
    assert export["failed"] == {"parent": 0, "change": 1}
    cold = export["metrics"]["cold_s"]
    assert (cold["unit"], cold["pairs"], cold["wins"]) == ("s", 3, 2)
    assert cold["parent"] == {"median": 3.0, "q1": 2.5, "q3": 3.5, "values": [2.0, 3.0, 4.0]}
    assert cold["change"] == {"median": 1.5, "q1": 1.25, "q3": 2.25, "values": [1.0, 3.0, 1.5]}
    traced = summary["export traced"]["metrics"]["cold_s"]
    assert (traced["pairs"], traced["wins"], traced["change"]["median"]) == (1, 0, 2.5)


def test_bench_record_without_pairs_is_an_error(tmp_path):
    write_run(tmp_path / "parent", "verify", 1, 0, 1.0)
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "parent"), str(tmp_path / "change"),
         str(tmp_path / "out.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stderr == "error: no run was recorded on both sides\n"
    assert not (tmp_path / "out.json").exists()
