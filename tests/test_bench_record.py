"""tools/bench_record.py on two tiny synthetic run records per side."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def write_run(tree, workload, seed, trace, cold_s, failed=0, passes=()):
    """passes: (cold, warm) pairs of {operation: raw seconds}, one per round."""
    runs = tree / ".bench_runs"
    runs.mkdir(parents=True, exist_ok=True)
    result = {
        "correct": True,
        "attempted": 10,
        "failed": failed,
        "metrics": {"cold_s": {"value": cold_s, "unit": "s"}},
    }
    record = {"result": result, "raw": {}}
    if not trace:
        for mode, index in ("cold", 0), ("warm", 1):
            record[mode] = [
                [{"op": op, "seconds": seconds} for op, seconds in one_round[index].items()]
                for one_round in passes
            ]
    path = runs / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record))


def test_bench_record_pairs_runs_by_seed(tmp_path):
    parent, change, output = tmp_path / "parent", tmp_path / "change", tmp_path / "out.json"
    for seed, before, after in (1, 2.0, 1.0), (2, 3.0, 3.0), (3, 4.0, 1.5):
        # two rounds per run; "a" gets faster on the change side, "b" does not
        rounds = [({"a": before, "b": 0.5}, {"a": before / 10, "b": 0.25})] * 2
        write_run(parent, "export", seed, 0, before, passes=rounds)
        faster = [({"a": after, "b": 0.5}, {"a": after / 10, "b": 0.25})] * 2
        write_run(change, "export", seed, 0, after, failed=int(seed == 3), passes=faster)
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
    assert export["operations_unscaled_s"] == {
        "a": {"cold": {"parent": 3.0, "change": 1.5}, "warm": {"parent": 0.3, "change": 0.15}},
        "b": {"cold": {"parent": 0.5, "change": 0.5}, "warm": {"parent": 0.25, "change": 0.25}},
    }
    traced = summary["export traced"]
    assert "operations_unscaled_s" not in traced
    cold = traced["metrics"]["cold_s"]
    assert (cold["pairs"], cold["wins"], cold["change"]["median"]) == (1, 0, 2.5)


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
