"""Benchmark for catalan-posets: one workload per run, every output checked.

    python3 benchmarks/run.py --workload verify|family|export --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from `src/`.
Each cold operation runs in a fresh interpreter, and warm passes run in
one long-lived interpreter (see child.py); one interpreter works at a
time.  Untraced runs report, each as a median:

  setup_s      import of catalan_posets and its CLI, over the cold
               operations' interpreters
  cold_s       one pass over the operations, each in a fresh interpreter
  warm_s       one pass repeated in an interpreter that already ran it once
  peak_rss_mb  largest peak RSS of any operation's interpreter in a pass

A pass time is the sum over the operations of each one's median time.
Every time is scaled to a fixed machine speed.  Each interpreter times a
fixed pure-Python loop next to each timed call (see child.py).  An
operation's time is multiplied by REFERENCE_S over the median loop time
of that operation and its WINDOW neighbours on each side in the pass.
The shared machine's speed drifts by a fifth or more over seconds to
minutes, and the loop and the package slow down together, so the scaled
times hold still where the raw ones do not.  The run record keeps the
raw times too.

The long-lived interpreter first runs a pass to fill its caches.  Then
cold passes and timed warm passes alternate for S seconds, so that both
sample the machine over the whole run; a run makes at least MIN_PASSES
of each.  Traced runs fill S seconds with traced cold passes and report
the per-layer metrics instead.  Runs attempt whole passes only, so
failed operations are a fixed share of the attempted ones.  Each
distinct output is checked once per run.  The last line of stdout is the
JSON result; a record of the run, and of its spans when traced, is
written under `.bench_runs/`.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
RUN_DIR = ROOT / ".bench_runs"
#: Seconds after start at which any child still running is killed.
DEADLINE = 170.0
#: Fewest cold and timed warm passes in a run, whatever its length.
MIN_PASSES = 3
#: Seconds the reference loop of child.py takes at the speed the times
#: are scaled to: about its median on the machine of the README's figures.
REFERENCE_S = 0.0125
#: Operations on each side whose loop times join an operation's own in
#: the median that scales it.
WINDOW = 2


def speed_factors(records: list[dict]) -> list[float]:
    """For each operation of one pass, the factor that scales its times
    to the speed where the reference loop takes REFERENCE_S."""
    loops = [record["reference_s"] for record in records]
    return [
        REFERENCE_S / statistics.median(loops[max(0, j - WINDOW) : j + WINDOW + 1])
        for j in range(len(loops))
    ]


class BenchmarkError(Exception):
    """A child interpreter crashed or ran out of time: no result."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


class Run:
    """Children, output checks and tallies of one benchmark run."""

    def __init__(self, name: str, seed: int):
        self.workload = workloads.WORKLOADS[name](seed)
        self.seed = seed
        self.outdir = RUN_DIR / "out" / name
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.started = time.monotonic()
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.failures: set[str] = set()
        self.problems: list[str] = []
        self.checked: dict[tuple[str, str], bool] = {}
        self.joint_done: set[tuple[str, str]] = set()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def remaining(self, what: str) -> float:
        remaining = DEADLINE - self.elapsed()
        if remaining <= 0:
            raise BenchmarkError(f"out of time before {what}")
        return remaining

    def command(self, mode: str, arg: str = "") -> list[str]:
        # -S: no site-packages hooks, whose imports would add to each start
        return [
            sys.executable, "-S", str(HERE / "child.py"), mode, self.workload.name,
            str(self.seed), str(self.outdir), arg,
        ]

    def child(self, mode: str, arg: str) -> dict:
        remaining = self.remaining(f"{mode} {arg}")
        command = self.command(mode, arg)
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{mode} {arg} ran past {DEADLINE:.0f} s") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchmarkError(f"{mode} {arg} exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def account(self, results: list[dict]) -> None:
        """Tally one pass and check every output it produced."""
        for record in results:
            self.attempted += 1
            if record["ok"]:
                self.accept(record["op"], record["digest"])
            else:
                self.failed += 1
                self.failures.add(f"{record['op']}: {record['error']}")
        for a, b, check in self.workload.joint:
            if (a, b) in self.joint_done:
                continue
            if not (self.good(a) and self.good(b)):
                continue
            self.joint_done.add((a, b))
            self.note(f"{a} vs {b}", check(self.text(a), self.text(b)))

    def text(self, name: str) -> str:
        return (self.outdir / f"{name}.out").read_text()

    def good(self, name: str) -> bool:
        """Whether the op's output file holds an output that passed its check."""
        path = self.outdir / f"{name}.out"
        return self.checked.get((name, hashlib.sha256(path.read_bytes()).hexdigest()), False)

    def accept(self, name: str, digest: str) -> None:
        key = (name, digest)
        if key in self.checked:
            return
        data = (self.outdir / f"{name}.out").read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            self.checked[key] = False
            self.note(name, ["output differs between passes"])
            return
        problems = self.workload.op(name).check(data.decode())
        self.checked[key] = not problems
        self.note(name, problems)

    def note(self, where: str, problems: list[str]) -> None:
        self.problems += [f"{where}: {problem}" for problem in problems]

    def cold_pass(self) -> list[dict]:
        results = [self.child("cold", op.name)["results"][0] for op in self.workload.ops]
        self.account(results)
        return results

    def warm_pass(self, warm: subprocess.Popen) -> list[dict]:
        """One pass in the long-lived interpreter `warm` (child.py serve)."""
        timer = threading.Timer(self.remaining("a warm pass"), warm.kill)
        timer.start()
        try:
            warm.stdin.write("pass\n")
            warm.stdin.flush()
            line = warm.stdout.readline()
        except OSError:
            line = ""
        finally:
            timer.cancel()
        if not line.strip():
            raise BenchmarkError(f"the warm interpreter ended (code {warm.poll()})")
        report = json.loads(line)
        self.account(report["results"])
        return report["results"]

    def traced_pass(self, number: int, spans: list[dict]) -> dict[str, float]:
        """Per-layer sums over one traced pass; spans are appended to `spans`."""
        layers: dict[str, float] = defaultdict(int)
        results = [self.child("trace", op.name)["results"][0] for op in self.workload.ops]
        for record, factor in zip(results, speed_factors(results)):
            trace = f"{number}:{record['op']}"
            for layer, start, end in record["spans"]:
                parent = None if layer == "cli.main" else "op"
                spans.append({"trace": trace, "span": layer, "start": start, "end": end, "parent": parent})
                if layer != "cli.main":
                    layers[f"{layer}_s"] += (end - start) * factor
            if "write" in record:
                seconds, calls = record["write"]
                spans.append({"trace": trace, "span": "cli.write", "seconds": seconds, "calls": calls, "parent": "cli.main"})
                layers["cli.write_s"] += seconds * factor
            for key, value in record["counts"].items():
                layers[key] += value
        self.account(results)
        return layers


def repeat(one_pass, until: float) -> list:
    """Whole passes until the monotonic time `until`: at least MIN_PASSES,
    and beyond those no pass that would end past `until` if it took as
    long as the one before."""
    results = []
    while True:
        begun = time.monotonic()
        results.append(one_pass())
        now = time.monotonic()
        if len(results) >= MIN_PASSES and now + (now - begun) > until:
            return results


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    until = time.monotonic() + seconds
    with subprocess.Popen(
        run.command("serve"), cwd=ROOT, env=run.env, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
    ) as server:
        try:
            run.warm_pass(server)  # fills every cache; not measured
            rounds = repeat(lambda: (run.cold_pass(), run.warm_pass(server)), until)
            server.stdin.close()
            server.wait(timeout=run.remaining("the warm interpreter's exit"))
        except subprocess.TimeoutExpired:
            raise BenchmarkError("the warm interpreter did not exit") from None
        finally:
            if server.poll() is None:
                server.kill()
    cold, warm = zip(*rounds)
    cold_factors = [speed_factors(p) for p in cold]
    warm_factors = [speed_factors(p) for p in warm]
    ones = [[1.0] * len(p) for p in cold]
    metrics = {
        "setup_s": (import_time(cold, cold_factors), "s"),
        "cold_s": (pass_time(cold, cold_factors), "s"),
        "warm_s": (pass_time(warm, warm_factors), "s"),
        "peak_rss_mb": (statistics.median(max(r["rss_mb"] for r in p) for p in cold), "MB"),
    }
    raw = {
        "setup_s": import_time(cold, ones),
        "cold_s": pass_time(cold, ones),
        "warm_s": pass_time(warm, ones),
    }
    return metrics, {"cold": cold, "warm": warm, "raw": raw}


def pass_time(passes, factors) -> float:
    """The time of one pass: the sum over its operations of each one's
    median scaled time over the passes."""
    per_op = zip(*(zip(p, f) for p, f in zip(passes, factors)))
    return sum(statistics.median(r["seconds"] * f for r, f in samples) for samples in per_op)


def import_time(passes, factors) -> float:
    """Median scaled import time over the cold operations' interpreters."""
    return statistics.median(
        r["import_s"] * f for p, fs in zip(passes, factors) for r, f in zip(p, fs)
    )


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    spans: list[dict] = []
    numbers = itertools.count()
    passes = repeat(lambda: run.traced_pass(next(numbers), spans), time.monotonic() + seconds)
    metrics = {}
    for name, unit in workloads.LAYER_METRICS.items():
        pick = statistics.median if unit == "s" else statistics.median_low  # counts stay whole
        metrics[name] = (pick([layers.get(name, 0) for layers in passes]), unit)
    totals = [sum(v for k, v in layers.items() if k.endswith("_s")) for layers in passes]
    trace_file = RUN_DIR / f"trace-{run.workload.name}-seed{run.seed}.jsonl"
    trace_file.write_text("".join(json.dumps(span) + "\n" for span in spans))
    return metrics, {"layers": passes, "traced_total_s": totals, "trace_file": trace_file.name}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SOURCE / "catalan_posets" / "__init__.py").is_file():
        print(f"error: no package source under {SOURCE}", file=sys.stderr)
        return 2
    try:
        run = Run(args.workload, args.seed)
        if args.trace:
            metrics, record = measure_traced(run, args.seconds)
        else:
            metrics, record = measure(run, args.seconds)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in sorted(run.failures):
        print(f"operation failed: {failure}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(
        result=result, workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, wall_s=run.elapsed(), problems=run.problems,
        failures=sorted(run.failures), python=platform.python_version(),
    )
    (RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
