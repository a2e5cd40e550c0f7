"""One fresh interpreter of the benchmark.

    python child.py cold  <workload> <seed> <outdir> <op>
    python child.py trace <workload> <seed> <outdir> <op>
    python child.py serve <workload> <seed> <outdir>

It times the import of catalan_posets and its CLI first, before anything
else is imported.  Then it runs one operation (`cold`, which also
reports the import time, or `trace`), or one whole pass over the
workload for each line it reads from stdin until stdin closes (`serve`:
the first pass fills every cache, and the later ones run warm).  Each
operation's output goes to `<outdir>/<op>.out`.  One JSON line on stdout
for each operation or pass reports times, peak RSS, output digests and,
when traced, spans and counts.

Before the first operation, at the start of each pass and after each
operation, the interpreter times a fixed pure-Python loop
(`reference_seconds`), outside any timed region.  The parent scales each
time by the loop times of nearby operations (see run.py), which takes
out the drift of the machine's speed.
"""

import sys
import time

_start = time.perf_counter()
import catalan_posets  # noqa: E402
import catalan_posets.cli  # noqa: E402

IMPORT_SECONDS = time.perf_counter() - _start

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402

import workloads  # noqa: E402


def reference_seconds(loops=50_000):
    """Time of a fixed pure-Python loop: the machine's speed right now.
    Like the package, it does integer arithmetic, makes small tuples and
    stores them into a list and a dict.  Its memory stays small and the
    collector is off while it runs, so the time does not depend on what
    the process holds."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = 0
    ring = [None] * 1024
    table = {}
    for i in range(loops):
        pair = (i, i * i % 7)
        ring[i & 1023] = pair
        table[i & 255] = pair
        total += pair[1]
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


class Reference:
    """The reference loop timed between calls: each call's reference time
    is the mean of the loop just before it and the loop just after it,
    which is also the next call's loop before."""

    def __init__(self):
        self.restart()

    def restart(self):
        self.last = reference_seconds()

    def around(self):
        before, self.last = self.last, reference_seconds()
        return (before + self.last) / 2


class TimedWriter:
    """stdout for a traced CLI call: the time spent inside write() is the
    CLI's output cost."""

    def __init__(self, handle):
        self.handle = handle
        self.seconds = 0.0
        self.calls = 0
        self.chars = 0

    def write(self, text):
        start = time.perf_counter()
        self.handle.write(text)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        self.chars += len(text)
        return len(text)

    def flush(self):
        self.handle.flush()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def call_cli(op, path, timed=False):
    """Run the CLI with stdout sent to `path`, as a shell redirect would,
    and stderr discarded.  Returns (seconds, error or None, TimedWriter or
    None)."""
    error = None
    with open(path, "w") as handle:
        out = TimedWriter(handle) if timed else handle
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = catalan_posets.cli.main(list(op.argv))
                out.flush()
                if code:
                    error = f"exit code {code}"
            except (Exception, SystemExit) as exc:  # the operation failed
                error = describe(exc)
            seconds = time.perf_counter() - start
    return seconds, error, out if timed else None


def describe(error):
    return f"{type(error).__name__}: {str(error)[:200]}"


def finish(record, op, path, error, value=None):
    """Write a library result out, then mark the record ok with the output's
    digest, or failed with the error."""
    if error is None and op.argv is None:
        with open(path, "w") as handle:
            handle.write(op.dump(value))
    record["ok"] = error is None
    if error is None:
        record["digest"] = digest(path)
    else:
        record["error"] = error
    return record


def run_plain(op, path, reference):
    """One operation under one timer: the CLI call, or the library stages
    back to back."""
    record = {"op": op.name}
    value = error = None
    if op.argv is not None:
        record["seconds"], error, _ = call_cli(op, path)
    else:
        start = time.perf_counter()
        try:
            for stage in op.stages:
                value = stage.call(catalan_posets, value)
        except Exception as exc:  # the operation failed
            error = describe(exc)
        record["seconds"] = time.perf_counter() - start
    record["reference_s"] = reference.around()
    record["rss_mb"] = peak_rss_mb()
    return finish(record, op, path, error, value)


def run_traced(op, path, origin, reference):
    """Each stage under its own span, then the CLI call with timed writes.
    A failing stage ends the operation."""
    record = {"op": op.name, "spans": []}
    counts = Counter()
    value = error = None
    for stage in op.stages:
        start = time.perf_counter()
        try:
            result = stage.call(catalan_posets, value)
        except Exception as exc:  # the operation failed
            error = describe(exc)
        end = time.perf_counter()
        record["spans"].append([stage.layer, start - origin, end - origin])
        if error is not None:
            break
        if stage.counts:
            counts.update(stage.counts(value, result))
        value = result
    if error is None and op.argv is not None:
        value = result = None  # free them before the CLI call
        start = time.perf_counter() - origin
        seconds, error, writer = call_cli(op, path, timed=True)
        record["spans"].append(["cli.main", start, start + seconds])
        record["write"] = [writer.seconds, writer.calls]
        counts["cli.out_bytes"] += writer.chars
    record["reference_s"] = reference.around()
    record["counts"] = dict(counts)
    return finish(record, op, path, error, value)


def main():
    mode, name, seed, outdir, arg = (sys.argv[1:] + [""])[:5]
    workload = workloads.WORKLOADS[name](int(seed))
    reference = Reference()
    path_of = lambda op: os.path.join(outdir, op.name + ".out")  # noqa: E731
    if mode == "cold":
        op = workload.op(arg)
        record = run_plain(op, path_of(op), reference)
        record["import_s"] = IMPORT_SECONDS
        results = [record]
    elif mode == "trace":
        op = workload.op(arg)
        results = [run_traced(op, path_of(op), _start, reference)]
    elif mode == "serve":
        for _request in sys.stdin:
            reference.restart()  # the parent ran a cold pass since the last one
            results = [run_plain(op, path_of(op), reference) for op in workload.ops]
            sys.stdout.write(json.dumps({"results": results}) + "\n")
            sys.stdout.flush()
        return
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps({"results": results}) + "\n")


if __name__ == "__main__":
    main()
