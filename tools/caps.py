"""Time every report line of verify at its cap and one size above it.

    python3 tools/caps.py [--runs R] [--at N]

For each line function of verify.CHECKS, in suite order, the script
starts R (default 5) fresh ``python -S`` children per size, with the
repository's src on PYTHONPATH.  A child imports the package, calls the
line once and prints the seconds the call took, so every build the line
needs is billed to it, as on a first ``verify`` run; the script reports
the median.  Each line runs at its check's cap, the CAPACITY entry of the
structure the check reads, and at the cap plus one with every CAPACITY
entry raised by one: the size a lift of that cap would allow.  The
sperner-dk and sperner-transfer lines cut their size to their own
entries, so their columns show the size they ran at.  ``--at N`` runs every line at N and N + 1 in place of
the caps, for a quick look.

One row per line: its name, then per size the n it ran at, the median
seconds, its examined count and pass or FAIL.  The script is run by hand
and is no part of the suite; it uses only the standard library.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from catalan_posets.errors import CAPACITY  # noqa: E402
from catalan_posets.verify import CHECKS  # noqa: E402

#: Seconds one child may take.
TIMEOUT = 600

CHILD = """\
import sys, time
from catalan_posets.errors import CAPACITY
from catalan_posets.verify import CHECKS
name, index, n, lift = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
for key in CAPACITY:
    CAPACITY[key] += lift
start = time.perf_counter()
report = CHECKS[name][1][index](n)
print(time.perf_counter() - start, report.name, report.n, report.examined, report.passed)
"""


def time_line(name: str, index: int, n: int, lift: int, runs: int) -> tuple:
    """(report name, n run at, median seconds, examined, passed) of line
    index of check name, each run in a fresh child with every cap raised
    by lift."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-S", "-c", CHILD, name, str(index), str(n), str(lift)]
    seconds = []
    for _ in range(runs):
        result = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=TIMEOUT, check=True
        )
        elapsed, line, ran, examined, passed = result.stdout.split()
        seconds.append(float(elapsed))
    return line, int(ran), statistics.median(seconds), int(examined), passed == "True"


def table(runs: int, at: int | None) -> list[str]:
    """The header and one row per report line."""
    rows = [f"{'line':17} {'n':>3} {'median s':>9} {'examined':>9} {'':4}"
            f" | {'n':>3} {'median s':>9} {'examined':>9}"]
    for name, (structure, lines) in CHECKS.items():
        size = CAPACITY[structure] if at is None else at
        for index in range(len(lines)):
            row = ""
            for n, lift in (size, 0), (size + 1, 1):
                line, ran, median, examined, passed = time_line(name, index, n, lift, runs)
                row += (" | " if lift else f"{line:17} ") + (
                    f"{ran:>3} {median:>9.4f} {examined:>9} {'pass' if passed else 'FAIL':4}"
                )
            rows.append(row.rstrip())
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="children per line and size")
    parser.add_argument("--at", type=int, help="run every line at N and N + 1, not at its cap")
    args = parser.parse_args(argv)
    print("\n".join(table(args.runs, args.at)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
