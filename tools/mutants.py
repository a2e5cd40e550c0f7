"""Run each one-line mutant of the package against the test suite.

    python3 tools/mutants.py

MUTANTS below lists (id, file, anchor, replacement, breaks, equivalent):
file is a module of src/catalan_posets, anchor is text that occurs in it
exactly once, and replacement is what the mutant puts in its place;
breaks says what the mutant breaks, and equivalent, when not empty, says
why no test can tell the mutant from the package.

For each mutant the script copies the repository, without .git and
caches, to a fresh temporary directory, since the tests read README.md,
pyproject.toml, benchmarks/ and tools/ beside src and tests.  It applies
the edit there and runs ``python3 -m pytest -x -q -p no:cacheprovider``
in the copy, with the copy's src on PYTHONPATH.  A failing run kills the
mutant.  tests/test_mutants.py is left out of that run: it reads this
table, so every mutant, which removes its own anchor, would fail it.
The unmutated copy runs first and must pass, or no verdict would mean
anything.  One line per mutant says killed, survived or equivalent.  The
exit status is 1 when a mutant not marked equivalent survives or an
anchor does not occur exactly once.

A killed mutant takes a few seconds and a survivor a whole suite run, so
the script is run by hand and is no part of the suite.  Only the
standard library is used, and the repository is not written.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "catalan_posets"
#: The suite's reader of this table, which every mutant fails.
TABLE_TEST = Path("tests") / "test_mutants.py"
#: Seconds one suite run may take before the mutant counts as killed.
TIMEOUT = 600

Mutant = namedtuple("Mutant", "id file anchor replacement breaks equivalent", defaults=("",))

MUTANTS = (
    Mutant(
        "main-entry",
        "__main__.py",
        "run()",
        "pass",
        "python -m catalan_posets does nothing",
    ),
    Mutant(
        "export-dropped",
        "__init__.py",
        "    check_self_duality,\n",
        "",
        "check_self_duality is no longer importable from the package",
    ),
    Mutant(
        "profile-increment-guard",
        "antichains.py",
        "if gain <= 0 or (increments and gain > increments[-1]):",
        "if gain <= 0:",
        "a k-antichain increment larger than the last one goes unreported",
    ),
    Mutant(
        "antichain-size-recheck",
        "antichains.py",
        "if len(antichain) != target:",
        "if False:",
        "an antichain smaller than the matching bound passes as maximum",
    ),
    Mutant(
        "certificate-side",
        "antichains.py",
        "chosen = reached_left & ~reached_right",
        "chosen = reached_left",
        "the certificate keeps elements whose right copy was reached",
    ),
    Mutant(
        "start-validation",
        "antichains.py",
        "if not adjacency[u] >> v & 1 or match_right[v] != -1:",
        "if False:",
        "a starting matching with a non-edge or a shared right vertex is grown",
    ),
    Mutant(
        "crossing-check",
        "bijection.py",
        "if last > ends[-1]:",
        "if False:",
        "f maps a crossing partition",
    ),
    Mutant(
        "pattern-check",
        "bijection.py",
        "if x > smallest:",
        "if False:",
        "f inverse opens a block above the running minimum, past a 132",
    ),
    Mutant(
        "closed-block-check",
        "bijection.py",
        "if opened[-1] != b:",
        "if False:",
        "f inverse joins a block already closed, past a 132",
    ),
    Mutant(
        "image-mask-shift",
        "bijection.py",
        "mask |= 1 << (block[0] - 2)",
        "mask |= 1 << (block[0] - 1)",
        "image descent masks are one position high",
    ),
    Mutant(
        "counter-nonpositive-n",
        "census.py",
        "    if n < 1:\n        raise ValueError",
        "    if n < 0:\n        raise ValueError",
        "count_by_descent_set(0, 0) fails on a negative shift, not on n",
    ),
    Mutant(
        "counter-mask-bound",
        "census.py",
        "mask < 1 << (n - 1)",
        "mask <= 1 << (n - 1)",
        "a mask one past the last position fails on the census index, not on the range",
    ),
    Mutant(
        "backward-descent",
        "census.py",
        "del finish[0]",
        "del finish[-1]",
        "a descent drops the deepest depth, not depth 1, so counts go wrong",
    ),
    Mutant(
        "lane-byte-order",
        "census.py",
        ".to_bytes(_LANE << low, sys.byteorder)",
        '.to_bytes(_LANE << low, "big" if sys.byteorder == "little" else "little")',
        "each high half's packed sum is read back in the wrong byte order",
    ),
    Mutant(
        "lane-pad-depth",
        "census.py",
        "_forward(bits, low) + (0,) * (low - bits.bit_count())",
        "(0,) * (low - bits.bit_count()) + _forward(bits, low)",
        "a short forward vector is padded at depth 1, not past its deepest depth",
    ),
    Mutant(
        "verify-exit-status",
        "cli.py",
        "return 0 if all(report.passed for report in reports) else 1",
        "return 0",
        "verify exits 0 when a check fails",
    ),
    Mutant(
        "error-line-budget",
        "cli.py",
        "_LINE_BYTES = 198",
        "_LINE_BYTES = 1000",
        "error lines are no longer cut under 200 bytes",
    ),
    Mutant(
        "plain-choices",
        "cli.py",
        "if choices is not None and value not in choices:",
        "if False:",
        "the plain route takes a value that is not among its choices",
    ),
    Mutant(
        "plain-dash-value",
        "cli.py",
        'if token.startswith("-"):',
        "if False:",
        "the plain route takes a flag's value that starts with '-', or a missing one",
    ),
    Mutant(
        "parser-required",
        "cli.py",
        "required=dest not in defaults",
        "required=False",
        "the parser takes a command line that leaves out --n or --format",
    ),
    Mutant(
        "capacity-off-by-one",
        "errors.py",
        "if n > cap:",
        "if n > cap + 1:",
        "every operation accepts one size above its cap",
    ),
    Mutant(
        "cover-check",
        "partitions.py",
        "if 0 in seen:",
        "if False:",
        "a partition that misses an element of 1..n is accepted",
    ),
    Mutant(
        "minima-order",
        "partitions.py",
        "if block[0] < previous_min:",
        "if False:",
        "blocks out of order of their minima are accepted",
    ),
    Mutant(
        "descent-direction",
        "permutations.py",
        "if entries[i] > entries[i + 1]:",
        "if entries[i] < entries[i + 1]:",
        "descent_mask marks ascents",
    ),
    Mutant(
        "descent-ties",
        "permutations.py",
        "if entries[i] > entries[i + 1]:",
        "if entries[i] >= entries[i + 1]:",
        "descent_mask counts a tie as a descent",
        "descent_mask is only given permutations, whose entries never tie",
    ),
    Mutant(
        "duplicate-entry",
        "permutations.py",
        "if seen[x]:",
        "if False:",
        "a permutation with a repeated entry is accepted",
    ),
    Mutant(
        "reverse-complement-no-complement",
        "permutations.py",
        "return rev[::-1]",
        "return rev",
        "reverse_complement_masks only reverses",
    ),
    Mutant(
        "decimal-leading-zero",
        "permutations.py",
        'at = marked.find(",0")',
        "at = -1",
        "an element text with a leading zero, such as 1,02 or {01}, is read as its value",
    ),
    Mutant(
        "decimal-ascii",
        "permutations.py",
        'if not (text.isascii() and "".join(numbers).isdigit() and all(numbers)):',
        'if not ("".join(numbers).isdigit() and all(numbers)):',
        "a non-ASCII digit such as \\u0663 passes as a number of an element text",
    ),
    Mutant(
        "iter-bits-index",
        "poset.py",
        "bits.append(low.bit_length() - 1)",
        "bits.append(low.bit_length())",
        "sparse rows list each bit one place high",
    ),
    Mutant(
        "properly-inside-own-fiber",
        "poset.py",
        "return [whole ^ own for whole, own in zip(inside, fiber)]",
        "return inside",
        "properly_inside keeps each mask's own fiber",
    ),
    Mutant(
        "holder-bit",
        "poset.py",
        "byte, bit = j >> 3, 1 << (j & 7)",
        "byte, bit = j >> 3, 1 << (j & 3)",
        "a partition's holder bits land on the wrong index of their byte",
    ),
    Mutant(
        "class-cover-layer",
        "poset.py",
        "layers[m.bit_count() + 1]",
        "layers[m.bit_count()]",
        "P's cover rows look for covers at the class's own rank, where there are none",
    ),
    Mutant(
        "iter-bits-route",
        "poset.py",
        "_FEW_BITS = 16",
        "_FEW_BITS = 0",
        "sparse rows go through the digit scan, which the route test pins",
    ),
    Mutant(
        "violation-cap",
        "verify.py",
        "if len(violations) < MAX_VIOLATION_DETAILS:",
        "if len(violations) <= MAX_VIOLATION_DETAILS:",
        "a report keeps one violation detail too many",
    ),
    Mutant(
        "narayana-nonpositive-n",
        "verify.py",
        '    if n < 1:\n        raise ValueError(f"n must be at least 1, got {n}")\n    if not 1 <= k',
        '    if n < 0:\n        raise ValueError(f"n must be at least 1, got {n}")\n    if not 1 <= k',
        "narayana(0, 1) fails on k, not on n",
    ),
    Mutant(
        "coarsening-shrink",
        "verify.py",
        "if bad != 1 << i and",
        "if False and",
        "coarsening reports no pair",
    ),
    Mutant(
        "selfdual-detail-guard",
        "verify.py",
        "if bad and len(violations) <= MAX_VIOLATION_DETAILS:",
        "if bad:",
        "selfdual formats every broken pair of every row, kept or not",
    ),
    Mutant(
        "pairing-targets-reversed",
        "verify.py",
        "for source, target in zip(members, targets):",
        "for source, target in zip(members, reversed(targets)):",
        "members of a class pair in reverse lexicographic order",
    ),
    Mutant(
        "class-size-guard",
        "verify.py",
        "if len(targets) != len(members):",
        "if False:",
        "a pairing between classes of unequal sizes is returned partial",
    ),
    Mutant(
        "selfdual-except-route",
        "verify.py",
        'return VerificationReport("selfdual", n, 0, (str(exc),))',
        "raise",
        "a failed pairing ends check_self_duality in a traceback",
    ),
    Mutant(
        "involution-test",
        "verify.py",
        "if any(mapping[j] != i for i, j in enumerate(mapping)):",
        "if False:",
        "a pairing that is not an involution passes",
    ),
    Mutant(
        "descent-rank-sizes",
        "verify.py",
        "if sizes_p != expected:",
        "if False:",
        "a wrong rank count of the descent poset passes",
    ),
    Mutant(
        "rank-recurrence-singleton",
        "verify.py",
        "row = [0] + rows[m - 1]",
        "row = [0] * (m + 1)",
        "Q's rank recurrence drops the case where 1 is a singleton",
    ),
    Mutant(
        "tally-bound",
        "verify.py",
        'if n <= CAPACITY["poset construction"]:',
        'if n < CAPACITY["poset construction"]:',
        "lemma skips its tally of P's descent classes at the poset cap",
    ),
    Mutant(
        "lemma-total",
        "verify.py",
        "if sum(census) != catalan(n):",
        "if False:",
        "a census whose total is not the Catalan number passes",
    ),
    Mutant(
        "sperner-width",
        "verify.py",
        "if width != largest_rank:",
        "if False:",
        "a width above the largest rank passes",
    ),
    Mutant(
        "run-checks-clamp",
        "verify.py",
        "use = min(n, CAPACITY[structure]) if clamp else n",
        "use = n",
        "all runs each check at n, over its cap",
    ),
    Mutant(
        "ranks-structure",
        "verify.py",
        '"ranks": ("census", (check_rank_statistics,)),',
        '"ranks": ("poset construction", (check_rank_statistics,)),',
        "ranks stops at the poset cap, below the census it reads",
    ),
)


def anchor_counts() -> dict[str, int]:
    """How often each mutant's anchor occurs in its file, by id."""
    texts = {path.name: path.read_text() for path in (ROOT / PACKAGE).glob("*.py")}
    return {m.id: texts.get(m.file, "").count(m.anchor) for m in MUTANTS}


def suite_passes(mutant: Mutant | None) -> bool:
    """Whether the suite passes on a copy of the repository with mutant
    applied (none: the copy as it is)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as temp:
        tree = Path(temp) / "repo"
        shutil.copytree(
            ROOT,
            tree,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_runs", ".benchmarks"
            ),
        )
        if mutant is not None:
            path = tree / PACKAGE / mutant.file
            path.write_text(path.read_text().replace(mutant.anchor, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            f"--ignore={TABLE_TEST}",
        ]
        try:
            result = subprocess.run(
                command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return False
        return result.returncode == 0


def main() -> int:
    counts = anchor_counts()
    bad = [m.id for m in MUTANTS if counts[m.id] != 1]
    if bad:
        print(f"anchors that do not occur exactly once: {', '.join(bad)}", file=sys.stderr)
        return 1
    if not suite_passes(None):
        print("the unmutated copy fails its tests; no verdict", file=sys.stderr)
        return 1
    tally = {"killed": 0, "survived": 0, "equivalent": 0}
    for m in MUTANTS:
        if not suite_passes(m):
            verdict = "killed"
        elif m.equivalent:
            verdict = "equivalent"
        else:
            verdict = "survived"
        tally[verdict] += 1
        note = m.equivalent if verdict == "equivalent" else m.breaks
        print(f"{verdict:10}  {m.id:34}  {m.file:16}  {note}", flush=True)
    print(", ".join(f"{count} {verdict}" for verdict, count in tally.items()))
    return 1 if tally["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
