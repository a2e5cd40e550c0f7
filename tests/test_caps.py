"""tools/caps.py at a small size: one row per report line, in suite order."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "caps.py"


def test_caps_table_at_a_small_size():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--at", "3", "--runs", "1"],
        capture_output=True, text=True, check=True,
    )
    header, *rows = result.stdout.splitlines()
    half = ["n", "median", "s", "examined"]
    assert header.split() == ["line", *half, "|", *half]
    cells = [row.replace("|", " ").split() for row in rows]
    assert [(row[0], row[1], row[4], row[5], row[8]) for row in cells] == [
        (line, "3", "pass", "4", "pass")
        for line in (
            "coarsening", "ranks", "lemma", "selfdual",
            "sperner-width", "sperner-dk", "sperner-transfer",
        )
    ]
    # examined at 3 and 4: strict pairs of NC(n), 2n, 2^(n-1), C_n^2, C_n,
    # n and the pairs of a largest antichain of P
    assert [(row[3], row[7]) for row in cells] == [
        ("7", "41"), ("6", "8"), ("4", "8"), ("25", "196"),
        ("5", "14"), ("3", "4"), ("3", "15"),
    ]
    assert all(float(row[2]) > 0 and float(row[6]) > 0 for row in cells)
