"""The benchmark's own check tests, run as part of this suite.

benchmarks/test_checks.py tests the functions that decide whether each
benchmark output is right; among them are the `verify` reports and
widths.  Its modules import each other by bare name (`checks`,
`workloads`), so benchmarks/ goes on sys.path for this test only, and the
modules it imported are dropped again afterwards.
"""

from __future__ import annotations

import io
import sys
import unittest
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_benchmark_checks(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(BENCHMARKS), *sys.path])
    before = set(sys.modules)
    try:
        suite = unittest.defaultTestLoader.loadTestsFromName("test_checks")
        out = io.StringIO()
        result = unittest.TextTestRunner(stream=out, verbosity=2).run(suite)
    finally:
        for name in ("test_checks", "checks", "workloads"):
            if name not in before:
                sys.modules.pop(name, None)
    assert result.testsRun > 0
    assert result.wasSuccessful(), out.getvalue()
