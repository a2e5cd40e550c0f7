"""The mutant table of tools/mutants.py, read without running it: the
table breaks here when code moves under it."""

import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "catalan_posets"
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


def test_each_anchor_occurs_exactly_once_in_its_module():
    counts = mutants.anchor_counts()
    assert {mutant_id: n for mutant_id, n in counts.items() if n != 1} == {}


def test_mutant_ids_are_unique():
    ids = Counter(m.id for m in mutants.MUTANTS)
    assert [mutant_id for mutant_id, n in ids.items() if n > 1] == []


def test_every_module_has_a_mutant():
    modules = {path.name for path in PACKAGE.glob("*.py")}
    assert {m.file for m in mutants.MUTANTS} == modules


def test_each_mutant_changes_its_module_and_still_compiles():
    # a mutant that does not compile is killed by any import, and tells
    # nothing about the tests
    for m in mutants.MUTANTS:
        assert m.replacement != m.anchor and m.breaks, m.id
        text = (PACKAGE / m.file).read_text().replace(m.anchor, m.replacement)
        compile(text, m.file, "exec")


#: The tail of a ``pytest -x -q`` run stopped by a failing parametrized
#: test, whose captured log holds an ERROR line of its own.
FAILED_RUN = """\
........F
=================================== FAILURES ===================================
_________________ test_export_matches_reference_writers[P-9] __________________
E       assert 'a' == 'b'
------------------------------ Captured log call -------------------------------
ERROR    root:writer.py:12 not the summary
=========================== short test summary info ============================
FAILED tests/test_poset.py::test_export_matches_reference_writers[P-9] - assert 'a' == 'b'
FAILED tests/test_poset.py::test_later - assert 0
!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!
1 failed, 8 passed in 0.51s
"""

#: The tail of a run stopped by a module that fails to import.
COLLECTION_ERROR_RUN = """\
==================================== ERRORS ====================================
____________________ ERROR collecting tests/test_records.py ____________________
E   TypeError: GradedPoset.__new__() got an unexpected keyword argument
=========================== short test summary info ============================
ERROR tests/test_records.py - TypeError: GradedPoset.__new__() got an unexpected...
!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!
1 error in 0.40s
"""


def test_first_failure_reads_the_summary_only():
    assert mutants.first_failure(FAILED_RUN) == (
        "tests/test_poset.py::test_export_matches_reference_writers[P-9]"
    )
    assert mutants.first_failure(COLLECTION_ERROR_RUN) == "tests/test_records.py"
    # a run that names no test, such as a crash before collection
    assert mutants.first_failure("Fatal Python error: Segmentation fault\n") == ""
    assert mutants.first_failure("") == ""
