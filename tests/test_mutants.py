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
