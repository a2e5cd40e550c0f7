"""Each ``$ catalan-posets ...`` line of README.md's ``sh`` blocks, run
through the CLI; the lines under it are its stdout (the first N with
``| head -N``).  Commands that write to ``--output`` are left out.  The
caps in README's check table and in its paragraph on the caps are
compared with CAPACITY, and its density rule for listing a row with
poset._FEW_BITS."""

import re
import shlex
from pathlib import Path

import pytest

from catalan_posets import poset
from catalan_posets.cli import main
from catalan_posets.errors import CAPACITY
from catalan_posets.verify import CHECKS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
EXAMPLES = [
    chunk.splitlines()
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]
    if "--output" not in chunk.splitlines()[0]
]
# the paragraph on the caps, on one line
CAPS_PARAGRAPH = " ".join(
    re.search(r"^Every size cap lives in one table.*?\n\n", README, re.M | re.S).group().split()
)
# check name -> (cap column, statement column) of the check table
CHECK_TABLE = {
    name: (int(cap), statement)
    for name, cap, statement in re.findall(r"^\| (\w+) +\| (\d+) +\| (.*) \|$", README, re.M)
}


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda example: example[0])
def test_readme_example(capsys, example):
    command, _, head = example[0].partition(" | head -")
    program, *argv = shlex.split(command)
    assert program == "catalan-posets" and main(argv) == 0
    out = capsys.readouterr().out
    if head:
        out = "".join(out.splitlines(keepends=True)[: int(head)])
    assert out == "".join(line + "\n" for line in example[1:])


def test_check_table_caps_are_the_capacity_table():
    caps = {name: cap for name, (cap, _) in CHECK_TABLE.items()}
    assert caps == {name: CAPACITY[structure] for name, (structure, _) in CHECKS.items()}
    sperner, lemma = CHECK_TABLE["sperner"][1], CHECK_TABLE["lemma"][1]
    assert re.findall(r"\(to (\d+)\)", sperner) == [
        str(CAPACITY["sperner-dk"]),
        str(CAPACITY["sperner-transfer"]),
    ]
    assert re.findall(r"through (\d+)", lemma) == [str(CAPACITY["poset construction"])]


def test_caps_paragraph_is_the_capacity_table():
    phrases = {
        "enumeration": r"enumeration is capped at n = (\d+)",
        "census": r"the census \(`census --n`\) and the descent-set counter"
        r" \(`count_by_descent_set`\) at n = (\d+) \(2\^(\d+) masks",
        "poset construction": r"poset construction at n = (\d+)",
        "census checks": r"the ranks and lemma checks run to the census cap of n = (\d+)",
        "sperner-dk": r"`sperner-dk` at n = (\d+)",
        "sperner-transfer": r"`sperner-transfer` at n = (\d+)",
    }
    stated = {op: re.findall(phrase, CAPS_PARAGRAPH) for op, phrase in phrases.items()}
    cap = CAPACITY["census"]
    assert stated == {
        "enumeration": [str(CAPACITY["enumeration"])],
        "census": [(str(cap), str(cap - 1))],
        "poset construction": [str(CAPACITY["poset construction"])],
        "census checks": [str(cap)],
        "sperner-dk": [str(CAPACITY["sperner-dk"])],
        "sperner-transfer": [str(CAPACITY["sperner-transfer"])],
    }
    assert [name for name, (structure, _) in CHECKS.items() if structure == "census"] == [
        "ranks",
        "lemma",
    ]


def test_density_rule_is_the_iter_bits_constant():
    # README states the rule and where its two routes cross; the route
    # test reads the constant, so only this text pins its value
    text = " ".join(README.split())
    stated = re.findall(r"(?:fewer than|near) (\d+) set bits", text)
    assert stated == [str(poset._FEW_BITS)] * 2
