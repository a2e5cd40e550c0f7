"""Each ``$ catalan-posets ...`` line of README.md's ``sh`` blocks, run
through the CLI; the lines under it are its stdout (the first N with
``| head -N``).  Commands that write to ``--output`` are left out."""

import re
import shlex
from pathlib import Path

import pytest

from catalan_posets.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
EXAMPLES = [
    chunk.splitlines()
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]
    if "--output" not in chunk.splitlines()[0]
]


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda example: example[0])
def test_readme_example(capsys, example):
    command, _, head = example[0].partition(" | head -")
    program, *argv = shlex.split(command)
    assert program == "catalan-posets" and main(argv) == 0
    out = capsys.readouterr().out
    if head:
        out = "".join(out.splitlines(keepends=True)[: int(head)])
    assert out == "".join(line + "\n" for line in example[1:])
