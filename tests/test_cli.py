import argparse
import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalan_posets import antichains, cli
from catalan_posets.cli import build_parser, main
from catalan_posets.errors import CAPACITY
from catalan_posets.verify import CHECKS, VerificationReport

#: The package's source directory: child interpreters started there
#: import it without PYTHONPATH.
SRC = Path(__file__).resolve().parent.parent / "src"

CENSUS3 = (
    "descent_set_text,size,count\n"
    "{},0,1\n"
    "{1},1,2\n"
    "{2},1,1\n"
    '"{1,2}",2,1\n'
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_av132(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "av132", "--n", "3")
    assert code == 0
    assert out == "123\n213\n231\n312\n321\n"


def test_enumerate_ncp(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "ncp", "--n", "3")
    assert code == 0
    assert out == "{1,2,3}\n{1,2}/{3}\n{1,3}/{2}\n{1}/{2,3}\n{1}/{2}/{3}\n"


def test_enumerate_limit(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "av132", "--n", "4", "--limit", "2")
    assert code == 0
    assert out == "1234\n2134\n"


def test_enumerate_limit_zero(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "av132", "--n", "4", "--limit", "0")
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("kind", ["av132", "ncp"])
def test_enumerate_limit_above_maxsize_lists_the_whole_family(tmp_path, capsys, kind):
    limit = str(sys.maxsize * 10**5)
    _, whole, _ = run_cli(capsys, "enumerate", kind, "--n", "3")
    code, out, err = run_cli(capsys, "enumerate", kind, "--n", "3", "--limit", limit)
    assert (code, out, err) == (0, whole, "")
    target = tmp_path / "out.txt"
    code, out, err = run_cli(
        capsys, "enumerate", kind, "--n", "3", "--limit", limit, "--output", str(target)
    )
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == whole


def test_enumerate_to_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(
        capsys, "enumerate", "av132", "--n", "3", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "123\n213\n231\n312\n321\n"


def test_enumerate_over_capacity_creates_no_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    for kind in ("av132", "ncp"):
        code, out, err = run_cli(
            capsys, "enumerate", kind, "--n", str(CAPACITY["enumeration"] + 1),
            "--output", str(target),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not target.exists()


def test_poset_over_capacity_creates_no_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    over = str(CAPACITY["poset construction"] + 1)
    code, out, err = run_cli(
        capsys, "poset", "P", "--n", over, "--format", "json", "--output", str(target)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


def test_enumerate_rejects_zero(capsys):
    code, _, err = run_cli(capsys, "enumerate", "ncp", "--n", "0")
    assert code == 1
    assert "error:" in err


def test_map_forward(capsys):
    code, out, _ = run_cli(capsys, "map", "f", "{1,4,6}/{2,3}/{5}/{7,8}")
    assert code == 0
    assert out == "64573812\n"


def test_map_backward(capsys):
    code, out, _ = run_cli(capsys, "map", "finv", "64573812")
    assert code == 0
    assert out == "{1,4,6}/{2,3}/{5}/{7,8}\n"


@pytest.mark.parametrize("binary", [False, True], ids=["text-only", "text-over-bytes"])
def test_stdout_swapped_for_in_memory_stream(binary):
    # with a binary layer the CLI writes through it; without one, as text
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8") if binary else io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["map", "finv", "64573812"]) == 0
        assert main(["enumerate", "ncp", "--n", "2"]) == 0
    out.seek(0)
    assert out.read() == "{1,4,6}/{2,3}/{5}/{7,8}\n{1,2}\n{1}/{2}\n"


def test_map_single_block(capsys):
    code, out, _ = run_cli(capsys, "map", "f", "{1,2,3}")
    assert code == 0
    assert out == "123\n"


def test_map_rejects_crossing(capsys):
    code, out, err = run_cli(capsys, "map", "f", "{1,3}/{2,4}")
    assert code == 1
    assert out == ""
    assert "not noncrossing" in err


@pytest.mark.parametrize("text", ["{1,3}/{1,2}", "{1}/{1}", "{2}/{1,3}/{1}"])
def test_map_names_an_element_in_two_blocks(capsys, text):
    # blocks are sorted before validation, so a shared minimum used to be
    # reported as blocks out of order
    code, out, err = run_cli(capsys, "map", "f", text)
    assert code == 1
    assert out == ""
    assert err == "error: element 1 appears in two blocks\n"


def test_map_rejects_pattern(capsys):
    code, _, err = run_cli(capsys, "map", "finv", "132")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("digits", [4000, 5000])
@pytest.mark.parametrize("direction, text", [("f", "{1,%s}"), ("finv", "1,%s")])
def test_map_rejects_a_long_number_in_one_short_line(capsys, digits, direction, text):
    # 5000 digits exceed Python's limit for int(); 4000 stay under it, and
    # naming the number would make the line over 4 KB
    code, out, err = run_cli(capsys, "map", direction, text % ("1" * digits))
    assert (code, out, err.count("\n")) == (1, "", 1) and err.startswith("error:")
    assert len(err.encode()) < 200 and "set_int_max_str_digits" not in err


LONG = ",".join(map(str, range(1, 20001)))


@pytest.mark.parametrize(
    "direction, text",
    [
        ("finv", LONG + ",01"),
        ("f", "{" + LONG + ",01}"),
        ("finv", "1,20000," + LONG.removeprefix("1,").removesuffix(",20000")),
        ("f", "{1,3}/{2," + LONG.split(",", 3)[3] + "}"),
    ],
    ids=["malformed-permutation", "malformed-block", "pattern", "crossing"],
)
def test_map_error_line_is_short_for_a_long_input(capsys, direction, text):
    # each message names the input, which in full is over 100 KB
    code, out, err = run_cli(capsys, "map", direction, text)
    assert (code, out, err.count("\n")) == (1, "", 1) and err.startswith("error:")
    assert len(err.encode()) < 200 and "characters)" in err


def test_limit_usage_error_line_is_short_for_a_long_text(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "av132", "--n", "3", "--limit", "x" * 20000])
    assert excinfo.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    # N counts the whole message argparse passes to the parser's error
    message = f"argument --limit: expected a non-negative integer, got '{'x' * 20000}'"
    assert last.endswith(f"... ({len(message)} characters)") and len(last) < 200


def test_checks_usage_error_line_is_short_for_a_long_name(capsys):
    # a cut line leaves out the list of known checks, which --help shows;
    # a line that fits keeps it
    def error_line(name):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--checks", name, "--n", "3"])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        return errors[0]

    long = error_line("x" * 20000)
    assert len(long.encode()) <= 200
    message = (
        f"argument --checks: unknown check '{'x' * 20000}' "
        "(known: all, coarsening, ranks, lemma, selfdual, sperner)"
    )
    assert long.endswith(f"xxx... ({len(message)} characters)") and "known:" not in long
    short = error_line("x" * 58)
    assert short == (
        "catalan-posets verify: error: argument --checks: unknown check "
        f"'{'x' * 58}' (known: all, coarsening, ranks, lemma, selfdual, sperner)"
    )


@pytest.mark.parametrize(
    "command",
    [
        ["enumerate", "av132"],
        ["poset", "P", "--format", "json"],
        ["census"],
        ["verify"],
    ],
)
def test_n_usage_error_line_is_short_for_a_long_text(capsys, command):
    def error_lines(text):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--n", text])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert all(len(line.encode()) <= 200 for line in err.splitlines())
        return [line for line in err.splitlines() if "error:" in line]

    (long,) = error_lines("x" * 20000)
    message = f"argument --n: invalid int value: '{'x' * 20000}'"
    assert long.endswith(f"xxx... ({len(message)} characters)")
    (short,) = error_lines("abc")
    assert short == f"catalan-posets {command[0]}: error: argument --n: invalid int value: 'abc'"


@pytest.mark.parametrize(
    "argv, name, choices",
    [
        (["enumerate", "TEXT", "--n", "3"], "kind", "'av132', 'ncp'"),
        (["map", "TEXT", "1"], "direction", "'f', 'finv'"),
        (["poset", "TEXT", "--n", "3", "--format", "dot"], "family", "'P', 'Q'"),
        (["poset", "P", "--n", "3", "--format", "TEXT"], "--format", "'dot', 'json'"),
        (["TEXT"], "command", "'enumerate', 'map', 'poset', 'census', 'verify'"),
    ],
    ids=["kind", "direction", "family", "format", "command"],
)
def test_invalid_choice_error_line_is_short_for_a_long_text(capsys, argv, name, choices):
    # a cut line leaves out the list of choices, which --help shows; a
    # short one keeps argparse's own line
    def error_lines(text):
        with pytest.raises(SystemExit) as excinfo:
            main([text if arg == "TEXT" else arg for arg in argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert all(len(line.encode()) <= 200 for line in err.splitlines())
        return [line for line in err.splitlines() if "error:" in line]

    (long,) = error_lines("x" * 20000)
    message = f"argument {name}: invalid choice: '{'x' * 20000}' (choose from {choices})"
    assert f"error: argument {name}: invalid choice: 'xxx" in long
    assert long.endswith(f"xxx... ({len(message)} characters)")
    (short,) = error_lines("xyz")
    assert short.endswith(f"error: argument {name}: invalid choice: 'xyz' (choose from {choices})")


def test_error_line_cut_never_lengthens_a_line():
    # bytes as stderr writes them: UTF-8, a lone surrogate as its escape
    for char in ("x", "\u00e9", "\U0001f600", "\udcff"):
        for length in range(251):
            message = char * length
            whole = ("error: " + message).encode("utf-8", "backslashreplace")
            line = cli._error_line("error: ", message)
            assert len(line.encode()) <= min(len(whole), 198)
            if len(whole) <= 198:
                assert line.encode() == whole
            else:
                assert line.endswith(f"... ({length} characters)")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["census", "--n", "3", "x" * 20000], 2),
        (["census", "--n", "3", *["x"] * 20000], 2),
        (["census", "--n", "3", "\udcff" * 5000], 2),
        (["\u00e9" * 20000], 2),
        (["map", "f", "{1," + "\U0001f600" * 20000 + "}"], 1),
        (["map", "\U0001f600" * 20000, "1"], 2),
        (["census", "--n", "1" * 4000], 1),
        (["census", "--n", "3", "x\nerror: y"], 2),
    ],
    ids=[
        "long-extra",
        "many-extras",
        "surrogate-extras",
        "non-ascii-command",
        "emoji-element",
        "emoji-direction",
        "long-n",
        "line-break",
    ],
)
def test_every_error_is_one_short_line(capsys, argv, code):
    # stderr holds the usage, for a usage error, then one error line
    if code == 2:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    else:
        assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and [line for line in lines if "error:" in line] == lines[-1:]
    assert all(len(line.encode()) <= 198 for line in lines)


ENUMERATE_USAGE = (
    "usage: catalan-posets enumerate [-h] --n N [--limit LIMIT] [--output OUTPUT]\n"
    "                                {av132,ncp}\n"
)
POSET_USAGE = (
    "usage: catalan-posets poset [-h] --n N --format {dot,json} [--output OUTPUT]\n"
    "                            {P,Q}\n"
)
VERIFY_USAGE = "usage: catalan-posets verify [-h] [--checks CHECKS] --n N\n"
TOP_USAGE = "usage: catalan-posets [-h] {enumerate,map,poset,census,verify} ...\n"

#: argv -> (exit status, stdout, stderr) at 80 columns: every help text,
#: and the usage and error line of usage errors of each kind.
HELP_AND_USAGE = {
    ("--help",): (
        0,
        TOP_USAGE + "\n"
        "Noncrossing partitions, 132-avoiding permutations, the bijection between them,\n"
        "and the graded posets built on both families.\n"
        "\n"
        "positional arguments:\n"
        "  {enumerate,map,poset,census,verify}\n"
        "    enumerate           list one family in canonical order\n"
        "    map                 apply the bijection in either direction\n"
        "    poset               export a poset as DOT or JSON\n"
        "    census              CSV of 132-avoiding permutation counts by descent set\n"
        "    verify              run verification checks\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    ),
    ("enumerate", "--help"): (
        0,
        ENUMERATE_USAGE + "\n"
        "positional arguments:\n"
        "  {av132,ncp}      which family to list\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --n N            ground size\n"
        "  --limit LIMIT    stop after this many lines\n"
        "  --output OUTPUT  write here instead of stdout\n",
        "",
    ),
    ("map", "--help"): (
        0,
        "usage: catalan-posets map [-h] {f,finv} text\n"
        "\n"
        "positional arguments:\n"
        "  {f,finv}    f maps a partition to its permutation, finv inverts\n"
        "  text        the element to map, in the text formats; - reads it from stdin\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n",
        "",
    ),
    ("poset", "--help"): (
        0,
        POSET_USAGE + "\n"
        "positional arguments:\n"
        "  {P,Q}                P: descent order; Q: refinement order\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --n N                ground size\n"
        "  --format {dot,json}\n"
        "  --output OUTPUT      write here instead of stdout\n",
        "",
    ),
    ("census", "--help"): (
        0,
        "usage: catalan-posets census [-h] --n N [--output OUTPUT]\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --n N            ground size\n"
        "  --output OUTPUT  write here instead of stdout\n",
        "",
    ),
    ("verify", "--help"): (
        0,
        VERIFY_USAGE + "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --checks CHECKS  comma separated subset of: all, coarsening, ranks, lemma,\n"
        "                   selfdual, sperner\n"
        "  --n N            ground size\n",
        "",
    ),
    (): (
        2,
        "",
        TOP_USAGE + "catalan-posets: error: the following arguments are required: command\n",
    ),
    ("verify", "--n", "x"): (
        2,
        "",
        VERIFY_USAGE + "catalan-posets verify: error: argument --n: invalid int value: 'x'\n",
    ),
    ("poset", "R", "--n", "3", "--format", "dot"): (
        2,
        "",
        POSET_USAGE + "catalan-posets poset: error: argument family: invalid choice: "
        "'R' (choose from 'P', 'Q')\n",
    ),
    ("enumerate", "av132", "--n", "3", "--limit", "-1"): (
        2,
        "",
        ENUMERATE_USAGE + "catalan-posets enumerate: error: argument --limit: "
        "expected a non-negative integer, got -1\n",
    ),
    ("verify", "--checks", "bogus", "--n", "3"): (
        2,
        "",
        VERIFY_USAGE + "catalan-posets verify: error: argument --checks: unknown check "
        "'bogus' (known: all, coarsening, ranks, lemma, selfdual, sperner)\n",
    ),
}


def test_help_and_usage_text_at_80_columns(monkeypatch, capsys):
    # the whole text argparse writes, held while the parser is built from a table
    monkeypatch.setenv("COLUMNS", "80")
    outcomes = {}
    for argv in HELP_AND_USAGE:
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        outcomes[argv] = (excinfo.value.code, *capsys.readouterr())
    assert outcomes == HELP_AND_USAGE


def _no_terminal(fd=1):
    raise OSError("not a terminal")


@pytest.mark.parametrize("columns", [None, "0", "-3", "x", "40", "200"])
@pytest.mark.parametrize(
    "terminal",
    [(123, 40), (0, 0), _no_terminal, None],
    ids=["123-columns", "0-columns", "oserror", "no-stdout"],
)
def test_help_width_is_shutils_terminal_width_less_two(monkeypatch, columns, terminal):
    # argparse sizes its help by shutil.get_terminal_size, which the package
    # does not import; shutil, reading the same patched os, is the oracle
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    if terminal is None:
        monkeypatch.setattr(sys, "__stdout__", None)
    elif callable(terminal):
        monkeypatch.setattr(os, "get_terminal_size", terminal)
    else:
        monkeypatch.setattr(os, "get_terminal_size", lambda fd=1: os.terminal_size(terminal))
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices.values()
    widths = [each._get_formatter()._width for each in (parser, *subparsers)]
    assert widths == [shutil.get_terminal_size().columns - 2] * 6


def test_poset_dot(capsys):
    code, out, _ = run_cli(capsys, "poset", "P", "--n", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph P3 {\n")
    assert out.endswith("}\n")


def test_poset_json_to_file(tmp_path, capsys):
    target = tmp_path / "poset.json"
    code, out, _ = run_cli(
        capsys, "poset", "Q", "--n", "4", "--format", "json", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    import json

    data = json.loads(target.read_text())
    assert data["family"] == "Q"
    assert data["ranks"] == [1, 6, 6, 1]


def test_poset_over_capacity(capsys):
    over = str(CAPACITY["poset construction"] + 1)
    code, _, err = run_cli(capsys, "poset", "P", "--n", over, "--format", "dot")
    assert code == 1
    assert "error:" in err


def test_census_golden(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "3")
    assert code == 0
    assert out == CENSUS3


def test_census_to_file(tmp_path, capsys):
    target = tmp_path / "census.csv"
    code, _, _ = run_cli(capsys, "census", "--n", "3", "--output", str(target))
    assert code == 0
    assert target.read_bytes() == CENSUS3.encode()


def test_verify_single_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--checks", "ranks", "--n", "5")
    assert code == 0
    assert out == "ranks n=5: examined=10 pass\n"
    assert re.fullmatch(r"ranks n=5: \d+\.\d{3}s\n", err)


def test_verify_all_line_shape(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "coarsening",
        "ranks",
        "lemma",
        "selfdual",
        "sperner-width",
        "sperner-dk",
        "sperner-transfer",
    ]
    for line in lines:
        assert re.fullmatch(r"[a-z-]+ n=\d+: examined=\d+ pass", line)


def test_verify_all_clamps_above_caps(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "12")
    assert code == 0
    assert "lemma n=12:" in out
    assert "ranks n=12:" in out
    assert f"selfdual n={CAPACITY[CHECKS['selfdual'][0]]}:" in out
    assert f"coarsening n={CAPACITY[CHECKS['coarsening'][0]]}:" in out


def test_verify_all_runs_lemma_at_its_cap(capsys):
    cap = CAPACITY[CHECKS["lemma"][0]]
    code, out, _ = run_cli(capsys, "verify", "--n", str(cap + 1))
    assert code == 0
    assert f"lemma n={cap}: examined={1 << (cap - 1)} pass\n" in out


def test_verify_explicit_over_cap(capsys):
    cap = CAPACITY[CHECKS["selfdual"][0]]
    code, out, err = run_cli(capsys, "verify", "--checks", "selfdual", "--n", str(cap + 1))
    assert code == 1
    assert out == ""
    assert f"supports n up to {cap}" in err


@pytest.mark.parametrize("name", CHECKS)
def test_each_named_check_over_its_cap_is_a_capacity_error(capsys, name):
    # the cap is that of the structure the check reads, and the error line
    # still names the check
    cap = CAPACITY[CHECKS[name][0]]
    code, out, err = run_cli(capsys, "verify", "--checks", name, "--n", str(cap + 1))
    assert (code, out) == (1, "")
    assert err == f"error: check {name} supports n up to {cap}, got {cap + 1}\n"


def test_failed_check_exits_1_and_prints_its_violations(capsys, monkeypatch):
    def failing(n):
        return VerificationReport("ranks", n, 2 * n, ("sizes differ", "rows differ"))

    monkeypatch.setitem(CHECKS, "ranks", ("census", (failing,)))
    code, out, err = run_cli(capsys, "verify", "--checks", "lemma,ranks", "--n", "5")
    assert code == 1
    assert out == (
        "lemma n=5: examined=16 pass\n"
        "ranks n=5: examined=10 FAIL\n"
        "  violation: sizes differ\n"
        "  violation: rows differ\n"
    )
    assert re.fullmatch(r"lemma n=5: \d+\.\d{3}s\nranks n=5: \d+\.\d{3}s\n", err)


def test_failed_certificate_is_one_error_line(capsys, monkeypatch):
    # a matching that loses one pair no longer certifies its antichain:
    # antichains raises RuntimeError, which ends verify in one error line
    real = antichains.hopcroft_karp

    def drop_one_pair(*args):
        match_left, *rest = real(*args)
        u = next(u for u, v in enumerate(match_left) if v != -1)
        match_left[u] = -1
        return (match_left, *rest)

    monkeypatch.setattr(antichains, "hopcroft_karp", drop_one_pair)
    code, out, err = run_cli(capsys, "verify", "--checks", "sperner", "--n", "5")
    assert (code, out) == (1, "")
    assert err == "error: antichain size disagrees with the matching bound\n"


@pytest.mark.parametrize("checks", [",", " , ,"])
def test_empty_checks_is_usage_error(capsys, checks):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--checks", checks, "--n", "3"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "catalan-posets verify: error: argument --checks: no checks given"
    )


def test_verify_unknown_check_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--checks", "bogus", "--n", "3"])
    assert excinfo.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_bad_n_text_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["census", "--n", "three"])
    assert excinfo.value.code == 2


def test_negative_limit_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "av132", "--n", "3", "--limit", "-1"])
    assert excinfo.value.code == 2


def test_non_numeric_limit_is_usage_error_that_names_no_private_function(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "av132", "--n", "3", "--limit", "x"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.endswith(
        "error: argument --limit: expected a non-negative integer, got 'x'"
    )
    assert "_nonnegative_int" not in captured.err


def test_stdout_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--n", "5")
    _, second, _ = run_cli(capsys, "verify", "--n", "5")
    assert first == second


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "catalan_posets", "census", "--n", "3"],
        capture_output=True,
        text=True,
        cwd=SRC,
    )
    assert result.returncode == 0
    assert result.stdout == CENSUS3


def test_module_entry_point_bytes_stable():
    command = [sys.executable, "-m", "catalan_posets", "poset", "P", "--n", "5",
               "--format", "json"]
    first = subprocess.run(command, capture_output=True, cwd=SRC).stdout
    second = subprocess.run(command, capture_output=True, cwd=SRC).stdout
    assert first and first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--n", "3"],
        ["poset", "P", "--n", "3", "--format", "dot"],
        ["enumerate", "av132", "--n", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_is_one_error_line(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def assert_closed_pipe_is_one_error_line(argv, head, stdin=None, env=None):
    # read the first len(head) bytes of stdout, then close it
    with subprocess.Popen(
        [sys.executable, "-m", "catalan_posets", *argv],
        stdin=None if stdin is None else subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=SRC,
    ) as process:
        if stdin is not None:
            process.stdin.write(stdin)
            process.stdin.close()
        assert process.stdout.read(len(head)) == head
        process.stdout.close()
        err = process.stderr.read().decode()
        assert process.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_closed_pipe_is_one_error_line():
    assert_closed_pipe_is_one_error_line(
        ["enumerate", "ncp", "--n", "12"], b"{1,2,3,4,5,6,7,8,9,10,11,12}\n"
    )


def test_streamed_poset_closed_pipe_is_one_error_line():
    assert_closed_pipe_is_one_error_line(
        ["poset", "P", "--n", "8", "--format", "json"], b"{\n"
    )


def test_map_closed_pipe_is_one_error_line():
    # unbuffered, stdout's binary layer is the raw file: the 148,893-byte
    # result outgrows the pipe, and once the reader is gone the write in
    # progress returns a short count instead of raising
    decreasing = ",".join(map(str, range(20000, 0, -1)))
    assert_closed_pipe_is_one_error_line(
        ["map", "finv", "-"],
        b"{1}/{2}/{3",
        stdin=(decreasing + "\n").encode(),
        env=dict(os.environ, PYTHONUNBUFFERED="1"),
    )


def run_with_closed_fd(fd, *argv):
    # the child starts with fd closed, so Python sets that stream to None
    return subprocess.run(
        [sys.executable, "-m", "catalan_posets", *argv],
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.close(fd),
        cwd=SRC,
    )


@pytest.mark.parametrize(
    "fd, argv",
    [
        (0, ["map", "f", "-"]),
        (1, ["census", "--n", "3"]),
        (1, ["verify", "--n", "3", "--checks", "lemma"]),
    ],
    ids=["map-stdin", "census-stdout", "verify-stdout"],
)
def test_closed_standard_stream_is_one_error_line(fd, argv):
    result = run_with_closed_fd(fd, *argv)
    stream = ("stdin", "stdout")[fd]
    assert (result.returncode, result.stderr) == (1, f"error: {stream} is closed\n")


@pytest.mark.parametrize(
    "spoil_stderr",
    [lambda: os.close(2), lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 2)],
    ids=["closed", "read-only"],
)
@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["verify", "--n", "3", "--checks", "lemma"], 0, "lemma n=3: examined=4 pass\n"),
        (["census", "--n", str(CAPACITY["census"] + 1)], 1, ""),
    ],
    ids=["verify", "census-error"],
)
def test_stderr_lines_leave_stdout_and_exit_status_alone(spoil_stderr, argv, code, out):
    # started with stderr closed, Python sets sys.stderr to None, and
    # print(file=None) writes to stdout; opened read-only, as a shell's
    # 2>&- can leave it, each write to it fails with EBADF
    result = subprocess.run(
        [sys.executable, "-m", "catalan_posets", *argv],
        stdout=subprocess.PIPE,
        text=True,
        preexec_fn=spoil_stderr,
        cwd=SRC,
    )
    assert (result.returncode, result.stdout) == (code, out)


def test_closed_stdout_is_not_needed_with_output(tmp_path):
    target = tmp_path / "census.csv"
    result = run_with_closed_fd(1, "census", "--n", "3", "--output", str(target))
    assert (result.returncode, result.stderr) == (0, "")
    assert target.read_text() == CENSUS3


BIG = 2000
IDENTITY = ",".join(map(str, range(1, BIG + 1)))
DECREASING = ",".join(map(str, range(BIG, 0, -1)))
ONE_BLOCK = "{" + IDENTITY + "}"
SINGLETONS = "/".join(f"{{{x}}}" for x in range(1, BIG + 1))


@pytest.mark.parametrize(
    "argv, partner",
    [
        (["f", ONE_BLOCK], IDENTITY),
        (["f", SINGLETONS], DECREASING),
        (["finv", IDENTITY], ONE_BLOCK),
        (["finv", DECREASING], SINGLETONS),
        # {1997,1999} crosses {1998,2000}; the values end in 1, 3, 2
        (["f", SINGLETONS.rsplit("/", 4)[0] + "/{1997,1999}/{1998,2000}"], None),
        (["finv", DECREASING.rsplit(",", 3)[0] + ",1,3,2"], None),
    ],
    ids=["one-block", "singletons", "identity", "decreasing", "crossing", "pattern"],
)
def test_map_at_large_n(capsys, argv, partner):
    code, out, err = run_cli(capsys, "map", *argv)
    if partner:
        assert (code, out, err) == (0, partner + "\n", "")
    else:
        assert (code, out, err.count("\n")) == (1, "", 1) and err.startswith("error:")


def test_map_reads_element_from_stdin():
    # the singletons of [20000] as text are 148,893 bytes, over Linux's
    # 128 KiB limit for one argument, so they can only come in on stdin
    n = 20000
    singletons = "/".join(f"{{{x}}}" for x in range(1, n + 1))
    result = subprocess.run(
        [sys.executable, "-m", "catalan_posets", "map", "f", "-"],
        input=singletons + "\n",
        capture_output=True,
        text=True,
        cwd=SRC,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == ",".join(map(str, range(n, 0, -1))) + "\n"
    result = subprocess.run(
        [sys.executable, "-m", "catalan_posets", "map", "finv", "-"],
        input="64573812\n",
        capture_output=True,
        text=True,
        cwd=SRC,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        0,
        "{1,4,6}/{2,3}/{5}/{7,8}\n",
        "",
    )


# --- the plain route past argparse --------------------------------------------
#
# main hands a plain argv to cli._plain_args, which reads cli._COMMANDS, and
# any other argv to the parser, which build_parser makes from the same
# table.  The parser must say what the table says, and the plain route
# must give the parser's namespace or step aside.


def parser_commands():
    """build_parser's commands in the shape of cli._COMMANDS, less the
    handlers, which the parser does not hold."""
    parser = build_parser()
    assert [type(action) for action in parser._actions] == [
        argparse._HelpAction,
        argparse._SubParsersAction,
    ]
    subparsers = parser._subparsers._group_actions[0]
    helps = {action.dest: action.help for action in subparsers._choices_actions}
    commands = {}
    for name, sub in subparsers.choices.items():
        positionals, options, defaults = [], {}, {}
        assert isinstance(sub._actions[0], argparse._HelpAction)
        for action in sub._actions[1:]:
            # one value each, kept as given: the only shape the table reads
            assert type(action) is argparse._StoreAction and action.nargs is None
            if not action.option_strings:
                assert action.required and action.type is None and action.default is None
                positionals.append((action.dest, action.choices, action.help))
                continue
            (flag,) = action.option_strings
            options[flag] = (action.dest, action.type, action.choices, action.help)
            if action.required:
                assert action.default is None
            else:
                defaults[action.dest] = action.default
        commands[name] = (helps[name], tuple(positionals), options, defaults)
    return commands


def test_plain_table_agrees_with_the_parser():
    # dicts compare without order, so compare their items in order too
    def ordered(commands):
        return [
            (name, help_line, positionals, list(options.items()), list(defaults.items()))
            for name, (help_line, positionals, options, defaults, *_) in commands.items()
        ]

    assert ordered(cli._COMMANDS) == ordered(parser_commands())


PLAIN_ARGVS = [
    ["enumerate", "av132", "--n", "3"],
    ["enumerate", "--limit", "2", "ncp", "--output", "out.txt", "--n", "4"],
    ["map", "f", "{1,2}/{3}"],
    ["map", "finv", "-"],
    ["poset", "Q", "--n", "3", "--format", "dot", "--output", "q.dot"],
    ["census", "--n", "3"],
    ["verify", "--checks", "lemma, ranks", "--n", "5"],
]

#: Tokens that argparse reads otherwise than the plain route does, or
#: rejects, beside tokens of the commands and values of every kind.
AWKWARD_TOKENS = [
    "-h", "--help", "--", "--n=3", "--n", "--out", "--output", "--lim", "--limit",
    "--format", "--checks", "-3", "-x", " 4", " -4", "+5", "5_0", "٣", "", "-",
    "0", "7", "x", "a b", "av132", "ncp", "P", "Q", "p", "dot", "json", "JSON", "f",
    "finv", "F", "all", "lemma", "bogus", ",", "map", "census", "enumerate",
]


@st.composite
def mutated_argvs(draw):
    """A plain argv with up to three tokens inserted, deleted, swapped or
    replaced."""
    argv = list(draw(st.sampled_from(PLAIN_ARGVS)))
    token = st.sampled_from(AWKWARD_TOKENS)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["insert", "delete", "swap", "replace"]))
        at = draw(st.integers(0, len(argv)))
        if edit == "insert":
            argv.insert(at, draw(token))
        elif at < len(argv):
            if edit == "delete":
                del argv[at]
            elif edit == "swap":
                other = draw(st.integers(0, len(argv) - 1))
                argv[at], argv[other] = argv[other], argv[at]
            else:
                argv[at] = draw(token)
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=1500)
@example(["enumerate", "xyz", "--n", "3"])
@example(["poset", "P", "--n", "3", "--format", "JSON"])
@example(["census", "--n", "3", "--output"])
@example(["census", "--output", "-x", "--n", "3"])
@given(mutated_argvs())
def test_plain_route_gives_the_parsers_namespace_or_none(argv):
    plain = cli._plain_args(argv)
    if plain is None:
        return
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"plain route takes {argv!r}, which argparse rejects")
    assert list(vars(plain).items()) == list(vars(parsed).items())


def parser_unbuilt():
    raise AssertionError("build_parser called")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "ncp", "--n", "3", "--limit", "2"],
        ["map", "f", "{1,4,6}/{2,3}/{5}/{7,8}"],
        ["poset", "P", "--n", "3", "--format", "json"],
        ["census", "--n", "3"],
        ["verify", "--checks", "lemma", "--n", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_plain_argv_runs_without_building_the_parser(monkeypatch, capsys, argv):
    def outcome():
        code, out, err = run_cli(capsys, *argv)
        return code, out, re.sub(r"\d+\.\d{3}s", "*s", err)  # verify's timings

    with monkeypatch.context() as through_parser:
        through_parser.setattr(cli, "_plain_args", lambda argv: None)
        expected = outcome()
    monkeypatch.setattr(cli, "build_parser", parser_unbuilt)
    assert outcome() == expected
    assert expected[0] == 0 and expected[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["verify", "--help"],
        ["verify", "--checks", "bogus", "--n", "3"],
        ["census", "--n", "x"],
        ["map", "F", "1"],
        ["verify", "--n", "-3"],
    ],
)
def test_other_argv_reaches_the_parser(monkeypatch, argv):
    monkeypatch.setattr(cli, "build_parser", parser_unbuilt)
    with pytest.raises(AssertionError, match="build_parser called"):
        main(argv)
