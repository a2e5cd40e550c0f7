"""Command line front end.

Subcommands: enumerate (list a family), map (apply the bijection either
way), poset (DOT/JSON export), census (CSV of counts by descent set), and
verify (run the check suite).  stdout is reserved for byte-deterministic
results; timings and errors go to stderr.  Exit status: 0 success, 1 data
or capacity error, unwritable output or a failed check, 2 usage error.
Each error is one `error:` line on stderr of under 200 UTF-8 bytes with its
newline: argparse's through _Parser.error, the others through main, both
by _error_line, which cuts a longer line to end in `... (N characters)`.
One table, _COMMANDS, holds each command's arguments, help and handler.  A
plain argv (a command, then exact flags each with a value and positionals,
none starting with '-' but a lone '-', all valid) is read from it by
_plain_args, without building the parser; any other argv (help, --n=5, cut
flags, --, negative numbers, errors) goes to the parser that build_parser
makes from it.  So argparse is imported only to write help, usage or an
error: by build_parser, and by a converter that rejects its value.  os is
imported only to silence a closed stdout.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice
from types import SimpleNamespace

from .bijection import ncp_to_perm, perm_to_ncp
from .census import census_to_csv
from .errors import CapacityError
from .partitions import _ncp_text, format_partition, parse_partition
from .permutations import _av132_text, format_permutation, parse_permutation
from .poset import (
    build_descent_poset,
    build_refinement_poset,
    iter_poset_dot,
    iter_poset_json,
)
from .verify import CHECKS, run_checks


#: UTF-8 bytes an error line may take before its newline, so that with
#: it the line stays under 200.
_LINE_BYTES = 198

#: The line breaks of str.splitlines, each to the escape repr gives it.
_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)


def _error_line(head: str, message: str) -> str:
    """head + message as one line, whole if it takes at most _LINE_BYTES of
    UTF-8, else its longest start that leaves room for '... (N characters)',
    N the length of message.  Line breaks and lone surrogates (undecodable
    bytes of an argument) are written as their backslash escapes, as stderr
    writes a surrogate, so any UTF-8 stream takes the line.

    >>> _error_line("error: ", "x" * 191) == "error: " + "x" * 191
    True
    >>> line = _error_line("error: ", "\u00e9" * 200)
    >>> line.endswith("\u00e9... (200 characters)"), len(line.encode())
    (True, 197)
    """
    line = (head + message).translate(_BREAKS)
    data = line.encode("utf-8", "backslashreplace")
    if len(data) <= _LINE_BYTES:
        return data.decode()
    tail = f"... ({len(message)} characters)"
    # a character cut in two leaves an undecodable end, which is dropped
    return data[: _LINE_BYTES - len(tail)].decode(errors="ignore") + tail


#: What --checks takes: "all" or a named check.
_CHECK_NAMES = ("all", *CHECKS)


def _parse_checks(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [name for name in names if name not in _CHECK_NAMES]
    if names and not unknown:
        return names
    from argparse import ArgumentTypeError  # only a bad value needs argparse

    if not names:
        raise ArgumentTypeError("no checks given")
    raise ArgumentTypeError(
        f"unknown check {unknown[0]!r} (known: {', '.join(_CHECK_NAMES)})"
    )


def _nonnegative_int(text: str) -> int:
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        text = repr(text)
    from argparse import ArgumentTypeError

    raise ArgumentTypeError(f"expected a non-negative integer, got {text}")


def build_parser():
    """The argparse parser of the command line, made from _COMMANDS."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """The parser of the command line and of each subcommand."""

        def error(self, message: str):
            """Exit 2 after the usage and one error line, as argparse does,
            with the line bounded by _error_line."""
            self.print_usage(sys.stderr)
            self.exit(2, _error_line(f"{self.prog}: error: ", message) + "\n")

    parser = _Parser(
        prog="catalan-posets",
        description=(
            "Noncrossing partitions, 132-avoiding permutations, the bijection "
            "between them, and the graded posets built on both families."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, positionals, options, defaults, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for dest, choices, help_text in positionals:
            command.add_argument(dest, choices=choices, help=help_text)
        for flag, (dest, convert, choices, help_text) in options.items():
            command.add_argument(
                flag, dest=dest, type=convert, choices=choices, help=help_text,
                required=dest not in defaults, default=defaults.get(dest),
            )
    return parser


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The attributes of the namespace build_parser's parser makes of argv,
    in a SimpleNamespace, when argv is plain, else None.  Plain means: the
    first token names a command; each option is an exact flag followed by
    a value that does not start with '-'; each positional is '-' or does
    not start with '-'; each value converts and is among its choices; no
    positional is missing or extra, and every required option is given.
    Anything else (-h, --n=5, a cut flag, --, a negative number, a bad or
    missing value) is left to the parser, which alone writes help, usage
    and errors.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positionals, options, defaults, _ = _COMMANDS[argv[0]]
    unfilled = iter(positionals)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            dest, convert, choices, _ = options[token]
            token = next(tokens, "-")  # a flag without a value is not plain
            if token.startswith("-"):
                return None
        elif token.startswith("-") and token != "-":
            return None
        else:
            dest, choices, _ = next(unfilled, (None, None, None))
            if dest is None:
                return None
            convert = None
        try:
            value = convert(token) if convert else token
        except Exception:  # the parser converts it again and reports or raises
            return None
        if choices is not None and value not in choices:
            return None
        given[dest] = value
    values = {**defaults, **given}
    dests = [each[0] for each in (*positionals, *options.values())]
    if len(values) != len(dests):  # a positional or a required option is missing
        return None
    return SimpleNamespace(command=argv[0], **{dest: values[dest] for dest in dests})


def _stdio(name: str):
    """sys.stdin or sys.stdout; Python sets it to None when the process
    starts with that descriptor closed."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(f"{name} is closed")
    return stream


def _note(line: str) -> None:
    """Write one line to stderr if it takes it.  What goes there is a
    diagnostic: a closed or unwritable stderr must change neither stdout
    nor the exit status, and print(file=None) would write to stdout."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        pass


#: Characters _write gathers into one piece before it writes it: 64 KiB,
#: the Linux pipe buffer.  Written one cover row at a time, P8's JSON is
#: 1,432 chunks of about 1.9 KB, 816 raw writes behind a 4 KiB buffer;
#: in 64 KiB pieces it is 40.
#: Written to a file chunk by chunk it took 4.7 ms, in 4 KiB pieces 3.9
#: ms, in 64 KiB pieces 2.0 ms and in 1 MiB pieces 3.8 ms (medians of 15
#: to 21 runs, in-process, Python 3.11, shared 2-vCPU machine).
_PIECE = 65536


def _pieces(chunks: Iterable[str]) -> Iterator[str]:
    """The chunks in order, joined into pieces of at least _PIECE
    characters; the last piece holds what is left."""
    gathered: list[str] = []
    size = 0
    for chunk in chunks:
        gathered.append(chunk)
        size += len(chunk)
        if size >= _PIECE:
            yield "".join(gathered)
            gathered, size = [], 0
    if gathered:
        yield "".join(gathered)


def _write(chunks: Iterable[str], path: str | None) -> None:
    """Write the chunks in pieces of at least _PIECE characters (and a
    shorter last one), each as soon as it is full, to stdout or to a new
    file at path.

    On stdout each piece is encoded and goes to the binary layer until
    all of it is taken.  Unbuffered, that layer is the raw file, whose
    write returns a short count when the reader closes the pipe
    mid-piece; the text layer would drop the rest unseen, while writing
    the rest raises BrokenPipeError.
    """
    pieces = _pieces(chunks)
    if path is not None:
        with open(path, "w", newline="") as handle:
            for piece in pieces:
                handle.write(piece)
        return
    out = _stdio("stdout")
    binary = getattr(out, "buffer", None)
    if binary is None:  # a text-only stream such as io.StringIO
        for piece in pieces:
            out.write(piece)
        return
    out.flush()
    for piece in pieces:
        data = piece.encode(out.encoding, out.errors)
        while data:
            data = data[binary.write(data) :]


def _cmd_enumerate(args: SimpleNamespace) -> int:
    lines = (_av132_text if args.kind == "av132" else _ncp_text)(args.n)
    if args.limit is not None:
        # islice takes at most sys.maxsize, which no family comes near
        lines = islice(lines, min(args.limit, sys.maxsize))
    # one join per block of a thousand lines costs less than one chunk
    # per line: enumerate av132 --n 10 took 10.6 ms in blocks and 12.5 ms
    # in single lines (medians of 21 runs to a file, in-process, Python
    # 3.11, shared 2-vCPU machine)
    blocks = iter(lambda: list(islice(lines, 1000)), [])
    _write(("\n".join(block) + "\n" for block in blocks), args.output)
    return 0


def _cmd_map(args: SimpleNamespace) -> int:
    # stdin carries elements longer than the OS allows for one argument
    text = _stdio("stdin").read().removesuffix("\n") if args.text == "-" else args.text
    if args.direction == "f":
        result = format_permutation(ncp_to_perm(parse_partition(text)))
    else:
        result = format_partition(perm_to_ncp(parse_permutation(text)))
    _write((result + "\n",), None)
    return 0


def _cmd_poset(args: SimpleNamespace) -> int:
    builder = build_descent_poset if args.family == "P" else build_refinement_poset
    poset = builder(args.n)
    writer = iter_poset_dot if args.format == "dot" else iter_poset_json
    _write(writer(poset), args.output)
    return 0


def _cmd_census(args: SimpleNamespace) -> int:
    _write((census_to_csv(args.n),), args.output)
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    out = _stdio("stdout")
    reports = run_checks(args.checks, args.n)
    for report in reports:
        out.write(report.summary_line() + "\n")
        for detail in report.violations:
            out.write(f"  violation: {detail}\n")
        _note(f"{report.name} n={report.n}: {report.elapsed:.3f}s")
    return 0 if all(report.passed for report in reports) else 1


#: Each command as (help, positionals, options, defaults, handler): its
#: positionals as (dest, choices, help), its options as flag -> (dest,
#: type, choices, help), and the defaults of the options it may leave out;
#: every other option is required.  build_parser makes the parser of it,
#: and _plain_args reads a plain argv by it; a handler reads its arguments
#: as attributes of the namespace of either.
_COMMANDS = {
    "enumerate": (
        "list one family in canonical order",
        (("kind", ("av132", "ncp"), "which family to list"),),
        {
            "--n": ("n", int, None, "ground size"),
            "--limit": ("limit", _nonnegative_int, None, "stop after this many lines"),
            "--output": ("output", None, None, "write here instead of stdout"),
        },
        {"limit": None, "output": None},
        _cmd_enumerate,
    ),
    "map": (
        "apply the bijection in either direction",
        (
            ("direction", ("f", "finv"), "f maps a partition to its permutation, finv inverts"),
            ("text", None, "the element to map, in the text formats; - reads it from stdin"),
        ),
        {},
        {},
        _cmd_map,
    ),
    "poset": (
        "export a poset as DOT or JSON",
        (("family", ("P", "Q"), "P: descent order; Q: refinement order"),),
        {
            "--n": ("n", int, None, "ground size"),
            "--format": ("format", None, ("dot", "json"), None),
            "--output": ("output", None, None, "write here instead of stdout"),
        },
        {"output": None},
        _cmd_poset,
    ),
    "census": (
        "CSV of 132-avoiding permutation counts by descent set",
        (),
        {
            "--n": ("n", int, None, "ground size"),
            "--output": ("output", None, None, "write here instead of stdout"),
        },
        {"output": None},
        _cmd_census,
    ),
    "verify": (
        "run verification checks",
        (),
        {
            "--checks": (
                "checks",
                _parse_checks,
                None,
                "comma separated subset of: " + ", ".join(_CHECK_NAMES),
            ),
            "--n": ("n", int, None, "ground size"),
        },
        {"checks": ("all",)},
        _cmd_verify,
    ),
}


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    *_, handler = _COMMANDS[args.command]
    try:
        code = handler(args)
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except (CapacityError, ValueError, OSError, RuntimeError) as error:
        if isinstance(error, BrokenPipeError):
            # the reader closed stdout: send what is still buffered to devnull,
            # so that the interpreter's own flush at exit does not fail again
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _note(_error_line("error: ", str(error)))
        return 1


def run() -> None:
    raise SystemExit(main())
