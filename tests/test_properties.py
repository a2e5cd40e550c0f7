import contextlib
import io
import os
import random
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import support
from catalan_posets.bijection import image_descent_mask, ncp_to_perm, perm_to_ncp
from catalan_posets.census import count_by_descent_set
from catalan_posets.cli import main
from catalan_posets.errors import CAPACITY
from catalan_posets.partitions import (
    SetPartition,
    enumerate_ncp,
    format_partition,
    parse_partition,
)
from catalan_posets.permutations import (
    descent_mask,
    format_permutation,
    parse_permutation,
)
from catalan_posets import poset as poset_module
from catalan_posets.poset import _FEW_BITS, build_descent_poset, iter_bits
from catalan_posets.verify import CHECKS

sizes = st.integers(min_value=1, max_value=16)


@st.composite
def masked_sizes(draw, max_n=16):
    n = draw(st.integers(min_value=1, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n - 1)) - 1))
    return n, mask


@st.composite
def random_permutations(draw, max_n=16):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


@st.composite
def random_set_partitions(draw, max_n=10):
    # grow a restricted growth string: each element joins an existing
    # block or opens the next one
    n = draw(st.integers(min_value=1, max_value=max_n))
    blocks: list[list[int]] = []
    for x in range(1, n + 1):
        choice = draw(st.integers(min_value=0, max_value=len(blocks)))
        if choice == len(blocks):
            blocks.append([x])
        else:
            blocks[choice].append(x)
    return tuple(tuple(block) for block in blocks)


NCP_BY_SIZE = {n: list(enumerate_ncp(n)) for n in range(1, 9)}


@st.composite
def random_noncrossing(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    return draw(st.sampled_from(NCP_BY_SIZE[n]))


@st.composite
def bit_rows(draw):
    """A row up to 3,000 bits wide: full, or with a drawn number of set
    bits, that number often next to or at iter_bits' route boundary, or
    all bits set but that number."""
    width = draw(st.integers(min_value=1, max_value=3000))
    full = (1 << width) - 1
    shape = draw(st.sampled_from(["sparse", "full", "nearly full"]))
    if shape == "full":
        return full
    boundary = st.sampled_from([_FEW_BITS - 1, _FEW_BITS, _FEW_BITS + 1])
    count = min(width, draw(boundary | st.integers(min_value=0, max_value=40)))
    row = sum(1 << b for b in draw(st.randoms()).sample(range(width), count))
    return row if shape == "sparse" else full ^ row


@settings(derandomize=True, database=None, max_examples=300)
@example(0)
@example(1 << 64)
@example(1 << 4999)
@example(((1 << (_FEW_BITS - 1)) - 1) << 70)
@example(((1 << _FEW_BITS) - 1) << 70)
@example(((1 << (_FEW_BITS + 1)) - 1) << 70)
@example((1 << 5000) - 1)
@given(bit_rows())
def test_iter_bits_lists_the_set_bits_by_the_route_its_count_picks(row):
    # the scan of the binary digits starts from bin(row), which the module
    # looks up as a global before the builtin
    with mock.patch.object(poset_module, "bin", wraps=bin, create=True) as scan:
        assert list(iter_bits(row)) == list(support.iter_bits(row))
    # rows of fewer than _FEW_BITS set bits go bit by bit, without the scan
    assert scan.called == (row.bit_count() >= _FEW_BITS)


#: Numbers of element text, then near misses: leading zeros, an empty
#: number, a sign, a space, an underscore, and digits that str.isdigit
#: takes but ASCII does not hold.
NUMBERS = ["0", "1", "2", "7", "10", "12"]
NEAR_NUMBERS = ["01", "00", "", "+1", " 1", "1_0", "\u0663", "\u00b2"]
#: Stray pieces: separators, braces and blocks out of place.
TEXT_PIECES = [*NUMBERS, *NEAR_NUMBERS, ",", "{", "}", "/", "}/{", "{}", "{,1}", "-"]


@st.composite
def element_texts(draw):
    """Numbers joined by commas, as bare text or as blocks joined by "/",
    with at most one number a near miss and at most one stray piece at
    either end; or TEXT_PIECES run together; or their characters."""
    shape = draw(st.sampled_from(["numbers", "blocks", "pieces", "characters"]))
    if shape == "pieces":
        return "".join(draw(st.lists(st.sampled_from(TEXT_PIECES), max_size=8)))
    if shape == "characters":
        return draw(st.text(alphabet="".join(TEXT_PIECES), max_size=12))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=1 if shape == "numbers" else 4))
    numbers = draw(st.lists(st.sampled_from(NUMBERS), min_size=sum(sizes), max_size=sum(sizes)))
    if draw(st.booleans()):
        numbers[draw(st.integers(0, len(numbers) - 1))] = draw(st.sampled_from(NEAR_NUMBERS))
    cuts = list(accumulate(sizes, initial=0))
    lists = [",".join(numbers[a:b]) for a, b in zip(cuts, cuts[1:])]
    text = lists[0] if shape == "numbers" else "/".join("{" + each + "}" for each in lists)
    stray = st.sampled_from(["", "", "", *TEXT_PIECES])
    return draw(stray) + text + draw(stray)


def parse_error(parse, text):
    """The message of the ValueError that parse raises on text, or None."""
    try:
        parse(text)
    except ValueError as error:
        return str(error)
    return None


@pytest.mark.parametrize(
    "parse, oracle",
    [
        (parse_permutation, support.permutation_text_error),
        (parse_partition, support.partition_text_error),
    ],
    ids=["permutation", "partition"],
)
@settings(derandomize=True, database=None, max_examples=1500)
@example(text="0")
@example(text="0,1")
@example(text="01,2")
@example(text="1,02")
@example(text="0123")
@example(text=",1")
@example(text="1,,2")
@example(text="\u0663")
@example(text="1,\u00b2")
@example(text="{0}")
@example(text="{01}")
@example(text="{1}/{02}")
@example(text="{}")
@example(text="{,1}")
@example(text="}/{1}")
@example(text="{1}/{")
@example(text="{1}/")
@example(text="{1}//{2}")
@example(text="{1}{2}")
@example(text="{\u0663}")
@given(text=element_texts())
def test_element_text_is_checked_as_the_grammar_says(parse, oracle, text):
    # the parser rejects exactly what the grammar rejects, with its message
    expected = oracle(text)
    message = parse_error(parse, text)
    if expected is None:
        assert message is None or not message.startswith(("malformed", "empty"))
    else:
        assert message == expected


@given(masked_sizes())
def test_reverse_complement_is_involution(nm):
    n, mask = nm
    assert support.reverse_complement_mask(n, support.reverse_complement_mask(n, mask)) == mask


@given(random_permutations())
def test_permutation_text_round_trip(perm):
    assert parse_permutation(format_permutation(perm)) == perm


@given(random_permutations(max_n=9))
def test_fast_avoidance_scan_matches_definition(perm):
    assert support.rejects(perm_to_ncp, perm) == support.contains_132(perm)


@given(random_set_partitions())
def test_partition_canonicalization_is_order_insensitive(blocks):
    shuffled = [list(block) for block in blocks]
    random.Random(0).shuffle(shuffled)
    for block in shuffled:
        random.Random(1).shuffle(block)
    assert SetPartition.from_blocks(shuffled) == SetPartition.from_blocks(blocks)


@given(random_set_partitions())
def test_partition_text_round_trip(blocks):
    q = SetPartition.from_blocks(blocks)
    assert parse_partition(format_partition(q)) == q


@settings(max_examples=60)
@given(masked_sizes(max_n=14))
def test_descent_counts_symmetric_under_reverse_complement(nm):
    n, mask = nm
    assert count_by_descent_set(n, mask) == count_by_descent_set(
        n, support.reverse_complement_mask(n, mask)
    )


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=0))
def test_bijection_round_trip(n, seed):
    # the open-block walk of enumerate_ncp, steered by a seeded generator:
    # x opens a block, or joins an open one and closes those opened after it
    rng = random.Random(seed)
    fresh = rng.choice([0.1, 0.5, 0.9])
    blocks, stack = [], []
    for x in range(1, n + 1):
        if not stack or rng.random() < fresh:
            stack.append([])
            blocks.append(stack[-1])
        else:
            del stack[rng.randrange(len(stack)) + 1 :]
        stack[-1].append(x)
    q = SetPartition(n, tuple(map(tuple, blocks)))
    p = ncp_to_perm(q)
    assert perm_to_ncp(p) == q
    assert descent_mask(p) == image_descent_mask(q)


@given(random_noncrossing(), random_noncrossing())
def test_descent_order_antisymmetry_via_bijection(qa, qb):
    if qa.n != qb.n:
        return
    poset = build_descent_poset(qa.n)
    index = {p: i for i, p in enumerate(poset.elements)}
    a, b = index[ncp_to_perm(qa)], index[ncp_to_perm(qb)]
    assert not support.below(poset, a, a)  # irreflexive
    if support.below(poset, a, b):
        assert not support.below(poset, b, a)


EMOJI = "\U0001f600"
#: Texts that make an error line long, non-ASCII or multi-line, and lone
#: surrogates, which stand for the undecodable bytes of an argument.
HARD_TEXTS = [
    "x" * 20000,
    "\u00e9" * 20000,
    EMOJI * 300,
    "\udcff" * 5000,
    "1" * 4000,
    "x\nerror: y",
    "{1," + EMOJI * 20000 + "}",
    ",".join(map(str, range(1, 20001))),
]
texts = st.one_of(
    st.sampled_from(HARD_TEXTS),
    st.text(max_size=6),
    st.text(st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF), min_size=1, max_size=3),
)
VALID_ELEMENTS = ["{1,4,6}/{2,3}/{5}/{7,8}", "64573812", "6,4,5,7,3,8,1,2", "{1}", "1"]


def mostly(valid, other=texts):
    """One of the valid values nine times in ten, else one of other."""
    return st.integers(0, 9).flatmap(lambda k: st.sampled_from(valid) if k else other)


@st.composite
def near_misses(draw):
    text = draw(st.sampled_from(VALID_ELEMENTS))
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from("{}/,0132x ")) + text[at + 1 :]


elements = mostly(
    [*VALID_ELEMENTS, "132", "{1,3}/{2,4}", "{1}/{1}", ""], st.one_of(near_misses(), texts)
)
#: The caps each command's --n reaches: its own, or each size a verify
#: line runs at, the caps of the structures the checks read and the two
#: sperner sub-caps.
CAPS = {
    "enumerate": [CAPACITY["enumeration"]],
    "poset": [CAPACITY["poset construction"]],
    "census": [CAPACITY["census"]],
    "verify": sorted(
        {CAPACITY[structure] for structure, _ in CHECKS.values()}
        | {CAPACITY["sperner-dk"], CAPACITY["sperner-transfer"]}
    ),
}


@st.composite
def cli_calls(draw):
    """An argv for main, options in any order, and a text for stdin."""
    command = draw(mostly(["enumerate", "map", "poset", "census", "verify"]))
    caps = CAPS.get(command, [])
    # verify also takes each cap itself, where one line runs at its cap
    # while another is clamped
    steps = (-1, 0, 1) if command == "verify" else (-1, 1)
    n = mostly(
        ["1", "2", "3", "4", *(str(cap + step) for cap in caps for step in steps)],
        st.one_of(st.sampled_from(["0", "-1", "x", "", " 3", "\u0663"]), texts),
    )
    output = ["--output", draw(st.sampled_from([os.devnull, os.path.join(os.devnull, "x")]))]
    required, optional = [], []  # option groups, each a list of tokens
    if command == "enumerate":
        required = [[draw(mostly(["av132", "ncp"]))], ["--n", draw(n)]]
        limit = draw(mostly(["0", "2", "5"], st.sampled_from(["-1", "x"])))
        optional = [["--limit", limit], output]
    elif command == "map":
        required = [[draw(mostly(["f", "finv"]))], [draw(mostly(["-"], elements))]]
    elif command == "poset":
        family, text_format = draw(mostly(["P", "Q"])), draw(mostly(["dot", "json"]))
        required = [[family], ["--n", draw(n)], ["--format", text_format]]
        optional = [output]
    elif command == "census":
        required, optional = [["--n", draw(n)]], [output]
    elif command == "verify":
        checks = draw(mostly(["all", "lemma,ranks", "sperner"], st.sampled_from([",", "x"])))
        required, optional = [["--n", draw(n)]], [["--checks", checks]]
    kept = [group for group in required if draw(st.integers(0, 9))]
    kept += [group for group in optional if draw(st.booleans())]
    flags = mostly(["-h", "--n", "--bogus"])
    extras = draw(mostly([()], st.lists(flags, min_size=1, max_size=2)))
    groups = draw(st.permutations([*kept, *([extra] for extra in extras)]))
    argv = [command, *(token for group in groups for token in group)]
    return argv, draw(elements)


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
@example((["census", "--n", "3", "x" * 20000], ""))
@example((["map", "f", "{1," + EMOJI * 20000 + "}"], ""))
@given(cli_calls())
def test_cli_ends_in_output_or_one_short_error_line(call):
    argv, stdin = call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch("sys.stdin", io.StringIO(stdin)):
            try:
                code = main(argv)
            except SystemExit as exit:
                code = exit.code
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert sum("error:" in line for line in lines) <= 1
    # bytes as stderr writes them: UTF-8, a lone surrogate as its escape
    assert all(len(line.encode("utf-8", "backslashreplace")) < 200 for line in lines)
