import re
import tracemalloc
from itertools import islice

import pytest

import support
from catalan_posets.bijection import ncp_to_perm, perm_to_ncp
from catalan_posets.errors import CAPACITY, CapacityError, check_capacity
from catalan_posets.partitions import (
    SetPartition,
    _ncp_text,
    enumerate_ncp,
    format_partition,
    parse_partition,
)
from catalan_posets.permutations import enumerate_av132
from catalan_posets.verify import catalan


def test_from_blocks_canonicalizes():
    q = SetPartition.from_blocks([(2, 3), (6, 1, 4), (8, 7), (5,)])
    assert q.blocks == ((1, 4, 6), (2, 3), (5,), (7, 8))
    assert q.n == 8


def test_constructor_rejects_noncanonical_or_invalid():
    with pytest.raises(ValueError):
        SetPartition(3, ((2, 3), (1,)))  # blocks out of order
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 3, 2),))  # block not sorted
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2),))  # 3 missing
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2), (2, 3)))  # 2 duplicated
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2, 3), ()))  # empty block
    with pytest.raises(ValueError):
        SetPartition(2, ((1, 2, 3),))  # element above n
    with pytest.raises(ValueError):
        SetPartition(0, ())


@pytest.mark.parametrize(
    "n, blocks, text",
    [
        (3, ((1, 2), (2, 3)), "element 2 appears in two blocks"),
        (2, ((1, 2.0),), "element 2.0 outside 1..2"),
        (3, ((1, 2),), "blocks do not cover 1..3"),
        (
            100_000,
            (tuple(range(1, 100_000)), (99_999, 100_000)),
            "element 99999 appears in two blocks",
        ),
        (
            100_000,
            ((*range(1, 100_000), 100_001),),
            "element 100001 outside 1..100000",
        ),
        (100_000, (tuple(range(1, 100_000)),), "blocks do not cover 1..100000"),
        # a shared minimum is a repeated element, not an ordering fault
        (2, ((1,), (1, 2)), "element 1 appears in two blocks"),
        (3, ((2, 3), (1,)), "blocks must be ordered by strictly increasing minima"),
        # True equals 1 but writes as True: str() gave '{True,2}/{3}'
        (3, ((True, 2), (3,)), "element True outside 1..3"),
        (3, [[1, 2], [3]], "blocks must be a tuple, got list"),
        (3, ((1, 2), [3]), "block [3] is not a tuple"),
    ],
)
def test_constructor_error_texts(n, blocks, text):
    # validation is linear: at n = 100000 it stays fast and says the same
    with pytest.raises(ValueError) as caught:
        SetPartition(n, blocks)
    assert str(caught.value) == text


@pytest.mark.parametrize("n", [True, 2.0, "2"])
def test_constructor_takes_only_an_int_n(n):
    # True kept n=True; 2.0 and "2" raised TypeErrors from bytearray and <
    with pytest.raises(ValueError) as caught:
        SetPartition(n, ((1,), (2,)))
    assert str(caught.value) == f"n must be an int, got {type(n).__name__}"
    with pytest.raises(ValueError) as caught:
        SetPartition(0, ())
    assert str(caught.value) == "n must be at least 1, got 0"


def test_noncrossing_agrees_with_definition_exhaustively():
    # every set partition through size 8 (4140 of them at the top)
    for n in range(1, 9):
        for blocks in support.brute_set_partitions(n):
            q = SetPartition(n, blocks)
            assert support.rejects(ncp_to_perm, q) == support.brute_has_crossing(blocks)


def test_enumerate_ncp_matches_filter_oracle():
    for n in range(1, 9):
        expected = [
            blocks
            for blocks in support.brute_set_partitions(n)
            if not support.brute_has_crossing(blocks)
        ]
        got = [q.blocks for q in enumerate_ncp(n)]
        assert sorted(got) == sorted(expected)
        assert len(got) == len(set(got))


def test_enumerate_ncp_sizes_are_catalan():
    for n in range(1, 10):
        assert sum(1 for _ in enumerate_ncp(n)) == catalan(n)


def test_enumerate_ncp_order_golden():
    assert [str(q) for q in enumerate_ncp(3)] == [
        "{1,2,3}",
        "{1,2}/{3}",
        "{1,3}/{2}",
        "{1}/{2,3}",
        "{1}/{2}/{3}",
    ]


def test_enumerate_ncp_bounds():
    with pytest.raises(CapacityError):
        enumerate_ncp(0)
    with pytest.raises(CapacityError):
        enumerate_ncp(CAPACITY["enumeration"] + 1)


@pytest.mark.parametrize("n", [True, 2.5, "2"])
def test_capacity_takes_only_an_int_n(n):
    # True passed as 1, so enumerate_ncp(True) yielded SetPartition(n=True, ...)
    text = f"n must be an int, got {type(n).__name__}"
    with pytest.raises(ValueError) as caught:
        check_capacity("enumeration", n)
    assert str(caught.value) == text
    assert not isinstance(caught.value, CapacityError)
    with pytest.raises(ValueError, match=f"^{text}$"):
        enumerate_ncp(n)


def test_format_partition():
    q = SetPartition.from_blocks([(1, 4, 6), (2, 3), (5,), (7, 8)])
    assert format_partition(q) == "{1,4,6}/{2,3}/{5}/{7,8}"
    assert format_partition(SetPartition(1, ((1,),))) == "{1}"


def test_parse_partition_round_trips():
    for n in range(1, 7):
        for q in enumerate_ncp(n):
            assert parse_partition(format_partition(q)) == q


def test_parse_partition_accepts_any_block_order():
    assert parse_partition("{2,3}/{1,4,6}/{7,8}/{5}") == SetPartition.from_blocks(
        [(1, 4, 6), (2, 3), (5,), (7, 8)]
    )


def test_parse_partition_rejects_malformed():
    for bad in [
        "",
        "1,2",
        "{1,2",
        "{1,2}/",
        "{}/{1}",
        "{1}/{1,2}",
        "{1,3}",
        "{a}",
        "{1},{2}",
    ]:
        with pytest.raises(ValueError):
            parse_partition(bad)
    # int() would take these: only ASCII digits without sign, space,
    # underscore or leading zero are elements
    for bad, block in [
        ("{1, 2}", "{1, 2}"),
        ("{+1}/{2}", "{+1}"),
        ("{1_0}/{1,2,3,4,5,6,7,8,9}", "{1_0}"),
        ("{2}/{01}", "{01}"),
        ("{\u0661}", "{\u0661}"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"malformed block text: {block!r}")):
            parse_partition(bad)


def test_enumerate_ncp_matches_recursive_generator_in_order():
    # the flat loop against the former recursive generator, element by element
    for n in range(1, 12):
        assert [q.blocks for q in enumerate_ncp(n)] == list(support.recursive_ncp(n))


def test_ncp_text_is_the_formatted_enumeration():
    # sizes 10 and 11 have two-digit elements
    for n in range(1, 12):
        assert list(_ncp_text(n)) == list(map(format_partition, enumerate_ncp(n)))


def assert_canonical_as_validated(q):
    checked = SetPartition(q.n, q.blocks)
    assert q == checked and hash(q) == hash(checked)
    assert type(q.blocks) is tuple
    assert all(type(block) is tuple for block in q.blocks)
    assert all(type(x) is int for block in q.blocks for x in block)


def test_trusted_producers_build_what_the_constructor_accepts():
    # enumerate_ncp and perm_to_ncp skip validation: what they build must
    # pass it and compare and hash like a validated partition
    for n in range(1, 10):
        for q in enumerate_ncp(n):
            assert_canonical_as_validated(q)
        for p in enumerate_av132(n):
            assert_canonical_as_validated(perm_to_ncp(p))


def test_enumerate_ncp_streams():
    # the first partitions of the 208,012 at n = 12 come without building
    # the family: a cache or a materialised list would show in the peak
    tracemalloc.start()
    try:
        first = list(islice(enumerate_ncp(12), 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == 10
    assert peak < 1 << 20


def test_ncp_text_streams():
    # as enumerate_ncp: the first lines at n = 12 come without the family
    tracemalloc.start()
    try:
        first = list(islice(_ncp_text(12), 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first[0] == "{1,2,3,4,5,6,7,8,9,10,11,12}"
    assert len(first) == 10
    assert peak < 1 << 20
