import tracemalloc
from itertools import permutations

import pytest

import support
from catalan_posets import permutations as permutations_module
from catalan_posets.bijection import perm_to_ncp
from catalan_posets.cli import main
from catalan_posets.errors import CAPACITY, CapacityError
from catalan_posets.permutations import (
    _av132_sorted,
    _av132_text,
    check_permutation,
    descent_mask,
    enumerate_av132,
    format_descent_set,
    format_permutation,
    parse_permutation,
    reverse_complement_masks,
)
from catalan_posets.poset import build_descent_poset
from catalan_posets.verify import catalan


def test_check_permutation_accepts_valid():
    assert check_permutation([2, 1, 3]) == (2, 1, 3)
    assert check_permutation((1,)) == (1,)


def test_check_permutation_rejects_invalid():
    for bad in [(), (0, 1), (1, 3), (2, 2), (1, 2, 4), ("1", "2")]:
        with pytest.raises(ValueError):
            check_permutation(bad)


@pytest.mark.parametrize(
    "entries, text",
    [
        ((2, 2, 1), "duplicate entry 2"),
        ((True, 1), "entry True outside 1..2"),
        ((1, 2, 4), "entry 4 outside 1..3"),
        ((1.0, 2), "entry 1.0 outside 1..2"),
        (("1", "2"), "entry '1' outside 1..2"),
        ((*range(1, 100_000), 1), "duplicate entry 1"),
        ((*range(1, 100_000), 100_001), "entry 100001 outside 1..100000"),
    ],
)
def test_check_permutation_error_texts(entries, text):
    # validation is linear: at n = 100000 it stays fast and says the same
    with pytest.raises(ValueError) as caught:
        check_permutation(entries)
    assert str(caught.value) == text


def test_fast_scan_agrees_with_definition_exhaustively():
    # full symmetric group through size 7 (5040 permutations at the top)
    for n in range(1, 8):
        for p in permutations(range(1, n + 1)):
            assert support.rejects(perm_to_ncp, p) == support.contains_132(p)


def test_enumerate_av132_matches_filter_oracle():
    for n in range(1, 8):
        assert list(enumerate_av132(n)) == support.brute_av132(n)


def test_enumerate_av132_is_sorted_and_catalan_sized():
    for n in range(1, 10):
        items = list(enumerate_av132(n))
        assert items == sorted(items)
        assert len(items) == catalan(n)


def test_enumerate_av132_matches_recursive_builder_in_order():
    # the prefix search against the former split-and-sort builder
    for n in range(1, 12):
        assert list(enumerate_av132(n)) == list(support.recursive_av132(n))


def test_av132_text_is_the_formatted_enumeration():
    # sizes 10 and 11 take the comma form
    for n in range(1, 12):
        assert list(_av132_text(n)) == list(map(format_permutation, enumerate_av132(n)))


def test_enumerate_av132_cli_streams(capsys):
    # the first lines at n = 12 need neither the sorted family nor its cache
    _av132_sorted.cache_clear()
    tracemalloc.start()
    try:
        code = main(["enumerate", "av132", "--n", "12", "--limit", "10"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "1,2,3,4,5,6,7,8,9,10,11,12"
    assert _av132_sorted.cache_info().currsize == 0
    assert peak < 10 << 20


def test_enumerate_av132_bounds():
    with pytest.raises(CapacityError):
        enumerate_av132(0)
    with pytest.raises(CapacityError):
        enumerate_av132(CAPACITY["enumeration"] + 1)


def test_descent_set_of_running_example():
    assert descent_mask((6, 4, 5, 7, 3, 8, 1, 2)) == 0b101001
    assert descent_mask((1, 2, 3)) == 0
    assert descent_mask((3, 2, 1)) == 0b11


def test_left_to_right_minima_positions():
    minima = support.left_to_right_minima_positions
    assert minima((6, 4, 5, 7, 3, 8, 1, 2)) == (1, 2, 5, 7)
    assert minima((1, 2, 3)) == (1,)
    assert minima((3, 2, 1)) == (1, 2, 3)


def test_descents_shift_to_minima_positions_on_avoiders():
    # For 132-avoiders the minima positions are {1} plus the shifted
    # descent set; exhaustive through size 8.
    for n in range(1, 9):
        for p in enumerate_av132(n):
            shifted = {1} | {i + 2 for i in range(n - 1) if descent_mask(p) >> i & 1}
            assert set(support.left_to_right_minima_positions(p)) == shifted


def test_format_permutation_both_widths():
    assert format_permutation((6, 4, 5, 7, 3, 8, 1, 2)) == "64573812"
    eleven = tuple(range(11, 0, -1))
    assert format_permutation(eleven) == "11,10,9,8,7,6,5,4,3,2,1"


def test_own_permutations_format_unchanged_without_revalidation(monkeypatch, capsys):
    # `enumerate av132` and GradedPoset.label join the package's own tuples
    # without check_permutation; the bytes are format_permutation's
    expected = {
        n: "".join(format_permutation(p) + "\n" for p in enumerate_av132(n))
        for n in range(1, 11)
    }
    checked = []
    monkeypatch.setattr(permutations_module, "check_permutation", checked.append)
    for n in range(1, 11):
        assert main(["enumerate", "av132", "--n", str(n)]) == 0
        assert capsys.readouterr().out == expected[n]
    for n in range(1, 10):
        poset = build_descent_poset(n)
        labels = "".join(poset.label(i) + "\n" for i in range(poset.size))
        assert labels == expected[n]
    assert checked == []


def test_parse_permutation_round_trips():
    for p in [(1,), (2, 1, 3), (6, 4, 5, 7, 3, 8, 1, 2), tuple(range(11, 0, -1))]:
        assert parse_permutation(format_permutation(p)) == p


def test_parse_permutation_rejects_malformed():
    for bad in ["", "10", "132x", "1,2,x", "0,1", "12,1", "1,1", " 132"]:
        with pytest.raises(ValueError):
            parse_permutation(bad)
    # int() would take these: only ASCII digits without sign, space,
    # underscore or leading zero are entries
    for bad in [" 2,1", "2,1 ", "+2,1", "2,-1", "1_0,1", "01,2", "\u0661\u0662", "\u00b2"]:
        with pytest.raises(ValueError, match="^malformed permutation text"):
            parse_permutation(bad)


def positions(n, mask):
    """The descent positions 1..n-1 whose bit is set in mask."""
    return tuple(i for i in range(1, n) if (mask >> (i - 1)) & 1)


def test_positions_round_trip():
    assert format_descent_set(0b101001) == "{1,4,6}"
    assert format_descent_set(0) == "{}"
    assert format_descent_set(0b11 << 9) == "{10,11}"
    for mask in range(1 << 11):
        text = format_descent_set(mask)
        assert text == "{" + ",".join(map(str, positions(12, mask))) + "}"


def test_reverse_complement_examples():
    # {1,4,6} in size 8: absent positions are {2,3,5,7}; 8-i over those
    # gives {1,3,5,6}.
    assert positions(8, support.reverse_complement_mask(8, 0b101001)) == (1, 3, 5, 6)
    # empty and full sets swap
    assert support.reverse_complement_mask(5, 0) == 0b1111
    assert support.reverse_complement_mask(5, 0b1111) == 0


def test_reverse_complement_is_involution_exhaustive():
    for n in range(1, 10):
        for mask in range(1 << (n - 1)):
            once = support.reverse_complement_mask(n, mask)
            assert 0 <= once < 1 << (n - 1)
            assert support.reverse_complement_mask(n, once) == mask


def test_reverse_complement_table_is_the_oracle_at_every_mask():
    # the one runtime route, a table doubled one bit at a time, against the
    # oracle's text reversal, through one past the census cap
    for n in range(1, 18):
        assert reverse_complement_masks(n) == [
            support.reverse_complement_mask(n, mask) for mask in range(1 << (n - 1))
        ]


def test_reverse_complement_set_version_matches_mask_version():
    for n in range(1, CAPACITY["census"] + 1):
        for mask in range(1 << (n - 1)):
            present = positions(n, mask)
            image = {n - i for i in range(1, n) if i not in present}
            assert set(positions(n, support.reverse_complement_mask(n, mask))) == image
