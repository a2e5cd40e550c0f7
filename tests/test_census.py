import random
import tracemalloc
from collections import Counter

import pytest

import support
from catalan_posets import census as census_module
from catalan_posets import verify
from catalan_posets.census import build_census, census_to_csv, count_by_descent_set
from catalan_posets.errors import CAPACITY, CapacityError
from catalan_posets.permutations import (
    descent_mask,
    enumerate_av132,
)
from catalan_posets.verify import catalan


def test_census_matches_symmetric_group_filter():
    # independent oracle: filter all of S_n, bucket by descent mask
    for n in range(1, 8):
        expected = Counter(
            support.brute_descent_mask(p) for p in support.brute_av132(n)
        )
        census = build_census(n)
        for mask in range(1 << (n - 1)):
            assert census[mask] == expected[mask]


def test_census_matches_enumeration_tally():
    # the transfer never lists a permutation; the enumeration does
    for n in range(1, 13):
        tally = [0] * (1 << (n - 1))
        for perm in enumerate_av132(n):
            tally[descent_mask(perm)] += 1
        assert build_census(n) == tuple(tally)


def test_counter_matches_split_recurrence():
    # every mask at every size through the census cap, against splitting
    # at the position of n, which shares nothing with the transfer
    tables = support.split_censuses(CAPACITY["census"])
    for n in range(1, CAPACITY["census"] + 1):
        assert build_census(n) == tables[n]
        for mask in range(1 << (n - 1)):
            assert count_by_descent_set(n, mask) == tables[n][mask]


@pytest.mark.parametrize("n", [12, CAPACITY["census"]])
def test_symmetric_fault_passes_lemma_and_fails_the_split_recurrence(monkeypatch, n):
    # one unit moves from S to T and one from rc(S) to rc(T), with |S| = |T|:
    # the census stays rc-symmetric with the same total and the same sums by
    # size, and above the poset cap, where lemma's tally stops, only the
    # oracle sees it
    s, t = 0b1, 0b10
    partners = support.reverse_complement_mask(n, s), support.reverse_complement_mask(n, t)
    assert len({s, t, *partners}) == 4 and s.bit_count() == t.bit_count()
    bad = list(build_census(n))
    for source, target in [(s, t), partners]:
        bad[source] -= 1
        bad[target] += 1
    bad = tuple(bad)
    assert verify._descent_rank_sizes(n) == tuple(
        sum(count for mask, count in enumerate(bad) if mask.bit_count() == size)
        for size in range(n)
    )
    monkeypatch.setattr(verify, "build_census", lambda n: bad)
    assert verify.check_census_symmetry(n).passed
    oracle = support.split_censuses(n)[n]
    assert [mask for mask in range(len(bad)) if bad[mask] != oracle[mask]] == sorted(
        (s, t, *partners)
    )


def test_asymmetric_fault_fails_lemma_at_its_cap(monkeypatch):
    # one unit more at {1}, whose reverse complement is {1..n-2}: above the
    # poset cap lemma has no tally, and its symmetry test and its total
    # still see it
    n = CAPACITY[verify.CHECKS["lemma"][0]]
    mask = 0b1
    partner = support.reverse_complement_mask(n, mask)
    assert partner == (1 << (n - 2)) - 1 != mask
    bad = list(build_census(n))
    bad[mask] += 1
    monkeypatch.setattr(verify, "build_census", lambda n: tuple(bad))
    other = "{" + ",".join(map(str, range(1, n - 1))) + "}"
    [report] = verify.run_checks(("lemma",), n)
    assert report.summary_line() == f"lemma n={n}: examined={1 << (n - 1)} FAIL"
    assert report.violations == (
        f"count {bad[mask]} at {{1}} != count {bad[partner]} at {other}",
        f"count {bad[partner]} at {other} != count {bad[mask]} at {{1}}",
        f"census total {catalan(n) + 1} != catalan({n})",
    )


def test_lanes_hold_every_count_up_to_the_cap():
    # build_census adds each mask's count into one lane of a packed sum, and
    # no count exceeds C_n; a count that filled its lane would carry into
    # the next mask's, so a census cap beyond what a lane holds fails here
    assert catalan(CAPACITY["census"]) < 1 << (8 * census_module._LANE)


def _minima_count(n, mask):
    # block minima are 1 and every descent position plus one
    minima = {1} | {d + 2 for d in range(n - 1) if mask >> d & 1}
    return support.count_noncrossing_by_minima(n, minima)


@pytest.mark.parametrize("n, draws", [(300, 20), (2000, 3)])
def test_descent_count_symmetry_has_no_size_cap(n, draws):
    # far above the census cap, through the block-minima oracle
    rng = random.Random(n)
    for _ in range(draws):
        mask = rng.getrandbits(n - 1)
        partner = support.reverse_complement_mask(n, mask)
        count = _minima_count(n, mask)
        assert count > 0
        assert count == _minima_count(n, partner)


def test_lemma_check_compares_census_with_enumeration(monkeypatch):
    bad = list(build_census(9))
    bad[5] += 1
    monkeypatch.setattr(verify, "build_census", lambda n: tuple(bad))
    report = verify.check_census_symmetry(9)
    assert not report.passed
    assert "census disagrees with enumeration at {1,3}" in report.violations


def test_lemma_check_compares_counter_with_enumeration(monkeypatch):
    # the census and the counter share one transfer, so a fault in it fails
    # lemma: at n = 9 the low half is the first four positions, and one more
    # way to reach depth 1 over {1,3} there adds to every mask with that half
    real = census_module._forward

    def forward(bits, width):
        reach = real(bits, width)
        return (reach[0] + 1, *reach[1:]) if (bits, width) == (0b101, 4) else reach

    monkeypatch.setattr(census_module, "_forward", forward)
    build_census.cache_clear()
    try:
        report = verify.check_census_symmetry(9)
    finally:
        build_census.cache_clear()
    assert "census disagrees with enumeration at {1,3}" in report.violations


def test_census_totals_are_catalan():
    for n in range(1, 10):
        assert sum(build_census(n)) == catalan(n)


def test_census_size_four_golden():
    # masks 0..7 index subsets of {1,2,3}; counted by hand from the
    # fourteen avoiders of size 4
    assert build_census(4) == (1, 3, 2, 3, 1, 2, 1, 1)


def test_recursive_counter_agrees_with_census():
    # every mask through the census cap, against the depth-first walk of
    # the same transfer; at n = 1 and n = 2 the counter's low half has no
    # positions
    assert count_by_descent_set(1, 0) == support.depth_first_census(1)[0] == 1
    assert count_by_descent_set(2, 0) == support.depth_first_census(2)[0] == 1
    assert count_by_descent_set(2, 1) == support.depth_first_census(2)[1] == 1
    for n in range(1, CAPACITY["census"] + 1):
        walked = support.depth_first_census(n)
        for mask in range(1 << (n - 1)):
            assert count_by_descent_set(n, mask) == walked[mask]


def test_counter_memo_is_bounded():
    # every mask at 16 reads one census; above the cap the counter raises
    # as the census does and nothing is kept
    build_census.cache_clear()
    for mask in range(1 << 15):
        count_by_descent_set(16, mask)
    assert build_census.cache_info().currsize == 1
    for n in [CAPACITY["census"] + 1, 300, 2000]:
        rng = random.Random(n)
        message = f"census supports n up to {CAPACITY['census']}, got {n}$"
        with pytest.raises(CapacityError, match=message):
            count_by_descent_set(n, rng.getrandbits(n - 1))
        assert build_census.cache_info().currsize == 1


@pytest.mark.parametrize("n", [1, 2, 9, CAPACITY["census"]])
def test_one_counter_call_fills_that_census_entry(n):
    build_census.cache_clear()
    mask = (1 << (n - 1)) - 1
    assert count_by_descent_set(n, mask) == 1
    info = build_census.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 0)
    assert len(build_census(n)) == 1 << (n - 1)
    assert build_census.cache_info().hits == 1


def test_recursive_counter_shift_and_trivial_cases():
    # {2,3} at size 8 reduces to {1,2} at size 7 by shifting everything
    # down past the gap before the first descent
    assert count_by_descent_set(8, 0b110) == count_by_descent_set(7, 0b011)
    for n in range(1, 13):
        assert count_by_descent_set(n, 0) == 1
        assert count_by_descent_set(n, (1 << (n - 1)) - 1) == 1


def test_recursive_counter_symmetry():
    # count is invariant under reverse complement of the descent set
    for n in range(1, 13):
        for mask in range(1 << (n - 1)):
            partner = support.reverse_complement_mask(n, mask)
            assert count_by_descent_set(n, mask) == count_by_descent_set(n, partner)


def test_count_noncrossing_by_minima_edge_cases():
    # minima {1} alone forces the one-block partition
    for n in range(1, 10):
        assert support.count_noncrossing_by_minima(n, {1}) == 1
    # all of 1..n as minima forces all singletons
    assert support.count_noncrossing_by_minima(5, {1, 2, 3, 4, 5}) == 1
    # minima summed over all subsets containing 1 covers every partition
    for n in range(1, 9):
        total = 0
        for rest in range(1 << (n - 1)):
            minima = {1} | {i + 2 for i in range(n - 1) if rest >> i & 1}
            total += support.count_noncrossing_by_minima(n, minima)
        assert total == catalan(n)


def test_count_noncrossing_by_minima_matches_enumeration():
    from catalan_posets.partitions import enumerate_ncp

    for n in range(1, 9):
        tally = Counter(tuple(b[0] for b in q.blocks) for q in enumerate_ncp(n))
        for minima, expected in tally.items():
            assert support.count_noncrossing_by_minima(n, minima) == expected
    # and with the census, at every mask
    for n in range(1, 13):
        census = build_census(n)
        for mask in range(1 << (n - 1)):
            assert _minima_count(n, mask) == census[mask]


def test_descent_count_distribution_is_narayana():
    from catalan_posets.verify import narayana

    for n in range(1, 11):
        by_count = [0] * n
        for mask in range(1 << (n - 1)):
            by_count[bin(mask).count("1")] += count_by_descent_set(n, mask)
        assert by_count == [narayana(n, k) for k in range(1, n + 1)]


def test_counters_reject_bad_masks():
    with pytest.raises(ValueError):
        count_by_descent_set(4, -1)
    with pytest.raises(ValueError):
        count_by_descent_set(4, 8)
    # n is checked before the mask, whose range has no meaning below n = 1
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        count_by_descent_set(0, 0)


def test_counter_takes_only_int_arguments():
    # True passed as the mask 1, and floats failed on a shift or an index
    # with a bare TypeError
    cases = [
        (2, True, "int and bool"),
        (2.0, 0, "float and int"),
        (2, 1.0, "int and float"),
        (True, 0, "bool and int"),
    ]
    for n, mask, names in cases:
        with pytest.raises(ValueError, match=f"^n and descent mask must be ints, got {names}$"):
            count_by_descent_set(n, mask)
    assert count_by_descent_set(2, 1) == 1


def test_census_capacity():
    with pytest.raises(CapacityError):
        build_census(CAPACITY["census"] + 1)
    with pytest.raises(CapacityError):
        build_census(0)


def test_csv_golden_size_three():
    assert census_to_csv(3) == (
        "descent_set_text,size,count\n"
        "{},0,1\n"
        "{1},1,2\n"
        "{2},1,1\n"
        '"{1,2}",2,1\n'
    )


def test_csv_size_one():
    assert census_to_csv(1) == "descent_set_text,size,count\n{},0,1\n"


def test_csv_rows_spell_out_each_mask():
    # two-digit positions from n = 11 on, such as {10,11} at n = 12
    for n in range(1, 13):
        lines = census_to_csv(n).split("\n")
        assert lines[0] == "descent_set_text,size,count"
        assert lines[-1] == ""
        counts = build_census(n)
        assert len(lines) == len(counts) + 2
        for mask, line in enumerate(lines[1:-1]):
            positions = [str(i) for i in range(1, n) if mask >> (i - 1) & 1]
            text = "{" + ",".join(positions) + "}"
            if len(positions) > 1:
                text = f'"{text}"'
            assert line == f"{text},{len(positions)},{counts[mask]}"


def test_csv_matches_the_csv_module_writer():
    # the hand-quoted lines against csv.writer, byte for byte
    for n in range(1, 15):
        assert census_to_csv(n) == support.reference_census_csv(n, build_census(n))


def test_lemma_failure_prints_positions_in_braces(monkeypatch):
    n = 12
    mask = 0b11 << 9  # positions {10,11}
    partner = support.reverse_complement_mask(n, mask)
    assert partner == 0b111111111 << 2  # positions {3,...,11}
    bad = list(build_census(n))
    bad[mask] += 1
    monkeypatch.setattr(verify, "build_census", lambda n: tuple(bad))
    report = verify.check_census_symmetry(n)
    other = "{" + ",".join(map(str, range(3, 12))) + "}"
    assert report.violations == (
        f"count {bad[mask]} at {{10,11}} != count {bad[partner]} at {other}",
        f"count {bad[partner]} at {other} != count {bad[mask]} at {{10,11}}",
        f"census total {sum(bad)} != catalan(12)",
    )


def test_csv_row_counts():
    for n in range(1, 7):
        lines = census_to_csv(n).strip().split("\n")
        assert len(lines) == 1 + (1 << (n - 1))


def test_csv_over_the_cap_raises_before_building_any_text():
    # the 2^(n-1) descent-set texts were once built before the census's
    # capacity check, so census --n 40 exhausted memory; at cap + 1 they
    # alone take megabytes
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            census_to_csv(CAPACITY["census"] + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
