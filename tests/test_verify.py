import math
import time
from itertools import islice

import pytest

import support
from catalan_posets import verify
from catalan_posets.antichains import max_antichain
from catalan_posets.bijection import ncp_to_perm
from catalan_posets.errors import CAPACITY, CapacityError
from catalan_posets.partitions import enumerate_ncp, parse_partition
from catalan_posets.permutations import (
    descent_mask,
    enumerate_av132,
)
from catalan_posets.poset import build_descent_poset, build_refinement_poset
from catalan_posets.verify import (
    CHECKS,
    MAX_VIOLATION_DETAILS,
    VerificationReport,
    catalan,
    check_census_symmetry,
    check_coarsening,
    check_rank_statistics,
    check_self_duality,
    check_sperner_transfer,
    construct_antiautomorphism,
    narayana,
    note_violation,
    run_checks,
)


def test_rank_statistics_report():
    report = check_rank_statistics(6)
    assert report.passed
    assert report.name == "ranks"
    assert report.examined == 12  # one rank vector per family


@pytest.mark.parametrize("n", range(1, 10))
def test_rank_counts_are_the_posets_rank_sizes(n):
    assert verify._descent_rank_sizes(n) == build_descent_poset(n).rank_sizes()
    assert verify._refinement_rank_sizes(n) == build_refinement_poset(n).rank_sizes()


def test_rank_recurrence_is_the_enumeration_tally_through_the_enumeration_cap():
    # the recurrence on the block that holds 1 lists nothing; the tally
    # counts blocks over every partition the enumeration lists
    for n in range(1, CAPACITY["enumeration"] + 1):
        tally = support.refinement_rank_tally(n, (q.blocks for q in enumerate_ncp(n)))
        assert verify._refinement_rank_sizes(n) == tally


@pytest.mark.parametrize(
    "counter, family",
    [("_descent_rank_sizes", "descent"), ("_refinement_rank_sizes", "refinement")],
)
def test_rank_statistics_reports_a_wrong_count(monkeypatch, counter, family):
    # the check is not vacuous: one rank count off by one is a violation
    counted = getattr(verify, counter)

    def off_by_one(n):
        sizes = list(counted(n))
        sizes[2] += 1
        return tuple(sizes)

    monkeypatch.setattr(verify, counter, off_by_one)
    n = CAPACITY[CHECKS["ranks"][0]]
    [report] = run_checks(("ranks",), n)
    assert report.summary_line() == f"ranks n={n}: examined={2 * n} FAIL"
    assert len(report.violations) == 1
    assert report.violations[0].startswith(f"{family} poset rank sizes")


def test_census_symmetry_report():
    report = check_census_symmetry(7)
    assert report.passed
    assert report.name == "lemma"
    assert report.examined == 64  # one entry per descent subset


def test_census_symmetry_at_large_size():
    assert check_census_symmetry(12).passed


@pytest.mark.parametrize(
    "name, closed_form",
    [
        ("lemma", lambda n: 2 ** (n - 1)),  # one entry per descent set
        ("ranks", lambda n: 2 * n),  # one rank vector per family
        ("selfdual", lambda n: (math.comb(2 * n, n) // (n + 1)) ** 2),  # C_n^2 pairs
        # Kreweras: NC(n) has comb(3n, n) / (2n + 1) intervals, C_n of them trivial
        ("coarsening", lambda n: math.comb(3 * n, n) // (2 * n + 1) - catalan(n)),
    ],
)
def test_examined_is_the_closed_form_through_the_cap(name, closed_form):
    # a check that skipped part of its domain above the sizes pinned
    # elsewhere would still pass; its examined= would not
    for n in range(1, CAPACITY[CHECKS[name][0]] + 1):
        [report] = run_checks((name,), n)
        assert (report.n, report.examined, report.passed) == (n, closed_form(n), True)


def test_sperner_transfer_examines_every_pair_of_a_largest_rank_through_its_cap():
    # the pulled-back antichain is a maximum one of P, as large as its
    # largest rank, the largest Narayana number
    for n in range(1, CAPACITY["sperner-transfer"] + 1):
        width = max(narayana(n, k) for k in range(1, n + 1))
        report = check_sperner_transfer(n)
        assert (report.n, report.examined, report.passed) == (n, width * (width - 1) // 2, True)


def test_sperner_width_and_dk_examine_their_closed_forms_through_their_caps():
    # sperner-width examines every element of P, C_n of them, and
    # sperner-dk one k-antichain union for each k = 1..n, at its sub-cap
    # once n is past it
    for n in range(1, CAPACITY[CHECKS["sperner"][0]] + 1):
        width, dk, _ = run_checks(("sperner",), n)
        assert (width.name, width.n, width.examined, width.passed) == (
            "sperner-width", n, catalan(n), True,
        )
        m = min(n, CAPACITY["sperner-dk"])
        assert (dk.name, dk.n, dk.examined, dk.passed) == ("sperner-dk", m, m, True)


def test_sperner_suite_structure():
    reports = run_checks(("sperner",), 8)
    assert [r.name for r in reports] == [
        "sperner-width",
        "sperner-dk",
        "sperner-transfer",
    ]
    widths, dk, transfer = reports
    assert widths.n == 8 and widths.examined == catalan(8)
    assert dk.n == 6  # capped internally
    assert transfer.n == 7  # capped internally
    assert all(r.passed for r in reports)
    # transfer examines every pair of the pulled-back antichain, whose
    # size is the largest rank size at 7, namely 175
    assert transfer.examined == 175 * 174 // 2


def test_sperner_lines_fail_on_a_cut_loose_bottom(monkeypatch):
    # every comparability of P5's bottom element dropped: the poset stays
    # graded with the same rank sizes, but the bottom joins a largest rank
    true = build_descent_poset(5)
    assert true.label(0) == "12345" and true.rank_sizes() == (1, 10, 20, 10, 1)
    broken = true._replace(
        leq_rows=(1,) + true.leq_rows[1:], cover_rows=(0,) + true.cover_rows[1:]
    )
    assert max_antichain(broken) == 21
    monkeypatch.setattr(verify, "build_descent_poset", lambda _n: broken)
    reports = run_checks(("sperner",), 5)
    assert [(r.name, r.passed) for r in reports] == [
        ("sperner-width", False),
        ("sperner-dk", False),
        ("sperner-transfer", False),
    ]
    assert reports[0].violations == ("width 21 != largest rank size 20",)


def test_sperner_width_fails_on_a_cut_loose_bottom_at_its_cap(monkeypatch):
    # the same fault in P at the poset cap, where sperner-width runs:
    # the bottom joins a largest rank of 1764, and only the width line,
    # the one line at 9, sees it
    n = CAPACITY[CHECKS["sperner"][0]]
    true = build_descent_poset(n)
    assert max(true.rank_sizes()) == narayana(n, 5) == 1764
    broken = true._replace(
        leq_rows=(1,) + true.leq_rows[1:], cover_rows=(0,) + true.cover_rows[1:]
    )
    monkeypatch.setattr(
        verify, "build_descent_poset", lambda m: broken if m == n else build_descent_poset(m)
    )
    reports = run_checks(("sperner",), n)
    assert [r.summary_line() for r in reports] == [
        "sperner-width n=9: examined=4862 FAIL",
        "sperner-dk n=6: examined=6 pass",
        "sperner-transfer n=7: examined=15225 pass",
    ]
    assert reports[0].violations == ("width 1765 != largest rank size 1764",)


def test_run_checks_each_name_at_small_size():
    reports = run_checks(tuple(CHECKS), 5)
    # sperner expands to three reports
    assert len(reports) == len(CHECKS) + 2
    assert all(r.passed for r in reports)


def test_run_checks_times_each_line_and_direct_calls_report_zero():
    reports = run_checks(tuple(CHECKS), 5)
    assert len(reports) == 7 and all(r.elapsed > 0 for r in reports)
    assert check_coarsening(5).elapsed == 0.0


def test_run_checks_clamps_when_asked():
    # "all" runs every check, each clamped to its cap; other names are
    # ignored.  A check's cap is its structure's: the census for ranks and
    # lemma, the built posets for the rest, and sperner's two sub-caps
    # inside that
    reports = run_checks(("all",), 16)
    assert isinstance(reports, list)
    assert [(r.name, r.n, r.passed) for r in reports] == [
        ("coarsening", 9, True),
        ("ranks", 16, True),
        ("lemma", 16, True),
        ("selfdual", 9, True),
        ("sperner-width", 9, True),
        ("sperner-dk", 6, True),
        ("sperner-transfer", 7, True),
    ]
    assert {structure for structure, _ in CHECKS.values()} == {"census", "poset construction"}
    assert sorted(CAPACITY) == sorted(
        ["enumeration", "census", "poset construction", "sperner-dk", "sperner-transfer"]
    )
    lines = [r.summary_line() for r in run_checks(("all",), 5)]
    assert [r.summary_line() for r in run_checks(("ranks", "all"), 5)] == lines


def test_run_checks_rejects_over_cap_without_clamp():
    with pytest.raises(CapacityError):
        run_checks(("selfdual",), CAPACITY[CHECKS["selfdual"][0]] + 1)


def test_run_checks_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_checks(("bogus",), 3)


def test_run_checks_rejects_bad_n():
    with pytest.raises(CapacityError):
        run_checks(("ranks",), 0)


def test_all_checks_pass_at_their_caps():
    for name, (structure, _) in CHECKS.items():
        for report in run_checks((name,), CAPACITY[structure]):
            assert report.passed, report.summary_line()


def test_summary_line_pass():
    report = VerificationReport(name="ranks", n=5, examined=10)
    assert report.passed
    assert report.summary_line() == "ranks n=5: examined=10 pass"


def test_summary_line_fail():
    report = VerificationReport(
        name="lemma", n=4, examined=8, violations=("bad mask 3",)
    )
    assert not report.passed
    assert report.summary_line() == "lemma n=4: examined=8 FAIL"


def test_summary_line_leaves_out_timing():
    report = VerificationReport(name="ranks", n=5, examined=10, elapsed=1.25)
    assert "1.25" not in report.summary_line()


def test_note_violation_caps_details():
    details: list[str] = []
    for i in range(MAX_VIOLATION_DETAILS + 4):
        note_violation(details, f"violation {i}")
    assert len(details) == MAX_VIOLATION_DETAILS + 1
    assert details[:MAX_VIOLATION_DETAILS] == [
        f"violation {i}" for i in range(MAX_VIOLATION_DETAILS)
    ]
    assert details[-1] == "further violations omitted"


# Catalan numbers 1..12, cross-checked below against the closed form.
CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def test_catalan_small_values():
    assert [catalan(n) for n in range(1, 13)] == CATALAN


def test_catalan_matches_closed_form():
    for n in range(1, 31):
        assert catalan(n) == math.comb(2 * n, n) // (n + 1)


def test_catalan_exact_at_thirty():
    assert catalan(30) == 3814986502092304


def test_narayana_row_sums_to_catalan():
    for n in range(1, 31):
        assert sum(narayana(n, k) for k in range(1, n + 1)) == catalan(n)


def test_narayana_matches_closed_form():
    for n in range(1, 20):
        for k in range(1, n + 1):
            assert narayana(n, k) == math.comb(n, k) * math.comb(n, k - 1) // n


def test_narayana_row_four():
    assert [narayana(4, k) for k in range(1, 5)] == [1, 6, 6, 1]


def test_narayana_symmetry():
    for n in range(1, 20):
        for k in range(1, n + 1):
            assert narayana(n, k) == narayana(n, n + 1 - k)


def test_narayana_rows_are_unimodal():
    # rises never reappear after the first fall
    for n in range(1, 17):
        row = [narayana(n, k) for k in range(1, n + 1)]
        rises = [b - a for a, b in zip(row, row[1:])]
        assert not any(a < 0 < b for a, b in zip(rises, rises[1:]))


def test_narayana_rejects_out_of_range_k():
    with pytest.raises(ValueError):
        narayana(4, 0)
    with pytest.raises(ValueError):
        narayana(4, 5)


def test_catalan_rejects_nonpositive():
    with pytest.raises(ValueError):
        catalan(0)
    with pytest.raises(ValueError):
        catalan(-1)
    # catalan checks n itself, so narayana's own check needs a direct call
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        narayana(0, 1)


# --- coarsening and self-duality --------------------------------------------


def labels(poset):
    return [poset.label(i) for i in range(poset.size)]


def test_pairing_on_size_four():
    # the three descent-at-1 elements pair with the three descent-{1,2}
    # elements, matched in lexicographic order within each class
    poset = build_descent_poset(4)
    mapping = construct_antiautomorphism(4)
    names = labels(poset)
    image = {names[i]: names[mapping[i]] for i in range(poset.size)}
    assert image["1234"] == "4321"
    assert image["2134"] == "3214"
    assert image["3124"] == "4213"
    assert image["4123"] == "4312"


def test_size_two_mapping_and_verification():
    poset = build_descent_poset(2)
    mapping = construct_antiautomorphism(2)
    assert labels(poset) == ["12", "21"]
    assert mapping == (1, 0)
    assert support.reverses_order(poset, mapping)
    assert not support.reverses_order(poset, (0, 1))  # identity keeps order


def test_involution():
    for n in range(1, 8):
        mapping = construct_antiautomorphism(n)
        assert all(mapping[j] == i for i, j in enumerate(mapping))


def test_order_reversal_exhaustive():
    for n in range(1, 7):
        poset = build_descent_poset(n)
        mapping = construct_antiautomorphism(n)
        for i in range(poset.size):
            for j in range(poset.size):
                assert support.leq(poset, i, j) == support.leq(poset, mapping[j], mapping[i])


def test_rank_flip():
    for n in range(2, 8):
        poset = build_descent_poset(n)
        mapping = construct_antiautomorphism(n)
        for i in range(poset.size):
            assert poset.ranks[mapping[i]] == n - 1 - poset.ranks[i]


def test_classes_of_unequal_sizes_fail_the_pairing_and_its_report(monkeypatch):
    # the class of the empty set merged into that of the full set, whose
    # partner class is then empty
    masks = verify._descent_masks
    monkeypatch.setattr(
        verify, "_descent_masks", lambda n: tuple(m or (1 << (n - 1)) - 1 for m in masks(n))
    )
    line = "descent classes of masks 0b111 and 0b0 have sizes 2 and 0 for n=4"
    with pytest.raises(RuntimeError, match=line):
        construct_antiautomorphism(4)
    report = check_self_duality(4)
    assert report.summary_line() == "selfdual n=4: examined=0 FAIL"
    assert report.violations == (line,)


def test_verify_rejects_non_bijection():
    poset = build_descent_poset(3)
    assert not support.reverses_order(poset, (0, 0, 1, 2, 3))


def test_coarsening_hand_example():
    # merging {1} and {2} out of four singletons: image drops from 4321
    # to 3421, losing exactly the descent at position 1
    fine = parse_partition("{1}/{2}/{3}/{4}")
    coarse = parse_partition("{1,2}/{3}/{4}")
    assert ncp_to_perm(fine) == (4, 3, 2, 1)
    assert ncp_to_perm(coarse) == (3, 4, 2, 1)
    assert descent_mask((4, 3, 2, 1)) == 0b111
    assert descent_mask((3, 4, 2, 1)) == 0b110


def test_single_element_poset_pairs_with_itself():
    mapping = construct_antiautomorphism(1)
    assert mapping == (0,)
    assert support.reverses_order(build_descent_poset(1), mapping)


def test_check_coarsening_passes():
    for n in range(1, CAPACITY[CHECKS["coarsening"][0]] + 1):
        report = check_coarsening(n)
        assert report.passed
        assert report.name == "coarsening"
        assert report.n == n


def test_check_coarsening_examined_counts_strict_pairs():
    for n in range(1, 7):
        q = build_refinement_poset(n)
        assert check_coarsening(n).examined == len(support.strict_pairs(q))


def test_check_self_duality_passes():
    for n in range(1, CAPACITY[CHECKS["selfdual"][0]] + 1):
        report = check_self_duality(n)
        assert report.passed
        assert report.name == "selfdual"
        assert report.examined == catalan(n) ** 2


def test_permutation_level_description_of_pairing():
    # images under the pairing are exactly reverse complements at the
    # descent-set level
    mapping = construct_antiautomorphism(5)
    perms = list(enumerate_av132(5))
    for i, p in enumerate(perms):
        assert descent_mask(perms[mapping[i]]) == support.reverse_complement_mask(
            5, descent_mask(p)
        )


# --- failing checks -----------------------------------------------------------
#
# The checks decide whole rows at once; these feed them broken inputs and
# compare every reported line with the pair-by-pair definition.


def order_reversal_breaks(poset, mapping):
    """The text of every pair that breaks order reversal, pair by pair in
    the check's order, one at a time, so that a caller may stop early."""
    for i in range(poset.size):
        for j in range(poset.size):
            if support.leq(poset, i, j) != support.leq(poset, mapping[j], mapping[i]):
                yield f"({poset.label(i)}, {poset.label(j)}) breaks order reversal"


def pairwise_self_duality_violations(poset, mapping):
    violations = []
    if any(mapping[j] != i for i, j in enumerate(mapping)):
        violations.append("pairing is not an involution")
    for text in order_reversal_breaks(poset, mapping):
        note_violation(violations, text)
    return tuple(violations)


def broken_pairings(poset):
    """The identity, a pairing rotated inside one descent class (order
    reversal survives, the involution does not), and a pairing with the
    images of two same-rank elements of different classes swapped."""
    good = list(construct_antiautomorphism(poset.n))
    masks = [descent_mask(p) for p in poset.elements]
    yield "identity", tuple(range(poset.size))
    members = next(
        [i for i in range(poset.size) if masks[i] == mask]
        for mask in sorted(set(masks))
        if masks.count(mask) >= 3
    )
    rotated = list(good)
    for source, target in zip(members, members[1:] + members[:1]):
        rotated[source] = good[target]
    yield "rotated", tuple(rotated)
    a, b = next(
        (a, b)
        for a in range(poset.size)
        for b in range(a + 1, poset.size)
        if poset.ranks[a] == poset.ranks[b] and masks[a] != masks[b]
    )
    swapped = list(good)
    swapped[a], swapped[b] = good[b], good[a]
    yield "swapped", tuple(swapped)


@pytest.mark.parametrize("n", [4, 6, 7])
def test_self_duality_reports_broken_pairings(monkeypatch, n):
    poset = build_descent_poset(n)
    for name, mapping in broken_pairings(poset):
        monkeypatch.setattr(verify, "construct_antiautomorphism", lambda _n: mapping)
        report = check_self_duality(n)
        assert report.passed is False, name
        assert report.examined == poset.size**2
        assert report.violations == pairwise_self_duality_violations(poset, mapping)
        assert len(report.violations) <= MAX_VIOLATION_DETAILS + 1
        reversal_broken = any("breaks order reversal" in v for v in report.violations)
        assert reversal_broken == (not support.reverses_order(poset, mapping)), name
        if name == "rotated":
            assert report.violations == ("pairing is not an involution",)
        else:
            assert report.violations[-1] == "further violations omitted"
    # with the cap lifted, every broken pair of every row is compared
    monkeypatch.setattr(verify, "MAX_VIOLATION_DETAILS", 10**9)
    for _name, mapping in broken_pairings(poset):
        monkeypatch.setattr(verify, "construct_antiautomorphism", lambda _n: mapping)
        expected = pairwise_self_duality_violations(poset, mapping)
        assert check_self_duality(n).violations == expected


@pytest.mark.parametrize("n", [4, 7])
def test_self_duality_reports_a_flipped_order_bit(monkeypatch, n):
    # the image side comes from descent masks, so a wrong order row must
    # still be caught through the up-rows
    true = build_descent_poset(n)
    mapping = construct_antiautomorphism(n)
    i = next(i for i in range(true.size) if true.ranks[i] == 1)
    j = next(
        j
        for j in range(true.size)
        if true.ranks[j] == n - 2 and not support.leq(true, i, j) and mapping[j] != i
    )
    rows = list(true.leq_rows)
    rows[i] ^= 1 << j
    broken = true._replace(leq_rows=tuple(rows))
    monkeypatch.setattr(verify, "build_descent_poset", lambda _n: broken)
    report = check_self_duality(n)
    assert report.passed is False
    assert report.examined == true.size**2
    flipped = f"({true.label(i)}, {true.label(j)}) breaks order reversal"
    assert report.violations == (flipped,)
    assert flipped in pairwise_self_duality_violations(broken, mapping)


def test_self_duality_formats_only_the_pairs_its_report_keeps(monkeypatch):
    # the identity pairing is an involution that reverses no order, so each
    # strict comparable pair of P8 breaks order reversal, twice over; rows
    # are walked only while the report keeps details
    n = 8
    poset = build_descent_poset(n)
    identity = tuple(range(poset.size))
    monkeypatch.setattr(verify, "construct_antiautomorphism", lambda _n: identity)
    start = time.perf_counter()
    report = check_self_duality(n)
    elapsed = time.perf_counter() - start
    kept = tuple(islice(order_reversal_breaks(poset, identity), MAX_VIOLATION_DETAILS + 1))
    assert len(kept) == MAX_VIOLATION_DETAILS + 1
    assert report.violations == (*kept[:-1], "further violations omitted")
    assert report.examined == poset.size**2
    # about 4 ms on a shared 2-vCPU machine; walking every row formats
    # the text of every broken pair there, for 0.9 s
    assert elapsed < 0.25


def strict_refinement_pairs(q_poset):
    """support.strict_pairs in the same order, read off each order row bit
    by bit, so that it stays fast at the poset cap."""
    return [
        (a, b) for a, row in enumerate(q_poset.leq_rows) for b in support.iter_bits(row) if a != b
    ]


def pairwise_coarsening_violations(n):
    q_poset = build_refinement_poset(n)
    fmask = [verify.image_descent_mask(q) for q in q_poset.elements]
    violations = []
    for a, b in strict_refinement_pairs(q_poset):
        if len(violations) > verify.MAX_VIOLATION_DETAILS:
            break
        if fmask[b] == fmask[a] or fmask[b] & fmask[a] != fmask[b]:
            note_violation(
                violations,
                f"{q_poset.label(a)} < {q_poset.label(b)}: "
                f"image descent sets do not properly shrink",
            )
    return tuple(violations)


CORRUPTIONS = {
    "complemented": lambda n, mask: mask ^ ((1 << (n - 1)) - 1),
    "lowest-descent-dropped": lambda n, mask: mask & (mask - 1),
    "top-descent-always-set": lambda n, mask: mask | (1 << (n - 2)),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_coarsening_reports_corrupted_descent_sets(monkeypatch, name):
    true_mask = verify.image_descent_mask

    def fake(q):
        return CORRUPTIONS[name](q.n, true_mask(q))

    monkeypatch.setattr(verify, "image_descent_mask", fake)
    for n in (3, 5, 6, 9):
        report = check_coarsening(n)
        assert report.passed is False, name
        q_poset = build_refinement_poset(n)
        if n <= 6:
            assert strict_refinement_pairs(q_poset) == support.strict_pairs(q_poset)
        assert report.examined == len(strict_refinement_pairs(q_poset))
        # Kreweras: NC(n) has C(3n, n)/(2n + 1) intervals, C_n of them trivial
        assert report.examined == math.comb(3 * n, n) // (2 * n + 1) - catalan(n)
        assert report.violations == pairwise_coarsening_violations(n)
        assert len(report.violations) <= MAX_VIOLATION_DETAILS + 1
    monkeypatch.setattr(verify, "MAX_VIOLATION_DETAILS", 10**9)
    for n in (3, 5, 6):
        assert check_coarsening(n).violations == pairwise_coarsening_violations(n)
