import pytest

import support
from catalan_posets import verify
from catalan_posets.errors import CAPACITY
from catalan_posets.permutations import descent_mask
from catalan_posets.poset import build_descent_poset, build_refinement_poset
from catalan_posets.verify import (
    MAX_VIOLATION_DETAILS,
    catalan,
    check_coarsening,
    check_self_duality,
    construct_antiautomorphism,
    note_violation,
)


def labels(poset):
    return [poset.label(i) for i in range(poset.size)]


def test_pairing_on_size_four():
    # the three descent-at-1 elements pair with the three descent-{1,2}
    # elements, matched in lexicographic order within each class
    poset = build_descent_poset(4)
    mapping = construct_antiautomorphism(poset)
    names = labels(poset)
    image = {names[i]: names[mapping[i]] for i in range(poset.size)}
    assert image["1234"] == "4321"
    assert image["2134"] == "3214"
    assert image["3124"] == "4213"
    assert image["4123"] == "4312"


def test_size_two_mapping_and_verification():
    poset = build_descent_poset(2)
    mapping = construct_antiautomorphism(poset)
    assert labels(poset) == ["12", "21"]
    assert mapping == (1, 0)
    assert support.reverses_order(poset, mapping)
    assert not support.reverses_order(poset, (0, 1))  # identity keeps order


def test_involution():
    for n in range(1, 8):
        mapping = construct_antiautomorphism(build_descent_poset(n))
        assert all(mapping[j] == i for i, j in enumerate(mapping))


def test_order_reversal_exhaustive():
    for n in range(1, 7):
        poset = build_descent_poset(n)
        mapping = construct_antiautomorphism(poset)
        for i in range(poset.size):
            for j in range(poset.size):
                assert support.leq(poset, i, j) == support.leq(poset, mapping[j], mapping[i])


def test_rank_flip():
    for n in range(2, 8):
        poset = build_descent_poset(n)
        mapping = construct_antiautomorphism(poset)
        for i in range(poset.size):
            assert poset.ranks[mapping[i]] == n - 1 - poset.ranks[i]


def test_rejects_refinement_poset():
    with pytest.raises(ValueError):
        construct_antiautomorphism(build_refinement_poset(3))


def test_classes_of_unequal_sizes_fail_the_pairing_and_its_report(monkeypatch):
    # the class of the empty set merged into that of the full set, whose
    # partner class is then empty
    masks = verify._descent_masks
    monkeypatch.setattr(
        verify, "_descent_masks", lambda n: tuple(m or (1 << (n - 1)) - 1 for m in masks(n))
    )
    line = "descent classes of masks 0b111 and 0b0 have sizes 2 and 0 for n=4"
    with pytest.raises(RuntimeError, match=line):
        construct_antiautomorphism(build_descent_poset(4))
    report = check_self_duality(4)
    assert report.summary_line() == "selfdual n=4: examined=0 FAIL"
    assert report.violations == (line,)


def test_verify_rejects_non_bijection():
    poset = build_descent_poset(3)
    assert not support.reverses_order(poset, (0, 0, 1, 2, 3))


def test_coarsening_hand_example():
    # merging {1} and {2} out of four singletons: image drops from 4321
    # to 3421, losing exactly the descent at position 1
    from catalan_posets.bijection import ncp_to_perm
    from catalan_posets.partitions import parse_partition
    from catalan_posets.permutations import descent_mask

    fine = parse_partition("{1}/{2}/{3}/{4}")
    coarse = parse_partition("{1,2}/{3}/{4}")
    assert ncp_to_perm(fine) == (4, 3, 2, 1)
    assert ncp_to_perm(coarse) == (3, 4, 2, 1)
    assert descent_mask((4, 3, 2, 1)) == 0b111
    assert descent_mask((3, 4, 2, 1)) == 0b110


def test_single_element_poset_pairs_with_itself():
    mapping = construct_antiautomorphism(build_descent_poset(1))
    assert mapping == (0,)
    assert support.reverses_order(build_descent_poset(1), mapping)


def test_check_coarsening_passes():
    for n in range(1, 9):
        report = check_coarsening(n)
        assert report.passed
        assert report.name == "coarsening"
        assert report.n == n


def test_check_coarsening_examined_counts_strict_pairs():
    for n in range(1, 7):
        q = build_refinement_poset(n)
        assert check_coarsening(n).examined == len(support.strict_pairs(q))


def test_check_self_duality_passes():
    for n in range(1, CAPACITY["check selfdual"] + 1):
        report = check_self_duality(n)
        assert report.passed
        assert report.name == "selfdual"
        assert report.examined == catalan(n) ** 2


def test_permutation_level_description_of_pairing():
    # images under the pairing are exactly reverse complements at the
    # descent-set level
    poset = build_descent_poset(5)
    mapping = construct_antiautomorphism(poset)
    from catalan_posets.permutations import (
        descent_mask,
        enumerate_av132,
        reverse_complement_mask,
    )

    perms = list(enumerate_av132(5))
    for i, p in enumerate(perms):
        assert descent_mask(perms[mapping[i]]) == reverse_complement_mask(
            5, descent_mask(p)
        )


# --- failing checks -----------------------------------------------------------
#
# The checks decide whole rows at once; these feed them broken inputs and
# compare every reported line with the pair-by-pair definition.


def pairwise_self_duality_violations(poset, mapping):
    violations = []
    if any(mapping[j] != i for i, j in enumerate(mapping)):
        violations.append("pairing is not an involution")
    for i in range(poset.size):
        for j in range(poset.size):
            if support.leq(poset, i, j) != support.leq(poset, mapping[j], mapping[i]):
                note_violation(
                    violations,
                    f"({poset.label(i)}, {poset.label(j)}) breaks order reversal",
                )
    return tuple(violations)


def broken_pairings(poset):
    """The identity, a pairing rotated inside one descent class (order
    reversal survives, the involution does not), and a pairing with the
    images of two same-rank elements of different classes swapped."""
    good = list(construct_antiautomorphism(poset))
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
        monkeypatch.setattr(verify, "construct_antiautomorphism", lambda _p: mapping)
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
        monkeypatch.setattr(verify, "construct_antiautomorphism", lambda _p: mapping)
        expected = pairwise_self_duality_violations(poset, mapping)
        assert check_self_duality(n).violations == expected


@pytest.mark.parametrize("n", [4, 7])
def test_self_duality_reports_a_flipped_order_bit(monkeypatch, n):
    # the image side comes from descent masks, so a wrong order row must
    # still be caught through the up-rows
    true = build_descent_poset(n)
    mapping = construct_antiautomorphism(true)
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


def pairwise_coarsening_violations(n):
    q_poset = build_refinement_poset(n)
    fmask = [verify.image_descent_mask(q) for q in q_poset.elements]
    violations = []
    for a, b in support.strict_pairs(q_poset):
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
    for n in (3, 5, 6):
        report = check_coarsening(n)
        assert report.passed is False, name
        assert report.examined == len(support.strict_pairs(build_refinement_poset(n)))
        assert report.violations == pairwise_coarsening_violations(n)
        assert len(report.violations) <= MAX_VIOLATION_DETAILS + 1
    monkeypatch.setattr(verify, "MAX_VIOLATION_DETAILS", 10**9)
    for n in (3, 5, 6):
        assert check_coarsening(n).violations == pairwise_coarsening_violations(n)
