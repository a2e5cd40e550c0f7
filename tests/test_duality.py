import pytest

import support
from catalan_posets.counting import catalan
from catalan_posets.duality import (
    check_coarsening,
    check_self_duality,
    construct_antiautomorphism,
)
from catalan_posets.permutations import format_permutation
from catalan_posets.poset import build_descent_poset, build_refinement_poset


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
                assert poset.leq(i, j) == poset.leq(mapping[j], mapping[i])


def test_rank_flip():
    for n in range(2, 8):
        poset = build_descent_poset(n)
        mapping = construct_antiautomorphism(poset)
        for i in range(poset.size):
            assert poset.ranks[mapping[i]] == n - 1 - poset.ranks[i]


def test_rejects_refinement_poset():
    with pytest.raises(ValueError):
        construct_antiautomorphism(build_refinement_poset(3))


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
    for n in range(1, 8):
        report = check_self_duality(n)
        assert report.passed
        assert report.name == "selfdual"
        assert report.examined == catalan(n) ** 2


def test_permutation_level_description_of_pairing():
    # images under the pairing are exactly reverse complements at the
    # descent-set level
    poset = build_descent_poset(5)
    mapping = construct_antiautomorphism(poset)
    from catalan_posets.descent_sets import reverse_complement_mask
    from catalan_posets.permutations import descent_mask, enumerate_av132

    perms = list(enumerate_av132(5))
    for i, p in enumerate(perms):
        assert descent_mask(perms[mapping[i]]) == reverse_complement_mask(
            5, descent_mask(p)
        )
