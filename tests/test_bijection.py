from itertools import permutations

import pytest

import support
from catalan_posets.bijection import image_descent_mask, ncp_to_perm, perm_to_ncp
from catalan_posets.partitions import SetPartition, enumerate_ncp, parse_partition
from catalan_posets.permutations import descent_mask, enumerate_av132


def test_golden_pair_forward():
    q = parse_partition("{1,4,6}/{2,3}/{5}/{7,8}")
    assert ncp_to_perm(q) == (6, 4, 5, 7, 3, 8, 1, 2)


def test_golden_pair_backward():
    assert perm_to_ncp((6, 4, 5, 7, 3, 8, 1, 2)) == parse_partition(
        "{1,4,6}/{2,3}/{5}/{7,8}"
    )


def test_single_block_maps_to_identity():
    for n in range(1, 13):
        q = SetPartition(n, (tuple(range(1, n + 1)),))
        assert ncp_to_perm(q) == tuple(range(1, n + 1))
        assert perm_to_ncp(tuple(range(1, n + 1))) == q


def test_all_singletons_maps_to_reversal():
    for n in range(1, 13):
        q = SetPartition(n, tuple((i,) for i in range(1, n + 1)))
        assert ncp_to_perm(q) == tuple(range(n, 0, -1))
        assert perm_to_ncp(tuple(range(n, 0, -1))) == q


def test_small_cases_by_hand():
    # size 3, all five partitions; derived by unrolling the recursion once
    pairs = {
        "{1,2,3}": (1, 2, 3),
        "{1,2}/{3}": (2, 3, 1),
        "{1,3}/{2}": (2, 1, 3),
        "{1}/{2,3}": (3, 1, 2),
        "{1}/{2}/{3}": (3, 2, 1),
    }
    for text, perm in pairs.items():
        assert ncp_to_perm(parse_partition(text)) == perm
        assert perm_to_ncp(perm) == parse_partition(text)


def test_bijective_onto_av132():
    for n in range(1, 8):
        image = [ncp_to_perm(q) for q in enumerate_ncp(n)]
        assert sorted(image) == list(enumerate_av132(n))
        assert len(image) == len(set(image))


def test_round_trips():
    for n in range(1, 9):
        for q in enumerate_ncp(n):
            assert perm_to_ncp(ncp_to_perm(q)) == q
        for p in enumerate_av132(n):
            assert ncp_to_perm(perm_to_ncp(p)) == p


def test_descent_set_is_shifted_block_minima():
    for n in range(1, 9):
        for q in enumerate_ncp(n):
            image_descents = descent_mask(ncp_to_perm(q))
            assert image_descents == image_descent_mask(q)
            # one descent fewer than the number of blocks
            assert image_descents.bit_count() == len(q.blocks) - 1


def test_image_descents_golden():
    q = parse_partition("{1,4,6}/{2,3}/{5}/{7,8}")
    assert image_descent_mask(q) == 0b101001
    assert image_descent_mask(parse_partition("{1,2,3}")) == 0


def test_rejects_crossing_partition():
    crossing = SetPartition.from_blocks([(1, 3), (2, 4)])
    with pytest.raises(ValueError, match=r"^partition \{1,3\}/\{2,4\} is not noncrossing$"):
        ncp_to_perm(crossing)


def test_rejects_non_avoiding_permutation():
    with pytest.raises(ValueError, match=r"^permutation \(1, 3, 2\) contains a 132 pattern$"):
        perm_to_ncp((1, 3, 2))
    with pytest.raises(ValueError):
        perm_to_ncp((2, 5, 3, 1, 4))
    # 2 joins the block of 1, closed when 4 joined the block of 3
    with pytest.raises(ValueError, match=r"^permutation \(3, 1, 4, 2\) contains a 132 pattern$"):
        perm_to_ncp((3, 1, 4, 2))


def test_rejects_invalid_permutation():
    with pytest.raises(ValueError):
        perm_to_ncp((1, 2, 2))


def test_each_value_above_the_running_minimum_has_its_predecessor_before_it():
    # the rule perm_to_ncp rests on: in a 132-avoider each value x that is
    # not a left-to-right minimum has x - 1 to its left
    for n in range(1, 11):
        for p in enumerate_av132(n):
            minima = {p[j - 1] for j in support.left_to_right_minima_positions(p)}
            placed = set()
            for x in p:
                assert x in minima or x - 1 in placed, p
                placed.add(x)


@pytest.mark.parametrize("n", range(1, 9))
def test_forward_on_every_set_partition(n):
    # crossing partitions are rejected with the exact text, and every
    # other one maps as the paper's recursion does, and back to itself
    for blocks in support.brute_set_partitions(n):
        q = SetPartition(n, blocks)
        if support.brute_has_crossing(blocks):
            with pytest.raises(ValueError) as caught:
                ncp_to_perm(q)
            assert str(caught.value) == f"partition {q} is not noncrossing"
        else:
            image = ncp_to_perm(q)
            assert type(image) is tuple and image == support.recursive_f(blocks, n)
            back = perm_to_ncp(image)
            assert type(back) is SetPartition and back == q


@pytest.mark.parametrize("n", range(1, 9))
def test_backward_on_every_permutation(n):
    avoiders = set(support.brute_av132(n))
    for p in permutations(range(1, n + 1)):
        if p in avoiders:
            q = perm_to_ncp(p)
            assert type(q) is SetPartition and q.blocks == support.recursive_finv(p)
        else:
            with pytest.raises(ValueError) as caught:
                perm_to_ncp(p)
            assert str(caught.value) == f"permutation {p} contains a 132 pattern"
