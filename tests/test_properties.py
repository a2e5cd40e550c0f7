import random

from hypothesis import given, settings
from hypothesis import strategies as st

import support
from catalan_posets.bijection import image_descent_mask, ncp_to_perm, perm_to_ncp
from catalan_posets.census import count_by_descent_set
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
    reverse_complement_mask,
)
from catalan_posets.poset import build_descent_poset

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


@given(masked_sizes())
def test_reverse_complement_is_involution(nm):
    n, mask = nm
    assert reverse_complement_mask(n, reverse_complement_mask(n, mask)) == mask


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
        n, reverse_complement_mask(n, mask)
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
    assert support.leq(poset, a, a)
    if a != b and support.leq(poset, a, b):
        assert not support.leq(poset, b, a)
