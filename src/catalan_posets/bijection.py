"""The bijection between noncrossing partitions of [n] and 132-avoiding
permutations of [n].

Writing k for the largest element of the block containing 1, a noncrossing
partition splits into that block, the blocks inside the interval (1, k),
and the blocks above k.  The image permutation places n at position k,
maps everything below k to the values above n - k (shifted recursively),
and everything above k to the values 1..n-k (recursively, unshifted).  The
inverse reads k off as the position of n.  That recursive definition is
the oracle in ``tests/support.py``; here each direction is one linear scan
that also rejects input outside its family.
"""

from __future__ import annotations

from collections.abc import Sequence

from .partitions import SetPartition, _trusted
from .permutations import check_permutation


def ncp_to_perm(partition: SetPartition) -> tuple[int, ...]:
    """Map a noncrossing partition to its 132-avoiding permutation.

    Unrolled, the recursion hands out the values n, n-1, ..., 1 block by
    block in order of minima, each block largest element first.  ``ends``
    holds the element that closes each open gap, innermost on top; a block
    crosses when it reaches past the gap its minimum lies in.

    >>> from .partitions import parse_partition
    >>> ncp_to_perm(parse_partition("{1,4,6}/{2,3}/{5}/{7,8}"))
    (6, 4, 5, 7, 3, 8, 1, 2)
    >>> ncp_to_perm(parse_partition("{1}/{2}/{3}"))
    (3, 2, 1)
    >>> ncp_to_perm(parse_partition("{1,2,3}"))
    (1, 2, 3)
    """
    image = [0] * partition.n
    value = partition.n
    ends = [partition.n]
    for block in partition.blocks:
        first, last = block[0], block[-1]
        while ends[-1] < first:
            ends.pop()
        if last > ends[-1]:
            raise ValueError(f"partition {partition} is not noncrossing")
        if first == last:  # a singleton opens no gap
            image[first - 1] = value
            value -= 1
            continue
        for x in reversed(block):
            image[x - 1] = value
            value -= 1
        ends += block[:0:-1]
    return tuple(image)


def perm_to_ncp(perm: Sequence[int]) -> SetPartition:
    """Map a 132-avoiding permutation back to its noncrossing partition.

    In a 132-avoider each value x that is not a left-to-right minimum has
    x - 1 to its left (else an earlier smaller value, x, x - 1 form a 132).
    So position j joins the block holding x - 1 once that value is placed,
    closing the blocks opened after it, and opens a block otherwise.  A 132
    shows as an opener above the running minimum, or a join to a closed block.

    >>> str(perm_to_ncp((6, 4, 5, 7, 3, 8, 1, 2)))
    '{1,4,6}/{2,3}/{5}/{7,8}'
    """
    entries = check_permutation(perm)
    blocks: list[list[int]] = []
    opened: list[int] = []  # indices of the open blocks, increasing
    block_of = [-1] * (len(entries) + 1)  # block_of[x]: index of x's block
    smallest = len(block_of)  # above every entry
    for j, x in enumerate(entries, start=1):
        b = block_of[x - 1]
        if b < 0:
            if x > smallest:
                raise ValueError(f"permutation {entries} contains a 132 pattern")
            smallest = x
            b = len(blocks)
            blocks.append([j])
            opened.append(b)
        else:
            while opened[-1] > b:
                opened.pop()
            if opened[-1] != b:
                raise ValueError(f"permutation {entries} contains a 132 pattern")
            blocks[b].append(j)
        block_of[x] = b
    # canonical as built: blocks open in order of minima and grow upward
    return _trusted((len(entries), tuple(map(tuple, blocks))))


def image_descent_mask(partition: SetPartition) -> int:
    """Descent mask of the image permutation, read off the partition
    directly: the descents are m - 1 for each block minimum m other than 1.

    >>> from .partitions import parse_partition
    >>> bin(image_descent_mask(parse_partition("{1,4,6}/{2,3}/{5}/{7,8}")))
    '0b101001'
    """
    # in canonical form the first block holds 1, and each later block's
    # minimum m sets bit m - 2
    mask = 0
    for block in partition.blocks[1:]:
        mask |= 1 << (block[0] - 2)
    return mask
