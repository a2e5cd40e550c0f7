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

from .partitions import SetPartition
from .permutations import check_permutation


def ncp_to_perm(partition: SetPartition) -> tuple[int, ...]:
    """Map a noncrossing partition to its 132-avoiding permutation.

    Unrolled, the recursion hands out the values n, n-1, ..., 1 block by
    block in order of minima, each block largest element first.  ``ends``
    holds the gap ends of open blocks, innermost on top; a block crosses
    when it reaches past the gap its minimum lies in.

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
        ends += [x - 1 for x in block[:0:-1]]
    return tuple(image)


def perm_to_ncp(perm: Sequence[int]) -> SetPartition:
    """Map a 132-avoiding permutation back to its noncrossing partition.

    Position j joins the block of the largest smaller value to its left,
    or opens a block at a left-to-right minimum.  A decreasing stack holds
    each value with its block and prefix minimum; once the values below x
    are popped, a prefix minimum below x on top completes a 132.

    >>> str(perm_to_ncp((6, 4, 5, 7, 3, 8, 1, 2)))
    '{1,4,6}/{2,3}/{5}/{7,8}'
    """
    entries = check_permutation(perm)
    blocks: list[list[int]] = []
    stack: list[tuple[int, list[int], int]] = []
    smallest = len(entries)
    for j, x in enumerate(entries, start=1):
        block = None
        while stack and stack[-1][0] < x:
            block = stack.pop()[1]
        if stack and stack[-1][2] < x:
            raise ValueError(f"permutation {entries} contains a 132 pattern")
        if block is None:
            block = [j]
            blocks.append(block)
        else:
            block.append(j)
        if x < smallest:
            smallest = x
        stack.append((x, block, smallest))
    # blocks open in order of their minima and take positions in increasing
    # order, so they are canonical as built
    return SetPartition._trusted(len(entries), tuple(map(tuple, blocks)))


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
