"""Counting 132-avoiding permutations of [n] by descent set.

The bijection sends the block minima of a partition, minus the element 1,
onto the descent set of its image (d is a descent exactly when d + 1 is a
block minimum), so the counter counts noncrossing partitions by their set
of block minima, and enumerates nothing.  It scans 1..n with the number
of ways to have each count of open blocks, deepest first and trimmed to
the blocks opened so far.  A block minimum opens one more block: every
count moves one deeper, which appends a 0 for depth 1.  Any other element
joins an open block and closes every block opened after it, so depth d is
reached from every depth >= d: the running sums.  A mask's positions split
into a low and a high half: the transfer over the low half counts the
ways to reach each depth, the transposed transfer run down from the top
counts the ways to finish from each depth (a descent drops depth 1, any
other element takes prefix sums from depth 1 up), and the count is their
dot product.  build_census computes each low half's forward vector and
each high half's backward vector once, 2^7 + 2^8 vectors at n = 16.  It
packs each depth of every forward vector into one integer, a 4-byte lane
per low half, so each high half's dot products with all the low halves
are one big-integer sum; no lane carries, as every count is at most
C_16 < 2^32.  It is cached per n up to CAPACITY["census"], and
count_by_descent_set is an index into it under the same cap.  The lemma
check compares the census, up to the poset cap, with a tally of the
descent poset's descent-class table.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .errors import check_capacity

#: Bytes in one lane of build_census's packed sums, a C unsigned int.
_LANE = memoryview(b"").cast("I").itemsize


@lru_cache(maxsize=None)
def build_census(n: int) -> tuple[int, ...]:
    """counts[mask] = count_by_descent_set(n, mask), the number of
    132-avoiding permutations of [n] with descent set mask.

    Every mask is the dot product of its two halves' vectors.  columns[d]
    packs entry d of every forward vector, 0 where one is too short, and a
    high half's backward vector, deep enough for any low half, weights the
    columns: the sum holds that half's counts in mask order.

    >>> build_census(4)
    (1, 3, 2, 3, 1, 2, 1, 1)
    >>> sum(build_census(5))
    42
    """
    check_capacity("census", n)
    low = (n - 1) // 2
    high = n - 1 - low
    reach = [_forward(bits, low) + (0,) * (low - bits.bit_count()) for bits in range(1 << low)]
    columns = [
        int.from_bytes(b"".join(x.to_bytes(_LANE, sys.byteorder) for x in depth), sys.byteorder)
        for depth in zip(*reach)
    ]
    packed = bytearray()
    for bits in range(1 << high):
        finish = _backward(bits, high, 1 + low + bits.bit_count())
        packed += sum(map(mul, finish, columns)).to_bytes(_LANE << low, sys.byteorder)
    return tuple(memoryview(packed).cast("I"))


def count_by_descent_set(n: int, mask: int) -> int:
    """Number of 132-avoiding permutations of [n] with the given descent
    set: the noncrossing partitions whose block minima are 1 together
    with every descent position plus one.

    It is an index into build_census(n), under the same cap, so the first
    call at n pays for the whole census (2.6-4.5 ms at n = 16 on a 2-vCPU
    machine, about 1 ms of it the two halves' vectors).

    >>> count_by_descent_set(4, 0b001)
    3
    """
    if type(n) is not int or type(mask) is not int:  # no bool or float
        raise ValueError(
            f"n and descent mask must be ints, got {type(n).__name__} and {type(mask).__name__}"
        )
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 <= mask < 1 << (n - 1):
        raise ValueError(f"descent mask {mask:#b} out of range for n={n}")
    return build_census(n)[mask]


def _forward(bits: int, width: int) -> tuple[int, ...]:
    """Ways to reach each depth after the elements 2..width + 1 whose
    descents are bits, depth 1 first."""
    depths = [1]
    for x in range(width):
        if bits >> x & 1:
            depths.append(0)
        else:
            depths = list(accumulate(depths))
    return tuple(reversed(depths))


def _backward(bits: int, width: int, ones: int) -> tuple[int, ...]:
    """Ways to finish from each depth, depth 1 first, through the last
    width elements whose descents are bits; it starts from ones depths."""
    finish = [1] * ones
    for x in reversed(range(width)):
        if bits >> x & 1:
            del finish[0]
        else:
            finish = list(accumulate(finish))
    return tuple(finish)


def census_to_csv(n: int) -> str:
    """Render the census as CSV with columns descent_set, size, count.

    Lines end in a bare newline.  A field is quoted exactly when it holds
    a comma, as csv.writer's QUOTE_MINIMAL does for this text: only a
    descent set with two or more positions has one, and no field holds a
    quote, so none needs escaping.

    >>> print(census_to_csv(3), end="")
    descent_set_text,size,count
    {},0,1
    {1},1,2
    {2},1,1
    "{1,2}",2,1
    """
    census = build_census(n)  # first, for its capacity check
    # texts[mask] lists mask's positions: doubling the list once per
    # position appends that position to every text before it
    texts = [""]
    for position in range(1, n):
        texts += [f"{text},{position}" if text else str(position) for text in texts]
    lines = ["descent_set_text,size,count\n"]
    for mask, (text, count) in enumerate(zip(texts, census)):
        size = mask.bit_count()
        text = f'"{{{text}}}"' if size > 1 else f"{{{text}}}"
        lines.append(f"{text},{size},{count}\n")
    return "".join(lines)
