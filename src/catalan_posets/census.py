"""Counting 132-avoiding permutations of [n] by descent set.

The bijection sends the block minima of a partition, minus the element 1,
onto the descent set of its image (d is a descent exactly when d + 1 is a
block minimum), so the counter counts noncrossing partitions by their set
of block minima, and enumerates nothing.  It scans 1..n with the number
of ways to have each count of open blocks, deepest first and trimmed to
the blocks opened so far.  A block minimum opens one more block: every
count moves one deeper, which appends a 0 for depth 1.  Any other element
joins an open block and closes every block opened after it, so depth d is
reached from every depth >= d: the running sums.  count_by_descent_set
splits a mask's positions into a low and a high half: the transfer over
the low half counts the ways to reach each depth, the transposed transfer
run down from the top counts the ways to finish from each depth (a
descent drops depth 1, any other element takes prefix sums from depth 1
up), and the count is their dot product.  Up to CAPACITY["census"] the
first call at n tabulates both halves by their bits, 2^7 + 2^8 vectors at
n = 16, so a call is two list indexes and the dot product; above it
nothing is kept.  build_census is the counter at every mask, and the
lemma check compares it with a tally over the enumeration.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate
from operator import mul

from .errors import CAPACITY, check_capacity
from .permutations import format_descent_set


@lru_cache(maxsize=None)
def build_census(n: int) -> tuple[int, ...]:
    """counts[mask] = count_by_descent_set(n, mask), the number of
    132-avoiding permutations of [n] with descent set mask.

    >>> build_census(4)
    (1, 3, 2, 3, 1, 2, 1, 1)
    >>> sum(build_census(5))
    42
    """
    check_capacity("census", n)
    return tuple(map(partial(count_by_descent_set, n), range(1 << (n - 1))))


def count_by_descent_set(n: int, mask: int) -> int:
    """Number of 132-avoiding permutations of [n] with the given descent
    set, computed directly: the noncrossing partitions whose block minima
    are 1 together with every descent position plus one.

    >>> count_by_descent_set(4, 0b001)
    3
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 <= mask < 1 << (n - 1):
        raise ValueError(f"descent mask {mask:#b} out of range for n={n}")
    low_width = (n - 1) // 2
    low, high = mask & ((1 << low_width) - 1), mask >> low_width
    if n <= CAPACITY["census"]:
        forwards, backwards = _halves(n)
        return sum(map(mul, forwards[low], backwards[high]))
    reach = _forward(low, low_width)
    finish = _backward(high, n - 1 - low_width, 1 + low.bit_count() + high.bit_count())
    return sum(map(mul, reach, finish))


@lru_cache(maxsize=None)
def _halves(n: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Every low half's forward vector and every high half's backward
    vector at n, as lists indexed by the half's bits.  A backward vector
    starts deep enough for any low half; the dot product stops at the
    forward vector's end."""
    low = (n - 1) // 2
    high = n - 1 - low
    forwards = [_forward(bits, low) for bits in range(1 << low)]
    backwards = [_backward(bits, high, 1 + low + bits.bit_count()) for bits in range(1 << high)]
    return forwards, backwards


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
    lines = ["descent_set_text,size,count\n"]
    for mask, count in enumerate(build_census(n)):
        text = format_descent_set(mask)
        if "," in text:
            text = f'"{text}"'
        lines.append(f"{text},{mask.bit_count()},{count}\n")
    return "".join(lines)
