"""Counting 132-avoiding permutations of [n] by descent set.

The bijection sends the block minima of a partition, minus the element 1,
onto the descent set of its image (d is a descent exactly when d + 1 is a
block minimum), so both functions count noncrossing partitions by their
set of block minima, and neither enumerates anything.  They scan 1..n
with the number of ways to have each count of open blocks, deepest first
and trimmed to the blocks opened so far.  A block minimum opens one more
block: every count moves one deeper, which appends a 0 for depth 1.  Any
other element joins an open block and closes every block opened after
it, so depth d is reached from every depth >= d: the running sums.
build_census walks the choices for 2..n depth first, sharing each prefix
between sibling masks; count_by_descent_set follows one mask.  The lemma
check compares both with a tally over the enumeration.
"""

from __future__ import annotations

import csv
import io
from functools import lru_cache
from itertools import accumulate

from .errors import check_capacity
from .permutations import format_descent_set


@lru_cache(maxsize=None)
def build_census(n: int) -> tuple[int, ...]:
    """counts[mask] = number of 132-avoiding permutations of [n] whose
    descent set, encoded as a bitmask, is mask.

    >>> build_census(4)
    (1, 3, 2, 3, 1, 2, 1, 1)
    >>> sum(build_census(5))
    42
    """
    check_capacity("enumeration", n)
    counts = [0] * (1 << (n - 1))
    # (next element, mask so far, depth vector); element 1 opens a block
    stack = [(2, 0, [1])]
    while stack:
        x, mask, depths = stack.pop()
        if x > n:
            counts[mask] = sum(depths)
        else:
            stack.append((x + 1, mask, list(accumulate(depths))))
            stack.append((x + 1, mask | 1 << (x - 2), depths + [0]))
    return tuple(counts)


def count_by_descent_set(n: int, mask: int) -> int:
    """Number of 132-avoiding permutations of [n] with the given descent
    set, computed directly: the noncrossing partitions whose block minima
    are 1 together with every descent position plus one.

    >>> count_by_descent_set(4, 0b001)
    3
    >>> [count_by_descent_set(4, m) for m in range(8)] == list(build_census(4))
    True
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 <= mask < 1 << (n - 1):
        raise ValueError(f"descent mask {mask:#b} out of range for n={n}")
    depths = [1]
    for x in range(n - 1):
        if mask >> x & 1:
            depths.append(0)
        else:
            depths = list(accumulate(depths))
    return sum(depths)


def census_to_csv(n: int) -> str:
    """Render the census as CSV with columns descent_set, size, count.

    >>> print(census_to_csv(3), end="")
    descent_set_text,size,count
    {},0,1
    {1},1,2
    {2},1,1
    "{1,2}",2,1
    """
    counts = build_census(n)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["descent_set_text", "size", "count"])
    for mask, count in enumerate(counts):
        writer.writerow([format_descent_set(mask), mask.bit_count(), count])
    return buffer.getvalue()
