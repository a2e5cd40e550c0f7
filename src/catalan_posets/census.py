"""Counting 132-avoiding permutations of [n] by descent set.

build_census tallies descent sets over the full enumeration;
count_by_descent_set computes a single entry without enumerating anything,
by peeling away forced entries and then counting lattice paths.  Agreement
of the two is one of the verification checks.
"""

from __future__ import annotations

import csv
import io
from functools import lru_cache
from typing import Iterable

from .descent_sets import DescentSet
from .permutations import descent_mask, enumerate_av132


@lru_cache(maxsize=None)
def build_census(n: int) -> tuple[int, ...]:
    """counts[mask] = number of 132-avoiding permutations of [n] whose
    descent set, encoded as a bitmask, is mask.

    >>> build_census(4)
    (1, 3, 2, 3, 1, 2, 1, 1)
    >>> sum(build_census(5))
    42
    """
    perms = enumerate_av132(n)
    counts = [0] * (1 << (n - 1))
    for perm in perms:
        counts[descent_mask(perm)] += 1
    return tuple(counts)


def count_noncrossing_by_minima(n: int, minima: Iterable[int]) -> int:
    """Number of noncrossing partitions of [n] whose set of block minima is
    exactly the given set.

    Scan 1..n keeping only the number of open blocks: a prescribed minimum
    opens a block; any other element joins an open block, closing the
    blocks opened after it (joining a block while a later-opened block is
    still live would cross it).  Joining from depth d can land at any depth
    1..d, so the transition is a suffix sum.

    >>> count_noncrossing_by_minima(4, [1, 2])
    3
    >>> count_noncrossing_by_minima(4, [2, 3])
    0
    """
    minima_mask = 0
    for m in minima:
        if not 1 <= m <= n:
            raise ValueError(f"minimum {m} outside 1..{n}")
        minima_mask |= 1 << (m - 1)
    depth = [0] * (n + 1)
    depth[0] = 1
    for x in range(1, n + 1):
        if minima_mask >> (x - 1) & 1:
            depth = [0] + depth[:-1]
        else:
            total = 0
            new = [0] * (n + 1)
            for d in range(n, 0, -1):
                total += depth[d]
                new[d] = total
            depth = new
    return sum(depth)


def count_by_descent_set(n: int, mask: int) -> int:
    """Number of 132-avoiding permutations of [n] with the given descent
    set, computed directly.

    Descent positions below the smallest descent force the first entries,
    and a descent run ending at position n - 1 forces the last entries;
    peeling both leaves a permutation whose descent set starts at 1 and
    stays below n - 1, counted through its noncrossing partition: the
    partitions whose block minima are 1 together with every descent
    position plus one.

    >>> count_by_descent_set(4, 0b001)
    3
    >>> [count_by_descent_set(4, m) for m in range(8)] == list(build_census(4))
    True
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 <= mask < 1 << (n - 1):
        raise ValueError(f"descent mask {mask:#b} out of range for n={n}")
    # entries before the first descent are forced low-to-high
    while mask and not mask & 1:
        mask >>= 1
        n -= 1
    # a descent at the last position forces a trailing 1
    while n > 1 and mask >> (n - 2) & 1:
        mask &= ~(1 << (n - 2))
        n -= 1
    minima = [1] + [d + 1 for d in DescentSet(n, mask).positions()]
    return count_noncrossing_by_minima(n, minima)


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
        descents = DescentSet(n, mask)
        writer.writerow([str(descents), len(descents), count])
    return buffer.getvalue()
