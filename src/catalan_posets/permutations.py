"""132-avoiding permutations: validation, enumeration, descents.

Permutations are tuples of the values 1..n in one-line notation; positions
are 1-based throughout the public API.  A permutation contains the pattern
132 when there are positions i < j < k with p[i] < p[k] < p[j].
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import check_capacity


def check_permutation(entries: Sequence[int]) -> tuple[int, ...]:
    """Validate one-line notation and return it as a tuple.

    >>> check_permutation([2, 1, 3])
    (2, 1, 3)
    """
    p = tuple(entries)
    n = len(p)
    if n == 0:
        raise ValueError("permutation must have at least one entry")
    seen = bytearray(n + 1)
    for x in p:
        if not isinstance(x, int) or not 1 <= x <= n:
            raise ValueError(f"entry {x!r} outside 1..{n}")
        if seen[x]:
            raise ValueError(f"duplicate entry {x}")
        seen[x] = 1
    return p


def descent_mask(entries: Sequence[int]) -> int:
    """Bit mask of descent positions (bit i-1 set iff p[i] > p[i+1])."""
    mask = 0
    for i in range(len(entries) - 1):
        if entries[i] > entries[i + 1]:
            mask |= 1 << i
    return mask


@lru_cache(maxsize=None)
def _av132_sorted(n: int) -> tuple[tuple[int, ...], ...]:
    # Every 132-avoider splits at the position of n: entries to the left of n
    # must all exceed entries to its right, so the left part uses the top
    # values and both parts are independently 132-avoiding.
    if n == 0:
        return ((),)
    out = []
    for k in range(1, n + 1):
        for left in _av132_sorted(k - 1):
            prefix = tuple(x + n - k for x in left) + (n,)
            for right in _av132_sorted(n - k):
                out.append(prefix + right)
    out.sort()
    return tuple(out)


def enumerate_av132(n: int) -> Iterator[tuple[int, ...]]:
    """All 132-avoiding permutations of [n] in lexicographic order.

    The size bound is checked before the iterator is handed out.

    >>> list(enumerate_av132(3))
    [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    check_capacity("enumeration", n)
    return iter(_av132_sorted(n))


def format_permutation(entries: Sequence[int]) -> str:
    """Compact digit string for n <= 9, comma-separated beyond.

    >>> format_permutation((6, 4, 5, 7, 3, 8, 1, 2))
    '64573812'
    """
    return _join_permutation(check_permutation(entries))


def _join_permutation(p: tuple[int, ...]) -> str:
    # format_permutation without validation, for tuples the package built
    if len(p) <= 9:
        return "".join(map(str, p))
    return ",".join(map(str, p))


#: Either rendering: a run of ASCII digits, or two or more ASCII decimal
#: numbers without sign or leading zero, joined by commas.  A zero entry
#: passes here and is rejected by check_permutation.
_PERMUTATION_TEXT = re.compile(r"[0-9]+|(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))+")


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse either rendering of format_permutation; rejects anything else.

    >>> parse_permutation("64573812")
    (6, 4, 5, 7, 3, 8, 1, 2)
    >>> parse_permutation("6,4,5,7,3,8,1,2")
    (6, 4, 5, 7, 3, 8, 1, 2)
    """
    if not text:
        raise ValueError("empty permutation text")
    if _PERMUTATION_TEXT.fullmatch(text) is None:
        raise ValueError(f"malformed permutation text: {text!r}")
    if "," in text:
        entries = tuple(map(int, text.split(",")))
    else:
        entries = tuple(map(int, text))
    return check_permutation(entries)
