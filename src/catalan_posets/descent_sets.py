"""Descent sets of permutations of [n], encoded as bit masks.

A descent set is a subset of the positions {1, ..., n-1}.  Bit i-1 of the
mask is set exactly when position i is in the set, so subset tests are single
integer operations.  All positions are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass


def reverse_complement_mask(n: int, mask: int) -> int:
    """Bit-level reverse complement: position i is in the result iff n-i is absent.

    >>> bin(reverse_complement_mask(4, 0b001))
    '0b11'
    """
    out = 0
    for i in range(1, n):
        if not (mask >> (n - i - 1)) & 1:
            out |= 1 << (i - 1)
    return out


@dataclass(frozen=True)
class DescentSet:
    """A set of descent positions of a permutation of [n].

    >>> s = DescentSet(8, 0b101001)
    >>> s.positions()
    (1, 4, 6)
    >>> len(s)
    3
    >>> str(s)
    '{1,4,6}'
    """

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not 0 <= self.mask < (1 << (self.n - 1)):
            raise ValueError(
                f"mask {self.mask:#x} does not fit the position range 1..{self.n - 1}"
            )

    def positions(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n) if (self.mask >> (i - 1)) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.positions()) + "}"
