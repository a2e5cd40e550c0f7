"""Shared exception type and the size caps of every operation."""

from __future__ import annotations


class CapacityError(Exception):
    """Raised when a requested size exceeds the documented bound of an operation.

    Validation problems with the data itself raise ValueError; this exception
    only signals that an input is too large for the implementation, not that it
    is malformed.
    """


#: Largest n each size-limited operation supports.  Enumeration is cached
#: per level, so its cap also bounds the memory repeated calls hold; the
#: census is cached per n and holds one count per mask, and the
#: descent-set counter is an index into it under the same cap; poset
#: construction holds one bit row per element, and the lemma check
#: compares the census with a tally of P's descent classes up to that
#: cap.  A "check" entry is the largest size at which that
#: check stays exhaustive within an interactive budget.  The last two are
#: sizes inside a check: the sperner suite runs its two heavier parts at
#: the smaller of their entry and its own size.
CAPACITY = {
    "enumeration": 12,
    "census": 16,
    "poset construction": 9,
    "check coarsening": 9,
    "check ranks": 9,
    "check lemma": 16,
    "check selfdual": 9,
    "check sperner": 8,
    "sperner-dk": 6,
    "sperner-transfer": 7,
}


def check_capacity(operation: str, n: int) -> None:
    """Raise CapacityError unless 1 <= n <= CAPACITY[operation].

    >>> check_capacity("enumeration", 12)
    >>> check_capacity("poset construction", 0)
    Traceback (most recent call last):
    ...
    catalan_posets.errors.CapacityError: n must be at least 1, got 0
    """
    if n < 1:
        raise CapacityError(f"n must be at least 1, got {n}")
    cap = CAPACITY[operation]
    if n > cap:
        raise CapacityError(f"{operation} supports n up to {cap}, got {n}")

