"""Shared exception type and the size caps of every operation."""

from __future__ import annotations


class CapacityError(Exception):
    """Raised when a requested size exceeds the documented bound of an operation.

    Validation problems with the data itself raise ValueError; this exception
    only signals that an input is too large for the implementation, not that it
    is malformed.
    """


#: Largest n each structure supports: enumeration is cached per level, the
#: census per n (one count per mask), and a poset holds one bit row per
#: element.  A check runs to the cap of the structure it reads
#: (verify.CHECKS), and each report line's first call there, in a fresh
#: ``python -S``, stays under 0.25 s (median of 5, tools/caps.py).  The
#: last two are stated exceptions the sperner suite cuts its size to:
#: sperner-dk takes 0.76 s at 9, and lifting either changes its run at 8.
CAPACITY = {
    "enumeration": 12,
    "census": 16,
    "poset construction": 9,
    "sperner-dk": 6,
    "sperner-transfer": 7,
}


def check_capacity(operation: str, n: int, structure: str = "") -> None:
    """Raise CapacityError unless 1 <= n <= CAPACITY[structure], the cap of
    what operation reads, or CAPACITY[operation] without a structure; an n
    that is not an int raises ValueError.

    >>> check_capacity("enumeration", 12)
    >>> check_capacity("poset construction", 0)
    Traceback (most recent call last):
    ...
    catalan_posets.errors.CapacityError: n must be at least 1, got 0
    >>> check_capacity("check selfdual", 10, "poset construction")
    Traceback (most recent call last):
    ...
    catalan_posets.errors.CapacityError: check selfdual supports n up to 9, got 10
    """
    if type(n) is not int:  # no bool or float, as in check_permutation
        raise ValueError(f"n must be an int, got {type(n).__name__}")
    if n < 1:
        raise CapacityError(f"n must be at least 1, got {n}")
    cap = CAPACITY[structure or operation]
    if n > cap:
        raise CapacityError(f"{operation} supports n up to {cap}, got {n}")

