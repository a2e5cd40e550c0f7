"""132-avoiding permutations: validation, enumeration, descent masks.

Permutations are tuples of the values 1..n in one-line notation; positions
are 1-based throughout the public API.  A permutation contains the pattern
132 when there are positions i < j < k with p[i] < p[k] < p[j].  Descent
sets are int masks, with bit i-1 set when position i is a descent.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache

from .errors import check_capacity

#: A permutation or prefix as the enumeration builds it: a tuple, or its text.
_Entry = tuple[int, ...] | str


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
        # exactly int: a subclass, bool among them, formats as its own str
        if type(x) is not int or not 1 <= x <= n:
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


def reverse_complement_masks(n: int) -> list[int]:
    """Entry m is the reverse complement of descent mask m: position i is
    in it iff n-i is not in m.  Each list of bit-reversed masks doubles the
    last, and the complement of m is its index read backwards.
    """
    rev = [0]
    for _ in range(n - 1):
        rev = [r << 1 for r in rev] + [(r << 1) | 1 for r in rev]
    return rev[::-1]


def format_descent_set(mask: int) -> str:
    """The positions of a descent mask in braces, comma separated.

    >>> format_descent_set(0b101001)
    '{1,4,6}'
    >>> format_descent_set(0)
    '{}'
    """
    positions = (str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)
    return "{" + ",".join(positions) + "}"


@lru_cache(maxsize=None)
def _av132_sorted(n: int) -> tuple[tuple[int, ...], ...]:
    # cached: enumerate_av132 hands these out, and each serves as the
    # shorter list of every larger n
    return tuple(_av132_lex(n, [(v,) for v in range(n + 1)], (), _av132_sorted))


def _av132_lex(
    n: int,
    atoms: Sequence[_Entry],
    sep: _Entry,
    shorter: Callable[[int], Iterable[_Entry]],
) -> Iterator[_Entry]:
    # Depth first, in lexicographic order, over the prefixes that some
    # 132-avoider of [n] extends: after a prefix with minimum m the next
    # entry is an unused value v < m, or the least unused value u > m,
    # since any unused value between m and a larger next entry would
    # complete a 132 later.  `free` holds the unused values above m as
    # bits.  Two kinds of prefix end the descent.  With m = 1 only the
    # second choice is left, so the unused values follow in increasing
    # order.  With `free` empty the unused values are 1..m-1, all below
    # the prefix, so each 132-avoider of [m-1] completes it: the prefix is
    # joined by sep to each member of shorter(m - 1), in its own order.
    # The first entry v is atoms[v]; each later one adds sep + atoms[v].
    steps = [sep + atom for atom in atoms]
    rising: dict[int, _Entry] = {}
    # a node is (prefix, m, free); siblings go on in reverse order
    nodes = [(atoms[v], v, (2 << n) - (2 << v)) for v in range(n, 0, -1)]
    while nodes:
        prefix, m, free = nodes.pop()
        if m == 1:
            if free not in rising:
                tail = sep[:0]
                for v in range(2, n + 1):
                    if free >> v & 1:
                        tail += steps[v]
                rising[free] = tail
            yield prefix + rising[free]
        elif not free:
            yield from map((prefix + sep).__add__, shorter(m - 1))
        else:
            low = free & -free
            nodes.append((prefix + steps[low.bit_length() - 1], m, free ^ low))
            for v in range(m - 1, 0, -1):
                nodes.append((prefix + steps[v], v, free | ((1 << m) - (2 << v))))


def enumerate_av132(n: int) -> Iterator[tuple[int, ...]]:
    """All 132-avoiding permutations of [n] in lexicographic order.

    The size bound is checked before the iterator is handed out.

    >>> list(enumerate_av132(3))
    [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    check_capacity("enumeration", n)
    return iter(_av132_sorted(n))


def _av132_text(n: int) -> Iterator[str]:
    """The format_permutation text of each enumerate_av132 permutation, in
    the same order, built as the prefixes grow; the shorter lists live
    only as long as the iterator.

    The size bound is checked before the iterator is handed out.

    >>> list(_av132_text(3))
    ['123', '213', '231', '312', '321']
    """
    check_capacity("enumeration", n)
    atoms = [str(v) for v in range(n + 1)]
    sep = "" if n <= 9 else ","

    @lru_cache(maxsize=None)
    def shorter(k: int) -> list[str]:
        return list(_av132_lex(k, atoms, sep, shorter))

    return _av132_lex(n, atoms, sep, shorter)


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


def _decimal_list(text: str) -> list[str] | None:
    """The numbers of text if it is ASCII decimal numbers without sign or
    leading zero joined by commas, else None.  A zero number passes.

    >>> _decimal_list("10,0,7"), _decimal_list("1,07"), _decimal_list("1,,2")
    (['10', '0', '7'], None, None)
    """
    numbers = text.split(",")
    if not (text.isascii() and "".join(numbers).isdigit() and all(numbers)):
        return None
    # a leading zero is a 0 after the start or a comma, then a digit
    marked = "," + text
    at = marked.find(",0")
    while at >= 0:
        if marked[at + 2 : at + 3].isdigit():
            return None
        at = marked.find(",0", at + 2)
    return numbers


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse either rendering of format_permutation; rejects anything else.

    >>> parse_permutation("64573812")
    (6, 4, 5, 7, 3, 8, 1, 2)
    >>> parse_permutation("6,4,5,7,3,8,1,2")
    (6, 4, 5, 7, 3, 8, 1, 2)
    """
    if not text:
        raise ValueError("empty permutation text")
    # either a run of ASCII digits, or two or more decimal numbers; a zero
    # entry passes here and is rejected by check_permutation
    if "," not in text:
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"malformed permutation text: {text!r}")
        entries = tuple(map(int, text))
    else:
        numbers = _decimal_list(text)
        if numbers is None:
            raise ValueError(f"malformed permutation text: {text!r}")
        longest = max(map(len, numbers))
        if longest > len(str(len(numbers))):  # no leading zeros, so above n
            raise ValueError(f"entry of {longest} digits outside 1..{len(numbers)}")
        entries = tuple(map(int, numbers))
    return check_permutation(entries)
