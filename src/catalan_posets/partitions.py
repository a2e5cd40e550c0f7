"""Set partitions of [n] in canonical form, and the noncrossing ones.

Canonical form: each block is an increasing tuple, blocks are ordered by
their minima.  Two blocks cross when some a < b < c < d has a, c in one
block and b, d in the other; a partition with no crossing pair is
noncrossing.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import partial
from itertools import repeat

from .errors import check_capacity
from .permutations import _decimal_list

#: A block as the enumeration builds it: a tuple of elements, or its text.
_Block = tuple[int, ...] | str


class SetPartition(namedtuple("SetPartition", "n blocks")):
    """A partition of {1, ..., n} stored in canonical form.

    The constructor insists on canonical form; use from_blocks to build one
    from blocks in any order.

    >>> q = SetPartition.from_blocks([(2, 3), (1, 4, 6), (7, 8), (5,)])
    >>> q.blocks
    ((1, 4, 6), (2, 3), (5,), (7, 8))
    >>> q.n
    8
    """

    __slots__ = ()

    def __new__(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> SetPartition:
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        seen = bytearray(n)
        previous_min = 0
        for block in blocks:
            if not block:
                raise ValueError("empty block")
            # an equal minimum is a repeated element, named by the loop below
            if block[0] < previous_min:
                raise ValueError("blocks must be ordered by strictly increasing minima")
            previous_min = block[0]
            last = 0
            for x in block:
                if not isinstance(x, int) or not 1 <= x <= n:
                    raise ValueError(f"element {x!r} outside 1..{n}")
                if x <= last:
                    raise ValueError(f"block {block} is not strictly increasing")
                last = x
                if seen[x - 1]:
                    raise ValueError(f"element {x} appears in two blocks")
                seen[x - 1] = 1
        if 0 in seen:
            raise ValueError(f"blocks do not cover 1..{n}")
        return tuple.__new__(cls, (n, blocks))

    @classmethod
    def _make(cls, fields: Iterable) -> SetPartition:
        # namedtuple's _make and _replace build through here: validated
        return cls(*fields)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> SetPartition:
        """Canonicalize arbitrary block order and validate; n is the number
        of elements the blocks hold."""
        canonical = tuple(sorted(tuple(sorted(block)) for block in blocks))
        return cls(sum(map(len, canonical)), canonical)

    def __str__(self) -> str:
        return format_partition(self)


#: Wrap an (n, blocks) pair in canonical form, in C and unvalidated: only for
#: the producers that build canonical form, enumerate_ncp and perm_to_ncp.
_trusted = partial(tuple.__new__, SetPartition)


def enumerate_ncp(n: int) -> Iterator[SetPartition]:
    """All noncrossing partitions of [n], ordered by their restricted growth
    strings (the block index of 1, 2, ..., n in turn), lexicographically.

    The search carries the open-block stack, so only noncrossing partial
    assignments are ever visited: element x may join any open block, which
    closes every block opened after it, or start a new block.

    The size bound is checked before the iterator is handed out.

    >>> [str(q) for q in enumerate_ncp(3)]
    ['{1,2,3}', '{1,2}/{3}', '{1,3}/{2}', '{1}/{2,3}', '{1}/{2}/{3}']
    """
    check_capacity("enumeration", n)
    atoms = [(x,) for x in range(n + 1)]
    return map(_trusted, zip(repeat(n), _stream_ncp(n, atoms, atoms)))


def _ncp_text(n: int) -> Iterator[str]:
    """The format_partition text of each enumerate_ncp partition, in the
    same order, built as the blocks grow.

    The size bound is checked before the iterator is handed out.

    >>> list(_ncp_text(3))
    ['{1,2,3}', '{1,2}/{3}', '{1,3}/{2}', '{1}/{2,3}', '{1}/{2}/{3}']
    """
    check_capacity("enumeration", n)
    digits = [str(x) for x in range(n + 1)]
    leaves = _stream_ncp(n, digits, ["," + d for d in digits])
    return ("{" + "}/{".join(blocks) + "}" for blocks in leaves)


def _stream_ncp(
    n: int, opens: Sequence[_Block], joins: Sequence[_Block]
) -> Iterator[tuple[_Block, ...]]:
    # One flat loop over elements 1..n-1, yielding the blocks of each
    # partition.  A block is built from atoms: opens[x] starts a block at
    # x and joins[x] appends x to one, so the blocks come out as tuples or
    # as their text.  `stack` holds the indices of the open blocks,
    # innermost on top; joining stack[depth] closes the blocks above it,
    # which go to the undo log with the choice made and the joined
    # block's previous value.  Open blocks carry increasing indices from
    # stack bottom to top, so trying depths bottom-up tries block indices
    # in increasing order, which is lexicographic order on the growth
    # string.  Element n closes nothing, so each of its choices is a leaf
    # read straight off the blocks.
    blocks: list[_Block] = []
    stack: list[int] = []
    log: list[tuple[int, list[int] | None, _Block | None]] = []
    x, depth = 1, 0
    while True:
        while x < n:
            if depth < len(stack):
                target = stack[depth]
                block = blocks[target]
                log.append((depth, stack[depth + 1 :], block))
                del stack[depth + 1 :]
                blocks[target] = block + joins[x]
            else:
                log.append((depth, None, None))
                stack.append(len(blocks))
                blocks.append(opens[x])
            x, depth = x + 1, 0
        last = joins[n]
        for target in stack:
            block = blocks[target]
            blocks[target] = block + last
            yield tuple(blocks)
            blocks[target] = block
        blocks.append(opens[n])
        yield tuple(blocks)
        blocks.pop()
        # back up to the deepest element with a choice left
        while True:
            if not log:
                return
            x -= 1
            depth, closed, previous = log.pop()
            if closed is None:
                stack.pop()
                blocks.pop()
            else:
                blocks[stack[-1]] = previous
                stack += closed
            depth += 1
            if depth <= len(stack):
                break


def format_partition(partition: SetPartition) -> str:
    """Render canonical blocks as ``{1,4,6}/{2,3}/{5}/{7,8}``."""
    blocks = partition.blocks
    return "{" + "}/{".join(",".join(map(str, block)) for block in blocks) + "}"


def parse_partition(text: str) -> SetPartition:
    """Parse the format_partition rendering; blocks may come in any order.

    >>> parse_partition("{2,3}/{1,4,6}/{5}/{7,8}").blocks
    ((1, 4, 6), (2, 3), (5,), (7, 8))
    """
    if not text:
        raise ValueError("empty partition text")
    # one or more blocks joined by "/", each the _decimal_list of its
    # elements in braces: cut at each "}/{", the text between the outer
    # braces is then the blocks' element lists, which join into one
    blocks = text[1:-1].split("}/{")
    numbers = _decimal_list(",".join(blocks))
    if text[0] != "{" or text[-1] != "}" or numbers is None:
        bad = next(
            c
            for c in text.split("/")
            if not (c[:1] == "{" and c[-1:] == "}" and _decimal_list(c[1:-1]))
        )
        raise ValueError(f"malformed block text: {bad!r}")
    longest = max(map(len, numbers))
    if longest > len(str(len(numbers))):  # no leading zeros, so above n
        raise ValueError(f"element of {longest} digits outside 1..{len(numbers)}")
    return SetPartition.from_blocks(map(int, block.split(",")) for block in blocks)
