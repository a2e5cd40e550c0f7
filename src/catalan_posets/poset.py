"""Graded partial orders on two families counted by the Catalan numbers.

The descent order on 132-avoiding permutations puts x strictly below y
when the descent set of x is properly contained in that of y; two distinct
permutations with the same descent set are incomparable.  The refinement
order on noncrossing partitions puts a below b when every block of a lies
inside a block of b.  Ranks are |descent set| and n - #blocks.

Orders are stored as bitset rows over a fixed element ordering, which
keeps reachability, cover and antichain computations in whole-row integer
arithmetic.  Both orders are graded by their ranks, so the covers of x are
the elements above x one rank higher: each cover row is an above row
masked by the next rank's members.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache

from .errors import check_capacity
from .partitions import SetPartition, enumerate_ncp, format_partition
from .permutations import _join_permutation, descent_mask, enumerate_av132


#: iter_bits lists a row with fewer set bits than this bit by bit.
_FEW_BITS = 16


def iter_bits(mask: int) -> list[int]:
    """Indices of set bits, lowest first.

    A row with fewer than _FEW_BITS set bits, the empty row among them,
    is listed bit by bit (take the lowest set bit, clear it), a few
    full-width integer operations per set bit; any other row by a
    str.find loop over its binary digits, reversed so that a digit's
    offset is its bit index, at a cost that follows the width.  The rule
    is a count of set bits, not a share of the width, because that is
    where the two routes cross: timed over random rows 8 to 40,000 bits
    wide (Python 3.11, shared 2-vCPU machine), bit by bit is the faster
    one below about 16 set bits at every width and the slower one above
    about 32.  So Q's sparse cover rows go bit by bit (all of Q8's, 1,430
    bits wide with 5.6 set on average, in 3.0-3.2 ms in place of 6.3-6.4
    ms), while P's dense rows take the find loop.  A negative mask is no
    bit row and raises ValueError."""
    if mask < 0:
        raise ValueError("a bit row cannot be negative")
    bits = []
    if mask.bit_count() < _FEW_BITS:
        while mask:
            low = mask & -mask
            bits.append(low.bit_length() - 1)
            mask ^= low
        return bits
    digits = bin(mask)[:1:-1]
    at = digits.find("1")
    while at >= 0:
        bits.append(at)
        at = digits.find("1", at + 1)
    return bits


def properly_inside(masks: Sequence[int], width: int) -> list[int]:
    """Entry s is the bitset of the indices j with masks[j] properly inside
    s, for masks over a width-bit universe: each index is filed under its
    mask, subset sums collect the indices whose mask lies inside s, and the
    fiber of s itself is taken off.

    >>> properly_inside([0b00, 0b01, 0b11], 2)
    [0, 1, 1, 3]
    """
    fiber = [0] * (1 << width)
    for j, mask in enumerate(masks):
        fiber[mask] |= 1 << j
    inside = _subset_sums(list(fiber), width)
    return [whole ^ own for whole, own in zip(inside, fiber)]


def _subset_sums(table: list[int], width: int) -> list[int]:
    """OR each entry at a subset of s into entry s of a 2**width table."""
    for b in range(width):
        bit = 1 << b
        for s in range(len(table)):
            if s & bit:
                table[s] |= table[s ^ bit]
    return table


class GradedPoset(
    namedtuple("GradedPoset", "family n elements ranks above_rows cover_rows")
):
    """A finite graded poset over a fixed tuple of elements.

    above_rows[i] has bit j set when element j lies strictly above element
    i, so never bit i: the rows are those of the strict order.
    cover_rows[i] has bit j set when j covers i.
    """

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def height(self) -> int:
        return max(self.ranks) + 1

    def rank_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.height
        for r in self.ranks:
            sizes[r] += 1
        return tuple(sizes)

    def label(self, index: int) -> str:
        element = self.elements[index]
        if isinstance(element, SetPartition):
            return format_partition(element)
        return _join_permutation(element)


@lru_cache(maxsize=None)
def _descent_masks(n: int) -> tuple[int, ...]:
    """Descent mask of each element of the descent poset on [n], in its
    element order; shared by the builder, the pairing, and the lemma and
    self-duality checks."""
    return tuple(map(descent_mask, enumerate_av132(n)))


def _layers(ranks: Sequence[int]) -> list[int]:
    """Entry r is the bitset of the elements of rank r, with one empty
    entry past the top rank."""
    layers = [0] * (max(ranks) + 2)
    for i, r in enumerate(ranks):
        layers[r] |= 1 << i
    return layers


@lru_cache(maxsize=None)
def build_descent_poset(n: int) -> GradedPoset:
    """The descent order on 132-avoiding permutations of [n], listed
    lexicographically.

    >>> build_descent_poset(4).rank_sizes()
    (1, 6, 6, 1)
    >>> sum(row.bit_count() for row in build_descent_poset(4).cover_rows)
    38
    """
    check_capacity("poset construction", n)
    elements = tuple(enumerate_av132(n))
    masks = _descent_masks(n)
    # every descent set is realized, so |mask| grades the order
    if len(set(masks)) != 1 << (n - 1):
        raise RuntimeError(f"a descent set of [{n}] has no 132-avoiding permutation")
    full = (1 << (n - 1)) - 1
    # j lies strictly above i when the complement of j's mask is properly
    # inside the complement of i's: one above row and one cover row per
    # descent class, each shared by the class's members
    above = properly_inside([full ^ m for m in masks], n - 1)
    ranks = tuple(m.bit_count() for m in masks)
    layers = _layers(ranks)
    covers = [above[full ^ m] & layers[m.bit_count() + 1] for m in range(full + 1)]
    rows = tuple(above[full ^ m] for m in masks)
    return GradedPoset("P", n, elements, ranks, rows, tuple(covers[m] for m in masks))


def refinement_rows(n: int, partitions: Sequence[SetPartition]) -> list[int]:
    """Entry k is the bitset of the indices j other than k with
    partitions[k] refining partitions[j], for partitions of [n], n within
    the poset cap: over distinct partitions, the strict order.  Each
    distinct block of two or more members files a holder row, a bytearray
    of the indices of the partitions that have it, in a 2**n table at
    ~mask: as a list index, the complement of the block's mask.  Subset
    sums then put there every index with a block containing it, and a
    row is the AND of its blocks' entries (every index, if it has none),
    less its own bit.

    >>> from .partitions import parse_partition
    >>> texts = ("{1,3}/{2}", "{1,2,3}", "{1}/{2}/{3}")
    >>> refinement_rows(3, [parse_partition(text) for text in texts])
    [2, 0, 3]
    """
    check_capacity("poset construction", n)
    size = len(partitions)
    holders: dict[tuple[int, ...], bytearray] = {}
    for j, q in enumerate(partitions):
        byte, bit = j >> 3, 1 << (j & 7)
        for block in q.blocks:
            if len(block) > 1:
                row = holders.get(block)
                if row is None:
                    row = holders[block] = bytearray((size + 7) >> 3)
                row[byte] |= bit
    table = [0] * (1 << n)
    spots = {block: ~sum(1 << (x - 1) for x in block) for block in holders}
    for block, spot in spots.items():
        table[spot] = int.from_bytes(holders[block], "little")
    _subset_sums(table, n)
    every = (1 << size) - 1
    rows = []
    for k, q in enumerate(partitions):
        row = every ^ (1 << k)
        for block in q.blocks:
            if len(block) > 1:
                row &= table[spots[block]]
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def build_refinement_poset(n: int) -> GradedPoset:
    """The refinement order on noncrossing partitions of [n], listed in
    growth-string order; its above rows are refinement_rows over the
    whole family, and n - #blocks grades it.

    >>> build_refinement_poset(4).rank_sizes()
    (1, 6, 6, 1)
    >>> sum(row.bit_count() for row in build_refinement_poset(4).cover_rows)
    28
    """
    check_capacity("poset construction", n)
    elements = tuple(enumerate_ncp(n))
    ranks = tuple(n - len(q.blocks) for q in elements)
    rows = tuple(refinement_rows(n, elements))
    layers = _layers(ranks)
    covers = tuple(row & layers[r + 1] for row, r in zip(rows, ranks))
    return GradedPoset("Q", n, elements, ranks, rows, covers)


def _labels(poset: GradedPoset) -> list[str]:
    """poset.label(i) for every element, in order.  A partition's label
    joins its blocks' texts, and each distinct block's text is written
    once per call: Q8's 1,430 labels hold 6,435 blocks, of 255 texts.
    Like label, this goes by each element's type, not by the family."""
    texts: dict[tuple[int, ...], str] = {}
    labels = []
    for element in poset.elements:
        if isinstance(element, SetPartition):
            parts = []
            for block in element.blocks:
                text = texts.get(block)
                if text is None:
                    text = texts[block] = ",".join(map(str, block))
                parts.append(text)
            labels.append("{" + "}/{".join(parts) + "}")
        else:
            labels.append(_join_permutation(element))
    return labels


def _listed_rows(poset: GradedPoset, names: Sequence[str]) -> Iterator[list[str]]:
    """Per element, names[j] for each j in its cover row, lowest j first.

    Each distinct row is listed once per call, through a dict keyed by the
    row's value and dropped when the call ends: whether x < y in P depends
    only on the descent sets of x and y, so every member of a descent class
    has the same row (P8's 1,430 rows hold 122 values).
    """
    listed: dict[int, list[str]] = {}
    for row in poset.cover_rows:
        upper = listed.get(row)
        if upper is None:
            upper = listed[row] = [names[j] for j in iter_bits(row)]
        yield upper


def iter_poset_json(poset: GradedPoset) -> Iterator[str]:
    """The JSON document of poset_to_json, one cover row per chunk.

    The layout is that of ``json.dumps(payload, indent=2)`` with keys n,
    family, elements, ranks and covers, written without the encoder so
    that no cover pair becomes a Python list.  Each label and the family
    is quoted as '"' + text + '"': labels hold only digits, commas, braces
    and slashes, and families only letters, none of which json.dumps
    escapes.  Each distinct cover row's upper indices are listed as text
    once, by _listed_rows.
    """
    labels = '",\n    "'.join(_labels(poset))
    ranks = ",\n    ".join(map(str, poset.rank_sizes()))
    yield (
        f'{{\n  "n": {poset.n},\n  "family": "{poset.family}",\n'
        f'  "elements": [\n    "{labels}"\n  ],\n'
        f'  "ranks": [\n    {ranks}\n  ],\n'
    )
    if not any(poset.cover_rows):
        yield '  "covers": []\n}\n'
        return
    yield '  "covers": [\n'
    separator = ""
    indices = [str(j) for j in range(poset.size)]
    for i, upper in enumerate(_listed_rows(poset, indices)):
        if upper:
            pair = f"    [\n      {i},\n      "
            covers = f"\n    ],\n{pair}".join(upper)
            yield f"{separator}{pair}{covers}\n    ]"
            separator = ",\n"
    yield "\n  ]\n}\n"


def iter_poset_dot(poset: GradedPoset) -> Iterator[str]:
    """The Graphviz text of poset_to_dot, one cover row per chunk; each
    distinct cover row's upper labels are listed once, by _listed_rows."""
    labels = _labels(poset)
    layers: list[list[str]] = [[] for _ in range(poset.height)]
    for label, r in zip(labels, poset.ranks):
        layers[r].append(f'"{label}";')
    yield f"digraph {poset.family}{poset.n} {{\n  rankdir=BT;\n" + "".join(
        f"  {{ rank=same; {' '.join(layer)} }}\n" for layer in layers
    )
    for label, upper in zip(labels, _listed_rows(poset, labels)):
        if upper:
            edge = f'  "{label}" -> "'
            yield edge + f'";\n{edge}'.join(upper) + '";\n'
    yield "}\n"


def poset_to_json(poset: GradedPoset) -> str:
    """JSON document with element labels, rank sizes and cover pairs,
    byte for byte ``json.dumps(payload, indent=2)`` plus a newline."""
    return "".join(iter_poset_json(poset))


def poset_to_dot(poset: GradedPoset) -> str:
    """Graphviz rendering of the cover relation, one rank per layer."""
    return "".join(iter_poset_dot(poset))
