"""Antichain extremes of a finite poset, read off its above rows.

Width comes from the matching side of Dilworth's theorem: a maximum
matching on the split bipartite graph of strict comparabilities yields a
minimum chain cover, and the unreachable/reachable sides of the matching's
last alternating search certify a maximum antichain of the same size.

The largest union of k antichains of P is the width of P x C_k, where
C_k is a k-element chain (Saks 1979), so the same matching finds it.  A
k-family splits into k antichains by each element's height within the
family; put height h at level k - h of C_k, and the family becomes an
antichain of P x C_k.  Conversely, each level of an antichain of P x C_k
is an antichain of P, and different levels hold different elements.
The increments of these numbers in k are conjugate to the coverage gains
of successive optimal chain families (Greene-Kleitman 1976); the tests
check that against the chain-side flow oracle in tests/support.py.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .poset import GradedPoset, iter_bits


def hopcroft_karp(
    adjacency: Sequence[int], right_size: int, start: Sequence[int] | None = None
) -> tuple[list[int], list[int], int, int]:
    """Maximum matching in a bipartite graph; adjacency[u] is a bitmask of
    right-side neighbors.  Returns (match_left, match_right, reached_left,
    reached_right): -1 means unmatched, and the last two are the bit rows
    of the vertices that the final phase's alternating search reached
    from the free left vertices, the search that found no augmenting
    path.  By Konig's theorem, the unreached left vertices and the
    reached right ones cover every edge, and they number the matching's
    size.

    start, if given, is a matching to grow, in the form of match_left;
    each of its pairs must be an edge, and no right vertex may be taken
    twice.  A greedy pass matches the left vertices it leaves free to
    right vertices still free.  Each phase then grows alternating layers
    from the free left vertices as bit rows, so a right vertex enters at
    most one layer, then takes a maximal set of vertex-disjoint shortest
    augmenting paths by depth-first search on an explicit stack.
    """
    left_size = len(adjacency)
    match_left = [-1] * left_size if start is None else list(start)
    if len(match_left) != left_size:
        raise ValueError("starting matching does not fit the left side")
    match_right = [-1] * right_size
    free_right = (1 << right_size) - 1
    for u, v in enumerate(match_left):
        if v != -1:
            if not adjacency[u] >> v & 1 or match_right[v] != -1:
                raise ValueError(f"starting pair ({u}, {v}) is not a matching edge")
            match_right[v] = u
            free_right ^= 1 << v
    for u, row in enumerate(adjacency):
        if match_left[u] != -1:
            continue
        hit = row & free_right
        if hit:
            low = hit & -hit
            v = low.bit_length() - 1
            match_left[u] = v
            match_right[v] = u
            free_right ^= low
    while True:
        roots = [u for u in range(left_size) if match_left[u] == -1]
        # targets[d]: right vertices a path may take from left layer d;
        # the last entry holds the free ones, where paths end
        targets: list[int] = []
        seen = reached = 0
        frontier = roots
        while frontier:
            reach = 0
            for u in frontier:
                reached |= 1 << u
                reach |= adjacency[u]
            reach &= ~seen
            seen |= reach
            if reach & free_right:
                targets.append(reach & free_right)
                break
            targets.append(reach)
            frontier = [match_right[v] for v in iter_bits(reach)]
        else:
            return match_left, match_right, reached, seen
        last = len(targets) - 1
        for root in roots:
            path = [root]
            taken: list[int] = []
            while path:
                depth = len(path) - 1
                options = adjacency[path[-1]] & targets[depth]
                if not options:
                    # dead end: nothing reaches the free layer through here
                    path.pop()
                    if taken:
                        targets[depth - 1] &= ~(1 << taken.pop())
                    continue
                low = options & -options
                v = low.bit_length() - 1
                taken.append(v)
                if depth < last:
                    path.append(match_right[v])
                    continue
                for d, (u, v) in enumerate(zip(path, taken)):
                    match_left[u] = v
                    match_right[v] = u
                    targets[d] &= ~(1 << v)
                free_right ^= low
                break


def _certified_antichain(
    strict: Sequence[int], start: Sequence[int] | None = None
) -> tuple[tuple[int, ...], list[int]]:
    """Indices of one maximum antichain of the order whose strict rows
    are given (strict[x] is the bitmask of elements above x), and the
    maximum matching it came from, grown from start by hopcroft_karp.

    The certificate is read off the matching's last alternating search:
    elements whose left copy it reached and whose right copy it did not
    form an antichain as large as the chain-cover bound, one chain per
    unmatched left copy, which certifies maximality.  Both facts are
    re-checked before returning.
    """
    match_left, _, reached_left, reached_right = hopcroft_karp(strict, len(strict), start)
    # one chain of the minimum cover starts at each unmatched left copy
    target = match_left.count(-1)
    chosen = reached_left & ~reached_right
    antichain = tuple(iter_bits(chosen))
    if len(antichain) != target:
        raise RuntimeError("antichain size disagrees with the matching bound")
    for x in antichain:
        if strict[x] & chosen:
            raise RuntimeError("selected elements are not pairwise incomparable")
    return antichain, match_left


def max_antichain_elements(poset: GradedPoset) -> tuple[int, ...]:
    """Indices of one maximum antichain, certified by _certified_antichain."""
    return _certified_antichain(poset.above_rows)[0]


def max_antichain(poset: GradedPoset) -> int:
    """Width of the poset.

    >>> from .poset import build_descent_poset
    >>> max_antichain(build_descent_poset(4))
    6
    >>> max_antichain(build_descent_poset(2))   # a two-element chain
    1
    """
    return len(max_antichain_elements(poset))


@lru_cache(maxsize=None)
def chain_cover_profile(poset: GradedPoset) -> tuple[int, ...]:
    """Nonincreasing coverage gains of successive optimal chain families.

    Entry sums give the most elements coverable by 1, 2, ... disjoint
    chains; the whole profile is a partition of the element count.  It is
    the conjugate of the increments a_k - a_(k-1), where a_k, the largest
    union of k antichains, is the width of P x C_k from hopcroft_karp,
    started from the matching of P x C_(k-1), with its antichain
    certificate re-checked, for k = 1, 2, ... until
    a_k is the element count or an increment is 1 (all later ones are
    then 1).

    >>> from .poset import build_descent_poset
    >>> chain_cover_profile(build_descent_poset(4)) == (4, 2, 2, 2, 2, 2)
    True
    """
    size = poset.size
    # bit block b of P x C_k holds a copy of P that lies below blocks
    # 0 .. b - 1; each k adds a block at the bottom, so the rows of the
    # blocks already built stay as they are, and so does their matching,
    # which the next k grows with the new block's rows unmatched
    product: list[int] = []
    matching: list[int] = []
    above = [0] * size  # per x: the built blocks' elements above x's copy in the next
    increments: list[int] = []
    union = 0
    while union < size:
        offset = len(product)
        product.extend(up | row << offset for up, row in zip(above, poset.above_rows))
        above = [row | 1 << x for x, row in enumerate(product[offset:], offset)]
        antichain, matching = _certified_antichain(product, matching + [-1] * size)
        width = len(antichain)
        gain = width - union
        if gain <= 0 or (increments and gain > increments[-1]):
            raise RuntimeError("k-antichain increments are not a nonincreasing partition")
        increments.append(gain)
        union = width
        if gain == 1:
            # later increments are positive and none is larger: all are 1
            increments.extend([1] * (size - union))
            break
    return tuple(
        sum(1 for gain in increments if gain > part)
        for part in range(max(increments, default=0))
    )
