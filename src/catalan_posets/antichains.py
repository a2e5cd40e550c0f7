"""Antichain extremes of a graded poset.

Width comes from the matching side of Dilworth's theorem: a maximum
matching on the split bipartite graph of strict comparabilities yields a
minimum chain cover, and unreachable/reachable sides of the final
alternating search certify a maximum antichain of the same size.

The largest union of k antichains comes from the chain side of
Greene-Kleitman duality: a min-cost flow builds chain families whose
coverage gains form a partition, and the conjugate partial sums of that
partition are the k-antichain numbers.  The flow is primal-dual (Frank
1980): each phase runs one Dijkstra on reduced costs, which fixes the
next gain, then a max flow over the arcs of reduced cost 0 finds every
chain of that gain at once, so there is one shortest-path run per
distinct gain rather than one per chain.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from typing import Sequence

from .poset import GradedPoset, iter_bits

_INF = float("inf")


def _strict_rows(poset: GradedPoset) -> list[int]:
    return [poset.leq_rows[i] & ~(1 << i) for i in range(poset.size)]


def hopcroft_karp(adjacency: Sequence[int], right_size: int) -> tuple[list[int], list[int]]:
    """Maximum matching in a bipartite graph; adjacency[u] is a bitmask of
    right-side neighbors.  Returns (match_left, match_right), -1 meaning
    unmatched.

    Each phase grows alternating layers from the free left vertices as
    bit rows, so a right vertex enters at most one layer, then takes a
    maximal set of vertex-disjoint shortest augmenting paths by
    depth-first search on an explicit stack.
    """
    left_size = len(adjacency)
    match_left = [-1] * left_size
    match_right = [-1] * right_size
    free_right = (1 << right_size) - 1
    for u, row in enumerate(adjacency):
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
        seen = 0
        frontier = roots
        while frontier:
            reach = 0
            for u in frontier:
                reach |= adjacency[u]
            reach &= ~seen
            seen |= reach
            if reach & free_right:
                targets.append(reach & free_right)
                break
            targets.append(reach)
            frontier = [match_right[v] for v in iter_bits(reach)]
        else:
            return match_left, match_right
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


def max_antichain_elements(poset: GradedPoset) -> tuple[int, ...]:
    """Indices of one maximum antichain.

    The alternating search from unmatched chain starts splits the split
    graph into reachable and unreachable sides; elements whose left copy
    is reachable and right copy is not form an antichain matching the
    chain-cover bound, which certifies maximality.  The certificate is
    re-checked before returning.
    """
    strict = _strict_rows(poset)
    match_left, match_right = hopcroft_karp(strict, poset.size)
    matched = sum(1 for v in match_left if v != -1)
    target = poset.size - matched
    reached_left = 0
    reached_right = 0
    frontier = []
    for u in range(poset.size):
        if match_left[u] == -1:
            reached_left |= 1 << u
            frontier.append(u)
    while frontier:
        fresh_left = []
        for u in frontier:
            fresh = strict[u] & ~reached_right
            reached_right |= fresh
            for v in iter_bits(fresh):
                w = match_right[v]
                if w != -1 and not reached_left >> w & 1:
                    reached_left |= 1 << w
                    fresh_left.append(w)
        frontier = fresh_left
    chosen = reached_left & ~reached_right
    antichain = tuple(iter_bits(chosen))
    if len(antichain) != target:
        raise RuntimeError("antichain size disagrees with the matching bound")
    for x in antichain:
        if strict[x] & chosen:
            raise RuntimeError("selected elements are not pairwise incomparable")
    return antichain


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
    chains; the whole profile is a partition of the element count.  Found
    by min-cost flow on the split graph (each element crossed at gain 1),
    with potentials seeded by a rank-order relaxation, which is exact
    because every strict comparability goes up in rank (checked first).
    Each primal-dual phase runs one Dijkstra on reduced costs, which
    fixes the next gain, then a max flow over the residual arcs of
    reduced cost 0: every path it finds is a chain of that gain.  Once
    the gain is a single element all later ones are too, so the tail is
    filled without flows.

    >>> from .poset import build_descent_poset
    >>> chain_cover_profile(build_descent_poset(4)) == (4, 2, 2, 2, 2, 2)
    True
    """
    size = poset.size
    strict = _strict_rows(poset)
    at_most = [0] * (max(poset.ranks, default=-1) + 1)
    for i, r in enumerate(poset.ranks):
        at_most[r] |= 1 << i
    for r in range(1, len(at_most)):
        at_most[r] |= at_most[r - 1]
    if any(strict[i] & at_most[r] for i, r in enumerate(poset.ranks)):
        raise ValueError(
            "ranks do not grade the order: some element is below one of no higher rank"
        )
    source = 2 * size
    sink = 2 * size + 1
    node_count = 2 * size + 2
    to: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    adjacency: list[list[int]] = [[] for _ in range(node_count)]

    def add_edge(u: int, v: int, c: int, w: int) -> None:
        adjacency[u].append(len(to))
        to.append(v)
        cap.append(c)
        cost.append(w)
        adjacency[v].append(len(to))
        to.append(u)
        cap.append(0)
        cost.append(-w)

    for i in range(size):
        add_edge(source, 2 * i, 1, 0)
        add_edge(2 * i, 2 * i + 1, 1, -1)
        add_edge(2 * i + 1, sink, 1, 0)
        for j in iter_bits(strict[i]):
            add_edge(2 * i + 1, 2 * j, 1, 0)

    # exact initial distances by relaxing in rank order
    dist0 = [_INF] * node_count
    dist0[source] = 0
    for i in range(size):
        dist0[2 * i] = 0
    for i in sorted(range(size), key=poset.ranks.__getitem__):
        through = dist0[2 * i] - 1
        if through < dist0[2 * i + 1]:
            dist0[2 * i + 1] = through
        out = dist0[2 * i + 1]
        if out < dist0[sink]:
            dist0[sink] = out
        for j in iter_bits(strict[i]):
            if out < dist0[2 * j]:
                dist0[2 * j] = out
    potential = dist0

    profile: list[int] = []
    covered = 0
    while covered < size:
        dist = [_INF] * node_count
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            pu = potential[u]
            for eid in adjacency[u]:
                if cap[eid] <= 0:
                    continue
                v = to[eid]
                nd = d + cost[eid] + pu - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        reach = dist[sink]
        if reach == _INF:
            raise RuntimeError("no augmenting path although elements remain uncovered")
        for v in range(node_count):
            potential[v] += min(dist[v], reach)
        gain = -int(potential[sink])
        if gain <= 0 or (profile and gain > profile[-1]):
            raise RuntimeError("augmentation gains are not a nonincreasing partition")
        if gain == 1:
            break
        # max flow over the arcs of reduced cost 0; the reverse of such an
        # arc has reduced cost 0 too, so every path found costs -gain.
        # Each pass is one depth-first search on an explicit stack with
        # current-arc pointers and dead-node marks; an augmentation can
        # revive a dead node, so passes repeat until one finds nothing.
        paths = 0
        while True:
            found = 0
            pointer = [0] * node_count
            blocked = [False] * node_count  # dead, or on the current path
            blocked[source] = True
            path = [source]
            arcs: list[int] = []
            while path:
                u = path[-1]
                if u == sink:
                    for eid in arcs:
                        cap[eid] -= 1
                        cap[eid ^ 1] += 1
                    for v in path[1:]:
                        blocked[v] = False
                    del path[1:]
                    arcs.clear()
                    found += 1
                    continue
                edges = adjacency[u]
                pu = potential[u]
                k = pointer[u]
                while k < len(edges):
                    eid = edges[k]
                    v = to[eid]
                    if cap[eid] > 0 and not blocked[v] and cost[eid] + pu == potential[v]:
                        break
                    k += 1
                pointer[u] = k
                if k == len(edges):
                    path.pop()  # u stays blocked: dead for this pass
                    if arcs:
                        arcs.pop()
                    continue
                blocked[v] = True
                path.append(v)
                arcs.append(eid)
            if not found:
                break
            paths += found
        if not paths:
            raise RuntimeError("no path of reduced cost 0 although the sink was reached")
        profile.extend([gain] * paths)
        covered += gain * paths
    profile.extend([1] * (size - covered))
    return tuple(profile)


def max_k_antichain_union(poset: GradedPoset, k: int) -> int:
    """Largest number of elements in a union of k antichains.

    >>> from .poset import build_descent_poset
    >>> [max_k_antichain_union(build_descent_poset(4), k) for k in (1, 2, 3, 4)]
    [6, 12, 13, 14]
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return sum(min(part, k) for part in chain_cover_profile(poset))


def check_k_sperner(poset: GradedPoset, k: int) -> bool:
    """True iff the largest k-antichain union is the sum of the k largest
    rank sizes.

    >>> from .poset import build_descent_poset
    >>> all(check_k_sperner(build_descent_poset(5), k) for k in range(1, 6))
    True
    """
    expected = sum(sorted(poset.rank_sizes(), reverse=True)[:k])
    return max_k_antichain_union(poset, k) == expected
