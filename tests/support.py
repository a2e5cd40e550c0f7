"""Independent brute-force oracles used to pin down expected values.

Everything here is written from definitions only: no imports from the
package under test, no shared helpers, the dumbest correct algorithm each
time.  Slow is fine; these run at small sizes.
"""

from __future__ import annotations

import csv
import io
import json
import re
from functools import lru_cache
from heapq import heappop, heappush
from itertools import accumulate, combinations, permutations
from typing import Iterable, Iterator, Sequence

Blocks = tuple[tuple[int, ...], ...]


def contains_132(perm: Sequence[int]) -> bool:
    """Definitional cubic scan for an order-isomorphic copy of 1-3-2."""
    m = len(perm)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                if perm[i] < perm[k] < perm[j]:
                    return True
    return False


def brute_av132(n: int) -> list[tuple[int, ...]]:
    return [p for p in permutations(range(1, n + 1)) if not contains_132(p)]


def brute_descent_mask(perm: Sequence[int]) -> int:
    mask = 0
    for i in range(len(perm) - 1):
        if perm[i] > perm[i + 1]:
            mask |= 1 << i
    return mask


def reverse_complement_mask(n: int, mask: int) -> int:
    """Bit-level reverse complement: position i is in the result iff n-i is
    absent, so the mask's n-1 bits, written out as text, are reversed and
    then complemented."""
    return int(f"{mask:0{n - 1}b}"[::-1], 2) ^ ((1 << (n - 1)) - 1)


#: Either permutation rendering: a run of ASCII digits, or two or more
#: ASCII decimal numbers without sign or leading zero, joined by commas.
PERMUTATION_TEXT = re.compile(r"[0-9]+|(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))+")
#: One block: such numbers joined by commas inside braces; a partition is
#: one or more blocks joined by "/".
_BLOCK = r"\{(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*\}"
BLOCK_TEXT = re.compile(_BLOCK)
PARTITION_TEXT = re.compile(f"{_BLOCK}(?:/{_BLOCK})*")


def permutation_text_error(text: str) -> str | None:
    """The message parse_permutation gives for text that the grammar
    rejects, or None for text it accepts."""
    if not text:
        return "empty permutation text"
    if PERMUTATION_TEXT.fullmatch(text) is None:
        return f"malformed permutation text: {text!r}"
    return None


def partition_text_error(text: str) -> str | None:
    """The message parse_partition gives for text that the grammar
    rejects, naming its first block that is no block, or None for text it
    accepts."""
    if not text:
        return "empty partition text"
    if PARTITION_TEXT.fullmatch(text) is None:
        bad = next(c for c in text.split("/") if BLOCK_TEXT.fullmatch(c) is None)
        return f"malformed block text: {bad!r}"
    return None


def refinement_rank_tally(n: int, partitions: Iterable[Blocks]) -> tuple[int, ...]:
    """Rank sizes of the refinement order over the given partitions of
    [n]: n - #blocks tallied one partition at a time."""
    sizes = [0] * n
    for blocks in partitions:
        sizes[n - len(blocks)] += 1
    return tuple(sizes)


@lru_cache(maxsize=None)
def split_censuses(n: int) -> tuple[tuple[int, ...], ...]:
    """tables[m][mask] = number of 132-avoiders of [m] with descent mask
    `mask`, for m = 0..n, by splitting at the position k of m; each table
    is built from the smaller ones, with no recursion.

    The k - 1 entries left of m are the top values and avoid 132, and so
    do the m - k entries right of it.  m sits after an ascent at k - 1
    and before a descent at k (unless k = m), so the left part's mask
    keeps the bits below k - 2 and the right part's mask is shifted up
    past bit k.  The empty permutation has one mask, 0.
    """
    tables = [(1,)]
    for m in range(1, n + 1):
        table = [0] * (1 << (m - 1))
        for k in range(1, m + 1):
            peak = (1 << (k - 1)) if k < m else 0
            for right_mask, right in enumerate(tables[m - k]):
                high = peak | right_mask << k
                for left_mask, left in enumerate(tables[k - 1]):
                    table[high | left_mask] += left * right
        tables.append(tuple(table))
    return tuple(tables)


@lru_cache(maxsize=None)
def depth_first_census(n: int) -> tuple[int, ...]:
    """counts[mask] = number of 132-avoiders of [n] with descent mask
    `mask`, by the package's former census: the open-block transfer
    walked over the choices for 2..n depth first, each prefix shared
    between sibling masks.  An element that opens a block (a descent
    before it) appends depth 1; any other takes running sums."""
    counts = [0] * (1 << (n - 1))
    # (next element, mask so far, depth vector); element 1 opens a block
    stack = [(2, 0, [1])]
    while stack:
        x, mask, depths = stack.pop()
        if x > n:
            counts[mask] = sum(depths)
        else:
            stack.append((x + 1, mask, list(accumulate(depths))))
            stack.append((x + 1, mask | 1 << (x - 2), depths + [0]))
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


def brute_set_partitions(n: int) -> Iterator[Blocks]:
    """All set partitions of {1..n} in canonical form (blocks by minimum).

    Recurrence: insert n into each block of a partition of {1..n-1}, or as
    a new singleton.  Appending n preserves canonical order.
    """
    if n == 0:
        yield ()
        return
    for smaller in brute_set_partitions(n - 1):
        for i in range(len(smaller)):
            yield smaller[:i] + (smaller[i] + (n,),) + smaller[i + 1 :]
        yield smaller + ((n,),)


def brute_has_crossing(blocks: Blocks) -> bool:
    """a < b < c < d with a,c together and b,d together in another block."""
    for first, second in combinations(blocks, 2):
        for a, c in combinations(first, 2):
            for b, d in combinations(second, 2):
                if a < b < c < d or b < a < d < c:
                    return True
    return False


def recursive_ncp(n: int) -> Iterator[Blocks]:
    """Noncrossing partitions of [n] as canonical blocks, in growth-string
    order: the package's former generator, one nested ``yield from`` frame
    per element, which yields the blocks instead of a SetPartition."""
    blocks: list[list[int]] = []
    stack: list[int] = []

    def extend(x: int) -> Iterator[Blocks]:
        if x > n:
            yield tuple(tuple(block) for block in blocks)
            return
        # open blocks carry increasing indices from stack bottom to top, so
        # scanning the stack bottom-up tries block indices in increasing
        # order, which is lexicographic order on the growth string
        for depth in range(len(stack)):
            target = stack[depth]
            suspended = stack[depth + 1 :]
            del stack[depth + 1 :]
            blocks[target].append(x)
            yield from extend(x + 1)
            blocks[target].pop()
            stack.extend(suspended)
        blocks.append([x])
        stack.append(len(blocks) - 1)
        yield from extend(x + 1)
        stack.pop()
        blocks.pop()

    yield from extend(1)


@lru_cache(maxsize=None)
def recursive_av132(n: int) -> tuple[tuple[int, ...], ...]:
    """132-avoiding permutations of [n] in lexicographic order, by the
    package's former builder: split at the position of n, recurse on both
    sides, and sort."""
    # Every 132-avoider splits at the position of n: entries to the left of n
    # must all exceed entries to its right, so the left part uses the top
    # values and both parts are independently 132-avoiding.
    if n == 0:
        return ((),)
    out = []
    for k in range(1, n + 1):
        for left in recursive_av132(k - 1):
            prefix = tuple(x + n - k for x in left) + (n,)
            for right in recursive_av132(n - k):
                out.append(prefix + right)
    out.sort()
    return tuple(out)


def reference_refinement_poset(
    n: int,
) -> tuple[tuple[Blocks, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(elements as blocks, ranks, up rows, cover_rows) of the refinement
    order on NC(n) in growth-string order, by the package's former
    builder: each pair of blocks is merged into a sorted tuple, the
    partition is rebuilt with tuple slices, and a dictionary of block
    tuples says whether it is noncrossing; the upward closure walks each
    cover row's bits.  Up row i holds i and everything above it: the former
    builder's reflexive rows."""
    elements = tuple(recursive_ncp(n))
    index = {blocks: i for i, blocks in enumerate(elements)}
    ranks = tuple(n - len(blocks) for blocks in elements)
    cover_rows = []
    for blocks in elements:
        row = 0
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                merged = tuple(sorted(blocks[i] + blocks[j]))
                target = index.get(
                    blocks[:i] + (merged,) + blocks[i + 1 : j] + blocks[j + 1 :]
                )
                if target is not None:
                    row |= 1 << target
        cover_rows.append(row)
    up = [0] * len(elements)
    for i in sorted(range(len(elements)), key=ranks.__getitem__, reverse=True):
        closure = 1 << i
        for j in iter_bits(cover_rows[i]):
            closure |= up[j]
        up[i] = closure
    return elements, ranks, tuple(up), tuple(cover_rows)


def below(poset, i: int, j: int) -> bool:
    """Whether element i lies strictly below element j."""
    return poset.above_rows[i] >> j & 1 == 1


def cover_pairs(poset) -> list[tuple[int, int]]:
    """Every (lower, upper) cover pair, read off cover_rows by this
    module's iter_bits rather than the package's listing."""
    return [(i, j) for i, row in enumerate(poset.cover_rows) for j in iter_bits(row)]


def reference_poset_json(poset) -> str:
    """The poset's JSON export through the standard encoder: the whole
    payload as Python lists, then json.dumps with indent=2."""
    payload = {
        "n": poset.n,
        "family": poset.family,
        "elements": [poset.label(i) for i in range(poset.size)],
        "ranks": list(poset.rank_sizes()),
        "covers": [[i, j] for i, j in cover_pairs(poset)],
    }
    return json.dumps(payload, indent=2) + "\n"


def reference_census_csv(n: int, counts: Sequence[int]) -> str:
    """The census CSV through csv.writer, with its default QUOTE_MINIMAL
    quoting and bare newlines; counts[mask] is the count of that mask."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["descent_set_text", "size", "count"])
    for mask, count in enumerate(counts):
        positions = [str(i) for i in range(1, n) if mask >> (i - 1) & 1]
        text = "{" + ",".join(positions) + "}"
        writer.writerow([text, len(positions), count])
    return buffer.getvalue()


def reference_poset_dot(poset) -> str:
    """The poset's DOT export as one list of lines joined at the end."""
    labels = [poset.label(i) for i in range(poset.size)]
    lines = [f"digraph {poset.family}{poset.n} {{", "  rankdir=BT;"]
    for r in range(poset.height):
        members = " ".join(
            f'"{labels[i]}";' for i in range(poset.size) if poset.ranks[i] == r
        )
        lines.append(f"  {{ rank=same; {members} }}")
    for i, j in cover_pairs(poset):
        lines.append(f'  "{labels[i]}" -> "{labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def rejects(function, argument) -> bool:
    """Whether function(argument) raises ValueError."""
    try:
        function(argument)
    except ValueError:
        return True
    return False


def recursive_f(blocks: Blocks, m: int) -> tuple[int, ...]:
    """The paper's recursive bijection; blocks is a noncrossing partition of [m]."""
    if m == 0:
        return ()
    k = blocks[0][-1]
    head = blocks[0][:-1]
    left = ((head,) if head else ()) + tuple(b for b in blocks[1:] if b[0] < k)
    right = tuple(tuple(x - k for x in b) for b in blocks if b[0] > k)
    shift = m - k
    return (
        tuple(v + shift for v in recursive_f(left, k - 1))
        + (m,)
        + recursive_f(right, m - k)
    )


def recursive_finv(perm: tuple[int, ...]) -> Blocks:
    """Inverse of recursive_f, by recursion at the position of m."""
    m = len(perm)
    if m == 0:
        return ()
    k = perm.index(m) + 1
    shift = m - k
    left = recursive_finv(tuple(v - shift for v in perm[: k - 1]))
    right = tuple(tuple(x + k for x in b) for b in recursive_finv(perm[k:]))
    first = (left[0] if left else ()) + (k,)
    return (first,) + left[1:] + right


def brute_refines(finer: Blocks, coarser: Blocks) -> bool:
    """Every block of `finer` is a subset of some block of `coarser`."""
    coarse_sets = [set(block) for block in coarser]
    return all(
        any(set(block) <= big for big in coarse_sets) for block in finer
    )


def strict_pairs(poset) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(poset.size)
        for j in range(poset.size)
        if below(poset, i, j)
    ]


def comparable_mask_rows(poset) -> list[int]:
    """Row i: bitmask of elements strictly comparable with i."""
    rows = []
    for i in range(poset.size):
        mask = 0
        for j in range(poset.size):
            if below(poset, i, j) or below(poset, j, i):
                mask |= 1 << j
        rows.append(mask)
    return rows


def brute_width(poset) -> int:
    """Largest pairwise-incomparable subset by full subset enumeration.

    size must stay small; 2^size subsets are scanned.
    """
    if poset.size > 16:
        raise ValueError("brute_width is for tiny posets only")
    comp = comparable_mask_rows(poset)
    best = 0
    for subset in range(1 << poset.size):
        count = 0
        ok = True
        probe = subset
        while probe:
            low = probe & -probe
            i = low.bit_length() - 1
            if comp[i] & subset:
                ok = False
                break
            count += 1
            probe ^= low
        if ok:
            best = max(best, count)
    return best


def maximal_chains(poset) -> list[frozenset[int]]:
    """All maximal chains, found by walking cover edges from the minima."""
    children: dict[int, list[int]] = {i: [] for i in range(poset.size)}
    for lower, upper in cover_pairs(poset):
        children[lower].append(upper)
    chains: list[frozenset[int]] = []

    def walk(path: list[int]) -> None:
        tip = path[-1]
        if not children[tip]:
            chains.append(frozenset(path))
            return
        for nxt in children[tip]:
            walk(path + [nxt])

    for i in range(poset.size):
        if poset.ranks[i] == 0:
            walk([i])
    return chains


def brute_max_k_chain_union(poset, k: int) -> int:
    """Largest union of k chains.

    Any chain extends to a maximal one without shrinking the union, so only
    combinations of maximal chains need to be scanned.
    """
    chains = maximal_chains(poset)
    k = min(k, len(chains))
    best = 0
    for combo in combinations(chains, k):
        size = len(frozenset().union(*combo))
        best = max(best, size)
    return best


def brute_max_k_antichain_union(poset, k: int) -> int:
    """Largest subset with no chain longer than k, by subset enumeration.

    Longest chain inside each subset is found by a rank-order DP; subsets
    no bigger than the best so far are skipped.
    """
    if poset.size > 16:
        raise ValueError("brute_max_k_antichain_union is for tiny posets only")
    lower = [0] * poset.size
    for i in range(poset.size):
        for j in range(poset.size):
            if below(poset, j, i):
                lower[i] |= 1 << j
    order = sorted(range(poset.size), key=poset.ranks.__getitem__)
    best = 0
    for subset in range(1 << poset.size):
        size = subset.bit_count()
        if size <= best:
            continue
        length = [0] * poset.size
        height = 0
        for i in order:
            if not subset >> i & 1:
                continue
            longest_below = 0
            probe = lower[i] & subset
            while probe:
                low = probe & -probe
                j = low.bit_length() - 1
                probe ^= low
                longest_below = max(longest_below, length[j])
            length[i] = longest_below + 1
            height = max(height, length[i])
            if height > k:
                break
        else:
            best = size
    return best


def reverses_order(poset, mapping: Sequence[int]) -> bool:
    """mapping is a bijection on element indices and i < j holds exactly
    when mapping[j] < mapping[i]."""
    if sorted(mapping) != list(range(poset.size)):
        return False
    return all(
        below(poset, i, j) == below(poset, mapping[j], mapping[i])
        for i in range(poset.size)
        for j in range(poset.size)
    )


def left_to_right_minima_positions(entries: Sequence[int]) -> tuple[int, ...]:
    """Positions holding a value smaller than everything before it.

    Position 1 always qualifies.  For a 132-avoiding permutation these are
    exactly position 1 plus the successors of the descent positions.
    """
    out = []
    running_min = len(entries) + 1
    for j, x in enumerate(entries, start=1):
        if x < running_min:
            out.append(j)
            running_min = x
    return tuple(out)


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def per_vertex_antichain(strict: Sequence[int], match_left: Sequence[int]) -> tuple[int, ...]:
    """The antichain that a maximum matching of the split graph certifies,
    by the package's former search: one reached left copy at a time, each
    listing its own fresh right neighbours.  strict[x] is the bitmask of
    elements above x and match_left[u] is u's right partner or -1."""
    size = len(strict)
    match_right = [-1] * size
    for u, v in enumerate(match_left):
        if v != -1:
            match_right[v] = u
    frontier = [u for u in range(size) if match_left[u] == -1]
    reached_left = sum(1 << u for u in frontier)
    reached_right = 0
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
    return tuple(iter_bits(reached_left & ~reached_right))


def transitive_reduction(
    above_rows: Sequence[int], ranks: Sequence[int]
) -> tuple[int, ...]:
    """Cover rows of an arbitrary partial order given as strict bitset rows.

    For each element the candidates above it are scanned rank layer by
    rank layer while accumulating everything reachable through an earlier
    candidate; a candidate already in the accumulator is skipped, and
    contributes nothing new since whatever sits above it arrived with its
    witness.  The scan order only affects speed, not the result.
    """
    size = len(above_rows)
    height = max(ranks, default=0) + 1
    layers = [0] * height
    for i, r in enumerate(ranks):
        layers[r] |= 1 << i
    rows = []
    for i in range(size):
        strict = above_rows[i]
        reached = 0
        for r in range(ranks[i] + 1, height):
            for z in iter_bits(strict & layers[r]):
                if not reached >> z & 1:
                    reached |= above_rows[z]
        rows.append(strict & ~reached)
    return tuple(rows)


INF = float("inf")


def successive_shortest_profile(poset) -> tuple[int, ...]:
    """Nonincreasing coverage gains of successive optimal chain families,
    one augmenting path per chain.

    Min-cost flow on the split graph (each element crossed at gain 1):
    every augmentation runs Dijkstra on reduced costs with potentials
    seeded by a rank-order relaxation, and its gain is minus the sink's
    potential.  Once a chain gains only a single element all later ones
    do too, so the tail is filled without flows.
    """
    size = poset.size
    strict = poset.above_rows
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

    # exact initial distances by relaxing in rank order (strict edges only
    # ever point to higher ranks in these posets)
    dist0 = [INF] * node_count
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
        dist = [INF] * node_count
        dist[source] = 0
        parent = [-1] * node_count
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
                    parent[v] = eid
                    heappush(heap, (nd, v))
        reach = dist[sink]
        if reach == INF:
            raise RuntimeError("no augmenting path although elements remain uncovered")
        for v in range(node_count):
            potential[v] += min(dist[v], reach)
        gain = -int(potential[sink])
        if gain <= 0 or (profile and gain > profile[-1]):
            raise RuntimeError("augmentation gains are not a nonincreasing partition")
        if gain == 1:
            break
        v = sink
        while v != source:
            eid = parent[v]
            cap[eid] -= 1
            cap[eid ^ 1] += 1
            v = to[eid ^ 1]
        profile.append(gain)
        covered += gain
    profile.extend([1] * (size - covered))
    return tuple(profile)
