"""Output checks for the benchmark, written apart from the package.

Nothing here imports catalan_posets.  Each check takes the text an
operation produced and returns a list of problems (empty when the output
is right).  Expected values come from closed formulas (Catalan, Narayana,
binomials), from properties the method must have, or from the
independent computations in this file: an iterative form of the bijection
(an explicit stack of intervals in place of recursion), a stack-sorting
132-avoidance test, a stack test for crossings, and a descent-set census
computed over masks.
"""

from __future__ import annotations

import csv
import io
import json
import re
from bisect import bisect_right
from functools import lru_cache
from math import comb

Blocks = tuple[tuple[int, ...], ...]

#: Problems reported per check; the rest are summarised in one line.
MAX_PROBLEMS = 5


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def narayana_row(n: int) -> list[int]:
    """Number of noncrossing partitions of [n] with k blocks, k = 1..n."""
    return [comb(n, k) * comb(n, k - 1) // n for k in range(1, n + 1)]


class Problems(list):
    """A problem list that keeps the first few messages and counts the rest."""

    def add(self, message: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(message)
        elif len(self) == MAX_PROBLEMS:
            self.append("further problems omitted")


# --- permutations -----------------------------------------------------------


def format_perm(p) -> str:
    return "".join(map(str, p)) if len(p) <= 9 else ",".join(map(str, p))


def parse_perm(text: str, n: int) -> tuple[int, ...] | None:
    """The package's text form: digits for n <= 9, comma-separated above.
    Returns None unless the text is a permutation of [n] in that form."""
    if n <= 9:
        if len(text) != n or not text.isdigit():
            return None
        p = tuple(map(int, text))
    else:
        try:
            p = tuple(map(int, text.split(",")))
        except ValueError:
            return None
    if len(p) != n or set(p) != set(range(1, n + 1)):
        return None
    return p


def avoids_132(p) -> bool:
    """p avoids 132 exactly when its reverse avoids 231, which is exactly
    when one pass through a stack sorts the reverse (Knuth)."""
    last = 0
    stack: list[int] = []
    for x in reversed(p):
        while stack and stack[-1] < x:
            y = stack.pop()
            if y < last:
                return False
            last = y
        stack.append(x)
    while stack:
        y = stack.pop()
        if y < last:
            return False
        last = y
    return True


def descent_mask(p) -> int:
    mask = 0
    for i in range(len(p) - 1):
        if p[i] > p[i + 1]:
            mask |= 1 << i
    return mask


def reverse_complement(n: int, mask: int) -> int:
    """Position i is in the result exactly when n - i is not in mask."""
    out = 0
    for i in range(1, n):
        if not mask >> (n - i - 1) & 1:
            out |= 1 << (i - 1)
    return out


# --- partitions -------------------------------------------------------------


def format_ncp(blocks: Blocks) -> str:
    return "/".join("{" + ",".join(map(str, block)) + "}" for block in blocks)


class PartitionReader:
    """Reads partitions of [n] in the package's text form.

    Block texts repeat across a listing, so each is parsed once and kept
    with its element bit mask, its span and its share of the growth-string
    key (the base-16 number whose digits are the block index of 1..n).
    """

    def __init__(self, n: int):
        self.n = n
        self.full = (1 << (n + 1)) - 2
        self.blocks: dict[str, tuple | None] = {}

    def _block(self, chunk: str) -> tuple | None:
        try:
            block = tuple(map(int, chunk.split(",")))
        except ValueError:
            return None
        if list(block) != sorted(set(block)) or block[0] < 1 or block[-1] > self.n:
            return None
        mask = sum(1 << x for x in block)
        weight = sum(16 ** (self.n - x) for x in block)
        return block, mask, block[0], block[-1], weight

    def read(self, text: str) -> tuple[Blocks, int, bool] | None:
        """(blocks, growth-string key, noncrossing?) of a canonical
        partition of [n], or None when the text is anything else."""
        if len(text) < 3 or text[0] != "{" or text[-1] != "}":
            return None
        infos = []
        for chunk in text[1:-1].split("}/{"):
            info = self.blocks.get(chunk, False)
            if info is False:
                info = self.blocks[chunk] = self._block(chunk)
            if info is None:
                return None
            infos.append(info)
        union = 0
        total = 0
        key = 0
        previous = 0
        for index, (_, mask, low, _, weight) in enumerate(infos):
            if low <= previous:
                return None
            previous = low
            union |= mask
            total += mask
            key += index * weight
        if union != total or union != self.full:
            return None
        return tuple(info[0] for info in infos), key, _noncrossing(infos)


def _noncrossing(infos: list[tuple]) -> bool:
    """Blocks in order of their minima.  A block must fit inside one gap of
    the innermost earlier block still open at its minimum."""
    open_blocks: list[tuple] = []
    for info in infos:
        _, _, low, high, _ = info
        while open_blocks and open_blocks[-1][3] < low:
            open_blocks.pop()
        if open_blocks:
            _, outer, _, outer_high, _ = open_blocks[-1]
            if high > outer_high or outer >> low & ((1 << (high - low)) - 1):
                return False
        open_blocks.append(info)
    return True


def minima_mask(blocks: Blocks) -> int:
    """{m - 1 : m a block minimum other than 1}, as a descent mask."""
    mask = 0
    for b in blocks:
        if b[0] > 1:
            mask |= 1 << (b[0] - 2)
    return mask


# --- the bijection, iteratively --------------------------------------------


def own_f(blocks: Blocks, n: int) -> tuple[int, ...]:
    """Image permutation of a noncrossing partition.

    On an interval [lo, hi] carrying the top values, the largest value goes
    to k, the largest member of lo's block inside the interval; [lo, k-1]
    takes the values just below it and [k+1, hi] the lowest ones.
    """
    block_of: list[tuple[int, ...]] = [()] * (n + 1)
    for b in blocks:
        for x in b:
            block_of[x] = b
    p = [0] * (n + 1)
    work = [(1, n, 0)]
    while work:
        lo, hi, offset = work.pop()
        if lo > hi:
            continue
        block = block_of[lo]
        k = block[bisect_right(block, hi) - 1]
        p[k] = offset + hi - lo + 1
        work.append((lo, k - 1, offset + hi - k))
        work.append((k + 1, hi, offset))
    return tuple(p[1:])


# --- census -----------------------------------------------------------------


def own_census(n: int) -> list[int]:
    """Counts of 132-avoiders of [n] by descent mask, without listing them.

    An avoider of [m] with m at position k is a shifted avoider of [k-1],
    then m, then an avoider of [m-k]: no descent at k-1, a descent at k
    when anything follows, and the right part's descents moved up by k.
    """
    tables: list[list[int]] = [[1], [1]]
    for m in range(2, n + 1):
        counts = [0] * (1 << (m - 1))
        for k in range(1, m + 1):
            left = tables[k - 1]
            right = tables[m - k]
            peak = 1 << (k - 1) if k < m else 0
            for lm, lc in enumerate(left):
                for rm, rc in enumerate(right):
                    counts[lm | peak | (rm << k)] += lc * rc
        tables.append(counts)
    return tables[n]


def own_av132(n: int) -> list[tuple[int, ...]]:
    """All 132-avoiders of [n], listed by the same split at the position of n."""
    lists: list[list[tuple[int, ...]]] = [[()]]
    for m in range(1, n + 1):
        out = []
        for k in range(1, m + 1):
            for left in lists[k - 1]:
                head = tuple(x + m - k for x in left) + (m,)
                out.extend(head + right for right in lists[m - k])
        lists.append(out)
    return lists[n]


def census_by_enumeration(n: int) -> list[int]:
    counts = [0] * (1 << (n - 1))
    for p in own_av132(n):
        counts[descent_mask(p)] += 1
    return counts


def _census_properties(n: int, counts: list[int], problems: Problems) -> None:
    if sum(counts) != catalan(n):
        problems.add(f"counts total {sum(counts)}, expected {catalan(n)}")
    by_size = [0] * n
    for mask, count in enumerate(counts):
        by_size[mask.bit_count()] += count
    if by_size != narayana_row(n):
        problems.add(f"counts by size {by_size} are not the Narayana row")
    for mask, count in enumerate(counts):
        if count != counts[reverse_complement(n, mask)]:
            problems.add(f"count at mask {mask:#b} differs from its reverse complement")


# --- checks on whole outputs ------------------------------------------------


def _lines(text: str, problems: Problems) -> list[str]:
    if not text.endswith("\n"):
        problems.add("output does not end with a newline")
        return text.split("\n")
    return text[:-1].split("\n")


def check_av132_listing(text: str, n: int) -> list[str]:
    """Catalan(n) lines, strictly increasing, each a 132-avoider of [n]."""
    problems = Problems()
    lines = _lines(text, problems)
    if len(lines) != catalan(n):
        problems.add(f"{len(lines)} lines, expected {catalan(n)}")
    previous: tuple[int, ...] = ()
    for number, line in enumerate(lines, start=1):
        p = parse_perm(line, n)
        if p is None:
            problems.add(f"line {number} {line!r} is not a permutation of [{n}]")
            continue
        if not avoids_132(p):
            problems.add(f"line {number} {line} contains 132")
        if p <= previous:
            problems.add(f"line {number} {line} is out of order")
        previous = p
    return problems


def check_ncp_listing(text: str, n: int) -> list[str]:
    """Catalan(n) lines in increasing growth-string order, each a canonical
    noncrossing partition of [n]."""
    problems = Problems()
    lines = _lines(text, problems)
    if len(lines) != catalan(n):
        problems.add(f"{len(lines)} lines, expected {catalan(n)}")
    reader = PartitionReader(n)
    previous = -1
    for number, line in enumerate(lines, start=1):
        read = reader.read(line)
        if read is None:
            problems.add(f"line {number} {line!r} is not a canonical partition of [{n}]")
            continue
        _, key, noncrossing = read
        if not noncrossing:
            problems.add(f"line {number} {line} is crossing")
        if key <= previous:
            problems.add(f"line {number} {line} is out of order")
        previous = key
    return problems


def check_family_map(text: str, n: int) -> list[str]:
    """Lines `q<TAB>f(q)<TAB>finv(f(q))` over the whole NCP family: the q
    are every noncrossing partition once, the f(q) every 132-avoider once,
    descents match block minima, and finv undoes f."""
    problems = Problems()
    lines = _lines(text, problems)
    if len(lines) != catalan(n):
        problems.add(f"{len(lines)} lines, expected {catalan(n)}")
    reader = PartitionReader(n)
    previous = -1
    images = set()
    for number, line in enumerate(lines, start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            problems.add(f"line {number} does not have three fields")
            continue
        q_text, p_text, back_text = fields
        read = reader.read(q_text)
        p = parse_perm(p_text, n)
        if read is None or not read[2]:
            problems.add(f"line {number}: {q_text!r} is not a noncrossing partition")
            continue
        blocks, key, _ = read
        if key <= previous:
            problems.add(f"line {number}: {q_text} is out of order")
        previous = key
        if p is None or not avoids_132(p):
            problems.add(f"line {number}: f({q_text}) = {p_text!r} is not a 132-avoider")
            continue
        images.add(p)
        if descent_mask(p) != minima_mask(blocks):
            problems.add(f"line {number}: descents of {p_text} do not match minima of {q_text}")
        if back_text != q_text:
            problems.add(f"line {number}: finv(f({q_text})) = {back_text}")
    if len(images) != catalan(n):
        problems.add(f"f hits {len(images)} permutations, expected {catalan(n)}")
    return problems


def check_map_f(text: str, blocks: Blocks, n: int) -> list[str]:
    """`map f` output for one partition: the independent image, 132-avoiding,
    with descents at the block minima less one."""
    problems = Problems()
    expected = own_f(blocks, n)
    p = parse_perm(text[:-1], n) if text.endswith("\n") else None
    if p is None:
        problems.add(f"output {text[:40]!r}... is not one permutation of [{n}]")
        return problems
    if p != expected:
        problems.add("image differs from the independent bijection")
    if not avoids_132(p):
        problems.add("image contains 132")
    if descent_mask(p) != minima_mask(blocks):
        problems.add("descents of the image do not match the block minima")
    return problems


def check_map_finv(text: str, p: tuple[int, ...], blocks: Blocks) -> list[str]:
    """`map finv` output for one permutation: the partition it came from."""
    problems = Problems()
    n = len(p)
    read = PartitionReader(n).read(text[:-1]) if text.endswith("\n") else None
    if read is None:
        problems.add(f"output {text[:40]!r}... is not one partition of [{n}]")
        return problems
    got, _, noncrossing = read
    if got != blocks:
        problems.add("preimage differs from the partition the permutation came from")
    if not noncrossing:
        problems.add("preimage is crossing")
    if minima_mask(got) != descent_mask(p):
        problems.add("block minima of the preimage do not match the descents")
    return problems


def check_census_csv(text: str, n: int, expected: list[int]) -> list[str]:
    """One row per mask in order, correct set text and size, counts equal to
    `expected` (the benchmark's own enumeration) and the census laws."""
    problems = Problems()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["descent_set_text", "size", "count"]:
        problems.add("missing or wrong header")
        return problems
    rows = rows[1:]
    if len(rows) != 1 << (n - 1):
        problems.add(f"{len(rows)} rows, expected {1 << (n - 1)}")
        return problems
    counts = []
    for mask, row in enumerate(rows):
        positions = [i + 1 for i in range(n - 1) if mask >> i & 1]
        want = ["{" + ",".join(map(str, positions)) + "}", str(len(positions))]
        if len(row) != 3 or row[:2] != want or not row[2].isdigit():
            problems.add(f"row {mask + 1} {row} is malformed, expected {want} and a count")
            counts.append(0)
            continue
        counts.append(int(row[2]))
    if counts != expected:
        problems.add("counts differ from the benchmark's own enumeration")
    _census_properties(n, counts, problems)
    return problems


def check_counter(text: str, n: int, expected: list[int]) -> list[str]:
    """One count per descent mask at n, equal to the mask-level census."""
    problems = Problems()
    lines = _lines(text, problems)
    if len(lines) != 1 << (n - 1) or not all(line.isdigit() for line in lines):
        problems.add(f"expected {1 << (n - 1)} counts, one per line")
        return problems
    counts = list(map(int, lines))
    if counts != expected:
        problems.add("counts differ from the independent census")
    _census_properties(n, counts, problems)
    return problems


# --- posets -----------------------------------------------------------------


class _Family:
    """Labels of one exported poset, parsed and checked once."""

    def __init__(self, family: str, n: int, labels: list[str], problems: Problems):
        self.family = family
        self.n = n
        self.ok = True
        self.rank: dict[str, int] = {}
        self.mask: dict[str, int] = {}
        self.minof: dict[str, list[int]] = {}
        if len(labels) != catalan(n) or len(set(labels)) != len(labels):
            problems.add(f"{len(labels)} labels ({len(set(labels))} distinct), expected {catalan(n)}")
            self.ok = False
        reader = PartitionReader(n)
        for label in labels:
            if family == "P":
                p = parse_perm(label, n)
                if p is None or not avoids_132(p):
                    problems.add(f"label {label!r} is not a 132-avoider of [{n}]")
                    self.ok = False
                    continue
                self.mask[label] = descent_mask(p)
                self.rank[label] = self.mask[label].bit_count()
            else:
                read = reader.read(label)
                if read is None or not read[2]:
                    problems.add(f"label {label!r} is not a noncrossing partition of [{n}]")
                    self.ok = False
                    continue
                blocks = read[0]
                minof = [0] * (n + 1)
                for b in blocks:
                    for x in b:
                        minof[x] = b[0]
                self.minof[label] = minof
                self.rank[label] = n - len(blocks)
        if self.ok:
            sizes = [0] * n
            for r in self.rank.values():
                sizes[r] += 1
            if sizes != narayana_row(n):
                problems.add(f"rank sizes {sizes} are not the Narayana row")

    def expected_covers(self) -> int:
        if self.family == "Q":
            return comb(2 * self.n, self.n - 2)
        fiber = [0] * (1 << (self.n - 1))
        for m in self.mask.values():
            fiber[m] += 1
        return sum(
            fiber[s] * fiber[s | 1 << b]
            for s in range(len(fiber))
            for b in range(self.n - 1)
            if not s >> b & 1
        )

    def is_cover(self, low: str, high: str) -> bool:
        """P: one descent added.  Q: every block of `low` inside a block of
        `high`, which has one block fewer, so exactly two blocks merged."""
        if self.family == "P":
            a, b = self.mask.get(low, -1), self.mask.get(high, -1)
            return a >= 0 and b >= 0 and a & b == a and (a ^ b).bit_count() == 1
        below, above = self.minof.get(low), self.minof.get(high)
        if below is None or above is None or self.rank[high] != self.rank[low] + 1:
            return False
        return all(above[x] == above[below[x]] for x in range(1, self.n + 1))

    def check_edges(self, edges: list[tuple[str, str]], problems: Problems) -> None:
        if len(set(edges)) != len(edges):
            problems.add("repeated cover pairs")
        is_cover = self.is_cover
        for low, high in edges:
            if not is_cover(low, high):
                problems.add(f"{low} -> {high} is not a cover")
        expected = self.expected_covers()
        if len(edges) != expected:
            problems.add(f"{len(edges)} covers, expected {expected}")


@lru_cache(maxsize=2)
def _json_edges(text: str, family: str, n: int) -> tuple[_Family | None, list, Problems]:
    problems = Problems()
    try:
        doc = json.loads(text)
    except ValueError:
        problems.add("output is not JSON")
        return None, [], problems
    if not isinstance(doc, dict) or set(doc) != {"n", "family", "elements", "ranks", "covers"}:
        problems.add("JSON document lacks the expected keys")
        return None, [], problems
    if doc["n"] != n or doc["family"] != family:
        problems.add(f"document is for {doc['family']}{doc['n']}, expected {family}{n}")
    if doc["ranks"] != narayana_row(n):
        problems.add(f"ranks {doc['ranks']} are not the Narayana row")
    labels = doc["elements"]
    fam = _Family(family, n, labels, problems)
    covers = doc["covers"]
    if not all(type(pair) is list and len(pair) == 2 for pair in covers):
        problems.add("covers are not all pairs")
        return fam, [], problems
    indices = {i for pair in covers for i in pair}
    if not all(type(i) is int and 0 <= i < len(labels) for i in indices):
        problems.add("covers hold something other than element indices")
        return fam, [], problems
    return fam, [(labels[i], labels[j]) for i, j in covers], problems


_EDGE = re.compile(r'  "([^"]+)" -> "([^"]+)";')
_LABEL = re.compile(r'"([^"]+)";')


@lru_cache(maxsize=2)
def _dot_edges(text: str, family: str, n: int) -> tuple[_Family | None, list, Problems]:
    problems = Problems()
    lines = _lines(text, problems)
    if lines[:2] != [f"digraph {family}{n} {{", "  rankdir=BT;"] or lines[-1] != "}":
        problems.add("DOT header or footer is wrong")
        return None, [], problems
    body = lines[2:-1]
    layers = []
    while body and body[0].startswith("  { rank=same;"):
        layers.append(_LABEL.findall(body.pop(0)))
    fam = _Family(family, n, [label for layer in layers for label in layer], problems)
    if fam.ok and [{fam.rank[x] for x in layer} for layer in layers] != [{r} for r in range(n)]:
        problems.add("rank groups do not hold one rank each, bottom to top")
    edges = []
    for line in body:
        match = _EDGE.fullmatch(line)
        if match is None:
            problems.add(f"line {line!r} is not an edge")
            continue
        edges.append(match.groups())
    return fam, edges, problems


def check_poset_json(text: str, family: str, n: int) -> list[str]:
    """Labels are the whole family, ranks are Narayana, every cover pair is
    a cover (P: one added descent; Q: two blocks merged), and there are as
    many as the family has (P: sum of fiber products; Q: C(2n, n-2))."""
    fam, edges, parse_problems = _json_edges(text, family, n)
    problems = Problems(parse_problems)
    if fam is not None and fam.ok:
        fam.check_edges(edges, problems)
    return problems


def check_poset_dot(text: str, family: str, n: int) -> list[str]:
    """The same laws as check_poset_json, read from the DOT rendering."""
    fam, edges, parse_problems = _dot_edges(text, family, n)
    problems = Problems(parse_problems)
    if fam is not None and fam.ok:
        fam.check_edges(edges, problems)
    return problems


def check_same_edges(json_text: str, dot_text: str, family: str, n: int) -> list[str]:
    """The JSON and DOT exports of one poset carry the same labelled edges."""
    _, json_edges, json_problems = _json_edges(json_text, family, n)
    _, dot_edges, dot_problems = _dot_edges(dot_text, family, n)
    problems = Problems(json_problems + dot_problems)
    if set(json_edges) != set(dot_edges):
        problems.add("JSON and DOT carry different edges")
    return problems


# --- checks -----------------------------------------------------------------

_SUMMARY = re.compile(r"(\S+) n=(\d+): examined=(\d+) (pass|FAIL)")

#: Report lines each `verify --checks <name>` prints.
CHECK_LINES = {
    "coarsening": ("coarsening",),
    "ranks": ("ranks",),
    "lemma": ("lemma",),
    "selfdual": ("selfdual",),
    "sperner": ("sperner-width", "sperner-dk", "sperner-transfer"),
}


def check_reports(text: str, name: str, n: int) -> list[str]:
    """Every report line of one named check passes, the first at n."""
    problems = Problems()
    lines = _lines(text, problems)
    parsed = [_SUMMARY.fullmatch(line) for line in lines]
    if None in parsed:
        problems.add(f"unexpected line in {lines}")
        return problems
    names = tuple(m.group(1) for m in parsed)
    if names != CHECK_LINES[name]:
        problems.add(f"report lines {names}, expected {CHECK_LINES[name]}")
    if int(parsed[0].group(2)) != n:
        problems.add(f"{name} ran at n={parsed[0].group(2)}, requested {n}")
    for m in parsed:
        if m.group(4) != "pass":
            problems.add(f"{m.group(0)}")
    return problems


def check_width(text: str, n: int) -> list[str]:
    problems = Problems()
    if text != f"{max(narayana_row(n))}\n":
        problems.add(f"width {text.strip()!r}, expected the largest Narayana number {max(narayana_row(n))}")
    return problems


def check_profile(text: str, n: int) -> list[str]:
    """A partition of Catalan(n) whose k-antichain numbers, sum(min(part, k)),
    are the sums of the k largest rank sizes."""
    problems = Problems()
    try:
        parts = list(map(int, text.strip().split(",")))
    except ValueError:
        problems.add(f"profile {text.strip()!r} is not a list of integers")
        return problems
    if sum(parts) != catalan(n) or any(a < b for a, b in zip(parts, parts[1:])) or min(parts) < 1:
        problems.add(f"profile is not a partition of {catalan(n)}")
    top = sorted(narayana_row(n), reverse=True)
    for k in range(1, n + 1):
        if sum(min(part, k) for part in parts) != sum(top[:k]):
            problems.add(f"{k}-antichain number differs from the top-{k} rank sum")
    return problems
