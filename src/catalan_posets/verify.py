"""The named verification checks behind the CLI.

Each check is one or more line functions, each exhaustive at its scale
and returning one report whose violation list is expected to be empty;
run_checks times each report line.  A check runs to the cap of the
structure its lines read, the census or the built posets (CHECKS,
CAPACITY); beyond it, it raises a capacity error rather than thinning.

Two checks are order reversals.  Coarsening a noncrossing partition
strictly shrinks the descent set of its image permutation, so the
bijection turns refinement upside down.  The descent order is also its
own upside-down image: pairing each descent class with its
reverse-complement class, and members in lexicographic order within
classes, reverses every comparison.  Both decide all ordered pairs at
once: properly_inside collects, for each descent set, the elements whose
mask lies properly inside it, and each above row of a poset, the elements
strictly above one element, is compared with one entry.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Sequence
from math import comb

from .antichains import chain_cover_profile, max_antichain, max_antichain_elements
from .bijection import image_descent_mask, perm_to_ncp
from .census import build_census
from .errors import CAPACITY, check_capacity
from .partitions import format_partition
from .permutations import format_descent_set, reverse_complement_masks
from .poset import (
    _descent_masks,
    build_descent_poset,
    build_refinement_poset,
    iter_bits,
    properly_inside,
    refinement_rows,
)

#: Number of violation details retained per report; the rest are dropped
#: after a closing marker so a badly failing check cannot flood memory.
MAX_VIOLATION_DETAILS = 5


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "name n examined violations elapsed",
        defaults=((), 0.0),
    )
):
    """Outcome of one check at one ground size.

    examined counts the pairs or subsets actually tested.  elapsed is the
    wall time run_checks measured for the line, carried for diagnostics
    but deliberately left out of summary_line so the line is reproducible
    byte for byte; a check called directly reports the default 0.0.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary_line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name} n={self.n}: examined={self.examined} {status}"


def note_violation(violations: list[str], message: str) -> None:
    """Append a violation detail, capping the list."""
    if len(violations) < MAX_VIOLATION_DETAILS:
        violations.append(message)
    elif len(violations) == MAX_VIOLATION_DETAILS:
        violations.append("further violations omitted")


def narayana(n: int, k: int) -> int:
    """Number of noncrossing partitions of [n] with exactly k blocks.

    Computed as C(n,k) * C(n,k-1) / n, which is always an integer.

    >>> narayana(4, 2)
    6
    >>> [narayana(4, k) for k in range(1, 5)]
    [1, 6, 6, 1]
    >>> narayana(8, 4)
    490
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    return comb(n, k) * comb(n, k - 1) // n


def catalan(n: int) -> int:
    """n-th Catalan number, as the sum of the Narayana row.

    >>> catalan(4)
    14
    >>> catalan(12)
    208012
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return sum(narayana(n, k) for k in range(1, n + 1))


def check_coarsening(n: int) -> VerificationReport:
    """Test, over every strict refinement pair a < b, that the descent set
    of b's image is properly inside that of a's image: each above row of
    the refinement poset, ANDed with the complement of one entry of
    properly_inside over the image descent sets, must leave nothing, and a
    failing row's pairs are listed while the report keeps details.
    examined counts the strict pairs of the rows the loop read."""
    q_poset = build_refinement_poset(n)
    fmask = [image_descent_mask(q) for q in q_poset.elements]
    outside = [~row for row in properly_inside(fmask, n - 1)]
    examined = 0
    violations: list[str] = []
    for i, (row, mask) in enumerate(zip(q_poset.above_rows, fmask)):
        examined += row.bit_count()
        bad = row & outside[mask]
        if bad and len(violations) <= MAX_VIOLATION_DETAILS:
            for j in iter_bits(bad):
                note_violation(
                    violations,
                    f"{q_poset.label(i)} < {q_poset.label(j)}: "
                    f"image descent sets do not properly shrink",
                )
    return VerificationReport("coarsening", n, examined, tuple(violations))


def construct_antiautomorphism(n: int) -> tuple[int, ...]:
    """Build the order-reversing pairing of the descent poset on [n], as
    the tuple whose entry i is the index paired with element i of
    build_descent_poset(n).

    Elements are grouped by descent set, read off the table the builder
    filled; the class of S is matched to the class of the reverse
    complement of S, members paired by lexicographic rank.  A class size
    mismatch would falsify the counting symmetry the pairing rests on, so
    it raises rather than returning a partial map.

    >>> construct_antiautomorphism(4)[0]   # 1234 pairs with 4321
    13
    """
    masks = _descent_masks(n)
    classes: dict[int, list[int]] = {}
    for i, mask in enumerate(masks):
        classes.setdefault(mask, []).append(i)
    mapping = [0] * len(masks)
    partners = reverse_complement_masks(n)
    for mask, members in classes.items():
        partner = partners[mask]
        targets = classes.get(partner, [])
        if len(targets) != len(members):
            raise RuntimeError(
                f"descent classes of masks {mask:#b} and {partner:#b} "
                f"have sizes {len(members)} and {len(targets)} for n={n}"
            )
        for source, target in zip(members, targets):
            mapping[source] = target
    return tuple(mapping)


def check_self_duality(n: int) -> VerificationReport:
    """Construct the reverse-complement pairing on the descent poset and
    test order reversal over all ordered element pairs.

    i < j must hold exactly when mapping[j] < mapping[i], so above row i
    must equal the set of j whose image lies strictly below mapping[i].
    In the descent poset mapping[j] < x holds exactly when the descent
    set of mapping[j] lies properly inside that of x, which is one entry
    of properly_inside over the image descent sets.  A failing row's
    pairs are listed while the report keeps details.
    """
    poset = build_descent_poset(n)
    violations: list[str] = []
    try:
        mapping = construct_antiautomorphism(n)
    except RuntimeError as exc:
        return VerificationReport("selfdual", n, 0, (str(exc),))
    if any(mapping[j] != i for i, j in enumerate(mapping)):
        violations.append("pairing is not an involution")
    masks = _descent_masks(n)
    inside = properly_inside([masks[image] for image in mapping], n - 1)
    for i, image in enumerate(mapping):
        bad = poset.above_rows[i] ^ inside[masks[image]]
        if bad and len(violations) <= MAX_VIOLATION_DETAILS:
            for j in iter_bits(bad):
                note_violation(
                    violations,
                    f"({poset.label(i)}, {poset.label(j)}) breaks order reversal",
                )
    return VerificationReport("selfdual", n, poset.size**2, tuple(violations))


def _descent_rank_sizes(n: int) -> tuple[int, ...]:
    """Rank sizes of the descent poset: the census summed by popcount."""
    sizes = [0] * n
    for mask, count in enumerate(build_census(n)):
        sizes[mask.bit_count()] += count
    return tuple(sizes)


def _refinement_rank_sizes(n: int) -> tuple[int, ...]:
    """Rank sizes of the refinement poset, n - #blocks, without listing
    NC(n): rows[m][k] counts NC(m) with k blocks, by the block that holds
    1.  Either 1 is alone, or j is its next block-mate, 2..j-1 hold any
    partition, and 1 joins j's block in a partition of j..m."""
    rows = [[1]]
    for m in range(1, n + 1):
        row = [0] + rows[m - 1]
        for j in range(2, m + 1):
            for a, inner in enumerate(rows[j - 2]):
                for b, outer in enumerate(rows[m - j + 1]):
                    row[a + b] += inner * outer
        rows.append(row)
    return tuple(rows[n][:0:-1])


def check_rank_statistics(n: int) -> VerificationReport:
    """Rank sizes of both posets match the Narayana row, and so each other.

    The sizes are the posets' rank functions counted without building
    either poset or listing either family: descent-set sizes weighted by
    the census, and n - #blocks by a recurrence on the block holding 1.
    That the row is palindromic and unimodal is a statement about the
    Narayana numbers alone, which tests/test_verify.py checks through 19
    and 16.
    """
    violations: list[str] = []
    sizes_p = _descent_rank_sizes(n)
    sizes_q = _refinement_rank_sizes(n)
    expected = tuple(narayana(n, k) for k in range(1, n + 1))
    if sizes_p != expected:
        note_violation(violations, f"descent poset rank sizes {sizes_p} != {expected}")
    if sizes_q != expected:
        note_violation(violations, f"refinement poset rank sizes {sizes_q} != {expected}")
    return VerificationReport("ranks", n, 2 * n, tuple(violations))


def check_census_symmetry(n: int) -> VerificationReport:
    """Census counts are invariant under reverse complement of the descent
    set, and (up to the poset cap) they match a tally of P's descent-class
    table, which the enumeration fills."""
    census = build_census(n)
    violations: list[str] = []
    tally = None
    if n <= CAPACITY["poset construction"]:
        tally = [0] * len(census)
        for mask in _descent_masks(n):
            tally[mask] += 1
    for mask, (count, partner) in enumerate(zip(census, reverse_complement_masks(n))):
        if count != census[partner]:
            note_violation(
                violations,
                f"count {count} at {format_descent_set(mask)} != "
                f"count {census[partner]} at {format_descent_set(partner)}",
            )
        if tally is not None and count != tally[mask]:
            note_violation(
                violations, f"census disagrees with enumeration at {format_descent_set(mask)}"
            )
    if sum(census) != catalan(n):
        note_violation(violations, f"census total {sum(census)} != catalan({n})")
    return VerificationReport("lemma", n, len(census), tuple(violations))


def check_sperner_width(n: int) -> VerificationReport:
    """The width of the descent poset equals its largest rank size."""
    poset = build_descent_poset(n)
    width = max_antichain(poset)
    largest_rank = max(poset.rank_sizes())
    violations: list[str] = []
    if width != largest_rank:
        note_violation(violations, f"width {width} != largest rank size {largest_rank}")
    return VerificationReport("sperner-width", n, poset.size, tuple(violations))


def check_sperner_dk(n: int) -> VerificationReport:
    """For every k, the largest union of k antichains of the descent poset
    meets the top-k rank sum, at the smaller of n and its sub-cap; that
    union is the sum of min(part, k) over the chain cover profile."""
    n = min(n, CAPACITY["sperner-dk"])
    poset = build_descent_poset(n)
    profile = chain_cover_profile(poset)
    ranked = sorted(poset.rank_sizes(), reverse=True)
    violations: list[str] = []
    for k in range(1, n + 1):
        if sum(min(part, k) for part in profile) != sum(ranked[:k]):
            note_violation(violations, f"union of {k} antichains misses the top-{k} rank sum")
    return VerificationReport("sperner-dk", n, n, tuple(violations))


def check_sperner_transfer(n: int) -> VerificationReport:
    """A maximum antichain of the descent poset stays an antichain of the
    refinement poset after pulling back through the bijection, at the
    smaller of n and its sub-cap: refinement_rows over the images alone
    says which of them refine another.  examined counts the image pairs."""
    n = min(n, CAPACITY["sperner-transfer"])
    p_poset = build_descent_poset(n)
    images = [
        perm_to_ncp(p_poset.elements[i]) for i in max_antichain_elements(p_poset)
    ]
    violations: list[str] = []
    for a, row in enumerate(refinement_rows(n, images)):
        if len(violations) > MAX_VIOLATION_DETAILS:
            break
        for b in iter_bits(row):
            note_violation(
                violations,
                f"images {format_partition(images[a])} and "
                f"{format_partition(images[b])} are comparable",
            )
    pairs = len(images) * (len(images) - 1) // 2
    return VerificationReport("sperner-transfer", n, pairs, tuple(violations))


#: Each named check, in the order the "all" suite runs them, as the
#: structure its lines read, whose CAPACITY entry is the check's cap, and
#: the tuple of its line functions, one report line each.
CHECKS = {
    "coarsening": ("poset construction", (check_coarsening,)),
    "ranks": ("census", (check_rank_statistics,)),
    "lemma": ("census", (check_census_symmetry,)),
    "selfdual": ("poset construction", (check_self_duality,)),
    "sperner": ("poset construction", (check_sperner_width, check_sperner_dk,
                                       check_sperner_transfer)),
}


def run_checks(names: Sequence[str], n: int) -> list[VerificationReport]:
    """Run named checks at ground size n, timing each report line.

    A check's cap is that of the structure it reads, and a named check
    asked for beyond it raises a capacity error.  With "all" among the
    names, every check runs instead, in CHECKS order, each at the largest
    size it supports, at most n.
    """
    clamp = "all" in names
    reports: list[VerificationReport] = []
    for name in CHECKS if clamp else names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}")
        structure, lines = CHECKS[name]
        use = min(n, CAPACITY[structure]) if clamp else n
        check_capacity(f"check {name}", use, structure)
        for line in lines:
            start = time.perf_counter()
            report = line(use)
            reports.append(report._replace(elapsed=time.perf_counter() - start))
    return reports
