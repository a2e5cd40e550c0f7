"""The named verification checks behind the CLI; their caps are in CAPACITY.

Each check is exhaustive at its scale and returns reports whose violation
lists are expected to be empty.  Caps reflect where exhaustive checking
stays within interactive budgets; exceeding one raises a capacity error
rather than silently thinning the check.
"""

from __future__ import annotations

import time
from typing import Sequence

from .antichains import check_k_sperner, max_antichain, max_antichain_elements
from .bijection import perm_to_ncp
from .census import build_census, count_by_descent_set
from .counting import catalan, narayana
from .duality import check_coarsening, check_self_duality
from .errors import CAPACITY, check_capacity
from .partitions import enumerate_ncp
from .permutations import (
    descent_mask,
    enumerate_av132,
    format_descent_set,
    reverse_complement_mask,
)
from .poset import build_descent_poset, build_refinement_poset
from .reports import VerificationReport, note_violation


def _is_unimodal(seq: Sequence[int]) -> bool:
    i = 0
    while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
        i += 1
    while i + 1 < len(seq) and seq[i] >= seq[i + 1]:
        i += 1
    return i == len(seq) - 1


def _descent_rank_sizes(n: int) -> tuple[int, ...]:
    """Rank sizes of the descent poset: the census summed by popcount."""
    sizes = [0] * n
    for mask, count in enumerate(build_census(n)):
        sizes[mask.bit_count()] += count
    return tuple(sizes)


def _refinement_rank_sizes(n: int) -> tuple[int, ...]:
    """Rank sizes of the refinement poset: n - #blocks tallied over NC(n)."""
    sizes = [0] * n
    for q in enumerate_ncp(n):
        sizes[n - len(q.blocks)] += 1
    return tuple(sizes)


def check_rank_statistics(n: int) -> VerificationReport:
    """Rank sizes of both posets match the Narayana row and each other,
    and the row is palindromic and unimodal.

    The sizes are the posets' rank functions counted without building
    either poset: descent-set sizes weighted by the census, and n - #blocks
    over the noncrossing partitions.
    """
    start = time.perf_counter()
    violations: list[str] = []
    sizes_p = _descent_rank_sizes(n)
    sizes_q = _refinement_rank_sizes(n)
    expected = tuple(narayana(n, k) for k in range(1, n + 1))
    if sizes_p != expected:
        note_violation(violations, f"descent poset rank sizes {sizes_p} != {expected}")
    if sizes_q != expected:
        note_violation(violations, f"refinement poset rank sizes {sizes_q} != {expected}")
    if sizes_p != tuple(reversed(sizes_p)):
        note_violation(violations, f"rank sizes {sizes_p} are not palindromic")
    if not _is_unimodal(sizes_p):
        note_violation(violations, f"rank sizes {sizes_p} are not unimodal")
    return VerificationReport(
        "ranks", n, 2 * n, tuple(violations), time.perf_counter() - start
    )


def check_census_symmetry(n: int) -> VerificationReport:
    """Census counts are invariant under reverse complement of the descent
    set, and (at recursion scale) the census and the single-mask counter
    both match a tally over the enumeration."""
    start = time.perf_counter()
    census = build_census(n)
    violations: list[str] = []
    tally = None
    if n <= CAPACITY["lemma recursion agreement"]:
        tally = [0] * len(census)
        for perm in enumerate_av132(n):
            tally[descent_mask(perm)] += 1
    for mask, count in enumerate(census):
        partner = reverse_complement_mask(n, mask)
        if count != census[partner]:
            note_violation(
                violations,
                f"count {count} at {format_descent_set(mask)} != "
                f"count {census[partner]} at {format_descent_set(partner)}",
            )
        if tally is not None:
            for name, value in ("census", count), ("counter", count_by_descent_set(n, mask)):
                if value != tally[mask]:
                    note_violation(
                        violations,
                        f"{name} disagrees with enumeration at {format_descent_set(mask)}",
                    )
    if sum(census) != catalan(n):
        note_violation(violations, f"census total {sum(census)} != catalan({n})")
    return VerificationReport(
        "lemma", n, len(census), tuple(violations), time.perf_counter() - start
    )


def check_sperner_suite(n: int) -> list[VerificationReport]:
    """Three reports: width equals the largest rank size at n; the
    k-antichain numbers equal top-k rank sums at min(n, 6) for every k;
    a maximum antichain of the descent poset stays an antichain of the
    refinement poset after pulling back through the bijection, at
    min(n, 7)."""
    reports = []

    start = time.perf_counter()
    violations: list[str] = []
    poset = build_descent_poset(n)
    width = max_antichain(poset)
    largest_rank = max(poset.rank_sizes())
    if width != largest_rank:
        note_violation(violations, f"width {width} != largest rank size {largest_rank}")
    reports.append(
        VerificationReport(
            "sperner-width", n, poset.size, tuple(violations), time.perf_counter() - start
        )
    )

    dk_n = min(n, CAPACITY["sperner-dk"])
    start = time.perf_counter()
    violations = []
    dk_poset = build_descent_poset(dk_n)
    for k in range(1, dk_n + 1):
        if not check_k_sperner(dk_poset, k):
            note_violation(violations, f"union of {k} antichains misses the top-{k} rank sum")
    reports.append(
        VerificationReport(
            "sperner-dk", dk_n, dk_n, tuple(violations), time.perf_counter() - start
        )
    )

    transfer_n = min(n, CAPACITY["sperner-transfer"])
    start = time.perf_counter()
    violations = []
    p_poset = build_descent_poset(transfer_n)
    q_poset = build_refinement_poset(transfer_n)
    q_index = {q.blocks: i for i, q in enumerate(q_poset.elements)}
    mapped = [
        q_index[perm_to_ncp(p_poset.elements[i]).blocks]
        for i in max_antichain_elements(p_poset)
    ]
    examined = 0
    for position, a in enumerate(mapped):
        for b in mapped[position + 1 :]:
            examined += 1
            # a != b here since the pulled-back images are distinct
            if q_poset.leq(a, b) or q_poset.leq(b, a):
                note_violation(
                    violations,
                    f"images {q_poset.label(a)} and {q_poset.label(b)} are comparable",
                )
    reports.append(
        VerificationReport(
            "sperner-transfer",
            transfer_n,
            examined,
            tuple(violations),
            time.perf_counter() - start,
        )
    )
    return reports


#: Each named check, in the order the "all" suite runs them; the cap of
#: check `name` is CAPACITY["check " + name].  sperner yields three reports.
CHECKS = {
    "coarsening": check_coarsening,
    "ranks": check_rank_statistics,
    "lemma": check_census_symmetry,
    "selfdual": check_self_duality,
    "sperner": check_sperner_suite,
}


def run_checks(
    names: Sequence[str], n: int, clamp: bool = False
) -> list[VerificationReport]:
    """Run named checks at ground size n.

    With clamp=False a request beyond a check's cap raises a capacity
    error; with clamp=True (the "all" suite) each check runs at the
    largest size it supports, at most n.
    """
    reports: list[VerificationReport] = []
    for name in names:
        check = CHECKS.get(name)
        if check is None:
            raise ValueError(f"unknown check {name!r}")
        operation = "check " + name
        use = min(n, CAPACITY[operation]) if clamp else n
        check_capacity(operation, use)
        result = check(use)
        reports.extend(result if isinstance(result, list) else [result])
    return reports
