"""Order reversal between and within the two posets.

Coarsening a noncrossing partition strictly shrinks the descent set of its
image permutation, so the bijection turns refinement upside down.  The
descent order is also its own upside-down image: pairing each descent
class with its reverse-complement class, and members in lexicographic
order within classes, reverses every comparison.
"""

from __future__ import annotations

import time

from .bijection import partition_descent_set
from .descent_sets import reverse_complement_mask
from .permutations import descent_mask
from .poset import GradedPoset, build_descent_poset, build_refinement_poset, iter_bits
from .reports import VerificationReport, note_violation


def check_coarsening(n: int) -> VerificationReport:
    """Test, over every strict refinement pair a < b, that the descent set
    of b's image is properly inside that of a's image."""
    start = time.perf_counter()
    q_poset = build_refinement_poset(n)
    fmask = [partition_descent_set(q).mask for q in q_poset.elements]
    examined = 0
    violations: list[str] = []
    for i in range(q_poset.size):
        fi = fmask[i]
        strict = q_poset.leq_rows[i] & ~(1 << i)
        for j in iter_bits(strict):
            examined += 1
            fj = fmask[j]
            if fj == fi or fj & fi != fj:
                note_violation(
                    violations,
                    f"{q_poset.label(i)} < {q_poset.label(j)}: "
                    f"image descent sets do not properly shrink",
                )
    return VerificationReport(
        "coarsening", n, examined, tuple(violations), time.perf_counter() - start
    )


def construct_antiautomorphism(poset: GradedPoset) -> tuple[int, ...]:
    """Build the order-reversing pairing of the descent poset, as the tuple
    whose entry i is the index paired with element i.

    Elements are grouped by descent set; the class of S is matched to the
    class of the reverse complement of S, members paired by lexicographic
    rank.  A class size mismatch would falsify the counting symmetry the
    pairing rests on, so it raises rather than returning a partial map.

    >>> construct_antiautomorphism(build_descent_poset(4))[0]   # 1234 pairs with 4321
    13
    """
    if poset.family != "P":
        raise ValueError("the pairing is defined on the descent poset")
    classes: dict[int, list[int]] = {}
    for i, p in enumerate(poset.elements):
        classes.setdefault(descent_mask(p), []).append(i)
    mapping = [0] * poset.size
    for mask, members in classes.items():
        partner = reverse_complement_mask(poset.n, mask)
        targets = classes.get(partner, [])
        if len(targets) != len(members):
            raise RuntimeError(
                f"descent classes of masks {mask:#b} and {partner:#b} "
                f"have sizes {len(members)} and {len(targets)} for n={poset.n}"
            )
        for source, target in zip(members, targets):
            mapping[source] = target
    return tuple(mapping)


def check_self_duality(n: int) -> VerificationReport:
    """Construct the reverse-complement pairing on the descent poset and
    test order reversal over all ordered element pairs."""
    start = time.perf_counter()
    poset = build_descent_poset(n)
    violations: list[str] = []
    examined = 0
    try:
        mapping = construct_antiautomorphism(poset)
    except RuntimeError as exc:
        return VerificationReport(
            "selfdual", n, 0, (str(exc),), time.perf_counter() - start
        )
    if any(mapping[j] != i for i, j in enumerate(mapping)):
        violations.append("pairing is not an involution")
    for i in range(poset.size):
        mi = mapping[i]
        for j in range(poset.size):
            examined += 1
            if poset.leq(i, j) != poset.leq(mapping[j], mi):
                note_violation(
                    violations,
                    f"({poset.label(i)}, {poset.label(j)}) breaks order reversal",
                )
    return VerificationReport(
        "selfdual", n, examined, tuple(violations), time.perf_counter() - start
    )
