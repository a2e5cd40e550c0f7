"""Order reversal between and within the two posets.

Coarsening a noncrossing partition strictly shrinks the descent set of its
image permutation, so the bijection turns refinement upside down.  The
descent order is also its own upside-down image: pairing each descent
class with its reverse-complement class, and members in lexicographic
order within classes, reverses every comparison.

Both checks decide all ordered pairs through one subset-sum table over the
descent masks: elements are filed by the complement of a descent set, so
a superset sum collects, for each mask, the elements whose descent set
lies inside it, and each up-row of a poset is compared with one entry.
"""

from __future__ import annotations

import time

from .bijection import image_descent_mask
from .permutations import reverse_complement_mask
from .poset import (
    GradedPoset,
    _descent_masks,
    build_descent_poset,
    build_refinement_poset,
    iter_bits,
    superset_sums,
)
from .reports import VerificationReport, note_violation


def check_coarsening(n: int) -> VerificationReport:
    """Test, over every strict refinement pair a < b, that the descent set
    of b's image is properly inside that of a's image.

    Elements are filed by the complement of their image's descent set, so
    a superset sum over that table collects, for each descent set, the
    elements whose image descent set lies inside it; each strict up-row of
    the refinement poset is tested against one entry.
    """
    start = time.perf_counter()
    q_poset = build_refinement_poset(n)
    full = (1 << (n - 1)) - 1
    fmask = [image_descent_mask(q) for q in q_poset.elements]
    fiber = [0] * (full + 1)
    for j, mask in enumerate(fmask):
        fiber[full ^ mask] |= 1 << j
    inside = superset_sums(fiber, n - 1)
    examined = 0
    violations: list[str] = []
    for i, mask in enumerate(fmask):
        strict = q_poset.leq_rows[i] & ~(1 << i)
        examined += strict.bit_count()
        outside = full ^ mask
        properly_inside = inside[outside] ^ fiber[outside]
        for j in iter_bits(strict & ~properly_inside):
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
    The descent poset on [n] lists enumerate_av132(n) in order, so the
    descent masks come from the table its builder filled.

    >>> construct_antiautomorphism(build_descent_poset(4))[0]   # 1234 pairs with 4321
    13
    """
    if poset.family != "P":
        raise ValueError("the pairing is defined on the descent poset")
    classes: dict[int, list[int]] = {}
    for i, mask in enumerate(_descent_masks(poset.n)):
        classes.setdefault(mask, []).append(i)
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
    test order reversal over all ordered element pairs.

    i <= j must hold exactly when mapping[j] <= mapping[i], so up-row i
    must equal the set of j whose image lies below mapping[i].  In the
    descent poset mapping[j] <= x holds exactly when the descent set of
    mapping[j] lies properly inside that of x, or mapping[j] is x; the
    first set is one entry of a subset-sum table over the image descent
    sets, so no comparable pair is listed.
    """
    start = time.perf_counter()
    poset = build_descent_poset(n)
    violations: list[str] = []
    try:
        mapping = construct_antiautomorphism(poset)
    except RuntimeError as exc:
        return VerificationReport(
            "selfdual", n, 0, (str(exc),), time.perf_counter() - start
        )
    if any(mapping[j] != i for i, j in enumerate(mapping)):
        violations.append("pairing is not an involution")
    full = (1 << (n - 1)) - 1
    masks = _descent_masks(n)
    fiber = [0] * (full + 1)
    preimage = [0] * poset.size
    for j, image in enumerate(mapping):
        bit = 1 << j
        fiber[full ^ masks[image]] |= bit
        preimage[image] |= bit
    inside = superset_sums(fiber, n - 1)
    rows = poset.leq_rows
    for i, image in enumerate(mapping):
        outside = full ^ masks[image]
        # every j with mapping[j] <= image
        image_below = (inside[outside] ^ fiber[outside]) | preimage[image]
        for j in iter_bits(rows[i] ^ image_below):
            note_violation(
                violations,
                f"({poset.label(i)}, {poset.label(j)}) breaks order reversal",
            )
    return VerificationReport(
        "selfdual", n, poset.size**2, tuple(violations), time.perf_counter() - start
    )
