"""Acceptance suite: ten criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
happen; without -s pytest shows them for failing criteria only.
"""

import support
from catalan_posets.antichains import (
    chain_cover_profile,
    max_antichain,
    max_antichain_elements,
)
from catalan_posets.bijection import image_descent_mask, ncp_to_perm, perm_to_ncp
from catalan_posets.census import build_census, count_by_descent_set
from catalan_posets.partitions import SetPartition, enumerate_ncp, parse_partition
from catalan_posets.permutations import (
    descent_mask,
    enumerate_av132,
)
from catalan_posets.poset import (
    build_descent_poset,
    build_refinement_poset,
    poset_to_dot,
)
from catalan_posets.verify import (
    catalan,
    check_coarsening,
    check_self_duality,
    narayana,
)

SIZE_FOUR_LABELS = {
    "1234", "2134", "2314", "2341", "3124", "3214", "3241",
    "3412", "3421", "4123", "4213", "4231", "4312", "4321",
}


def conclude(number, label, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {number:2d} ({label}): {status}")
    assert not problems, f"criterion {number} ({label}): " + "; ".join(problems)


def test_criterion_01_bijection_goldens():
    problems = []
    q = parse_partition("{1,4,6}/{2,3}/{5}/{7,8}")
    if ncp_to_perm(q) != (6, 4, 5, 7, 3, 8, 1, 2):
        problems.append("forward golden image wrong")
    if perm_to_ncp((6, 4, 5, 7, 3, 8, 1, 2)) != q:
        problems.append("backward golden image wrong")
    for n in range(1, 13):
        one_block = SetPartition(n, (tuple(range(1, n + 1)),))
        singletons = SetPartition(n, tuple((i,) for i in range(1, n + 1)))
        if ncp_to_perm(one_block) != tuple(range(1, n + 1)):
            problems.append(f"one block at {n} misses the identity")
        if ncp_to_perm(singletons) != tuple(range(n, 0, -1)):
            problems.append(f"singletons at {n} miss the reversal")
    conclude(1, "bijection goldens", problems)


def test_criterion_02_catalan_counts():
    problems = []
    for n in range(1, 13):
        expected = catalan(n)
        av = sum(1 for _ in enumerate_av132(n))
        nc = sum(1 for _ in enumerate_ncp(n))
        if av != expected:
            problems.append(f"av132 count at {n}: {av} != {expected}")
        if nc != expected:
            problems.append(f"noncrossing count at {n}: {nc} != {expected}")
    if catalan(12) != 208012:
        problems.append("catalan(12) is not 208012")
    conclude(2, "catalan counts to 12", problems)


def test_criterion_03_descent_formula():
    problems = []
    for n in range(1, 11):
        for q in enumerate_ncp(n):
            if descent_mask(ncp_to_perm(q)) != image_descent_mask(q):
                problems.append(f"descent mismatch at {q}")
                break
    conclude(3, "descents are shifted block minima to 10", problems)


def test_criterion_04_size_four_poset():
    problems = []
    poset = build_descent_poset(4)
    if poset.size != 14:
        problems.append(f"size {poset.size} != 14")
    if poset.rank_sizes() != (1, 6, 6, 1):
        problems.append(f"rank sizes {poset.rank_sizes()}")
    bottoms = [poset.label(i) for i in range(poset.size) if poset.ranks[i] == 0]
    tops = [poset.label(i) for i in range(poset.size) if poset.ranks[i] == 3]
    if bottoms != ["1234"]:
        problems.append(f"bottom {bottoms}")
    if tops != ["4321"]:
        problems.append(f"top {tops}")
    nodes = set()
    for line in poset_to_dot(poset).splitlines():
        line = line.strip()
        if line.startswith("{ rank=same;"):
            nodes.update(
                part.strip().strip('";')
                for part in line[len("{ rank=same;") : -1].split(";")
                if part.strip()
            )
    if nodes != SIZE_FOUR_LABELS:
        problems.append(f"node set differs: {sorted(nodes ^ SIZE_FOUR_LABELS)}")
    conclude(4, "size-4 poset reproduction", problems)


def test_criterion_05_rank_statistics():
    problems = []
    for n in range(1, 10):
        expected = tuple(narayana(n, k) for k in range(1, n + 1))
        for poset in (build_descent_poset(n), build_refinement_poset(n)):
            got = poset.rank_sizes()
            if got != expected:
                problems.append(f"{poset.family} ranks at {n}: {got}")
        if expected != expected[::-1]:
            problems.append(f"rank vector at {n} not palindromic")
        rises = [b - a for a, b in zip(expected, expected[1:])]
        if any(a < 0 < b for a, b in zip(rises, rises[1:])):
            problems.append(f"rank vector at {n} not unimodal")
    conclude(5, "Narayana rank statistics to 9", problems)


def test_criterion_06_coarsening():
    problems = []
    for n in range(1, 10):
        report = check_coarsening(n)
        if not report.passed:
            problems.extend(report.violations)
    conclude(6, "refinement strictly shrinks descents to 9", problems)


def test_criterion_07_census_symmetry():
    problems = []
    for n in range(1, 13):
        for mask in range(1 << (n - 1)):
            partner = support.reverse_complement_mask(n, mask)
            if count_by_descent_set(n, mask) != count_by_descent_set(n, partner):
                problems.append(f"asymmetric count at n={n} mask={mask}")
    for n in range(1, 10):
        census = build_census(n)
        for mask in range(1 << (n - 1)):
            if count_by_descent_set(n, mask) != census[mask]:
                problems.append(f"counter disagrees with census at n={n} mask={mask}")
    conclude(7, "count symmetry to 12, census agreement to 9", problems)


def test_criterion_08_self_duality():
    problems = []
    for n in range(1, 10):
        report = check_self_duality(n)
        if not report.passed:
            problems.extend(report.violations)
        if report.examined != catalan(n) ** 2:
            problems.append(f"self-duality at {n} did not examine every ordered pair")
    conclude(8, "self-duality verified to 9", problems)


def test_criterion_09_sperner_suite():
    problems = []
    for n in range(1, 9):
        poset = build_descent_poset(n)
        expected = max(narayana(n, k) for k in range(1, n + 1))
        if max_antichain(poset) != expected:
            problems.append(f"width at {n} is not {expected}")
    for n in range(1, 7):
        poset = build_descent_poset(n)
        profile = chain_cover_profile(poset)
        ranked = sorted(poset.rank_sizes(), reverse=True)
        for k in range(1, n + 1):
            if sum(min(part, k) for part in profile) != sum(ranked[:k]):
                problems.append(f"antichain-union bound missed at n={n} k={k}")
    for n in range(1, 8):
        p_poset = build_descent_poset(n)
        q_poset = build_refinement_poset(n)
        index = {q.blocks: i for i, q in enumerate(q_poset.elements)}
        mapped = [
            index[perm_to_ncp(p_poset.elements[i]).blocks]
            for i in max_antichain_elements(p_poset)
        ]
        for pos, a in enumerate(mapped):
            for b in mapped[pos + 1 :]:
                if a == b or support.below(q_poset, a, b) or support.below(q_poset, b, a):
                    problems.append(f"transferred antichain comparable at n={n}")
    conclude(9, "Sperner suite (width 8, unions 6, transfer 7)", problems)


def test_criterion_10_oracle_cross_checks():
    from itertools import permutations as all_perms

    problems = []
    for n in range(1, 8):
        for p in all_perms(range(1, n + 1)):
            if support.rejects(perm_to_ncp, p) != support.contains_132(p):
                problems.append(f"avoidance scan wrong on {p}")
    # the recursive definition pins down the bijection; a round trip would not
    for n in range(1, 11):
        for q in enumerate_ncp(n):
            p = ncp_to_perm(q)
            if p != support.recursive_f(q.blocks, n) or perm_to_ncp(p) != q:
                problems.append(f"scan or round trip fails at {q}")
                break
        for p in enumerate_av132(n):
            q = perm_to_ncp(p)
            if q.blocks != support.recursive_finv(p) or ncp_to_perm(q) != p:
                problems.append(f"scan or round trip fails at {p}")
                break
    conclude(10, "independent oracles agree", problems)
