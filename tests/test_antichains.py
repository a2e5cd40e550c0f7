import random
import sys

import pytest

import support
from catalan_posets import antichains
from catalan_posets.antichains import (
    chain_cover_profile,
    hopcroft_karp,
    max_antichain,
    max_antichain_elements,
)
from catalan_posets.poset import GradedPoset, build_descent_poset, build_refinement_poset
from catalan_posets.verify import check_sperner_dk, narayana


def both_posets(n):
    return build_descent_poset(n), build_refinement_poset(n)


def k_antichain_union(poset, k):
    """Largest union of k antichains, read off the chain cover profile the
    way check_sperner_dk reads it."""
    return sum(min(part, k) for part in chain_cover_profile(poset))


def test_hopcroft_karp_tiny():
    # left 0 sees right {0,1}, left 1 sees right {0}: perfect matching
    match_left, match_right, _, _ = hopcroft_karp([0b11, 0b01], 2)
    assert sorted(match_left) == [0, 1]
    for u, v in enumerate(match_left):
        assert match_right[v] == u
    # forced collision: both lefts see only right 0
    match_left, _, _, _ = hopcroft_karp([0b01, 0b01], 1)
    assert sum(1 for v in match_left if v != -1) == 1


def path_graph(size):
    """Left u sees right u and u + 1, the last left sees right 0: after the
    greedy pass the only augmenting path runs through every vertex."""
    return [(1 << u) | (1 << (u + 1)) for u in range(size - 1)] + [1]


def checked_matching_size(adjacency, right_size, start=None):
    """Size of hopcroft_karp's matching after checking it edge by edge."""
    match_left, match_right, _, _ = hopcroft_karp(adjacency, right_size, start)
    size = 0
    for u, v in enumerate(match_left):
        if v != -1:
            assert adjacency[u] >> v & 1
            assert match_right[v] == u
            size += 1
    assert sum(1 for u in match_right if u != -1) == size
    return size


def test_hopcroft_karp_long_augmenting_path_needs_no_recursion():
    # a 5000-vertex augmenting path at the default recursion limit
    size = 5000
    assert size > sys.getrecursionlimit()
    assert checked_matching_size(path_graph(size), size) == size


def random_bipartite(rng, left_size, right_size, density):
    return [
        sum(1 << v for v in range(right_size) if rng.random() < density)
        for _ in range(left_size)
    ]


def bipartite_inputs():
    rng = random.Random(20261018)
    for _ in range(300):
        left_size, right_size = rng.randrange(13), rng.randrange(13)
        yield random_bipartite(rng, left_size, right_size, rng.random()), right_size
    yield random_bipartite(rng, 200, 150, 0.02), 150
    yield path_graph(300), 300
    for n in range(1, 8):
        for poset in both_posets(n):
            strict = [row & ~(1 << i) for i, row in enumerate(poset.leq_rows)]
            yield strict, poset.size


def test_matching_size_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    for adjacency, right_size in bipartite_inputs():
        graph = nx.Graph()
        left = [("left", u) for u in range(len(adjacency))]
        graph.add_nodes_from(left)
        graph.add_nodes_from(("right", v) for v in range(right_size))
        graph.add_edges_from(
            (("left", u), ("right", v))
            for u, row in enumerate(adjacency)
            for v in range(right_size)
            if row >> v & 1
        )
        expected = len(nx.bipartite.hopcroft_karp_matching(graph, top_nodes=left)) // 2
        assert checked_matching_size(adjacency, right_size) == expected


def test_hopcroft_karp_grows_any_starting_matching_to_a_maximum():
    rng = random.Random(17)
    for adjacency, right_size in bipartite_inputs():
        # a random part of a maximum matching, as a warm start
        best, _, _, _ = hopcroft_karp(adjacency, right_size)
        start = [v if rng.random() < 0.5 else -1 for v in best]
        size = checked_matching_size(adjacency, right_size, start)
        assert size == sum(1 for v in best if v != -1)
        # augmenting paths keep every matched left vertex matched
        grown, _, _, _ = hopcroft_karp(adjacency, right_size, start)
        assert all(g != -1 for s, g in zip(start, grown) if s != -1)


def test_last_search_reaches_a_konig_cover():
    # the left vertices the last search missed and the right ones it
    # reached cover every edge, and they are as many as the matched pairs
    rng = random.Random(19)
    for adjacency, right_size in bipartite_inputs():
        best, _, _, _ = hopcroft_karp(adjacency, right_size)
        for start in None, [v if rng.random() < 0.5 else -1 for v in best]:
            match_left, _, reached_left, reached_right = hopcroft_karp(
                adjacency, right_size, start
            )
            missed_left = ((1 << len(adjacency)) - 1) & ~reached_left
            assert reached_right < 1 << right_size
            for u, row in enumerate(adjacency):
                assert missed_left >> u & 1 or not row & ~reached_right
            matched = sum(1 for v in match_left if v != -1)
            assert missed_left.bit_count() + reached_right.bit_count() == matched


def test_hopcroft_karp_rejects_a_start_that_is_not_a_matching():
    adjacency = [0b01, 0b11]
    for start in ([1, -1], [0, 0], [-1], [-1, -1, -1]):
        with pytest.raises(ValueError):
            hopcroft_karp(adjacency, 2, start)
    # the one augmenting path re-routes the starting pair; the last search
    # then starts from no free left vertex and reaches nothing
    assert hopcroft_karp(adjacency, 2, [-1, 0]) == ([0, 1], [0, 1], 0, 0)


def test_width_matches_subset_bruteforce():
    for n in range(1, 5):
        for poset in both_posets(n):
            assert max_antichain(poset) == support.brute_width(poset)


def test_width_is_max_narayana():
    for n in range(1, 9):
        expected = max(narayana(n, k) for k in range(1, n + 1))
        p, q = both_posets(n)
        assert max_antichain(p) == expected
        assert max_antichain(q) == expected


def test_max_antichain_elements_certified():
    for n in range(1, 8):
        for poset in both_posets(n):
            chosen = max_antichain_elements(poset)
            assert len(chosen) == len(set(chosen)) == max_antichain(poset)
            for a in chosen:
                for b in chosen:
                    if a != b:
                        assert not support.leq(poset, a, b)


def test_certificate_rejects_a_matching_that_is_not_maximum(monkeypatch):
    # with one pair of a maximum matching dropped, one more chain starts
    # than any antichain can meet
    def drop_one_pair(adjacency, right_size, start=None):
        match_left, match_right, *reached = hopcroft_karp(adjacency, right_size, start)
        u, v = next((u, v) for u, v in enumerate(match_left) if v != -1)
        match_left[u] = match_right[v] = -1
        return match_left, match_right, *reached

    monkeypatch.setattr(antichains, "hopcroft_karp", drop_one_pair)
    with pytest.raises(RuntimeError, match="antichain size disagrees with the matching bound"):
        max_antichain(build_descent_poset(4))


def test_certificate_rejects_a_listing_that_is_not_an_antichain(monkeypatch):
    # P2 is the chain 12 < 21, whose certified antichain is {21}; an
    # iter_bits that lists each bit one place low names 12 in its place
    monkeypatch.setattr(
        antichains, "iter_bits", lambda mask: [j - 1 for j in support.iter_bits(mask)]
    )
    with pytest.raises(RuntimeError, match="selected elements are not pairwise incomparable"):
        max_antichain(build_descent_poset(2))


def test_profile_is_a_partition_of_the_size():
    for n in range(1, 8):
        for poset in both_posets(n):
            profile = chain_cover_profile(poset)
            assert sum(profile) == poset.size
            assert all(a >= b for a, b in zip(profile, profile[1:]))
            assert all(part >= 1 for part in profile)
            # number of parts is the width, longest part the height
            assert len(profile) == max_antichain(poset)
            assert profile[0] == n


def test_profile_golden_small():
    assert chain_cover_profile(build_descent_poset(3)) == (3, 1, 1)
    assert chain_cover_profile(build_descent_poset(4)) == (4, 2, 2, 2, 2, 2)
    assert chain_cover_profile(build_refinement_poset(4)) == (4, 2, 2, 2, 2, 2)


def random_graded_poset(rng, size, density):
    """Transitive closure of a random DAG on shuffled labels, ranked by
    longest chain from below."""
    up = [1 << i for i in range(size)]
    for i in reversed(range(size)):
        for j in range(i + 1, size):
            if rng.random() < density:
                up[i] |= up[j]
    ranks = [0] * size
    for i in range(size):
        for j in support.iter_bits(up[i] & ~(1 << i)):
            ranks[j] = max(ranks[j], ranks[i] + 1)
    label = rng.sample(range(size), size)
    leq_rows = [0] * size
    shuffled_ranks = [0] * size
    for i in range(size):
        leq_rows[label[i]] = sum(1 << label[j] for j in support.iter_bits(up[i]))
        shuffled_ranks[label[i]] = ranks[i]
    covers = support.transitive_reduction(leq_rows, shuffled_ranks)
    return GradedPoset(
        "random", size, tuple(range(size)), tuple(shuffled_ranks), tuple(leq_rows), covers
    )


def test_profile_matches_one_path_per_chain_oracle_on_both_families():
    for n in range(1, 8):
        for poset in both_posets(n):
            assert chain_cover_profile.__wrapped__(
                poset
            ) == support.successive_shortest_profile(poset)


def test_profile_matches_one_path_per_chain_oracle_on_random_posets():
    rng = random.Random(7)
    for _ in range(300):
        poset = random_graded_poset(rng, rng.randint(1, 60), rng.choice((0.03, 0.1, 0.25, 0.5, 0.9)))
        assert chain_cover_profile.__wrapped__(
            poset
        ) == support.successive_shortest_profile(poset)


def test_layered_certificate_matches_per_vertex_oracle(monkeypatch):
    # every certificate a profile asks for, on the poset and on each
    # P x C_k, against the one-vertex-at-a-time search on the same matching
    layered = antichains._certified_antichain
    checked = []

    def compared(strict, start=None):
        antichain, match_left = layered(strict, start)
        assert antichain == support.per_vertex_antichain(strict, match_left)
        checked.append(len(strict))
        return antichain, match_left

    monkeypatch.setattr(antichains, "_certified_antichain", compared)
    rng = random.Random(18)
    posets = [poset for n in range(1, 9) for poset in both_posets(n)]
    posets += [
        random_graded_poset(rng, rng.randint(1, 60), rng.choice((0.03, 0.1, 0.25, 0.5, 0.9)))
        for _ in range(100)
    ]
    for poset in posets:
        checked.clear()
        max_antichain(poset)
        chain_cover_profile.__wrapped__(poset)
        assert checked[0] == poset.size and checked[1] == poset.size


def test_profile_is_the_conjugate_of_the_rank_sizes_through_eight():
    # the Greene-Kleitman partition of a strongly Sperner poset, checked
    # element by element on P and Q at every n through 8
    for n in range(1, 9):
        for poset in both_posets(n):
            sizes = poset.rank_sizes()
            conjugate = tuple(sum(1 for s in sizes if s > k) for k in range(max(sizes)))
            assert chain_cover_profile(poset) == conjugate, (poset.family, n)


def test_profile_ignores_ranks_that_do_not_grade_the_order():
    # the profile reads the order rows alone, so wrong ranks change nothing
    p4 = build_descent_poset(4)
    reversed_ranks = tuple(p4.height - 1 - r for r in p4.ranks)
    assert chain_cover_profile(p4._replace(ranks=reversed_ranks)) == (4, 2, 2, 2, 2, 2)
    # a 3-chain listed top first: element 0 is the top, 2 the bottom
    chain_rows = (0b001, 0b011, 0b111)
    chain_covers = (0, 0b001, 0b010)
    upside_down = GradedPoset("chain", 3, (0, 1, 2), (0, 1, 2), chain_rows, chain_covers)
    assert chain_cover_profile(upside_down) == (3,)
    assert chain_cover_profile(upside_down._replace(ranks=(2, 1, 0))) == (3,)


def test_profile_rejects_increments_that_are_not_a_partition(monkeypatch):
    # P4's k-antichain unions are 6, 12, 13: a stale antichain for k = 2
    # gains nothing, and a cut one for k = 1 makes k = 2 gain more
    certified = antichains._certified_antichain
    for fault in "stale", "cut":
        found = []

        def faulty(strict, start=None):
            antichain, match_left = certified(strict, start)
            if fault == "stale" and len(found) == 1:
                antichain = found[0]
            elif fault == "cut" and not found:
                antichain = antichain[:2]
            found.append(antichain)
            return antichain, match_left

        monkeypatch.setattr(antichains, "_certified_antichain", faulty)
        with pytest.raises(RuntimeError, match="increments are not a nonincreasing partition"):
            chain_cover_profile.__wrapped__(build_descent_poset(4))
        assert len(found) == 2, fault


def test_chain_union_sums_match_maximal_chain_bruteforce():
    for n in range(1, 5):
        for poset in both_posets(n):
            profile = chain_cover_profile(poset)
            for k in range(1, len(profile) + 1):
                assert sum(profile[:k]) == support.brute_max_k_chain_union(poset, k)


def antichain_union_inputs():
    for n in range(1, 5):
        for poset in both_posets(n):
            yield poset, n + 1
    # posets with no Catalan structure, every k up to the size
    rng = random.Random(15)
    for _ in range(40):
        size = rng.randint(1, 12)
        yield random_graded_poset(rng, size, rng.choice((0.1, 0.25, 0.5, 0.9))), size


def test_antichain_unions_match_subset_bruteforce():
    for poset, top in antichain_union_inputs():
        for k in range(1, top + 1):
            assert k_antichain_union(poset, k) == support.brute_max_k_antichain_union(poset, k)


def test_antichain_union_goldens_size_four():
    poset = build_descent_poset(4)
    assert [k_antichain_union(poset, k) for k in (1, 2, 3, 4)] == [6, 12, 13, 14]


def test_antichain_union_saturates_at_height():
    for poset in both_posets(5):
        assert k_antichain_union(poset, 5) == poset.size
        assert k_antichain_union(poset, 50) == poset.size


def test_union_bound_never_exceeds_rank_sum():
    # k antichains can't beat the k largest rank sizes being achieved
    # exactly; equality is the strong Sperner property
    for n in range(1, 7):
        for poset in both_posets(n):
            ranked = sorted(poset.rank_sizes(), reverse=True)
            for k in range(1, n + 1):
                assert k_antichain_union(poset, k) == sum(ranked[:k])
        assert check_sperner_dk(n).passed
