import contextlib
import json
import math
import random
import tracemalloc

import pytest

import support
from catalan_posets import poset as poset_module
from catalan_posets.bijection import ncp_to_perm
from catalan_posets.census import build_census
from catalan_posets.cli import main
from catalan_posets.errors import CAPACITY, CapacityError
from catalan_posets.partitions import (
    SetPartition,
    enumerate_ncp,
    format_partition,
    parse_partition,
)
from catalan_posets.permutations import descent_mask, enumerate_av132, format_permutation
from catalan_posets.poset import (
    GradedPoset,
    _labels,
    build_descent_poset,
    build_refinement_poset,
    iter_bits,
    poset_to_dot,
    poset_to_json,
    refinement_rows,
)
from catalan_posets.verify import narayana

SIZE_FOUR_LABELS = {
    "1234",
    "2134",
    "2314",
    "2341",
    "3124",
    "3214",
    "3241",
    "3412",
    "3421",
    "4123",
    "4213",
    "4231",
    "4312",
    "4321",
}


def both_posets(n):
    return build_descent_poset(n), build_refinement_poset(n)


def leq_by_label(poset, lower, upper):
    labels = [poset.label(i) for i in range(poset.size)]
    return support.leq(poset, labels.index(lower), labels.index(upper))


def test_descent_leq_examples():
    p = build_descent_poset(4)
    assert leq_by_label(p, "2134", "3214")  # {1} inside {1,2}
    assert leq_by_label(p, "2134", "2134")  # reflexive
    # strictly below needs strictly smaller descent set: distinct
    # permutations sharing a descent set are incomparable
    assert not leq_by_label(p, "2134", "3124")
    assert not leq_by_label(p, "3124", "2134")
    # {2} is properly inside {1,2}
    assert leq_by_label(p, "2314", "4213")


def test_refinement_leq_examples():
    q = build_refinement_poset(3)
    assert leq_by_label(q, "{1}/{2}/{3}", "{1,2,3}")
    assert not leq_by_label(q, "{1,2,3}", "{1}/{2}/{3}")
    assert leq_by_label(q, "{1}/{2}/{3}", "{1}/{2}/{3}")
    a, b = "{1,2}/{3}", "{1,3}/{2}"
    assert not leq_by_label(q, a, b) and not leq_by_label(q, b, a)


def test_elements_listed_in_enumeration_order():
    p, q = both_posets(5)
    assert [p.label(i) for i in range(p.size)] == [
        format_permutation(x) for x in enumerate_av132(5)
    ]
    assert [q.label(i) for i in range(q.size)] == [
        format_partition(x) for x in enumerate_ncp(5)
    ]


def test_ranks_match_statistic():
    p, q = both_posets(6)
    for i, perm in enumerate(enumerate_av132(6)):
        assert p.ranks[i] == descent_mask(perm).bit_count()
    for i, part in enumerate(enumerate_ncp(6)):
        assert q.ranks[i] == 6 - len(part.blocks)


def test_poset_axioms():
    for n in range(1, 9):
        for poset in both_posets(n):
            size = poset.size
            for i in range(size):
                row = poset.leq_rows[i]
                assert row >> i & 1  # reflexive
                probe = row
                while probe:
                    low = probe & -probe
                    j = low.bit_length() - 1
                    probe ^= low
                    if i != j:
                        assert not poset.leq_rows[j] >> i & 1  # antisymmetric
                    # transitive: everything above j is above i
                    assert poset.leq_rows[j] & ~row == 0


def test_matrix_matches_predicate():
    for n in range(1, 7):
        p, q = both_posets(n)
        masks = [support.brute_descent_mask(x) for x in enumerate_av132(n)]
        for i in range(p.size):
            for j in range(p.size):
                proper = masks[i] != masks[j] and masks[i] & ~masks[j] == 0
                assert support.leq(p, i, j) == (i == j or proper)
        parts = [x.blocks for x in enumerate_ncp(n)]
        for i in range(q.size):
            for j in range(q.size):
                assert support.leq(q, i, j) == support.brute_refines(parts[i], parts[j])


def test_covers_match_generic_reduction():
    # the reduction does not assume that ranks grade the order, so it
    # checks the one-rank-up cover rule at every size the builders accept
    for n in range(1, 10):
        for poset in both_posets(n):
            reduced = support.transitive_reduction(poset.leq_rows, poset.ranks)
            assert tuple(reduced) == tuple(poset.cover_rows)


def test_refinement_rows_on_shuffled_sub_lists():
    # sperner-transfer's case: a few partitions, crossing ones allowed,
    # in no particular order, not a whole family
    rng = random.Random(2301)
    for n in range(1, 7):
        family = list(support.brute_set_partitions(n))
        for _ in range(20):
            sub = rng.sample(family, rng.randint(1, min(len(family), 40)))
            # repeats share one holder row, so each copy's bit must be set
            # in every row above it
            sub += rng.choices(sub, k=rng.randint(0, 5))
            rng.shuffle(sub)
            rows = refinement_rows(n, [SetPartition(n, blocks) for blocks in sub])
            for k, row in enumerate(rows):
                assert row >> len(sub) == 0
                for j in range(len(sub)):
                    assert (row >> j & 1) == support.brute_refines(sub[k], sub[j])


def test_descent_classes_share_one_cover_row():
    # whether j covers i in P depends only on the two descent sets, so the
    # 4,862 elements of P9 hold at most one cover row per descent set
    p = build_descent_poset(9)
    assert len({id(row) for row in p.cover_rows}) <= 1 << 8


def test_cover_edges_step_one_rank():
    for n in range(1, 9):
        for poset in both_posets(n):
            top = max(poset.ranks)
            has_up = [False] * poset.size
            has_down = [False] * poset.size
            for lower, upper in support.cover_pairs(poset):
                assert poset.ranks[upper] == poset.ranks[lower] + 1
                assert support.leq(poset, lower, upper)
                has_up[lower] = True
                has_down[upper] = True
            for i in range(poset.size):
                assert has_up[i] == (poset.ranks[i] < top)
                assert has_down[i] == (poset.ranks[i] > 0)


def test_cover_counts_size_four():
    p, q = both_posets(4)
    assert len(support.cover_pairs(p)) == 38
    assert len(support.cover_pairs(q)) == 28


def test_rank_sizes_are_narayana():
    for n in range(1, 10):
        expected = tuple(narayana(n, k) for k in range(1, n + 1))
        p, q = both_posets(n)
        assert p.rank_sizes() == expected
        assert q.rank_sizes() == expected


@pytest.mark.parametrize("n", range(1, 10))
def test_refinement_poset_matches_reference_builder(n):
    # refinement_rows and the one-rank-up cover rule against the former
    # tuple-merge builder and its upward closure
    elements, ranks, leq_rows, cover_rows = support.reference_refinement_poset(n)
    q = build_refinement_poset(n)
    assert tuple(x.blocks for x in q.elements) == elements
    assert q.ranks == ranks
    assert q.leq_rows == leq_rows
    assert q.cover_rows == cover_rows


def test_size_four_descent_poset_shape():
    p = build_descent_poset(4)
    assert p.size == 14
    assert p.rank_sizes() == (1, 6, 6, 1)
    bottoms = [i for i in range(p.size) if p.ranks[i] == 0]
    tops = [i for i in range(p.size) if p.ranks[i] == 3]
    assert [p.label(i) for i in bottoms] == ["1234"]
    assert [p.label(i) for i in tops] == ["4321"]
    # bottom below everything, top above everything
    assert all(support.leq(p, bottoms[0], j) for j in range(p.size))
    assert all(support.leq(p, j, tops[0]) for j in range(p.size))


def test_refinement_poset_extremes():
    q = build_refinement_poset(5)
    bottom = [i for i in range(q.size) if q.ranks[i] == 0]
    top = [i for i in range(q.size) if q.ranks[i] == 4]
    assert [q.label(i) for i in bottom] == ["{1}/{2}/{3}/{4}/{5}"]
    assert [q.label(i) for i in top] == ["{1,2,3,4,5}"]


def test_strict_pair_counts_size_four():
    # derived by layer arithmetic: 13 from the bottom, 26 between the
    # middle ranks (one per middle cover), 6 + 6 into the top
    p, q = both_posets(4)
    assert len(support.strict_pairs(p)) == 51
    assert len(support.strict_pairs(q)) == 41


def test_dot_golden_size_three():
    assert poset_to_dot(build_descent_poset(3)) == (
        "digraph P3 {\n"
        "  rankdir=BT;\n"
        '  { rank=same; "123"; }\n'
        '  { rank=same; "213"; "231"; "312"; }\n'
        '  { rank=same; "321"; }\n'
        '  "123" -> "213";\n'
        '  "123" -> "231";\n'
        '  "123" -> "312";\n'
        '  "213" -> "321";\n'
        '  "231" -> "321";\n'
        '  "312" -> "321";\n'
        "}\n"
    )


def test_dot_node_set_size_four():
    dot = poset_to_dot(build_descent_poset(4))
    nodes = set()
    for line in dot.splitlines():
        line = line.strip()
        if line.startswith("{ rank=same;"):
            nodes.update(
                part.strip().strip('";')
                for part in line[len("{ rank=same;") : -1].split(";")
                if part.strip()
            )
    assert nodes == SIZE_FOUR_LABELS


def test_json_round_trip():
    for n in range(1, 6):
        for poset in both_posets(n):
            data = json.loads(poset_to_json(poset))
            assert data["n"] == n
            assert data["family"] == poset.family
            assert data["elements"] == [poset.label(i) for i in range(poset.size)]
            assert data["ranks"] == list(poset.rank_sizes())
            assert sorted(map(tuple, data["covers"])) == sorted(support.cover_pairs(poset))


def test_json_ends_with_newline():
    assert poset_to_json(build_descent_poset(2)).endswith("\n")


def closed_form_covers(family, n):
    """Q has C(2n, n-2) covers; P's order is strict containment of descent
    sets, so its covers are a sum of census products over S and S + {b}."""
    if family == "Q":
        return math.comb(2 * n, n - 2) if n >= 2 else 0
    census = build_census(n)
    return sum(
        census[s] * census[s | 1 << b]
        for s in range(1 << (n - 1))
        for b in range(n - 1)
        if not s >> b & 1
    )


@pytest.mark.parametrize("n", range(1, CAPACITY["poset construction"] + 1))
def test_cover_and_comparable_counts_are_the_closed_forms(n):
    # P's comparable pairs are a sum of census products too
    q_covers = sum(row.bit_count() for row in build_refinement_poset(n).cover_rows)
    assert q_covers == closed_form_covers("Q", n)
    census = build_census(n)
    full = (1 << (n - 1)) - 1
    p = build_descent_poset(n)
    assert sum(row.bit_count() for row in p.cover_rows) == closed_form_covers("P", n)
    # every T properly above S is S plus a nonempty subset of its complement
    above = 0
    for s in range(full + 1):
        rest = extra = full & ~s
        while extra:
            above += census[s] * census[s | extra]
            extra = (extra - 1) & rest
    assert sum(row.bit_count() for row in p.leq_rows) == math.comb(2 * n, n) // (n + 1) + above


@pytest.mark.parametrize("n", range(1, CAPACITY["poset construction"] + 1))
@pytest.mark.parametrize("family", ["P", "Q"])
def test_export_matches_reference_writers(tmp_path, capsys, family, n):
    # n = 1 has no covers, so its JSON carries "covers": []; the cover count
    # is pinned to its closed form, which a wrong census would miss
    poset = (build_descent_poset if family == "P" else build_refinement_poset)(n)
    expected = {
        "json": support.reference_poset_json(poset),
        "dot": support.reference_poset_dot(poset),
    }
    json_text, dot_text = poset_to_json(poset), poset_to_dot(poset)
    assert json_text == expected["json"]
    assert dot_text == expected["dot"]
    covers = closed_form_covers(family, n)
    assert len(json.loads(json_text)["covers"]) == covers
    assert dot_text.count('" -> "') == covers
    for fmt, text in expected.items():
        argv = ["poset", family, "--n", str(n), "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr().out == text
        target = tmp_path / f"out.{fmt}"
        assert main([*argv, "--output", str(target)]) == 0
        assert target.read_bytes() == text.encode()


def test_export_lists_each_row_by_its_whole_value():
    # rows 0 and 2 are equal, with a zero row between them; row 3 differs
    # from them only in its highest bit, which lies past the first 64 bits;
    # rows 4 and 5 share their highest bit, rows 0, 4 and 5 their popcount,
    # and rows 0 to 5 their rank
    size = 70
    rows = [0] * size
    rows[0] = rows[2] = 1 << 64 | 1 << 65
    rows[3] = rows[0] | 1 << 69
    rows[4] = 1 << 64 | 1 << 69
    rows[5] = 1 << 65 | 1 << 69
    ranks = tuple(int(i in (64, 65, 69)) for i in range(size))
    poset = GradedPoset(
        family="hand",
        n=size,
        elements=tuple((i + 1,) for i in range(size)),
        ranks=ranks,
        leq_rows=tuple(row | 1 << i for i, row in enumerate(rows)),
        cover_rows=tuple(rows),
    )
    assert poset_to_json(poset) == support.reference_poset_json(poset)
    assert poset_to_dot(poset) == support.reference_poset_dot(poset)
    assert json.loads(poset_to_json(poset))["covers"] == [
        [0, 64], [0, 65], [2, 64], [2, 65], [3, 64], [3, 65], [3, 69],
        [4, 64], [4, 69], [5, 65], [5, 69],
    ]


def _unordered(family, elements):
    """The antichain on elements: a poset whose labels are all that counts."""
    size = len(elements)
    return GradedPoset(
        family, size, tuple(elements), (0,) * size, tuple(1 << i for i in range(size)), (0,) * size
    )


#: Hand-built posets for _labels.  Their families do not name their element
#: type (tuples under "Q", partitions under "P", both under "hand"), since
#: a label goes by its element's type alone.
HAND_LABELLED = {
    "one-tuples": lambda: _unordered("hand", [(i + 1,) for i in range(70)]),
    "long-tuples": lambda: _unordered(
        "Q", [tuple(range(k, 0, -1)) for k in (10, 11, 12)] + [(2, 1, *range(3, 13))]
    ),
    "shared-blocks": lambda: _unordered(
        "P",
        [
            parse_partition(text)
            for text in (
                "{1,2}/{3}/{4}",
                "{1,2}/{3,4}",
                "{3,4}/{1,2}",
                "{1,3}/{2,4}",
                "{1,12}/{2,3,4,5,6,7,8,9,10,11}",
                "{1,12}/{2,3}/{4,5,6,7,8,9,10,11}",
                "{1}/{2,3}/{4,5,6,7,8,9,10,11}/{12}",
            )
        ],
    ),
    "mixed": lambda: _unordered("hand", [(2, 1), parse_partition("{1}/{2}"), (1,)]),
}


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda n=n, build=build: build(n), id=f"{family}{n}")
        for family, build in (("P", build_descent_poset), ("Q", build_refinement_poset))
        for n in range(1, CAPACITY["poset construction"] + 1)
    ]
    + [pytest.param(make, id=name) for name, make in HAND_LABELLED.items()],
)
def test_bulk_labels_are_the_labels(make):
    poset = make()
    assert _labels(poset) == [poset.label(i) for i in range(poset.size)]


class _Sink:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_streamed_export_holds_no_document(fmt):
    # the P8 JSON is 2.66 MB; built whole, it peaked at 28 MB (DOT: 10.9 MB)
    build_descent_poset(8)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Sink()):
            assert main(["poset", "P", "--n", "8", "--format", fmt]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_capacity_bounds():
    with pytest.raises(CapacityError):
        build_descent_poset(CAPACITY["poset construction"] + 1)
    with pytest.raises(CapacityError):
        build_refinement_poset(CAPACITY["poset construction"] + 1)
    with pytest.raises(CapacityError):
        build_descent_poset(0)


def test_descent_builder_rejects_a_table_without_every_descent_set(monkeypatch):
    # a table with the class of mask 0b10 merged into that of mask 0b01
    masks = poset_module._descent_masks

    def merged(n):
        return tuple(0b01 if m == 0b10 else m for m in masks(n))

    monkeypatch.setattr(poset_module, "_descent_masks", merged)
    with pytest.raises(RuntimeError, match=r"a descent set of \[4\] has no 132-avoiding"):
        build_descent_poset.__wrapped__(4)


def test_coarsening_via_bijection_on_refinement_covers():
    # merging blocks strictly shrinks the image's descent set
    for n in range(2, 8):
        q = build_refinement_poset(n)
        parts = list(enumerate_ncp(n))
        for lower, upper in support.cover_pairs(q):
            d_fine = descent_mask(ncp_to_perm(parts[lower]))
            d_coarse = descent_mask(ncp_to_perm(parts[upper]))
            assert d_coarse != d_fine
            assert d_coarse & ~d_fine == 0


@pytest.mark.parametrize("mask", [-1, -5, -(1 << 70), -((1 << 5000) - 1)])
def test_iter_bits_rejects_a_negative_mask(mask):
    # listed bit by bit, a negative mask would never run out of set bits
    with pytest.raises(ValueError, match="cannot be negative"):
        list(iter_bits(mask))


def test_iter_bits_matches_reference():
    rng = random.Random(20261018)
    masks = [0, 1, 1 << 4999, (1 << 5000) - 1]
    masks += [1 << rng.randrange(5000) for _ in range(20)]
    # sparse over 5,000 bits, dense, and in between
    for density in (0.002, 0.05, 0.5, 0.95):
        for _ in range(10):
            width = rng.randrange(1, 5001)
            masks.append(sum(1 << i for i in range(width) if rng.random() < density))
    for mask in masks:
        assert list(iter_bits(mask)) == list(support.iter_bits(mask))
