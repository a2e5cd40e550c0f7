"""Tests of the benchmark's checks: each accepts the package's real output
and rejects a deliberately corrupted copy of it.

    PYTHONPATH=src python3 -m unittest discover -s benchmarks
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import unittest
from itertools import combinations, permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from catalan_posets import (  # noqa: E402
    build_descent_poset,
    chain_cover_profile,
    check_self_duality,
    count_by_descent_set,
    enumerate_ncp,
    ncp_to_perm,
    perm_to_ncp,
)
from catalan_posets.census import build_census  # noqa: E402
from catalan_posets.cli import main  # noqa: E402


def cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    return out.getvalue()


def lines(text: str) -> list[str]:
    return text[:-1].split("\n")


def join(rows: list[str]) -> str:
    return "\n".join(rows) + "\n"


def swap(rows: list[str], i: int, j: int) -> list[str]:
    rows = list(rows)
    rows[i], rows[j] = rows[j], rows[i]
    return rows


def set_partitions(n: int):
    if n == 0:
        yield ()
        return
    for smaller in set_partitions(n - 1):
        for i in range(len(smaller)):
            yield smaller[:i] + (smaller[i] + (n,),) + smaller[i + 1 :]
        yield smaller + ((n,),)


def crossing(blocks) -> bool:
    for first, second in combinations(blocks, 2):
        for a, c in combinations(first, 2):
            for b, d in combinations(second, 2):
                if a < b < c < d or b < a < d < c:
                    return True
    return False


def contains_132(p) -> bool:
    return any(p[i] < p[k] < p[j] for i, j, k in combinations(range(len(p)), 3))


class IndependentComputations(unittest.TestCase):
    def test_avoidance_matches_definition(self):
        for n in range(1, 8):
            for p in permutations(range(1, n + 1)):
                self.assertEqual(checks.avoids_132(p), not contains_132(p), p)

    def test_crossing_test_matches_definition(self):
        for n in range(1, 8):
            for blocks in set_partitions(n):
                canonical = tuple(sorted(blocks))
                read = checks.PartitionReader(n).read(checks.format_ncp(canonical))
                self.assertEqual(read[0], canonical)
                self.assertEqual(read[2], not crossing(canonical), canonical)

    def test_reader_rejects_malformed_text(self):
        for text in ("", "{}", "{1,2}", "{2,1}/{3}", "{2}/{1}/{3}", "{1,1}/{2,3}", "{1}/{2}/{4}", "{1}{2,3}", "1,2,3"):
            self.assertIsNone(checks.PartitionReader(3).read(text), text)

    def test_bijection_matches_package(self):
        for n in range(1, 9):
            for q in enumerate_ncp(n):
                p = checks.own_f(q.blocks, n)
                self.assertEqual(p, ncp_to_perm(q))
                self.assertEqual(perm_to_ncp(p).blocks, q.blocks)

    def test_bijection_extremes(self):
        n = 50
        self.assertEqual(checks.own_f((tuple(range(1, n + 1)),), n), tuple(range(1, n + 1)))
        self.assertEqual(checks.own_f(tuple((x,) for x in range(1, n + 1)), n), tuple(range(n, 0, -1)))

    def test_census_three_ways(self):
        for n in range(1, 10):
            own = checks.own_census(n)
            self.assertEqual(own, checks.census_by_enumeration(n))
            self.assertEqual(tuple(own), build_census(n))
        self.assertEqual(
            checks.own_census(13)[:64], [count_by_descent_set(13, mask) for mask in range(64)]
        )

    def test_random_inputs_are_noncrossing(self):
        rng = random.Random(7)
        for size in (1, 2, 30, 300):
            blocks = workloads.random_ncp(rng, size)
            read = checks.PartitionReader(size).read(checks.format_ncp(blocks))
            self.assertIsNotNone(read)
            self.assertTrue(read[2])
            self.assertTrue(checks.avoids_132(checks.own_f(blocks, size)))

    def test_workloads_build_the_same_inputs_from_a_seed(self):
        for build in workloads.WORKLOADS.values():
            first, second = build(3), build(3)
            self.assertEqual([op.argv for op in first.ops], [op.argv for op in second.ops])
            self.assertEqual(len({op.name for op in first.ops}), len(first.ops))


class ListingChecks(unittest.TestCase):
    def test_av132_listing(self):
        rows = lines(cli("enumerate", "av132", "--n", "5"))
        self.assertEqual(checks.check_av132_listing(join(rows), 5), [])
        self.assertTrue(checks.check_av132_listing(join(rows[:-1]), 5))  # dropped line
        self.assertTrue(checks.check_av132_listing(join(swap(rows, 3, 4)), 5))  # swapped pair
        self.assertTrue(checks.check_av132_listing(join(rows[:-1] + ["13254"]), 5))  # has 132
        self.assertTrue(checks.check_av132_listing(join(rows[:-1] + [rows[-2]]), 5))  # repeated
        self.assertTrue(checks.check_av132_listing(join(rows)[:-1], 5))  # no final newline

    def test_ncp_listing(self):
        rows = lines(cli("enumerate", "ncp", "--n", "5"))
        self.assertEqual(checks.check_ncp_listing(join(rows), 5), [])
        self.assertTrue(checks.check_ncp_listing(join(rows[1:]), 5))
        self.assertTrue(checks.check_ncp_listing(join(swap(rows, 0, 1)), 5))
        self.assertTrue(checks.check_ncp_listing(join(rows[:-1] + ["{1,3}/{2,4}/{5}"]), 5))
        self.assertTrue(checks.check_ncp_listing(join(rows[:-1] + ["{1}/{2}/{3}/{4}"]), 5))

    def test_family_map(self):
        n = 5
        rows = [
            f"{checks.format_ncp(q.blocks)}\t{checks.format_perm(ncp_to_perm(q))}\t{checks.format_ncp(q.blocks)}"
            for q in enumerate_ncp(n)
        ]
        self.assertEqual(checks.check_family_map(join(rows), n), [])
        q, p, _ = rows[3].split("\t")
        wrong_back = rows[:3] + [f"{q}\t{p}\t{rows[4].split(chr(9))[0]}"] + rows[4:]
        self.assertTrue(checks.check_family_map(join(wrong_back), n))  # wrong round trip
        images = [row.split("\t") for row in rows]
        images[1][1], images[2][1] = images[2][1], images[1][1]
        self.assertTrue(checks.check_family_map(join(["\t".join(r) for r in images]), n))
        self.assertTrue(checks.check_family_map(join(rows[:-1]), n))

    def test_large_maps(self):
        rng = random.Random(1)
        n = 60
        blocks = workloads.random_ncp(rng, n)
        p = checks.own_f(blocks, n)
        image = cli("map", "f", checks.format_ncp(blocks))
        self.assertEqual(checks.check_map_f(image, blocks, n), [])
        swapped = ",".join(swap(image[:-1].split(","), 0, 1)) + "\n"
        self.assertTrue(checks.check_map_f(swapped, blocks, n))  # swapped pair
        self.assertTrue(checks.check_map_f(image[:-1], blocks, n))
        back = cli("map", "finv", checks.format_perm(p))
        self.assertEqual(checks.check_map_finv(back, p, blocks), [])
        other = workloads.random_ncp(rng, n)
        self.assertTrue(checks.check_map_finv(checks.format_ncp(other) + "\n", p, blocks))


class CensusChecks(unittest.TestCase):
    def test_census_csv(self):
        n = 6
        expected = checks.census_by_enumeration(n)
        text = cli("census", "--n", str(n))
        self.assertEqual(checks.check_census_csv(text, n, expected), [])
        rows = lines(text)
        self.assertTrue(checks.check_census_csv(join(rows[:-1]), n, expected))  # dropped row
        head, size, count = rows[5].rsplit(",", 2)
        wrong = rows[:5] + [f"{head},{size},{int(count) + 1}"] + rows[6:]
        self.assertTrue(checks.check_census_csv(join(wrong), n, expected))  # wrong count
        self.assertTrue(checks.check_census_csv(join(swap(rows, 2, 3)), n, expected))

    def test_counter(self):
        n = 8
        expected = checks.own_census(n)
        text = join([str(count_by_descent_set(n, mask)) for mask in range(1 << (n - 1))])
        self.assertEqual(checks.check_counter(text, n, expected), [])
        rows = lines(text)
        self.assertTrue(checks.check_counter(join(swap(rows, 1, 2)), n, expected))
        self.assertTrue(checks.check_counter(join(rows[:-1]), n, expected))


class PosetChecks(unittest.TestCase):
    def exports(self, family: str, n: int) -> tuple[str, str]:
        return (
            cli("poset", family, "--n", str(n), "--format", "json"),
            cli("poset", family, "--n", str(n), "--format", "dot"),
        )

    def test_json(self):
        for family in "PQ":
            text, _ = self.exports(family, 5)
            self.assertEqual(checks.check_poset_json(text, family, 5), [])
            doc = checks.json.loads(text)
            missing = dict(doc, covers=doc["covers"][1:])
            self.assertTrue(checks.check_poset_json(checks.json.dumps(missing), family, 5))
            low, high = doc["covers"][0]
            flipped = dict(doc, covers=[[high, low]] + doc["covers"][1:])
            self.assertTrue(checks.check_poset_json(checks.json.dumps(flipped), family, 5))
            ranks = dict(doc, ranks=doc["ranks"][::-1][:-1] + [2])
            self.assertTrue(checks.check_poset_json(checks.json.dumps(ranks), family, 5))
            self.assertTrue(checks.check_poset_json(text, family, 6))

    def test_json_rejects_a_non_cover_in_place_of_a_cover(self):
        text, _ = self.exports("P", 5)
        doc = checks.json.loads(text)
        poset = build_descent_poset(5)
        bottom = poset.ranks.index(0)
        top = poset.ranks.index(4)
        doc["covers"][0] = [bottom, top]
        self.assertTrue(checks.check_poset_json(checks.json.dumps(doc), "P", 5))

    def test_dot(self):
        for family in "PQ":
            _, text = self.exports(family, 5)
            self.assertEqual(checks.check_poset_dot(text, family, 5), [])
            rows = lines(text)
            self.assertTrue(checks.check_poset_dot(join(rows[:-2] + rows[-1:]), family, 5))
            self.assertTrue(checks.check_poset_dot(join(swap(rows, 2, 3)), family, 5))
            edge = rows[-2]
            low, high = edge.strip().rstrip(";").split(" -> ")
            reversed_edge = f"  {high} -> {low};"
            self.assertTrue(checks.check_poset_dot(join(rows[:-2] + [reversed_edge] + rows[-1:]), family, 5))

    def test_same_edges(self):
        json_text, dot_text = self.exports("Q", 5)
        self.assertEqual(checks.check_same_edges(json_text, dot_text, "Q", 5), [])
        rows = lines(dot_text)
        self.assertTrue(checks.check_same_edges(json_text, join(rows[:-2] + rows[-1:]), "Q", 5))


class VerifyChecks(unittest.TestCase):
    def test_reports(self):
        text = cli("verify", "--checks", "sperner", "--n", "6")
        self.assertEqual(checks.check_reports(text, "sperner", 6), [])
        rows = lines(text)
        self.assertTrue(checks.check_reports(join(rows[:-1]), "sperner", 6))  # dropped line
        self.assertTrue(checks.check_reports(join(swap(rows, 0, 1)), "sperner", 6))
        self.assertTrue(checks.check_reports(text.replace("pass", "FAIL", 1), "sperner", 6))
        self.assertTrue(checks.check_reports(text, "sperner", 7))
        self.assertTrue(checks.check_reports(text, "ranks", 6))
        report = check_self_duality(4).summary_line() + "\n"
        self.assertEqual(checks.check_reports(report, "selfdual", 4), [])

    def test_width(self):
        self.assertEqual(checks.check_width("1764\n", 9), [])
        self.assertTrue(checks.check_width("1763\n", 9))
        self.assertTrue(checks.check_width("1764", 9))

    def test_profile(self):
        parts = list(chain_cover_profile(build_descent_poset(6)))
        text = ",".join(map(str, parts)) + "\n"
        self.assertEqual(checks.check_profile(text, 6), [])
        moved = parts[:]
        moved[0] -= 1
        moved[-1] += 1
        self.assertTrue(checks.check_profile(",".join(map(str, moved)) + "\n", 6))
        self.assertTrue(checks.check_profile(",".join(map(str, parts[:-1])) + "\n", 6))
        self.assertTrue(checks.check_profile("x\n", 6))


if __name__ == "__main__":
    unittest.main()
