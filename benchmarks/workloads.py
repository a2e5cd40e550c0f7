"""The benchmark's three workloads: their operations, inputs and checks.

An operation is either one CLI invocation (`argv`) or one library call.
Either way it also lists its work as `stages`, calls into the public
functions of one module each, tagged with the per-layer metric that bills
them.  An untraced library operation runs its stages back to back under
one timer; an untraced CLI operation runs only `catalan_posets.cli.main`.
A traced operation runs and times every stage first, then the CLI call,
whose writes to stdout bill `cli.write_s`.  Stages that fill a cache
(`enumerate_av132`, the poset builders, `build_census`,
`chain_cover_profile`) come before the stages that use it, so warm-up is
billed to the layer that did it.

This module does not import catalan_posets: stage calls receive the
imported package as `lib`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import checks

Counts = dict[str, int]


@dataclass(frozen=True)
class Stage:
    layer: str
    call: Callable[[Any, Any], Any]  # (lib, previous stage's result) -> result
    counts: Callable[[Any, Any], Counts] | None = None  # (previous, result) -> counts


@dataclass(frozen=True)
class Op:
    name: str
    stages: tuple[Stage, ...]
    check: Callable[[str], list[str]]
    argv: tuple[str, ...] | None = None
    dump: Callable[[Any], str] | None = None  # library result -> checked text


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    #: (op a, op b, check on both outputs)
    joint: tuple[tuple[str, str, Callable[[str, str], list[str]]], ...] = ()

    def op(self, name: str) -> Op:
        return next(op for op in self.ops if op.name == name)


# --- stages -----------------------------------------------------------------


def _poset_counts(_previous: Any, poset: Any) -> Counts:
    return {
        "poset.elements": poset.size,
        "poset.covers": sum(row.bit_count() for row in poset.cover_rows),
    }


def _examined(_previous: Any, result: Any) -> Counts:
    reports = result if isinstance(result, list) else [result]
    return {"duality.examined": sum(report.examined for report in reports)}


def enumerate_av132(n: int) -> Stage:
    return Stage("permutations.enumerate", lambda lib, _: list(lib.enumerate_av132(n)))


def build_p(n: int) -> Stage:
    return Stage("poset.build_p", lambda lib, _: lib.build_descent_poset(n), _poset_counts)


def build_q(n: int) -> Stage:
    return Stage("poset.build_q", lambda lib, _: lib.build_refinement_poset(n), _poset_counts)


def build_census(n: int) -> Stage:
    return Stage(
        "census.build",
        lambda lib, _: lib.census.build_census(n),
        lambda _p, _r: {"census.masks": 1 << (n - 1)},
    )


def run_check(layer: str, name: str, n: int) -> Stage:
    counts = _examined if layer.startswith("duality.") else None
    return Stage(layer, lambda lib, _: lib.run_checks([name], n), counts)


def _report_line(report: Any) -> str:
    return report.summary_line() + "\n"


# --- verify -----------------------------------------------------------------


def _verify_cli(name: str, n: int, stages: list[Stage]) -> Op:
    return Op(
        f"verify-{name}-{n}",
        tuple(stages),
        lambda text: checks.check_reports(text, name, n),
        argv=("verify", "--checks", name, "--n", str(n)),
    )


def verify_workload(_seed: int) -> Workload:
    profile = Stage("antichains.profile", lambda lib, poset: lib.chain_cover_profile(poset))
    ops = (
        _verify_cli("coarsening", 8, [build_q(8), run_check("duality.coarsening", "coarsening", 8)]),
        _verify_cli(
            "ranks", 9,
            [enumerate_av132(9), build_p(9), build_q(9), run_check("verify.ranks", "ranks", 9)],
        ),
        _verify_cli(
            "lemma", 12, [enumerate_av132(12), build_census(12), run_check("verify.lemma", "lemma", 12)]
        ),
        _verify_cli(
            "selfdual", 7,
            [enumerate_av132(7), build_p(7), run_check("duality.selfdual", "selfdual", 7)],
        ),
        _verify_cli(
            "sperner", 8,
            [
                enumerate_av132(6), build_p(6), profile,
                enumerate_av132(7), build_p(7), build_q(7),
                enumerate_av132(8), build_p(8),
                run_check("verify.sperner", "sperner", 8),
            ],
        ),
        Op(
            "width-P9",
            (
                enumerate_av132(9), build_p(9),
                Stage(
                    "antichains.width",
                    lambda lib, poset: lib.max_antichain(poset),
                    lambda poset, width: {"antichains.matched": poset.size - width},
                ),
            ),
            lambda text: checks.check_width(text, 9),
            dump=lambda width: f"{width}\n",
        ),
        Op(
            "selfdual-8",
            (
                enumerate_av132(8), build_p(8),
                Stage("duality.selfdual", lambda lib, _: lib.check_self_duality(8), _examined),
            ),
            lambda text: checks.check_reports(text, "selfdual", 8),
            dump=_report_line,
        ),
        Op(
            "coarsening-9",
            (build_q(9), Stage("duality.coarsening", lambda lib, _: lib.check_coarsening(9), _examined)),
            lambda text: checks.check_reports(text, "coarsening", 9),
            dump=_report_line,
        ),
        Op(
            "profile-P7",
            (enumerate_av132(7), build_p(7), profile),
            lambda text: checks.check_profile(text, 7),
            dump=lambda parts: ",".join(map(str, parts)) + "\n",
        ),
    )
    return Workload("verify", ops)


# --- family -----------------------------------------------------------------

#: Size of the CLI enumerations: n = 12 costs ~4 s a pass, n = 11 ~1.4 s,
#: n = 10 ~0.4 s.
ENUMERATE_N = 10
#: Whole-family map size: n = 11 costs ~6 s a pass, n = 10 ~1.6 s, n = 9 ~0.4 s.
FAMILY_MAP_N = 9
#: Sizes of the seeded random elements sent through `map` in each direction.
RANDOM_MAP_SIZES = (300, 600, 900)
#: Size of the extreme elements that map, and of those that fail today
#: because `map` recurses once per element.
EXTREME_N = 500
FAILING_N = 2000


def random_ncp(rng: random.Random, n: int) -> checks.Blocks:
    """A random noncrossing partition: each element opens a block or joins
    a random open block, which closes the blocks opened after it."""
    blocks: list[list[int]] = []
    open_blocks: list[int] = []
    for x in range(1, n + 1):
        if not open_blocks or rng.random() < 0.5:
            blocks.append([x])
            open_blocks.append(len(blocks) - 1)
        else:
            depth = rng.randrange(len(open_blocks))
            blocks[open_blocks[depth]].append(x)
            del open_blocks[depth + 1 :]
    return tuple(tuple(block) for block in blocks)


def _elements(key: str) -> Callable[[Any, Any], Counts]:
    return lambda _previous, result: {key: len(result[-1])}


def _map_f(name: str, blocks: checks.Blocks, n: int) -> Op:
    text = checks.format_ncp(blocks)
    return Op(
        name,
        (
            Stage("partitions.parse", lambda lib, _: lib.parse_partition(text)),
            Stage(
                "bijection.large",
                lambda lib, q: lib.ncp_to_perm(q),
                lambda _q, _p: {"bijection.elements": 1},
            ),
            Stage("permutations.format", lambda lib, p: lib.format_permutation(p)),
        ),
        lambda out: checks.check_map_f(out, blocks, n),
        argv=("map", "f", text),
    )


def _map_finv(name: str, p: tuple[int, ...], blocks: checks.Blocks) -> Op:
    text = checks.format_perm(p)
    return Op(
        name,
        (
            Stage("permutations.parse", lambda lib, _: lib.parse_permutation(text)),
            Stage(
                "bijection.large",
                lambda lib, perm: lib.perm_to_ncp(perm),
                lambda _p, _q: {"bijection.elements": 1},
            ),
            Stage("partitions.format", lambda lib, q: lib.format_partition(q)),
        ),
        lambda out: checks.check_map_finv(out, p, blocks),
        argv=("map", "finv", text),
    )


def _dump_family(result: tuple[list, list, list]) -> str:
    qs, ps, backs = result
    return "".join(
        f"{checks.format_ncp(q.blocks)}\t{checks.format_perm(p)}\t{checks.format_ncp(b.blocks)}\n"
        for q, p, b in zip(qs, ps, backs)
    )


def family_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    n, m = FAMILY_MAP_N, ENUMERATE_N
    ops = [
        Op(
            f"enumerate-av132-{m}",
            (
                enumerate_av132(m),
                Stage("permutations.format", lambda lib, perms: [lib.format_permutation(p) for p in perms]),
            ),
            lambda text: checks.check_av132_listing(text, m),
            argv=("enumerate", "av132", "--n", str(m)),
        ),
        Op(
            f"enumerate-ncp-{m}",
            (
                Stage("partitions.enumerate", lambda lib, _: list(lib.enumerate_ncp(m))),
                Stage("partitions.format", lambda lib, qs: [lib.format_partition(q) for q in qs]),
            ),
            lambda text: checks.check_ncp_listing(text, m),
            argv=("enumerate", "ncp", "--n", str(m)),
        ),
        Op(
            f"family-map-{n}",
            (
                Stage("partitions.enumerate", lambda lib, _: list(lib.enumerate_ncp(n))),
                Stage(
                    "bijection.family_f",
                    lambda lib, qs: (qs, [lib.ncp_to_perm(q) for q in qs]),
                    _elements("bijection.elements"),
                ),
                Stage(
                    "bijection.family_finv",
                    lambda lib, r: (r[0], r[1], [lib.perm_to_ncp(p) for p in r[1]]),
                    _elements("bijection.elements"),
                ),
            ),
            lambda text: checks.check_family_map(text, n),
            dump=_dump_family,
        ),
    ]
    for size in RANDOM_MAP_SIZES:
        ops.append(_map_f(f"map-f-random-{size}", random_ncp(rng, size), size))
    for size in RANDOM_MAP_SIZES:
        blocks = random_ncp(rng, size)
        ops.append(_map_finv(f"map-finv-random-{size}", checks.own_f(blocks, size), blocks))
    for size in (EXTREME_N, FAILING_N):
        one_block = (tuple(range(1, size + 1)),)
        singletons = tuple((x,) for x in range(1, size + 1))
        ops += [
            _map_f(f"map-f-one-block-{size}", one_block, size),
            _map_f(f"map-f-singletons-{size}", singletons, size),
            _map_finv(f"map-finv-identity-{size}", tuple(range(1, size + 1)), one_block),
            _map_finv(f"map-finv-decreasing-{size}", tuple(range(size, 0, -1)), singletons),
        ]
    return Workload("family", tuple(ops))


# --- export -----------------------------------------------------------------


def _poset_op(family: str, fmt: str, n: int) -> Op:
    builder = [enumerate_av132(n), build_p(n)] if family == "P" else [build_q(n)]
    render = Stage(
        f"poset.{fmt}",
        lambda lib, poset: lib.poset_to_json(poset) if fmt == "json" else lib.poset_to_dot(poset),
        lambda _poset, text: {"poset.out_bytes": len(text)},
    )
    check = checks.check_poset_json if fmt == "json" else checks.check_poset_dot
    return Op(
        f"poset-{family}-{n}-{fmt}",
        tuple(builder) + (render,),
        lambda text: check(text, family, n),
        argv=("poset", family, "--n", str(n), "--format", fmt),
    )


#: Size of the exported posets: P at n = 9 costs ~7.5 s a pass in its two
#: formats, at n = 8 ~0.9 s.
EXPORT_N = 8
COUNTER_N = 16


def export_workload(_seed: int) -> Workload:
    ops = (
        _poset_op("P", "json", EXPORT_N),
        _poset_op("P", "dot", EXPORT_N),
        _poset_op("Q", "json", EXPORT_N),
        _poset_op("Q", "dot", EXPORT_N),
        Op(
            "census-12",
            (
                enumerate_av132(12),
                build_census(12),
                Stage("census.csv", lambda lib, _: lib.census_to_csv(12)),
            ),
            lambda text: checks.check_census_csv(text, 12, checks.census_by_enumeration(12)),
            argv=("census", "--n", "12"),
        ),
        Op(
            f"counter-{COUNTER_N}",
            (
                Stage(
                    "census.counter",
                    lambda lib, _: [
                        lib.count_by_descent_set(COUNTER_N, mask) for mask in range(1 << (COUNTER_N - 1))
                    ],
                    lambda _p, counts: {"census.masks": len(counts)},
                ),
            ),
            lambda text: checks.check_counter(text, COUNTER_N, checks.own_census(COUNTER_N)),
            dump=lambda counts: "".join(f"{c}\n" for c in counts),
        ),
    )
    joint = tuple(
        (
            f"poset-{family}-{EXPORT_N}-json",
            f"poset-{family}-{EXPORT_N}-dot",
            lambda a, b, family=family: checks.check_same_edges(a, b, family, EXPORT_N),
        )
        for family in "PQ"
    )
    return Workload("export", ops, joint)


WORKLOADS = {
    "verify": verify_workload,
    "family": family_workload,
    "export": export_workload,
}

#: Per-layer metrics and their units, in report order.
LAYER_METRICS = {
    "permutations.enumerate_s": "s",
    "permutations.format_s": "s",
    "permutations.parse_s": "s",
    "partitions.enumerate_s": "s",
    "partitions.format_s": "s",
    "partitions.parse_s": "s",
    "bijection.family_f_s": "s",
    "bijection.family_finv_s": "s",
    "bijection.large_s": "s",
    "bijection.elements": "count",
    "census.build_s": "s",
    "census.counter_s": "s",
    "census.csv_s": "s",
    "census.masks": "count",
    "poset.build_p_s": "s",
    "poset.build_q_s": "s",
    "poset.elements": "count",
    "poset.covers": "count",
    "poset.json_s": "s",
    "poset.dot_s": "s",
    "poset.out_bytes": "bytes",
    "antichains.width_s": "s",
    "antichains.profile_s": "s",
    "antichains.matched": "count",
    "duality.coarsening_s": "s",
    "duality.selfdual_s": "s",
    "duality.examined": "count",
    "verify.ranks_s": "s",
    "verify.lemma_s": "s",
    "verify.sperner_s": "s",
    "cli.write_s": "s",
    "cli.out_bytes": "bytes",
}
