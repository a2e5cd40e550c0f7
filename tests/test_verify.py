import math

import pytest

from catalan_posets import verify
from catalan_posets.antichains import max_antichain
from catalan_posets.errors import CAPACITY, CapacityError
from catalan_posets.poset import build_descent_poset, build_refinement_poset
from catalan_posets.verify import (
    CHECKS,
    MAX_VIOLATION_DETAILS,
    VerificationReport,
    catalan,
    check_census_symmetry,
    check_coarsening,
    check_rank_statistics,
    narayana,
    note_violation,
    run_checks,
)


def test_rank_statistics_report():
    report = check_rank_statistics(6)
    assert report.passed
    assert report.name == "ranks"
    assert report.examined == 12  # one rank vector per family


@pytest.mark.parametrize("n", range(1, 10))
def test_rank_counts_are_the_posets_rank_sizes(n):
    assert verify._descent_rank_sizes(n) == build_descent_poset(n).rank_sizes()
    assert verify._refinement_rank_sizes(n) == build_refinement_poset(n).rank_sizes()


@pytest.mark.parametrize(
    "counter, family",
    [("_descent_rank_sizes", "descent"), ("_refinement_rank_sizes", "refinement")],
)
def test_rank_statistics_reports_a_wrong_count(monkeypatch, counter, family):
    # the check is not vacuous: one rank count off by one is a violation
    counted = getattr(verify, counter)

    def off_by_one(n):
        sizes = list(counted(n))
        sizes[2] += 1
        return tuple(sizes)

    monkeypatch.setattr(verify, counter, off_by_one)
    report = check_rank_statistics(9)
    assert not report.passed
    assert any(f"{family} poset rank sizes" in v for v in report.violations)
    assert report.examined == 18


def test_census_symmetry_report():
    report = check_census_symmetry(7)
    assert report.passed
    assert report.name == "lemma"
    assert report.examined == 64  # one entry per descent subset


def test_census_symmetry_at_large_size():
    assert check_census_symmetry(12).passed


def test_sperner_suite_structure():
    reports = run_checks(("sperner",), 8)
    assert [r.name for r in reports] == [
        "sperner-width",
        "sperner-dk",
        "sperner-transfer",
    ]
    widths, dk, transfer = reports
    assert widths.n == 8 and widths.examined == catalan(8)
    assert dk.n == 6  # capped internally
    assert transfer.n == 7  # capped internally
    assert all(r.passed for r in reports)
    # transfer examines every pair of the pulled-back antichain, whose
    # size is the largest rank size at 7, namely 175
    assert transfer.examined == 175 * 174 // 2


def test_sperner_lines_fail_on_a_cut_loose_bottom(monkeypatch):
    # every comparability of P5's bottom element dropped: the poset stays
    # graded with the same rank sizes, but the bottom joins a largest rank
    true = build_descent_poset(5)
    assert true.label(0) == "12345" and true.rank_sizes() == (1, 10, 20, 10, 1)
    broken = true._replace(
        leq_rows=(1,) + true.leq_rows[1:], cover_rows=(0,) + true.cover_rows[1:]
    )
    assert max_antichain(broken) == 21
    monkeypatch.setattr(verify, "build_descent_poset", lambda _n: broken)
    reports = run_checks(("sperner",), 5)
    assert [(r.name, r.passed) for r in reports] == [
        ("sperner-width", False),
        ("sperner-dk", False),
        ("sperner-transfer", False),
    ]
    assert reports[0].violations == ("width 21 != largest rank size 20",)


def test_run_checks_each_name_at_small_size():
    reports = run_checks(tuple(CHECKS), 5)
    # sperner expands to three reports
    assert len(reports) == len(CHECKS) + 2
    assert all(r.passed for r in reports)


def test_run_checks_times_each_line_and_direct_calls_report_zero():
    reports = run_checks(tuple(CHECKS), 5)
    assert len(reports) == 7 and all(r.elapsed > 0 for r in reports)
    assert check_coarsening(5).elapsed == 0.0


def test_run_checks_clamps_when_asked():
    # "all" runs every check, each clamped to its cap; other names are ignored
    reports = run_checks(("all",), 12)
    assert isinstance(reports, list)
    assert [(r.name, r.n) for r in reports] == [
        ("coarsening", CAPACITY["check coarsening"]),
        ("ranks", CAPACITY["check ranks"]),
        ("lemma", 12),
        ("selfdual", CAPACITY["check selfdual"]),
        ("sperner-width", CAPACITY["check sperner"]),
        ("sperner-dk", CAPACITY["sperner-dk"]),
        ("sperner-transfer", CAPACITY["sperner-transfer"]),
    ]
    lines = [r.summary_line() for r in run_checks(("all",), 5)]
    assert [r.summary_line() for r in run_checks(("ranks", "all"), 5)] == lines


def test_run_checks_rejects_over_cap_without_clamp():
    with pytest.raises(CapacityError):
        run_checks(("selfdual",), CAPACITY["check selfdual"] + 1)


def test_run_checks_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_checks(("bogus",), 3)


def test_run_checks_rejects_bad_n():
    with pytest.raises(CapacityError):
        run_checks(("ranks",), 0)


def test_all_checks_pass_at_their_caps():
    for name in CHECKS:
        for report in run_checks((name,), CAPACITY["check " + name]):
            assert report.passed, report.summary_line()


def test_summary_line_pass():
    report = VerificationReport(name="ranks", n=5, examined=10)
    assert report.passed
    assert report.summary_line() == "ranks n=5: examined=10 pass"


def test_summary_line_fail():
    report = VerificationReport(
        name="lemma", n=4, examined=8, violations=("bad mask 3",)
    )
    assert not report.passed
    assert report.summary_line() == "lemma n=4: examined=8 FAIL"


def test_summary_line_leaves_out_timing():
    report = VerificationReport(name="ranks", n=5, examined=10, elapsed=1.25)
    assert "1.25" not in report.summary_line()


def test_note_violation_caps_details():
    details: list[str] = []
    for i in range(MAX_VIOLATION_DETAILS + 4):
        note_violation(details, f"violation {i}")
    assert len(details) == MAX_VIOLATION_DETAILS + 1
    assert details[:MAX_VIOLATION_DETAILS] == [
        f"violation {i}" for i in range(MAX_VIOLATION_DETAILS)
    ]
    assert details[-1] == "further violations omitted"


# Catalan numbers 1..12, cross-checked below against the closed form.
CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def test_catalan_small_values():
    assert [catalan(n) for n in range(1, 13)] == CATALAN


def test_catalan_matches_closed_form():
    for n in range(1, 31):
        assert catalan(n) == math.comb(2 * n, n) // (n + 1)


def test_catalan_exact_at_thirty():
    assert catalan(30) == 3814986502092304


def test_narayana_row_sums_to_catalan():
    for n in range(1, 31):
        assert sum(narayana(n, k) for k in range(1, n + 1)) == catalan(n)


def test_narayana_matches_closed_form():
    for n in range(1, 20):
        for k in range(1, n + 1):
            assert narayana(n, k) == math.comb(n, k) * math.comb(n, k - 1) // n


def test_narayana_row_four():
    assert [narayana(4, k) for k in range(1, 5)] == [1, 6, 6, 1]


def test_narayana_symmetry():
    for n in range(1, 20):
        for k in range(1, n + 1):
            assert narayana(n, k) == narayana(n, n + 1 - k)


def test_narayana_rows_are_unimodal():
    # rises never reappear after the first fall
    for n in range(1, 17):
        row = [narayana(n, k) for k in range(1, n + 1)]
        rises = [b - a for a, b in zip(row, row[1:])]
        assert not any(a < 0 < b for a, b in zip(rises, rises[1:]))


def test_narayana_rejects_out_of_range_k():
    with pytest.raises(ValueError):
        narayana(4, 0)
    with pytest.raises(ValueError):
        narayana(4, 5)


def test_catalan_rejects_nonpositive():
    with pytest.raises(ValueError):
        catalan(0)
    with pytest.raises(ValueError):
        catalan(-1)
