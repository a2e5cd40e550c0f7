from catalan_posets.verify import (
    MAX_VIOLATION_DETAILS,
    VerificationReport,
    note_violation,
)


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
