import math

import pytest

from catalan_posets.verify import catalan, narayana

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
