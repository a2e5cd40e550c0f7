import pytest

from catalan_posets.descent_sets import DescentSet, reverse_complement_mask


def test_positions_round_trip():
    s = DescentSet(8, 0b101001)
    assert s.positions() == (1, 4, 6)
    assert len(s) == 3
    assert str(s) == "{1,4,6}"
    assert str(DescentSet(3, 0)) == "{}"


def test_mask_bounds_enforced():
    with pytest.raises(ValueError):
        DescentSet(4, 0b1000)
    with pytest.raises(ValueError):
        DescentSet(4, -1)
    with pytest.raises(ValueError):
        DescentSet(0, 0)
    # n = 1 has no legal positions at all
    assert DescentSet(1, 0).positions() == ()


def test_reverse_complement_examples():
    # {1,4,6} in size 8: absent positions are {2,3,5,7}; 8-i over those
    # gives {1,3,5,6}.
    assert DescentSet(8, reverse_complement_mask(8, 0b101001)).positions() == (1, 3, 5, 6)
    # empty and full sets swap
    assert reverse_complement_mask(5, 0) == 0b1111
    assert reverse_complement_mask(5, 0b1111) == 0


def test_reverse_complement_is_involution_exhaustive():
    for n in range(1, 10):
        for mask in range(1 << (n - 1)):
            once = reverse_complement_mask(n, mask)
            assert 0 <= once < 1 << (n - 1)
            assert reverse_complement_mask(n, once) == mask


def test_reverse_complement_set_version_matches_mask_version():
    for n in range(1, 8):
        for mask in range(1 << (n - 1)):
            positions = DescentSet(n, mask).positions()
            image = {n - i for i in range(1, n) if i not in positions}
            rc = DescentSet(n, reverse_complement_mask(n, mask))
            assert set(rc.positions()) == image
