from catalan_posets.permutations import format_descent_set, reverse_complement_mask


def positions(n, mask):
    """The descent positions 1..n-1 whose bit is set in mask."""
    return tuple(i for i in range(1, n) if (mask >> (i - 1)) & 1)


def test_positions_round_trip():
    assert format_descent_set(0b101001) == "{1,4,6}"
    assert format_descent_set(0) == "{}"
    assert format_descent_set(0b11 << 9) == "{10,11}"
    for mask in range(1 << 11):
        text = format_descent_set(mask)
        assert text == "{" + ",".join(map(str, positions(12, mask))) + "}"


def test_reverse_complement_examples():
    # {1,4,6} in size 8: absent positions are {2,3,5,7}; 8-i over those
    # gives {1,3,5,6}.
    assert positions(8, reverse_complement_mask(8, 0b101001)) == (1, 3, 5, 6)
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
            image = {n - i for i in range(1, n) if i not in positions(n, mask)}
            assert set(positions(n, reverse_complement_mask(n, mask))) == image
