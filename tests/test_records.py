"""The package's record classes: SetPartition, GradedPoset and
VerificationReport are built by keyword with their defaults, compare,
hash and print by their fields, refuse assignment, and copy with one
field changed through _replace."""

import pytest

from catalan_posets.antichains import chain_cover_profile
from catalan_posets.partitions import SetPartition, _trusted, parse_partition
from catalan_posets.poset import GradedPoset, build_descent_poset
from catalan_posets.verify import VerificationReport

CHAIN = dict(
    family="chain", n=2, elements=(0, 1), ranks=(0, 1), above_rows=(2, 0), cover_rows=(2, 0)
)


def equal_pairs():
    """Per class: a record, an equal one built apart, and a different one."""
    yield (
        parse_partition("{2,3}/{1}"),
        SetPartition(n=3, blocks=((1,), (2, 3))),
        SetPartition(n=3, blocks=((1, 2, 3),)),
    )
    yield GradedPoset(**CHAIN), GradedPoset(*CHAIN.values()), GradedPoset(
        **{**CHAIN, "family": "other"}
    )
    yield (
        VerificationReport("ranks", 5, 10),
        VerificationReport(name="ranks", n=5, examined=10, violations=(), elapsed=0.0),
        VerificationReport("ranks", 5, 10, ("bad",)),
    )


@pytest.mark.parametrize("record, twin, other", list(equal_pairs()))
def test_records_compare_and_hash_by_their_fields(record, twin, other):
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    assert not record != twin
    assert record != other


@pytest.mark.parametrize("record, twin, other", list(equal_pairs()))
def test_records_refuse_assignment(record, twin, other):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == twin


def test_records_print_their_fields_by_name():
    q, _, _ = next(equal_pairs())
    assert repr(q) == "SetPartition(n=3, blocks=((1,), (2, 3)))"
    assert repr(GradedPoset(**CHAIN)) == (
        "GradedPoset(family='chain', n=2, elements=(0, 1), ranks=(0, 1), "
        "above_rows=(2, 0), cover_rows=(2, 0))"
    )
    assert repr(VerificationReport("ranks", 5, 10)) == (
        "VerificationReport(name='ranks', n=5, examined=10, violations=(), elapsed=0.0)"
    )


def test_report_defaults_and_keywords():
    report = VerificationReport(examined=10, n=5, name="ranks")
    assert (report.violations, report.elapsed) == ((), 0.0)
    assert report.passed
    with pytest.raises(TypeError):
        VerificationReport(name="ranks", n=5)


def test_replace_copies_with_one_field_changed():
    report = VerificationReport("ranks", 5, 10)
    assert report._replace(n=6) == VerificationReport("ranks", 6, 10)
    chain = GradedPoset(**CHAIN)
    assert chain._replace(ranks=(1, 0)).ranks == (1, 0)
    assert chain._replace(ranks=(1, 0)).above_rows == chain.above_rows


def test_partition_validates_by_keyword_and_on_replace_but_not_when_trusted():
    with pytest.raises(ValueError, match=r"^blocks do not cover 1\.\.3$"):
        SetPartition(n=3, blocks=((1, 2),))
    q = SetPartition(2, ((1, 2),))
    with pytest.raises(ValueError, match=r"^blocks do not cover 1\.\.3$"):
        q._replace(n=3)
    assert q._replace(blocks=((1,), (2,))) == SetPartition(2, ((1,), (2,)))
    # the producers' constructor takes canonical form on trust
    assert _trusted((3, ((1, 2),))).blocks == ((1, 2),)


def test_partition_takes_only_a_tuple_of_tuples():
    # list blocks passed validation once, then compared unequal to the
    # parsed twin, could not be hashed, and broke refinement_rows
    q = parse_partition("{1,2}/{3}")
    for blocks in ([[1, 2], [3]], [(1, 2), (3,)], ([1, 2], (3,))):
        with pytest.raises(ValueError):
            SetPartition(3, blocks)
        with pytest.raises(ValueError):
            q._replace(blocks=blocks)


def test_an_equal_poset_built_apart_hits_the_profile_cache():
    p4 = build_descent_poset(4)
    twin = GradedPoset(*p4)
    assert twin is not p4
    profile = chain_cover_profile(p4)
    before = chain_cover_profile.cache_info()
    assert chain_cover_profile(twin) is profile
    after = chain_cover_profile.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
