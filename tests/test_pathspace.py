"""Path vocabulary: enumeration order, arrival-time classes, partition."""

import pytest

from impactseries.pathspace import (
    Arm,
    Arm2Path,
    Outcome,
    PathPair,
    Subensemble,
    classify,
    members,
    _PATH_PAIRS,
)


def pair(label1: str, label2: str) -> PathPair:
    return PathPair(Arm(label1), Arm2Path(label2))


def test_enumeration_has_eight_unique_pairs_in_canonical_order():
    pairs = _PATH_PAIRS
    assert len(pairs) == 8
    assert len(set(pairs)) == 8
    labels = [p.label for p in pairs]
    assert labels == [
        "(l,ll)", "(l,lL)", "(l,Ll)", "(l,LL)",
        "(L,ll)", "(L,lL)", "(L,Ll)", "(L,LL)",
    ]


@pytest.mark.parametrize(
    "p1, p2, expected",
    [
        ("l", "Ll", Subensemble.LONG),
        ("L", "ll", Subensemble.SATELLITE_SHORT),
        ("l", "ll", Subensemble.SHORT),
        ("l", "LL", Subensemble.SATELLITE_LONG),
        ("L", "LL", Subensemble.LONG),
        ("l", "lL", Subensemble.LONG),
        ("L", "Ll", Subensemble.SHORT),
        ("L", "lL", Subensemble.SHORT),
    ],
)
def test_classification(p1, p2, expected):
    assert classify(pair(p1, p2)) is expected


def test_class_sizes_partition_the_ensemble():
    sizes = {sub: len(members(sub)) for sub in Subensemble}
    assert sizes == {
        Subensemble.SATELLITE_LONG: 1,
        Subensemble.LONG: 3,
        Subensemble.SHORT: 3,
        Subensemble.SATELLITE_SHORT: 1,
    }
    everything = [p for sub in Subensemble for p in members(sub)]
    assert sorted(everything, key=lambda p: p.label) == sorted(
        _PATH_PAIRS, key=lambda p: p.label
    )


def test_members_matches_explicit_class_rosters():
    assert set(members(Subensemble.LONG)) == {
        pair("L", "LL"), pair("l", "Ll"), pair("l", "lL")
    }
    assert set(members(Subensemble.SHORT)) == {
        pair("l", "ll"), pair("L", "Ll"), pair("L", "lL")
    }
    assert members(Subensemble.SATELLITE_LONG) == (pair("l", "LL"),)
    assert members(Subensemble.SATELLITE_SHORT) == (pair("L", "ll"),)


def test_classify_and_members_are_mutually_inverse():
    for p in _PATH_PAIRS:
        assert p in members(classify(p))


def test_outcome_and_path_component_accessors():
    assert Arm2Path.LONG_SHORT.first is Arm.LONG
    assert Arm2Path.LONG_SHORT.second is Arm.SHORT
    assert [o.value for o in Outcome] == ["++", "+-", "-+", "--"]
