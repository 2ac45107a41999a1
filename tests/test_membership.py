"""Membership, gap classification, and the maximality criteria."""

import random

import pytest

import kummerws as k
from kummerws.membership import MaximalKind, Verdict

from conftest import ALL_PROFILES, K1, K2, K2_N3, SCAN_WINDOWS


def window_points(bounds):
    return k.Window(bounds).points()


def members_in(profile, bounds):
    return [a for a in window_points(bounds) if k.is_member(a, profile)]


def test_ell_drop_examples():
    assert k.ell_drop(1, (1, 0), K1) is True
    assert k.ell_drop(1, (1, 1), K1) is False
    for name, p in ALL_PROFILES.items():
        zero = (0,) * p.n
        for i in range(1, p.n + 1):
            assert k.ell_drop(i, zero, p) is False


def test_ell_drop_bad_coordinate():
    with pytest.raises(k.IndexNotDistinguished):
        k.ell_drop(3, (1, 1), K1)


def test_classify_examples():
    assert k.classify((1, 1), K1).verdict is Verdict.MEMBER
    res = k.classify((1, 0), K1)
    assert res.verdict is Verdict.GAP
    assert res.drops == frozenset({1})
    assert k.classify((1, 2), K2).verdict is Verdict.PURE_GAP


def test_classify_outside_box():
    # not a member, and negative coordinates mean it is not a gap either
    res = k.classify((1, -1), K1)
    assert res.verdict is Verdict.NON_MEMBER_OUTSIDE_BOX


def test_member_verdict_iff_no_drops():
    for a in window_points(((-3, 6), (-3, 6))):
        res = k.classify(a, K1)
        assert (res.verdict is Verdict.MEMBER) == (not res.drops)


def test_discrepancy_examples():
    A = MaximalKind.ABSOLUTE
    assert k.is_maximal_by_criterion((1, 1), A, K1) is True
    assert k.is_maximal_by_criterion((1, 2), A, K1) is False
    assert k.is_maximal_by_criterion((0, 0), A, K1) is True


def test_relative_discrepancy_examples():
    R = MaximalKind.RELATIVE
    assert k.is_maximal_by_criterion((1, 1), R, K1) is True
    assert k.is_maximal_by_criterion((2, 2, 2), R, K2_N3) is True
    assert k.is_maximal_by_criterion((0, 0, 0), R, K2_N3) is False


def test_maximal_by_criterion_examples():
    A = MaximalKind.ABSOLUTE
    assert k.is_maximal_by_criterion((1, 1), A, K1) is True
    assert k.is_maximal_by_criterion((4, -2), A, K1) is True
    assert k.is_maximal_by_criterion((2, 2), A, K1) is False


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_semigroup_closed_under_addition(name):
    profile = ALL_PROFILES[name]
    members = members_in(profile, SCAN_WINDOWS[name])
    rng = random.Random(20260826)
    for _ in range(200):
        a = rng.choice(members)
        b = rng.choice(members)
        s = tuple(x + y for x, y in zip(a, b))
        assert k.is_member(s, profile), (a, b)


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_member_shift_by_m_in_one_coordinate(name):
    profile = ALL_PROFILES[name]
    for a in members_in(profile, SCAN_WINDOWS[name]):
        for j in range(profile.n):
            shifted = tuple(
                x + (profile.m if idx == j else 0) for idx, x in enumerate(a)
            )
            assert k.is_member(shifted, profile)


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_members_have_nonnegative_sum(name):
    profile = ALL_PROFILES[name]
    for a in members_in(profile, SCAN_WINDOWS[name]):
        assert sum(a) >= 0


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_discrepancy_implies_member(name):
    profile = ALL_PROFILES[name]
    for a in window_points(SCAN_WINDOWS[name]):
        if k.is_maximal_by_criterion(a, MaximalKind.ABSOLUTE, profile):
            assert k.is_member(a, profile)


@pytest.mark.parametrize(
    "name", [n for n, p in ALL_PROFILES.items() if p.n == 2]
)
def test_absolute_equals_relative_when_n_is_2(name):
    profile = ALL_PROFILES[name]
    for a in window_points(SCAN_WINDOWS[name]):
        assert k.is_maximal_by_criterion(
            a, MaximalKind.ABSOLUTE, profile
        ) == k.is_maximal_by_criterion(a, MaximalKind.RELATIVE, profile)


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_single_place_gap_count_equals_genus(name):
    profile = ALL_PROFILES[name]
    g = k.genus(profile)
    if g > 30:
        pytest.skip("fixture larger than the gap-count budget")
    for place in range(1, profile.n + 1):
        assert k.single_place_gap_count(profile, place) == g
