"""The definitional brute-force oracle and its agreement with the
explicit enumeration."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kummerws as k
from kummerws.membership import MaximalKind

from conftest import ALL_PROFILES, BM23, K1, K2, K2_N3, SCAN_WINDOWS, valid_profiles

A = MaximalKind.ABSOLUTE
R = MaximalKind.RELATIVE


def test_nabla_examples():
    assert k.nabla_nonempty((1, 1), {1}, K1) is False
    assert k.nabla_nonempty((2, 2, 2), {1, 2}, K2_N3) is True
    assert k.nabla_nonempty((0, 0), {1}, K1) is False


def test_nabla_rejects_bad_subset():
    with pytest.raises(ValueError):
        k.nabla_nonempty((1, 1), set(), K1)
    with pytest.raises(ValueError):
        k.nabla_nonempty((1, 1), {1, 2}, K1)


def test_nabla_budget_exceeded():
    with pytest.raises(k.BudgetExceeded):
        k.nabla_nonempty((10**6, 5), {2}, K1, budget=100)


@settings(max_examples=60, deadline=None)
@given(valid_profiles(), st.data())
def test_nabla_matches_wide_scan(profile, data):
    """nabla_nonempty against a plain scan of a wider box: every free
    coordinate runs from -(|alpha_1| + ... + |alpha_n|) - 3 up to
    alpha_i - 1, with no coordinate-sum bound and no point skipped."""
    n = profile.n
    alpha = tuple(data.draw(st.lists(st.integers(-3, 5), min_size=n, max_size=n)))
    J = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))
    low = -sum(map(abs, alpha)) - 3
    axes = [
        (a,) if i in J else range(low, a)
        for i, a in enumerate(alpha, start=1)
    ]
    expected = any(k.is_member(beta, profile) for beta in product(*axes))
    assert k.nabla_nonempty(alpha, J, profile) is expected


def test_definitional_examples():
    assert k.is_maximal_definitional((1, 1), A, K1) is True
    # (2, 2) is a member of K1 but not maximal
    assert k.is_member((2, 2), K1)
    assert k.is_maximal_definitional((2, 2), A, K1) is False
    assert k.is_maximal_definitional((2, 2, 2), R, K2_N3) is True


def test_definitional_rejects_non_members():
    assert k.is_maximal_definitional((1, 0), A, K1) is False
    assert k.is_maximal_definitional((1, -1), A, K1) is False


def test_crosscheck_k1_window():
    report = k.crosscheck_window(A, k.Window(((-4, 7), (-4, 7))), K1)
    assert report.agree
    assert report.points_scanned == 144
    assert report.mismatches == ()


def test_crosscheck_k2_contains_generators():
    w = k.Window(((0, 12), (0, 12)))
    report = k.crosscheck_window(A, w, K2)
    assert report.agree
    inside = {
        e.coords for e in k.enumerate_maximal_in_window(A, w, K2)
    }
    assert {(6, 1), (1, 6), (2, 2), (3, 3)} <= inside


def test_crosscheck_bm_counts_generating_set():
    w = k.Window(((0, 19), (0, 19)))
    report = k.crosscheck_window(A, w, BM23)
    assert report.agree
    gen = {e.coords for e in k.enumerate_minimal_generating(A, BM23)}
    assert len(gen) == 10
    windowed = {e.coords for e in k.enumerate_maximal_in_window(A, w, BM23)}
    assert gen <= windowed


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
@pytest.mark.parametrize("kind", [A, R])
def test_crosscheck_all_fixtures(name, kind):
    profile = ALL_PROFILES[name]
    report = k.crosscheck_window(kind, k.Window(SCAN_WINDOWS[name]), profile)
    assert report.agree, report.mismatches


def test_crosscheck_is_deterministic():
    w = k.Window(((-4, 7), (-4, 7)))
    first = k.crosscheck_window(A, w, K1)
    second = k.crosscheck_window(A, w, K1)
    assert first == second
