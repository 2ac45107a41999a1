"""Enumeration of maximal elements, cardinalities, and block counts."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kummerws as k
from kummerws.membership import MaximalKind, Verdict

from conftest import ALL_PROFILES, BM23, K1, K2, K2_N3, SCAN_WINDOWS, valid_profiles

A = MaximalKind.ABSOLUTE
R = MaximalKind.RELATIVE


def coords(elements):
    return [e.coords for e in elements]


def test_window_is_validated():
    with pytest.raises(ValueError):
        k.Window(((3, 2),))


def test_window_membership_and_size():
    w = k.Window(((0, 2), (-1, 1)))
    assert w.size() == 9
    assert (1, 0) in w
    assert (3, 0) not in w
    assert len(list(w.points())) == 9


def test_enumerate_window_k1_examples():
    w = k.Window(((-6, 8), (-6, 8)))
    got = set(coords(k.enumerate_maximal_in_window(A, w, K1)))
    for pt in [(1, 1), (4, -2), (-2, 4), (0, 0), (3, -3), (-3, 3), (6, -6), (2, -1)]:
        assert pt in got
    # every emitted point satisfies the criterion
    for pt in got:
        assert k.is_maximal_by_criterion(pt, A, K1)


def test_enumerate_window_point_box():
    w = k.Window(((0, 0), (0, 0)))
    assert coords(k.enumerate_maximal_in_window(A, w, K1)) == [(0, 0)]


def test_enumerate_window_k2n3_relative_contains_generators():
    w = k.Window(((0, 10),) * 3)
    got = set(coords(k.enumerate_maximal_in_window(R, w, K2_N3)))
    for pt in [(6, 1, 1), (1, 6, 1), (1, 1, 6), (2, 2, 2), (3, 3, 3)]:
        assert pt in got


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
@pytest.mark.parametrize("kind", [A, R])
def test_window_enumeration_sound_and_complete(name, kind):
    profile = ALL_PROFILES[name]
    w = k.Window(SCAN_WINDOWS[name])
    stream = list(k.enumerate_maximal_in_window(kind, w, profile))
    got = coords(stream)
    assert len(got) == len(set(got)), "duplicate points emitted"
    for e in stream:
        assert e.coords in w
        assert k.is_maximal_by_criterion(e.coords, kind, profile)
    expected = {
        a for a in w.points() if k.is_maximal_by_criterion(a, kind, profile)
    }
    assert set(got) == expected


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
@pytest.mark.parametrize("kind", [A, R])
def test_window_enumeration_order_is_deterministic(name, kind):
    profile = ALL_PROFILES[name]
    w = k.Window(SCAN_WINDOWS[name])
    first = list(k.enumerate_maximal_in_window(kind, w, profile))
    second = list(k.enumerate_maximal_in_window(kind, w, profile))
    assert first == second
    # branch order: residues ascending, m-multiples last; lexicographic js
    branches = [e.residue for e in first]
    keyed = [(profile.m if b is None else b) for b in branches]
    assert keyed == sorted(keyed)
    for b in set(branches):
        js = [e.js for e in first if e.residue == b]
        assert js == sorted(js)


def test_minimal_generating_examples():
    assert coords(k.enumerate_minimal_generating(A, K1)) == [(1, 1)]
    assert sorted(coords(k.enumerate_minimal_generating(A, K2))) == [
        (1, 6),
        (2, 2),
        (3, 3),
        (6, 1),
    ]
    assert sorted(coords(k.enumerate_minimal_generating(R, K2_N3))) == [
        (1, 1, 6),
        (1, 6, 1),
        (2, 2, 2),
        (3, 3, 3),
        (6, 1, 1),
    ]


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
@pytest.mark.parametrize("kind", [A, R])
def test_minimal_generating_properties(name, kind):
    profile = ALL_PROFILES[name]
    elements = k.enumerate_minimal_generating(kind, profile)
    pts = coords(elements)
    assert len(pts) == len(set(pts))
    for pt in pts:
        assert all(c >= 1 for c in pt)
        assert k.is_maximal_by_criterion(pt, kind, profile)
        assert k.is_member(pt, profile)


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
@pytest.mark.parametrize("kind", [A, R])
def test_generating_set_is_positive_slice_of_full_set(name, kind):
    """Intersecting the windowed enumeration with all-positive coordinates
    reproduces the finite generating set (on a window that contains it)."""
    profile = ALL_PROFILES[name]
    gen = set(coords(k.enumerate_minimal_generating(kind, profile)))
    hi = max((max(pt) for pt in gen), default=profile.m) + profile.m
    w = k.Window(((1, hi),) * profile.n)
    windowed = set(coords(k.enumerate_maximal_in_window(kind, w, profile)))
    assert gen == {pt for pt in windowed if max(pt) <= hi}
    # the m-multiples branch never reaches the all-positive region
    for e in k.enumerate_maximal_in_window(kind, w, profile):
        assert e.residue is not None


def test_cardinality_examples():
    assert k.cardinality(A, K1) == 1
    assert k.cardinality(A, K2) == 4
    assert k.cardinality(R, K2_N3) == 5
    assert k.cardinality(A, BM23) == 10


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
@pytest.mark.parametrize("kind", [A, R])
def test_cardinality_matches_enumeration(name, kind):
    profile = ALL_PROFILES[name]
    assert k.cardinality(kind, profile) == len(
        k.enumerate_minimal_generating(kind, profile)
    )


def test_relative_equals_absolute_cardinality_at_n2():
    for name, profile in ALL_PROFILES.items():
        if profile.n == 2:
            assert k.cardinality(A, profile) == k.cardinality(R, profile)


def test_block_count_examples():
    assert k.block_counts(A, K1).get(0, 0) == 1
    assert k.block_counts(A, K1).get(1, 0) == 0
    assert k.block_counts(A, K2).get(1, 0) == 1


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
@pytest.mark.parametrize("kind", [A, R])
def test_block_count_identity(name, kind):
    """Sum over blocks of C(k+n-1, n-1) * |block k| equals the cardinality."""
    profile = ALL_PROFILES[name]
    n = profile.n
    total = sum(
        comb(key + n - 1, n - 1) * count
        for key, count in k.block_counts(kind, profile).items()
    )
    assert total == k.cardinality(kind, profile)


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_blocks_partition_the_generating_set(name):
    """Each element of the finite set lands in the block named by its
    first coordinate's multiple of m, when the others are below m."""
    profile = ALL_PROFILES[name]
    m, n = profile.m, profile.n
    for kind in (A, R):
        counted = {}
        for e in k.enumerate_minimal_generating(kind, profile):
            first, rest = e.coords[0], e.coords[1:]
            if all(0 <= c < m for c in rest):
                counted[first // m] = counted.get(first // m, 0) + 1
        for key, count in counted.items():
            assert count == k.block_counts(kind, profile).get(key, 0)


# S. J. Kim, Arch. Math. 62 (1994): at n = 2 the maximal elements in the
# positive quadrant are the graph of a bijection between the gap sequences
# of the two places, so there are exactly g of them.  The genus comes from
# the Riemann-Hurwitz formula alone, sharing no code with beta or the
# enumeration.  No analogue is stated for n >= 3.


@settings(max_examples=100, deadline=None)
@given(valid_profiles().map(lambda p: k.RamificationProfile(p.m, p.lambdas, 2)))
def test_n2_maximal_count_is_the_genus(profile):
    assert k.validate(profile).ok
    g = k.genus(profile)
    assert k.cardinality(A, profile) == g
    assert len(k.enumerate_minimal_generating(A, profile)) == g


def test_n2_maximal_count_is_the_genus_beelen_montanucci():
    profile = k.preset_beelen_montanucci(9, 5, 2)
    assert k.cardinality(A, profile) == k.genus(profile) == 2361636


def _gap_sequences(profile):
    """G(P_1) and G(P_2) of an n = 2 profile, from the single-place drop
    test on the axes; every gap lies below 2g."""
    g = k.genus(profile)
    first = {a for a in range(2 * g + 1) if k.ell_drop(1, (a, 0), profile)}
    second = {b for b in range(2 * g + 1) if k.ell_drop(2, (0, b), profile)}
    return first, second


@settings(max_examples=100, deadline=None)
@given(valid_profiles(n=2))
def test_n2_generating_coordinates_are_the_gap_sequences(profile):
    """Kim 1994: the positive maximal elements are the graph of a
    bijection sigma: G(P_1) -> G(P_2)."""
    first, second = _gap_sequences(profile)
    pairs = coords(k.enumerate_minimal_generating(A, profile))
    assert {a for a, _ in pairs} == first
    assert {b for _, b in pairs} == second


@settings(max_examples=50, deadline=None)
@given(valid_profiles(n=2))
def test_n2_pure_gaps_follow_the_sigma_rule(profile):
    """Homma 1996, Homma-Kim 2001: the pure gaps are the (a, b) in
    G(P_1) x G(P_2) with b < sigma(a) and a < sigma^-1(b)."""
    first, second = _gap_sequences(profile)
    sigma = dict(coords(k.enumerate_minimal_generating(A, profile)))
    inverse = {b: a for a, b in sigma.items()}
    expected = {
        (a, b) for a in first for b in second if b < sigma[a] and a < inverse[b]
    }
    g = k.genus(profile)
    box = k.Window(((0, 2 * g), (0, 2 * g)))
    got = {
        alpha for alpha, verdict in k.classify_window(box, profile)
        if verdict is Verdict.PURE_GAP
    }
    assert got == expected


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_degree_at_least_2g_is_a_member(n, data):
    """Riemann-Roch: a divisor of degree >= 2g is non-special, so no place
    drops; checked on every point of [0, 2g + 1]^n with sum >= 2g."""
    profile = data.draw(
        valid_profiles(n=n, max_m=6).filter(lambda p: k.genus(p) <= 5)
    )
    g = k.genus(profile)
    box = k.Window(((0, 2 * g + 1),) * n)
    for alpha, verdict in k.classify_window(box, profile):
        if sum(alpha) >= 2 * g:
            assert verdict is Verdict.MEMBER, alpha
