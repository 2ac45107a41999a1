"""The compiled kernels against a plain reference: the O(n*r) sums over
every lambda, with a fresh modular inverse for every query."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kummerws as k
from kummerws.arith import BetaTable

from conftest import ALL_PROFILES, SCAN_WINDOWS, valid_profiles


def ref_t(k_, alpha, p):
    return (-alpha[k_] * pow(p.lambdas[k_], -1, p.m)) % p.m


def ref_sum(alpha, t, p):
    """sum floor((alpha_k + t*lambda_k)/m) over all places, alpha_k = 0
    beyond the distinguished ones."""
    a = list(alpha) + [0] * (p.r - p.n)
    return sum((a[j] + t * lam) // p.m for j, lam in enumerate(p.lambdas))


def ref_verdict(alpha, p):
    drops = frozenset(
        i + 1 for i in range(p.n) if ref_sum(alpha, ref_t(i, alpha, p), p) < 0
    )
    if not drops:
        return k.Verdict.MEMBER, drops
    if min(alpha) < 0:
        return k.Verdict.NON_MEMBER_OUTSIDE_BOX, drops
    return (k.Verdict.PURE_GAP if len(drops) == p.n else k.Verdict.GAP), drops


def ref_is_maximal(alpha, kind, p):
    ts = {ref_t(i, alpha, p) for i in range(p.n)}
    if len(ts) != 1:
        return False
    t = ts.pop()
    total = sum(-(-a // p.m) for a in alpha)
    total += sum(t * lam // p.m for lam in p.lambdas)
    return total == kind.rho(p.n)


def ref_beta(i, p):
    return sum(-(-i * lam // p.m) for lam in p.lambdas) - 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compiled_kernels_match_reference(data):
    p = data.draw(valid_profiles())
    m = p.m
    # points from one drawn seed keep the example small to store and shrink
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    points = [
        tuple(rnd.randint(-2 * m, 3 * m) for _ in range(p.n)) for _ in range(60)
    ]
    # one profile object for every query, so the S(t) memo is reused
    for alpha in points:
        got = k.classify(alpha, p)
        assert (got.verdict, got.drops) == ref_verdict(alpha, p)
        assert k.is_member(alpha, p) == (got.verdict is k.Verdict.MEMBER)
        for kind in k.MaximalKind:
            assert k.is_maximal_by_criterion(alpha, kind, p) == ref_is_maximal(
                alpha, kind, p
            )
    table = BetaTable.build(p)
    assert table.beta[1:] == tuple(ref_beta(i, p) for i in range(1, m))
    assert [k.beta(i, p) for i in range(1, m)] == list(table.beta[1:])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_classify_window_matches_classify(data):
    p = data.draw(valid_profiles())
    m = p.m
    # one drawn seed gives the window: negative lower bounds, 1-wide axes
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    side = round(2000 ** (1 / p.n))  # at most about 2000 points
    bounds = []
    for _ in range(p.n):
        lo = rnd.randint(-2 * m, 2 * m)
        bounds.append((lo, lo + rnd.choice((0, rnd.randint(1, side)))))
    w = k.Window(tuple(bounds))
    expected = [(a, k.classify(a, p).verdict) for a in w.points()]
    assert list(k.classify_window(w, p)) == expected


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_classify_window_on_fixtures(name):
    """Whole fixture windows reach the points where two drop tests sit
    on their thresholds at once, which random small windows seldom do."""
    p, w = ALL_PROFILES[name], k.Window(SCAN_WINDOWS[name])
    expected = [(a, k.classify(a, p).verdict) for a in w.points()]
    assert list(k.classify_window(w, p)) == expected
