"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time
from math import comb

import kummerws as k
from kummerws.cli import main as cli_main
from kummerws.membership import MaximalKind

from conftest import (
    ALL_PROFILES,
    BM23,
    K1,
    K2,
    K2_N3,
    SCAN_WINDOWS,
    SEP42,
    X2213_13,
    Y233,
    bm_beta_closed_form,
    separable_beta_closed_form,
    xy_family_beta_closed_form,
)

A = MaximalKind.ABSOLUTE
R = MaximalKind.RELATIVE


def report(line):
    print(f"ACCEPTANCE {line}")


def test_criterion_1_oracle_equivalence():
    """Formula vs definitional oracle on every fixture, both kinds,
    windows up to 1e5 points, zero mismatches, under 60 s total."""
    start = time.monotonic()
    windows = dict(SCAN_WINDOWS)
    checks = [(name, kind, windows[name]) for name in sorted(ALL_PROFILES)
              for kind in (A, R)]
    # one full-size window on the smallest fixture
    checks.append(("K1", A, ((-158, 157), (-158, 157))))
    total_points = 0
    for name, kind, bounds in checks:
        profile = ALL_PROFILES[name]
        rep = k.crosscheck_window(kind, k.Window(bounds), profile)
        assert rep.agree, (name, kind, rep.mismatches)
        total_points += rep.points_scanned
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f} s"
    report(f"1 PASS oracle equivalence: {len(checks)} windows, "
           f"{total_points} points, {elapsed:.1f} s, zero mismatches")


def test_criterion_2_cardinality_formula():
    """Binomial-sum cardinality equals both the enumeration and an
    independent definitional-oracle count of the positive region."""
    expected = [
        (K1, A, 1),
        (K2, A, 4),
        (K2_N3, R, 5),
        (X2213_13, A, 2),
        (Y233, A, 1),
        (BM23, A, 10),
    ]
    for profile, kind, value in expected:
        assert k.cardinality(kind, profile) == value
        gen = k.enumerate_minimal_generating(kind, profile)
        assert len(gen) == value
        # independent confirmation: brute-force count of definitionally
        # maximal points with all coordinates >= 1
        rho = kind.rho(profile.n)
        max_target = max(
            k.beta(i, profile) for i in range(1, profile.m)
        ) + 1 - profile.n + rho
        hi = profile.m * (max_target + 1)
        cache = {}
        count = sum(
            1
            for alpha in k.Window(((1, hi),) * profile.n).points()
            if k.is_maximal_definitional(alpha, kind, profile, cache=cache)
        )
        assert count == value, (profile, kind)
    report("2 PASS cardinality formula: 6 fixture values exact, "
           "oracle-confirmed")


def test_criterion_3_preset_beta_consistency():
    """Generic residue-invariant sum equals each family's closed form for
    every residue, in under 5 s."""
    start = time.monotonic()
    cases = 0
    for m, t in [(3, 2), (5, 3), (4, 2)]:
        p = k.preset_separable(m, t, 2)
        for i in range(1, m):
            assert k.beta(i, p) == separable_beta_closed_form(i, m, t)
            cases += 1
    for p, q, d in [(X2213_13, 4, 2), (Y233, 2, 1),
                    (k.preset_yns(2, 3, 1, 2), 2, 1),
                    (k.preset_xabns(2, 2, 1, 3, 1, 2), 4, 2)]:
        for i in range(1, p.m):
            assert k.beta(i, p) == xy_family_beta_closed_form(i, q, d, p.m)
            cases += 1
    for q in (2, 3):
        p = k.preset_beelen_montanucci(q, 3, 2)
        for i in range(1, p.m):
            assert k.beta(i, p) == bm_beta_closed_form(i, q, p.m)
            cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(f"3 PASS preset beta consistency: {cases} residues exact, "
           f"{elapsed:.2f} s")


def test_criterion_4_genus_gap_count():
    """Single-place gap count equals the ramification-formula genus."""
    for profile, g in [(K1, 1), (K2, 4), (SEP42, 1)]:
        assert k.genus(profile) == g
        for place in range(1, profile.n + 1):
            assert k.single_place_gap_count(profile, place) == g
    report("4 PASS genus/gap count: K1 g=1, K2 g=4, separable(4,2) g=1")


def test_criterion_5_structural_invariants():
    rng = random.Random(13)
    for name, profile in sorted(ALL_PROFILES.items()):
        w = k.Window(SCAN_WINDOWS[name])
        members = [a for a in w.points() if k.is_member(a, profile)]
        # closure under addition, 1000 random pairs
        for _ in range(1000):
            a = rng.choice(members)
            b = rng.choice(members)
            assert k.is_member(tuple(x + y for x, y in zip(a, b)), profile)
        # period shift by m in each coordinate
        for a in members[:200]:
            for j in range(profile.n):
                shifted = list(a)
                shifted[j] += profile.m
                assert k.is_member(tuple(shifted), profile)
        for a in w.points():
            # maximal points (the discrepancies) are members
            if k.is_maximal_by_criterion(a, A, profile):
                assert k.is_member(a, profile)
            # at n=2 the two maximality flavors coincide pointwise
            if profile.n == 2:
                assert k.is_maximal_by_criterion(
                    a, A, profile
                ) == k.is_maximal_by_criterion(a, R, profile)
        # block-count identity
        for kind in (A, R):
            n = profile.n
            total = sum(
                comb(key + n - 1, n - 1) * count
                for key, count in k.block_counts(kind, profile).items()
            )
            assert total == k.cardinality(kind, profile)
    report("5 PASS structural invariants: closure, shift, maximal/"
           "discrepancy membership, n=2 coincidence, block identity")


def test_criterion_6_csv_determinism(tmp_path, capsys):
    path = tmp_path / "k1.json"
    path.write_text(json.dumps({"m": 3, "lambdas": [1, 1, -2], "n": 2}))
    outputs = []
    for jobs in ("1", "3", "8"):
        code = cli_main(["maximal", str(path), "--kind", "absolute",
                         "--window=-9:12,-9:12", "--jobs", jobs])
        out = capsys.readouterr().out
        assert code == 0
        outputs.append(out.encode())
    assert outputs[0] == outputs[1] == outputs[2]
    report("6 PASS determinism: byte-identical CSV across 1/3/8 workers")
