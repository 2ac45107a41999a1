"""Profile validation, genus, presets, and the JSON format."""

import io
import json

import pytest

import kummerws as k

from conftest import (
    ALL_PROFILES,
    K1,
    K2,
    bm_beta_closed_form,
    separable_beta_closed_form,
    xy_family_beta_closed_form,
)


def messages(report):
    return " | ".join(v.message for v in report.violations)


def test_validate_accepts_k1():
    assert k.validate(K1).ok


def test_validate_rejects_non_coprime_distinguished():
    report = k.validate(k.RamificationProfile(4, (2, 2, -4), 2))
    assert not report.ok
    assert "gcd" in messages(report)


def test_validate_rejects_nonzero_lambda_sum():
    report = k.validate(k.RamificationProfile(3, (1, 1, -1), 2))
    assert not report.ok
    assert "sum of lambdas" in messages(report)


def test_validate_rejects_zero_lambda_and_bad_n():
    report = k.validate(k.RamificationProfile(3, (0, 1, -1), 4))
    assert not report.ok
    assert "nonzero" in messages(report)
    assert "n must satisfy" in messages(report)


def test_validate_dth_power_check():
    # every lambda divisible by 2, and 2 | m: f would be a square
    report = k.validate(k.RamificationProfile(6, (2, 2, 2, -6), 2))
    assert any("d-th power" in v.message for v in report.errors)


def test_validate_field_info():
    bad_char = k.RamificationProfile(4, (1, 1, -2), 2, field_info=(2, 4))
    assert any(
        "divides m" in v.message for v in k.validate(bad_char).errors
    )
    small_q = k.RamificationProfile(3, (1, 1, 1, -3), 3, field_info=(2, 2))
    report = k.validate(small_q)
    assert report.ok  # q < n is only a warning
    assert any("q=2 < n=3" in v.message for v in report.warnings)


def test_genus_examples():
    assert k.genus(K1) == 1
    assert k.genus(K2) == 4
    assert k.genus(k.RamificationProfile(2, (1, 1, 1, -3), 2)) == 1


def test_genus_inconsistent_data():
    # not a valid profile; the ramification sums are degenerate enough to
    # produce an odd or negative count
    with pytest.raises(k.InconsistentProfile):
        k.genus(k.RamificationProfile(6, (1, -2), 2))
    with pytest.raises(k.InconsistentProfile):
        k.genus(k.RamificationProfile(6, (2, -2), 2))


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_all_fixture_profiles_validate(name):
    assert k.validate(ALL_PROFILES[name]).ok


# -- presets ---------------------------------------------------------------


def test_preset_separable():
    assert k.preset_separable(3, 2, 2) == K1
    assert k.preset_separable(5, 3, 2) == K2
    p = k.preset_separable(4, 2, 2)
    assert (p.m, p.lambdas, p.n) == (4, (1, 1, -2), 2)
    assert k.validate(p).ok  # gcd(m, t) = 2 is fine


@pytest.mark.parametrize(
    "args",
    [(1, 2, 2), (3, 1, 2), (3, 2, 3), (3, 2, 1)],
)
def test_preset_separable_rejects(args):
    with pytest.raises(k.BadPreset):
        k.preset_separable(*args)


def test_preset_xabns():
    p = k.preset_xabns(2, 2, 1, 3, 13, 2)
    assert p.m == 5
    assert p.lambdas == (1, 1) + (5,) * 6 + (-32,)
    assert [k.beta(i, p) for i in range(1, 5)] == [1, 1, 0, 0]
    assert k.preset_xabns(2, 2, 1, 3, 1, 2).m == 65


@pytest.mark.parametrize(
    "args",
    [
        (4, 2, 1, 3, 1, 2),  # p not prime
        (2, 2, 2, 3, 1, 2),  # b not < a
        (2, 4, 3, 3, 1, 2),  # b does not divide a
        (2, 2, 1, 4, 1, 2),  # even exponent
        (2, 2, 1, 3, 7, 2),  # s does not divide (q^3+1)/(q+1)
        (2, 2, 1, 3, 1, 3),  # n > q/d
    ],
)
def test_preset_xabns_rejects(args):
    with pytest.raises(k.BadPreset):
        k.preset_xabns(*args)


def test_preset_yns():
    p = k.preset_yns(2, 3, 3, 2)
    assert p.m == 3
    assert p.lambdas == (1, 1, 3, 3, -8)
    assert [k.beta(i, p) for i in (1, 2)] == [1, 0]
    assert k.preset_yns(2, 3, 1, 2).m == 9


def test_preset_yns_rejects():
    with pytest.raises(k.BadPreset):
        k.preset_yns(6, 3, 1, 2)  # not a prime power
    with pytest.raises(k.BadPreset):
        k.preset_yns(2, 3, 1, 3)  # n > q


def test_preset_beelen_montanucci():
    p = k.preset_beelen_montanucci(2, 3, 2)
    assert p.m == 9
    assert p.lambdas == (1, 1, 1, 3, -6)
    assert [k.beta(i, p) for i in range(1, 9)] == [3, 2, 1, 2, 1, 0, 1, 0]


def test_preset_bm_rejects():
    with pytest.raises(k.BadPreset):
        k.preset_beelen_montanucci(2, 2, 2)
    with pytest.raises(k.BadPreset):
        k.preset_beelen_montanucci(2, 3, 4)  # n > q + 1


# -- closed forms ----------------------------------------------------------


def test_separable_closed_form_all_residues():
    for m, t in [(3, 2), (5, 3), (4, 2), (7, 4), (6, 4)]:
        p = k.preset_separable(m, t, 2)
        for i in range(1, m):
            assert k.beta(i, p) == separable_beta_closed_form(i, m, t)


def test_xy_family_closed_form_all_residues():
    p = k.preset_xabns(2, 2, 1, 3, 13, 2)
    for i in range(1, p.m):
        assert k.beta(i, p) == xy_family_beta_closed_form(i, 4, 2, p.m)
    y = k.preset_yns(2, 3, 3, 2)
    for i in range(1, y.m):
        assert k.beta(i, y) == xy_family_beta_closed_form(i, 2, 1, y.m)
    y1 = k.preset_yns(2, 3, 1, 2)
    for i in range(1, y1.m):
        assert k.beta(i, y1) == xy_family_beta_closed_form(i, 2, 1, y1.m)


def test_bm_closed_form_all_residues():
    for q, n_exp in [(2, 3), (3, 3)]:
        p = k.preset_beelen_montanucci(q, n_exp, 2)
        for i in range(1, p.m):
            assert k.beta(i, p) == bm_beta_closed_form(i, q, p.m)


# -- JSON ------------------------------------------------------------------


def test_profile_json_round_trip():
    p = k.RamificationProfile(
        5, (1, 1, 1, -3), 2, labels=("a", "b", "c", "pole"), field_info=(5, 25)
    )
    buf = io.StringIO()
    k.dump_profile(p, buf)
    buf.seek(0)
    assert k.profile_from_dict(json.load(buf)) == p


def test_profile_json_minimal_fields():
    p = k.profile_from_dict({"m": 3, "lambdas": [1, 1, -2], "n": 2})
    assert p == K1
    data = k.profile_to_dict(p)
    assert data == {"m": 3, "lambdas": [1, 1, -2], "n": 2}
    assert json.loads(json.dumps(data)) == data


def test_profile_json_malformed():
    with pytest.raises(ValueError):
        k.profile_from_dict({"m": 3, "n": 2})
    with pytest.raises(ValueError):
        k.profile_from_dict({"m": "x", "lambdas": [1, -1], "n": 2})
