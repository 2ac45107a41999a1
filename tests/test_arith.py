"""Unit and property tests for the exact integer helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kummerws as k
from kummerws.arith import BetaTable, lambda_gcd
from kummerws.maximal import _offsets

from conftest import ALL_PROFILES, K1, K2


def test_beta_examples():
    assert k.beta(1, K1) == 1
    assert k.beta(2, K1) == 0
    assert k.beta(4, K2) == 0


def test_beta_rejects_out_of_range_residue():
    with pytest.raises(k.ResidueOutOfRange):
        k.beta(0, K1)
    with pytest.raises(k.ResidueOutOfRange):
        k.beta(3, K1)


def test_t_of_examples():
    """t_k(i) = i*lambda_k mod m, the residue of the k-th coordinate on
    residue branch i; zero on the m-multiples branch."""
    p = k.RamificationProfile(5, (2, 2, -4), 2)
    assert _offsets(p, 3)[0] == 1  # 6 mod 5
    p2 = k.RamificationProfile(3, (-2, 1, 1), 2)
    assert _offsets(p2, 1)[0] == 1  # -2 mod 3
    assert _offsets(p2, 2)[1] == 2
    assert _offsets(p2, None) == [0, 0]


def test_unique_t_examples():
    assert k.unique_t((1, 1), K1) == 2
    assert k.unique_t((1, 2), K1) is None
    assert k.unique_t((0, 0), K1) == 0



def test_per_coordinate_t_examples():
    """The t solving alpha_k + t*lambda_k == 0 mod m at one place comes
    from the compiled inverse of lambda_k; unique_t is their common value."""

    def t_at(place, alpha, p):
        c = p.compiled
        return -alpha[place - 1] * c.inverses[place - 1] % c.m

    assert K1.compiled.inverses == (1, 1)
    assert t_at(1, (1, 0), K1) == 2
    assert t_at(2, (1, 0), K1) == 0
    assert k.unique_t((1, 0), K1) is None
    assert t_at(2, (1, 2), K2) == 3
    assert t_at(1, (2, 2), K2) == 3
    assert k.unique_t((2, 2), K2) == 3


@given(st.data())
def test_floor_identity_for_unique_shift(data):
    """For gcd(lam, m) = 1 the floor of (a + i*lam)/m steps up exactly at
    the unique residue class of i solving a + i*lam == 0 mod m."""
    m = data.draw(st.integers(2, 50))
    lam = data.draw(
        st.integers(-200, 200).filter(lambda x: x != 0 and math.gcd(x, m) == 1)
    )
    a = data.draw(st.integers(-500, 500))
    i = data.draw(st.integers(-500, 500))
    t = (-a * pow(lam, -1, m)) % m
    lhs = (a + i * lam) // m
    if i % m == t:
        assert lhs == (a - 1 + i * lam) // m + 1
        assert lhs == -(-a // m) + i * lam // m
    else:
        assert lhs == (a - 1 + i * lam) // m


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_t_of_is_bijection_per_place(name):
    p = ALL_PROFILES[name]
    for place in range(1, p.n + 1):
        lam = p.lambdas[place - 1]
        images = {i * lam % p.m for i in range(1, p.m)}
        assert images == set(range(1, p.m))


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_beta_reflection_sum(name):
    """beta(i) + beta(m-i) is pinned by the zero lambda-sum: it equals
    (number of places with m not dividing i*lambda_k) minus 2."""
    p = ALL_PROFILES[name]
    for i in range(1, p.m):
        r_eff = sum(1 for lam in p.lambdas if (i * lam) % p.m != 0)
        assert k.beta(i, p) + k.beta(p.m - i, p) == r_eff - 2


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_beta_table_matches_scalar_ops(name):
    p = ALL_PROFILES[name]
    table = BetaTable.build(p)
    assert table.m == p.m
    for i in range(1, p.m):
        assert table.beta[i] == k.beta(i, p)
    # the branch offsets of the enumeration are the residues t_k(i)
    for kind in k.MaximalKind:
        for e in k.enumerate_minimal_generating(kind, p):
            for place in range(1, p.n + 1):
                lam = p.lambdas[place - 1]
                assert e.coords[place - 1] % p.m == e.residue * lam % p.m


def test_mod_inverse():
    """Compiling stores lambda_k^-1 mod m for each distinguished place."""
    assert k.RamificationProfile(10, (3, 7, 1, -1), 2).compiled.inverses == (7, 3)


def test_compile_rejects_non_invertible_lambda():
    """Compiling needs lambda_k^-1 mod m at each distinguished place."""
    with pytest.raises(ValueError):
        k.RamificationProfile(10, (2, 3, -5), 2).compiled


def test_lambda_gcd():
    assert lambda_gcd(K1) == 1
    assert lambda_gcd(k.RamificationProfile(4, (2, 2, -4), 2)) == 2
