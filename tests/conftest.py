"""Shared fixture profiles for the test suite."""

from math import gcd

from hypothesis import assume
from hypothesis import strategies as st

import kummerws as k

K1 = k.RamificationProfile(3, (1, 1, -2), 2)
K2 = k.RamificationProfile(5, (1, 1, 1, -3), 2)
K2_N3 = k.RamificationProfile(5, (1, 1, 1, -3), 3)
SEP42 = k.preset_separable(4, 2, 2)
X2213_13 = k.preset_xabns(2, 2, 1, 3, 13, 2)
Y233 = k.preset_yns(2, 3, 3, 2)
BM23 = k.preset_beelen_montanucci(2, 3, 2)

ALL_PROFILES = {
    "K1": K1,
    "K2": K2,
    "K2_n3": K2_N3,
    "separable_4_2": SEP42,
    "xabns": X2213_13,
    "yns": Y233,
    "bm": BM23,
}

# windows large enough to contain the interesting structure of each fixture
SCAN_WINDOWS = {
    "K1": ((-4, 7), (-4, 7)),
    "K2": ((-3, 12), (-3, 12)),
    "K2_n3": ((0, 7), (0, 7), (0, 7)),
    "separable_4_2": ((-3, 8), (-3, 8)),
    "xabns": ((-2, 10), (-2, 10)),
    "yns": ((-2, 10), (-2, 10)),
    "bm": ((0, 18), (0, 18)),
}


# Family-specific closed forms for beta(i); each must agree with the
# generic sum over the preset's lambdas (tested, never assumed).


def separable_beta_closed_form(i: int, m: int, t: int) -> int:
    return t - 1 - t * i // m


def xy_family_beta_closed_form(i: int, q: int, d: int, m: int) -> int:
    return (
        q // d
        + (q * (q - 1) // d) * -(-i * (q + 1) // m)
        - i * (q**3 // d) // m
        - 1
    )


def bm_beta_closed_form(i: int, q: int, m: int) -> int:
    return (
        q + 1
        + (q * q - q - 1) * -(-i * (q + 1) // m)
        - i * (q**3 - q) // m
        - 1
    )


@st.composite
def valid_profiles(draw, n=None, max_m=40):
    """Random valid profiles: m in 2..max_m, r in 3..8, n in 2..4 unless
    given, lambdas summing to 0 and drawn from a few values, so repeats
    are likely."""
    m = draw(st.integers(2, max_m))
    if n is None:
        r = draw(st.integers(3, 8))
        n = draw(st.integers(2, min(4, r)))
    else:
        r = draw(st.integers(max(3, n), 8))
    coprime = [x for x in range(-6, 7) if x and gcd(x, m) == 1]
    pool = draw(st.lists(st.sampled_from(coprime), min_size=1, max_size=3))
    # the last lambda balances the sum; it is distinguished when n = r
    size = min(n, r - 1)
    head = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    values = pool + draw(st.lists(st.integers(-6, 6).filter(bool), max_size=2))
    size = r - 1 - size
    rest = draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
    lambdas = head + rest
    lambdas.append(-sum(lambdas))
    profile = k.RamificationProfile(m, lambdas, n)
    assume(k.validate(profile).ok)  # last lambda nonzero, gcd condition
    return profile
