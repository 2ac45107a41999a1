"""Membership, gap, and maximality criteria for lattice points.

All decisions reduce to exact floor/ceiling sums over the ramification
data; no Riemann-Roch space is ever materialized.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from itertools import product

from .arith import unique_t
from .errors import IndexNotDistinguished
from .model import RamificationProfile
from .model import genus as profile_genus


class Verdict(enum.Enum):
    MEMBER = "Member"
    GAP = "Gap"
    PURE_GAP = "PureGap"
    NON_MEMBER_OUTSIDE_BOX = "NonMemberOutsideBox"


# drops: the frozenset of 1-based coordinates where the dimension drops
Classification = namedtuple("Classification", "verdict drops")


class MaximalKind(enum.Enum):
    ABSOLUTE = "absolute"
    RELATIVE = "relative"

    def rho(self, n: int) -> int:
        return 0 if self is MaximalKind.ABSOLUTE else n - 2


def _criterion_sum(alpha, t: int, compiled) -> int:
    """sum floor((alpha_k + t*lambda_k)/m) over distinguished places
    plus S(t), the sum of floor(t*lambda_k/m) over the rest."""
    m = compiled.m
    total = compiled.tail_sum(t)
    for a, lam in zip(alpha, compiled.head):
        total += (a + t * lam) // m
    return total


def _drop(alpha, k: int, compiled) -> bool:
    """The drop test at the 0-based distinguished coordinate k."""
    t = (-alpha[k] * compiled.inverses[k]) % compiled.m
    return _criterion_sum(alpha, t, compiled) < 0


def ell_drop(i: int, alpha, profile) -> bool:
    """True iff the Riemann-Roch dimension at alpha does not change when
    the i-th distinguished place is subtracted; valid for any alpha in Z^n."""
    if not 1 <= i <= profile.n:
        raise IndexNotDistinguished(f"coordinate index {i} not in 1..{profile.n}")
    return _drop(alpha, i - 1, profile.compiled)


def classify(alpha, profile) -> Classification:
    """Full verdict for a lattice point.

    Member iff no coordinate drops.  Gap / pure gap verdicts apply only
    inside N_0^n, where those notions are defined; non-members with a
    negative coordinate are tagged NonMemberOutsideBox.
    """
    c = profile.compiled
    drops = frozenset(k + 1 for k in range(c.n) if _drop(alpha, k, c))
    if not drops:
        return Classification(Verdict.MEMBER, drops)
    if any(a < 0 for a in alpha):
        return Classification(Verdict.NON_MEMBER_OUTSIDE_BOX, drops)
    if len(drops) == c.n:
        return Classification(Verdict.PURE_GAP, drops)
    return Classification(Verdict.GAP, drops)


def is_member(alpha, profile) -> bool:
    c = profile.compiled
    for k in range(c.n):
        if _drop(alpha, k, c):
            return False
    return True


def _threshold(alpha, k: int, a: int, c) -> int:
    """The drop test at place k is alpha_a < T on the axis a != k: with
    alpha_k, hence t, fixed the criterion sum is nondecreasing in alpha_a.
    T = -m*R - t*lambda_a, where R is the sum without its a-term; alpha_a
    itself is never read."""
    m, head = c.m, c.head
    t = (-alpha[k] * c.inverses[k]) % m
    r = c.tail_sum(t)
    for j, x in enumerate(alpha):
        if j != a:
            r += (x + t * head[j]) // m
    return -m * r - t * head[a]


def classify_window(window, profile):
    """(alpha, verdict) for every lattice point of the window, in the
    order of window.points(), with the verdicts of classify.

    Places 1..n-1 drop where alpha_n is below a threshold fixed per row
    (alpha_1..alpha_{n-1}); place n drops where alpha_{n-1} is below a
    threshold fixed per alpha_n, listed once per (alpha_1..alpha_{n-2}).
    Needs n >= 2.
    """
    c = profile.compiled
    n = c.n
    if n < 2 or window.n != n:
        raise ValueError(f"need a window of n = {n} >= 2 coordinates")
    ranges = [range(lo, hi + 1) for lo, hi in window.bounds]
    last = ranges[-1]
    member, outside = Verdict.MEMBER, Verdict.NON_MEMBER_OUTSIDE_BOX
    pure, gap = Verdict.PURE_GAP, Verdict.GAP
    for prefix in product(*ranges[:-2]):
        # alpha_{n-1} is a placeholder: _threshold skips the axis it solves
        thresholds_n = [_threshold((*prefix, 0, x), n - 1, n - 2, c) for x in last]
        for y in ranges[-2]:
            row = (*prefix, y)
            ts = [_threshold(row + (0,), k, n - 1, c) for k in range(n - 1)]
            hi, lo = max(ts), min(ts)
            negative = min(row) < 0
            for x, tn in zip(last, thresholds_n):
                if x >= hi and y >= tn:
                    verdict = member
                elif negative or x < 0:
                    verdict = outside
                elif x < lo and y < tn:
                    verdict = pure
                else:
                    verdict = gap
                yield row + (x,), verdict


def _maximality_sum(alpha, t: int, profile) -> int:
    """sum ceil(alpha_k/m) over distinguished places plus sum
    floor(t*lambda_k/m) over all places: the criterion sum with each
    alpha_k rounded up to a multiple of m."""
    m = profile.m
    return _criterion_sum([-(-a // m) * m for a in alpha], t, profile.compiled)


def is_maximal_by_criterion(alpha, kind: MaximalKind, profile) -> bool:
    """Single entry point for both maximality flavors."""
    t = unique_t(alpha, profile)
    if t is None:
        return False
    return _maximality_sum(alpha, t, profile) == kind.rho(profile.n)


def single_place_gap_count(profile, place: int = 1) -> int:
    """Number of gaps at one distinguished place, computed with the same
    drop criterion restricted to a single coordinate.

    By the classical gap theorem this must equal the genus; used as an
    independent cross-check of the ramification data.
    """
    if not 1 <= place <= profile.n:
        raise IndexNotDistinguished(f"place index {place} not in 1..{profile.n}")
    # the chosen place moves to the front, as the only distinguished one
    lams = list(profile.lambdas)
    lams.insert(0, lams.pop(place - 1))
    restricted = RamificationProfile(profile.m, lams, 1)
    g = profile_genus(profile)
    return sum(
        1 for a in range(0, 2 * g + 2) if ell_drop(1, (a,), restricted)
    )
