"""Exact integer arithmetic underlying the semigroup criteria.

Everything here is exact arithmetic on Python integers (arbitrary
precision), so no overflow is possible even for large exponents or
adversarial ramification data.  The per-profile constants are compiled
once, into a CompiledProfile, and shared by every query on the profile.

Conventions: place indices k and residue indices i are 1-based, matching
the usual mathematical indexing; lattice point coordinates are stored in
0-based tuples.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from math import gcd

from .errors import ResidueOutOfRange, check_budget


class CompiledProfile:
    """The constants of one profile's criteria, computed once: the
    inverses lambda_k^-1 mod m at the distinguished places, the lambdas
    grouped as (lambda, multiplicity), and the tail sums S(t)."""

    __slots__ = ("m", "n", "head", "inverses", "groups", "tail", "_sums")

    def __init__(self, profile):
        m, n, lambdas = profile.m, profile.n, profile.lambdas
        self.m, self.n, self.head = m, n, lambdas[:n]
        # pow raises ValueError when a lambda is not invertible modulo m
        self.inverses = tuple(pow(lam, -1, m) for lam in self.head)
        self.groups = tuple(Counter(lambdas).items())
        self.tail = tuple(Counter(lambdas[n:]).items())
        self._sums = {}

    def tail_sum(self, t: int) -> int:
        """S(t) = sum of floor(t*lambda/m) over the non-distinguished
        places, memoised: the criteria only ask for t in 0..m-1."""
        s = self._sums.get(t)
        if s is None:
            m = self.m
            s = self._sums[t] = sum(c * (t * lam // m) for lam, c in self.tail)
        return s


def _beta(i: int, compiled) -> int:
    m = compiled.m
    return sum(c * -(-i * lam // m) for lam, c in compiled.groups) - 1


def beta(i: int, profile) -> int:
    """The residue invariant sum(ceil(i*lambda_k / m) over all places) - 1."""
    if not 1 <= i <= profile.m - 1:
        raise ResidueOutOfRange(f"residue index {i} not in 1..{profile.m - 1}")
    return _beta(i, profile.compiled)


def unique_t(alpha, profile):
    """The common t solving alpha_k + t*lambda_k == 0 mod m at every
    distinguished coordinate, or None when the per-coordinate solutions
    disagree."""
    c = profile.compiled
    ts = {(-a * inv) % c.m for a, inv in zip(alpha, c.inverses)}
    return ts.pop() if len(ts) == 1 else None


class BetaTable(namedtuple("BetaTable", "m beta")):
    """beta(i) for every residue of one profile, shared read-only by the
    enumeration kernels; beta[i] for i in 1..m-1, beta[0] is None."""

    __slots__ = ()

    @classmethod
    def build(cls, profile) -> "BetaTable":
        m = profile.m
        check_budget(m - 1, "beta table residues")
        c = profile.compiled
        return cls(m, (None, *(_beta(i, c) for i in range(1, m))))


def lambda_gcd(profile) -> int:
    """gcd of all lambdas, reduced against m; 1 means the defining
    function is not a proper power compatible with m."""
    g = 0
    for lam in profile.lambdas:
        g = gcd(g, lam)
    return gcd(g, profile.m)
