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

from collections import Counter
from dataclasses import dataclass
from math import gcd

from .errors import DEFAULT_BUDGET, BudgetExceeded
from .errors import IndexNotDistinguished, ResidueOutOfRange


def floor_div(a: int, m: int) -> int:
    """Exact floor of a/m toward minus infinity (m >= 1)."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    return a // m


def ceil_div(a: int, m: int) -> int:
    """Exact ceiling of a/m (m >= 1)."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    return -((-a) // m)


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m; m need not be prime, but gcd(a, m) must be 1."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {m}") from None


def _check_residue(i: int, m: int) -> None:
    if not 1 <= i <= m - 1:
        raise ResidueOutOfRange(f"residue index {i} not in 1..{m - 1}")


def t_of(k: int, i: int, profile) -> int:
    """The residue (i * lambda_k) mod m, guaranteed nonzero for
    distinguished places (gcd(lambda_k, m) = 1)."""
    if not 1 <= k <= profile.n:
        raise IndexNotDistinguished(f"place index {k} not in 1..{profile.n}")
    _check_residue(i, profile.m)
    return (i * profile.lambdas[k - 1]) % profile.m


class CompiledProfile:
    """The constants of one profile's criteria, computed once: the
    inverses lambda_k^-1 mod m at the distinguished places, the lambdas
    grouped as (lambda, multiplicity), and the tail sums S(t)."""

    __slots__ = ("m", "n", "head", "inverses", "groups", "tail", "_sums")

    def __init__(self, profile):
        m, n, lambdas = profile.m, profile.n, profile.lambdas
        self.m, self.n, self.head = m, n, lambdas[:n]
        self.inverses = tuple(mod_inverse(lam, m) for lam in self.head)
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
    _check_residue(i, profile.m)
    return _beta(i, profile.compiled)


def per_coordinate_t(i: int, alpha, profile) -> int:
    """The unique t in {0, ..., m-1} with alpha_i + t*lambda_i == 0 mod m.

    Uniqueness holds because the distinguished lambdas are coprime to m.
    """
    if not 1 <= i <= profile.n:
        raise IndexNotDistinguished(f"coordinate index {i} not in 1..{profile.n}")
    c = profile.compiled
    return (-alpha[i - 1] * c.inverses[i - 1]) % c.m


def unique_t(alpha, profile):
    """The common t solving alpha_k + t*lambda_k == 0 mod m at every
    distinguished coordinate, or None when the per-coordinate solutions
    disagree."""
    c = profile.compiled
    ts = {(-a * inv) % c.m for a, inv in zip(alpha, c.inverses)}
    return ts.pop() if len(ts) == 1 else None


@dataclass(frozen=True)
class BetaTable:
    """beta(i) for every residue of one profile, shared read-only by the
    enumeration kernels; beta[i] for i in 1..m-1, beta[0] is None."""

    m: int
    beta: tuple

    @classmethod
    def build(cls, profile) -> "BetaTable":
        m = profile.m
        if m - 1 > DEFAULT_BUDGET:
            raise BudgetExceeded(
                f"beta table would hold {m - 1} residues (budget {DEFAULT_BUDGET})"
            )
        c = profile.compiled
        return cls(m=m, beta=(None, *(_beta(i, c) for i in range(1, m))))


def lambda_gcd(profile) -> int:
    """gcd of all lambdas, reduced against m; 1 means the defining
    function is not a proper power compatible with m."""
    g = 0
    for lam in profile.lambdas:
        g = gcd(g, lam)
    return gcd(g, profile.m)
