"""Explicit enumeration of absolute and relative maximal elements.

The sets split into m-1 residue branches plus one branch of m-multiples;
each branch is an affine hyperplane (fixed coordinate sum in j-space)
intersected with a box, enumerated analytically per coordinate so no
dead lattice point is ever visited.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import product
from math import comb

from .arith import BetaTable
from .membership import MaximalKind


class Window(namedtuple("Window", "bounds")):
    """Closed per-coordinate integer intervals [lo_k, hi_k]."""

    __slots__ = ()

    def __new__(cls, bounds):
        bounds = tuple(tuple(b) for b in bounds)  # of (lo, hi) pairs
        for lo, hi in bounds:
            if lo > hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")
        return super().__new__(cls, bounds)

    @property
    def n(self) -> int:
        return len(self.bounds)

    def __contains__(self, point) -> bool:
        return all(lo <= a <= hi for a, (lo, hi) in zip(point, self.bounds))

    def points(self):
        """All lattice points, lexicographic."""
        return product(*(range(lo, hi + 1) for lo, hi in self.bounds))

    def size(self) -> int:
        total = 1
        for lo, hi in self.bounds:
            total *= hi - lo + 1
        return total


# residue: the branch residue i, or None for the m-multiples branch
MaximalElement = namedtuple("MaximalElement", "coords residue js")


def _sum_compositions(ranges, total):
    """All integer tuples (j_1..j_n) with j_k in ranges[k] and fixed sum,
    in lexicographic order; the last coordinate is forced."""
    n = len(ranges)
    suffix_min = [0] * (n + 1)
    suffix_max = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix_min[k] = suffix_min[k + 1] + ranges[k][0]
        suffix_max[k] = suffix_max[k + 1] + ranges[k][1]

    def rec(prefix, k, remaining):
        if k == n - 1:
            lo, hi = ranges[k]
            if lo <= remaining <= hi:
                yield tuple(prefix + [remaining])
            return
        lo, hi = ranges[k]
        # j_k must leave a reachable remainder for the suffix
        lo = max(lo, remaining - suffix_max[k + 1])
        hi = min(hi, remaining - suffix_min[k + 1])
        for j in range(lo, hi + 1):
            yield from rec(prefix + [j], k + 1, remaining - j)

    if n:
        yield from rec([], 0, total)


def _offsets(profile, i):
    """Per-coordinate residues t_k(i) = i*lambda_k mod m; zero on the
    m-multiples branch."""
    c = profile.compiled
    return [0] * c.n if i is None else [i * lam % c.m for lam in c.head]


def _branch(m, offsets, ranges, i, target):
    """Points m*j + offsets of one residue branch, over the j in the
    per-coordinate ranges whose coordinate sum is the branch target."""
    for js in _sum_compositions(ranges, target):
        coords = tuple(m * j + off for j, off in zip(js, offsets))
        yield MaximalElement(coords, i, js)


def _branch_in_window(profile, window, i, target):
    """One residue branch (i = None for the m-multiples branch)."""
    m = profile.m
    offsets = _offsets(profile, i)
    ranges = [
        (-((off - lo) // m), (hi - off) // m)
        for (lo, hi), off in zip(window.bounds, offsets)
    ]
    if all(lo <= hi for lo, hi in ranges):
        yield from _branch(m, offsets, ranges, i, target)


def branch_targets(kind: MaximalKind, profile):
    """(beta, shift): the coordinate-sum target in j-space of residue
    branch i is beta[i] + shift = beta(i) + 1 - n + rho; the m-multiples
    branch's target is rho."""
    return BetaTable.build(profile).beta, 1 - profile.n + kind.rho(profile.n)


def enumerate_maximal_in_window(kind: MaximalKind, window: Window, profile):
    """All maximal elements of the chosen kind inside the window, as a
    deterministic stream: residue branches 1..m-1 then the m-multiples
    branch, lexicographic within each branch."""
    beta, shift = branch_targets(kind, profile)
    for i in range(1, profile.m):
        yield from _branch_in_window(profile, window, i, beta[i] + shift)
    yield from _branch_in_window(profile, window, None, kind.rho(profile.n))


def enumerate_minimal_generating(kind: MaximalKind, profile):
    """The finite set of maximal elements with all coordinates >= 1: for
    each residue branch, all nonnegative compositions of the branch target.

    The m-multiples branch never contributes (its all-positive solutions
    would need coordinate sum >= n > rho).
    """
    beta, shift = branch_targets(kind, profile)
    out = []
    n = profile.n
    for i in range(1, profile.m):
        target = beta[i] + shift
        if target >= 0:
            offsets = _offsets(profile, i)
            out.extend(_branch(profile.m, offsets, [(0, target)] * n, i, target))
    return out


def cardinality(kind: MaximalKind, profile) -> int:
    """|Upsilon(Q)| = sum over residues of C(beta(i) + rho, n - 1), with
    C(a, b) = 0 whenever a < b (including negative a).  A branch with
    target k = beta(i) + 1 - n + rho >= 0 contributes C(k + n - 1, n - 1),
    so the sum is taken block by block."""
    n = profile.n
    return sum(
        comb(k + n - 1, n - 1) * count
        for k, count in block_counts(kind, profile).items()
    )


def block_counts(kind: MaximalKind, profile) -> dict:
    """All nonzero block counts, keyed by k."""
    beta, shift = branch_targets(kind, profile)
    counts = Counter(beta[1:])
    return {b + shift: c for b, c in sorted(counts.items()) if b + shift >= 0}
