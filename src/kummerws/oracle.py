"""Definitional brute-force verification of maximality.

Maximality is recomputed straight from its definition via the nabla
sets, using only the membership criterion over a finite region.  The
region is complete because every member has nonnegative coordinate sum:
its witnessing function is regular away from the distinguished places
and principal divisors have degree zero.  That bound is also checked
empirically on every enumerated member in the test suite.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, product

from .arith import unique_t
from .errors import DEFAULT_BUDGET, BudgetExceeded, check_budget
from .maximal import Window, enumerate_maximal_in_window
from .membership import MaximalKind, _maximality_sum, is_member


def _member(alpha, profile, cache):
    if cache is None:
        return is_member(alpha, profile)
    hit = cache.get(alpha)
    if hit is None:
        hit = cache[alpha] = is_member(alpha, profile)
    return hit


def nabla_nonempty(alpha, J, profile, budget: int = DEFAULT_BUDGET, cache=None) -> bool:
    """True iff some member agrees with alpha on the coordinates in J and
    is strictly smaller on every other coordinate.

    J holds 1-based coordinate indices, nonempty and proper.  The scan
    region per free coordinate is [L_i, alpha_i - 1] with L_i chosen so
    that anything below it forces a negative coordinate sum.
    """
    n = profile.n
    J = frozenset(J)
    if not J or not J < frozenset(range(1, n + 1)):
        raise ValueError(f"J must be a nonempty proper subset of 1..{n}")
    free = [i for i in range(1, n + 1) if i not in J]
    fixed_sum = sum(alpha[j - 1] for j in J)
    ranges = []
    size = 1
    for i in free:
        others = sum(alpha[k - 1] - 1 for k in free if k != i)
        lo = -(fixed_sum + others)
        hi = alpha[i - 1] - 1
        if lo > hi:
            return False
        # scan downward: witnesses cluster near alpha
        ranges.append(range(hi, lo - 1, -1))
        size *= hi - lo + 1
    check_budget(size, "nabla scan points", budget)
    beta = list(alpha)
    for values in product(*ranges):
        if fixed_sum + sum(values) < 0:
            continue  # no member has negative coordinate sum
        for i, v in zip(free, values):
            beta[i - 1] = v
        if _member(tuple(beta), profile, cache):
            return True
    return False


def is_maximal_definitional(
    alpha, kind: MaximalKind, profile, budget: int = DEFAULT_BUDGET, cache=None
) -> bool:
    """Maximality straight from the nabla definition.

    Both kinds require membership and every singleton nabla set empty.
    Absolute additionally requires every larger proper nabla set empty;
    relative requires them all nonempty (vacuous at n = 2, where the two
    notions coincide).
    """
    alpha = tuple(alpha)
    if not _member(alpha, profile, cache):
        return False
    n = profile.n
    relative = kind is MaximalKind.RELATIVE
    for size in range(1, n):
        want_nonempty = relative and size > 1
        for J in combinations(range(1, n + 1), size):
            if nabla_nonempty(alpha, J, profile, budget, cache) != want_nonempty:
                return False
    return True


# t: the common t, or None; criterion_sum: the ceiling/floor sum at t, or
# None; nabla_status: frozenset J -> nonempty?
Mismatch = namedtuple(
    "Mismatch", "alpha in_formula in_oracle t criterion_sum nabla_status"
)

CrosscheckReport = namedtuple(
    "CrosscheckReport", "agree mismatches window kind points_scanned",
    defaults=(0,),
)


def _evidence(alpha, profile, budget, cache):
    t = unique_t(alpha, profile)
    crit = _maximality_sum(alpha, t, profile) if t is not None else None
    status = {}
    n = profile.n
    for size in range(1, n):
        for J in combinations(range(1, n + 1), size):
            Jf = frozenset(J)
            try:
                status[Jf] = nabla_nonempty(alpha, Jf, profile, budget, cache)
            except BudgetExceeded:
                status[Jf] = None
    return t, crit, status


def crosscheck_window(
    kind: MaximalKind, window: Window, profile, budget: int = DEFAULT_BUDGET
) -> CrosscheckReport:
    """Compare the explicit enumeration against the definitional oracle
    on every point of the window; any disagreement is reported with full
    evidence."""
    formula = {e.coords for e in enumerate_maximal_in_window(kind, window, profile)}
    cache = {}
    mismatches = []
    scanned = 0
    for alpha in window.points():
        scanned += 1
        by_oracle = is_maximal_definitional(alpha, kind, profile, budget, cache)
        by_formula = alpha in formula
        if by_oracle != by_formula:
            t, crit, status = _evidence(alpha, profile, budget, cache)
            mismatches.append(
                Mismatch(alpha, by_formula, by_oracle, t, crit, status)
            )
    return CrosscheckReport(
        agree=not mismatches,
        mismatches=tuple(mismatches),
        window=window,
        kind=kind,
        points_scanned=scanned,
    )
