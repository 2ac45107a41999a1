"""Independent reference for checking benchmark outputs.

Integer code written from the paper's criteria, sharing nothing with
``kummerws``: membership by the floor-sum drop test, beta(i), the
binomial-sum cardinality and the maximality criterion.  Lambdas are
grouped by value so that per-point work is O(n^2) and beta(i) costs
O(#distinct lambdas).
"""

from __future__ import annotations

from collections import Counter
from math import comb, gcd


def rho(kind: str, n: int) -> int:
    """Target of the maximality criterion: 0 absolute, n - 2 relative."""
    return 0 if kind == "absolute" else n - 2


class Reference:
    def __init__(self, m: int, lambdas, n: int):
        self.m = m
        self.n = n
        self.lambdas = tuple(lambdas)
        self.dist = self.lambdas[:n]
        self.inv = [pow(lam, -1, m) for lam in self.dist]
        self.all_groups = tuple(Counter(self.lambdas).items())
        self.tail_groups = tuple(Counter(self.lambdas[n:]).items())
        self._tail = {}
        self._beta = {}

    def tail(self, t: int) -> int:
        """sum of floor(t * lambda_k / m) over the non-distinguished places."""
        got = self._tail.get(t)
        if got is None:
            m = self.m
            got = self._tail[t] = sum(c * (t * lam // m) for lam, c in self.tail_groups)
        return got

    def drops(self, alpha):
        """1-based coordinates i where l(alpha) = l(alpha - P_i)."""
        m, dist = self.m, self.dist
        out = []
        for i in range(self.n):
            t = (-alpha[i] * self.inv[i]) % m
            s = self.tail(t)
            for a, lam in zip(alpha, dist):
                s += (a + t * lam) // m
            if s < 0:
                out.append(i + 1)
        return out

    def verdict(self, alpha) -> str:
        d = self.drops(alpha)
        if not d:
            return "Member"
        if min(alpha) < 0:
            return "NonMemberOutsideBox"
        return "PureGap" if len(d) == self.n else "Gap"

    def beta(self, i: int) -> int:
        got = self._beta.get(i)
        if got is None:
            m = self.m
            got = self._beta[i] = sum(c * -(-i * lam // m) for lam, c in self.all_groups) - 1
        return got

    def target(self, i, rho: int) -> int:
        """Coordinate sum in j-space of branch i (None: the m-multiples)."""
        return rho if i is None else self.beta(i) + 1 - self.n + rho

    def offsets(self, i):
        return (0,) * self.n if i is None else tuple(i * lam % self.m for lam in self.dist)

    def cardinality(self, rho: int) -> int:
        n = self.n
        betas = [self.beta(i) + rho for i in range(1, self.m)]
        return sum(comb(b, n - 1) for b in betas if b >= n - 1)

    def block_counts(self, rho: int) -> dict:
        out = Counter()
        for i in range(1, self.m):
            t = self.target(i, rho)
            if t >= 0:
                out[t] += 1
        return dict(sorted(out.items()))

    def is_maximal(self, alpha, rho: int) -> bool:
        """The ceiling/floor criterion at the common t, if one exists."""
        m = self.m
        ts = {(-a * inv) % m for a, inv in zip(alpha, self.inv)}
        if len(ts) != 1:
            return False
        (t,) = ts
        s = sum(-(-a // m) for a in alpha)
        s += sum(c * (t * lam // m) for lam, c in self.all_groups)
        return s == rho

    def branch_residue(self, alpha):
        """Residue i of the branch holding alpha (None: m-multiples), from
        alpha_1 = t_1(i) mod m."""
        r = alpha[0] % self.m
        return None if r == 0 else r * self.inv[0] % self.m

    def count_in_window(self, bounds, rho: int) -> int:
        """Number of maximal elements inside a box, counted per branch by
        inclusion-exclusion over bounded compositions."""
        m = self.m
        total = 0
        for i in list(range(1, m)) + [None]:
            offs = self.offsets(i)
            ranges = [
                (-(-(lo - o) // m), (hi - o) // m) for (lo, hi), o in zip(bounds, offs)
            ]
            total += bounded_compositions(ranges, self.target(i, rho))
        return total


def bounded_compositions(ranges, total: int) -> int:
    """Integer tuples with x_k in [lo_k, hi_k] and sum == total."""
    if any(lo > hi for lo, hi in ranges):
        return 0
    n = len(ranges)
    free = total - sum(lo for lo, _ in ranges)
    if free < 0:
        return 0
    caps = [hi - lo + 1 for lo, hi in ranges]
    count = 0
    for mask in range(1 << n):
        s = free
        sign = 1
        for k in range(n):
            if mask >> k & 1:
                s -= caps[k]
                sign = -sign
        if s >= 0:
            count += sign * comb(s + n - 1, n - 1)
    return count


def valid_profile(m: int, lambdas, n: int) -> bool:
    """The hypotheses every generated profile must meet."""
    if m < 2 or not 2 <= n <= len(lambdas):
        return False
    if sum(lambdas) != 0 or 0 in lambdas:
        return False
    if any(gcd(lam, m) != 1 for lam in lambdas[:n]):
        return False
    g = 0
    for lam in lambdas:
        g = gcd(g, lam)
    return gcd(g, m) == 1
