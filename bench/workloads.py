"""Seeded job streams for the three benchmark workloads.

A workload turns ``(name, seed)`` into a list of profiles and a list of
jobs.  Jobs come in rounds: every round holds the same mix of commands,
formats and size classes, shuffled, so the median of any run that
covers a few rounds depends little on the seed.  Only the sizes inside
each class are drawn from the seed.

Each job is a dict with the CLI ``argv`` and what the checker needs to
know about the query (``cmd``, ``fmt``, ``profile``, ``box``, ``window``,
``kind``).
"""

from __future__ import annotations

import random
from math import gcd

from reference import Reference, rho, valid_profile

# Rounds generated per run: at the seed commit a 20 s run uses at most half
# of the box-scan and generating-set pools and three quarters of the
# oracle-crosscheck pool; a faster program then repeats jobs (each repeat
# must reproduce its first output).
ROUNDS = {"box-scan": 80, "generating-set": 80, "oracle-crosscheck": 200}


def _random_lambdas(rng, m, r, n, small):
    """r nonzero lambdas summing to 0, the first n coprime to m; None
    when a few dozen draws find none (some (m, r, n) admit none)."""
    for _ in range(50):
        lams = []
        for k in range(r - 1):
            while True:
                lam = rng.randint(1, small)
                if rng.random() < 0.2:
                    lam = -lam
                if k >= n or gcd(lam, m) == 1:
                    break
            lams.append(lam)
        lams.append(-sum(lams))
        if valid_profile(m, lams, n):
            return lams
    return None


# ---------------------------------------------------------------------------
# box-scan: membership over boxes of equal work

# per-point cost model of a box scan, in units of one lambda term:
# n drop tests of r terms each, plus a fixed per-point overhead
POINT_WORK = 240_000
POINT_OVERHEAD = 16
BOX_SLOTS = [  # (command, format, n); one round
    ("semigroup", "csv", 2), ("semigroup", "csv", 3), ("semigroup", "json", 2),
    ("puregaps", "csv", 2), ("puregaps", "csv", 3), ("puregaps", "csv", 2),
    ("gaps", "csv", 2), ("gaps", "csv", 3), ("gaps", "json", 2), ("gaps", "csv", 2),
]
R_BINS = [(3, 8), (9, 20), (21, 40), (41, 64)]


def box_scan(rng, rounds, add_profile):
    jobs = []
    for rnd in range(rounds):
        slots = list(BOX_SLOTS)
        rng.shuffle(slots)
        for s, (cmd, fmt, n) in enumerate(slots):
            lo_r, hi_r = R_BINS[(rnd + s) % len(R_BINS)]
            lams = None
            while lams is None:
                r = rng.randint(max(lo_r, n), hi_r)
                m = rng.randint(7, 400)
                lams = _random_lambdas(rng, m, r, n, small=6)
            path = add_profile({"m": m, "lambdas": lams, "n": n})
            points = POINT_WORK // (n * r + POINT_OVERHEAD)
            side = max(2, round(points ** (1 / n)))
            box = ",".join(
                f"{lo}:{lo + side - 1}" for lo in (rng.randint(0, m) for _ in range(n))
            )
            jobs.append({
                "cmd": cmd, "fmt": fmt, "profile": path, "box": box,
                "argv": [cmd, path, "--box", box, "--format", fmt],
            })
    return jobs


# ---------------------------------------------------------------------------
# generating-set: table build, enumeration and emit, no membership


def _family_lambdas(q, d):
    """X_{a,b,n,s} / Y_{n,s} (d = 1) lambdas: q/d simple zeros, q(q-1)/d
    zeros of order q+1, one pole of order q^3/d."""
    return [1] * (q // d) + [q + 1] * (q * (q - 1) // d) + [-(q ** 3) // d]


def _catalog():
    """Curve-family presets with 10^2 <= m <= 3.3*10^4, as
    (name, m, lambdas, (p, field size), max n)."""
    out = []
    prime_powers = {2: 2, 3: 3, 4: 2, 5: 5, 7: 7, 8: 2, 9: 3, 11: 11, 13: 13}
    for q, p in prime_powers.items():
        for nexp in range(3, 17, 2):
            top = q ** nexp + 1
            if top > 33_000 * 7:
                break
            field = (p, q ** (2 * nexp))
            bm = [1] * (q + 1) + [q + 1] * (q * q - q - 1) + [-(q ** 3 - q)]
            if 100 <= top <= 33_000:
                out.append((f"bm-q{q}-e{nexp}", top, bm, field, q + 1))
            quot = top // (q + 1)
            for s in range(1, quot + 1):
                if quot % s == 0 and 100 <= top // s <= 33_000:
                    out.append((f"yns-q{q}-e{nexp}-s{s}", top // s, _family_lambdas(q, 1), field, q))
                    for b in range(1, 4):
                        d = p ** b
                        if d < q and q % d == 0 and _log(q, p) % b == 0:
                            out.append((f"xabns-q{q}-d{d}-e{nexp}-s{s}", top // s,
                                        _family_lambdas(q, d), field, q // d))
    return out


def _log(q, p):
    e = 0
    while q > 1:
        q //= p
        e += 1
    return e


CATALOG = _catalog()
GEN_SLOTS = [  # (command, format); one round
    ("count", "csv"), ("count", "csv"), ("blocks", "csv"), ("blocks", "json"),
    ("generating", "csv"), ("generating", "csv"), ("generating", "json"),
    ("window", "csv"), ("window", "csv"),
]
# (m - 1) * (r + 12) of count / blocks jobs: a beta table of (m - 1) * r
# ceiling quotients plus about 12 quotient-sized steps per residue
TABLE_WORK = (250_000, 330_000)
GEN_ROWS = {"csv": (6_000, 8_000), "json": (2_500, 4_000)}
SMALL_M = (100, 5_000)  # m of --generating jobs
WINDOW_M = (2_000, 4_000)  # m of --window jobs, whose cost grows with m


def _preset(rng, max_m=33_000):
    while True:
        pick = rng.choice(CATALOG)
        if pick[1] <= max_m:
            return pick


def _separable(rng, m_range):
    m = rng.randint(*m_range)
    t = rng.randint(2, 12)
    return f"sep-m{m}-t{t}", m, [1] * t + [-t], None, t


def generating_set(rng, rounds, add_profile):
    sizes = {}  # generating-set size per curve at n = 2, computed once

    def generating_rows(pick):
        name, m, lams, _, t = pick
        if name.startswith("sep-"):
            # sum of beta(i) = t - 1 - floor(t*i/m), a classical floor sum
            return ((t - 1) * (m - 1) - gcd(t, m) + 1) // 2
        if name not in sizes:
            sizes[name] = Reference(m, lams, 2).cardinality(0)
        return sizes[name]

    jobs = []
    for _ in range(rounds):
        slots = list(GEN_SLOTS)
        rng.shuffle(slots)
        for cmd, fmt in slots:
            kind = rng.choice(["absolute", "relative"])
            n = 2
            if cmd in ("count", "blocks"):
                while True:
                    pick = (_separable(rng, (2_000, 33_000)) if rng.random() < 0.25
                            else _preset(rng))
                    if TABLE_WORK[0] <= (pick[1] - 1) * (len(pick[2]) + 12) <= TABLE_WORK[1]:
                        break
                n = rng.choice([2, 2, 3]) if pick[4] >= 3 else 2
            elif cmd == "generating":
                lo, hi = GEN_ROWS[fmt]
                while True:
                    pick = (_separable(rng, SMALL_M) if rng.random() < 0.3
                            else _preset(rng, max_m=SMALL_M[1]))
                    if lo <= generating_rows(pick) <= hi:
                        break
            else:
                while True:
                    pick = (_separable(rng, WINDOW_M) if rng.random() < 0.3
                            else _preset(rng, max_m=WINDOW_M[1]))
                    if pick[1] >= WINDOW_M[0]:
                        break
                m = pick[1]
                span = m * rng.randint(1, 3)
                window = ",".join(f"{-rng.randint(1, m)}:{span}" for _ in range(n))
            _, m, lams, field, _ = pick
            prof = {"m": m, "lambdas": lams, "n": n}
            if field is not None:
                prof["field"] = {"p": field[0], "q": field[1]}
            path = add_profile(prof)
            job = {"cmd": cmd, "fmt": fmt, "profile": path, "kind": kind}
            if cmd == "count":
                job["argv"] = ["count", path, "--kind", kind]
            elif cmd == "blocks":
                job["argv"] = ["blocks", path, "--kind", kind, "--format", fmt]
            else:
                job["cmd"] = "maximal"
                job["argv"] = ["maximal", path, "--kind", kind, "--format", fmt]
                if cmd == "generating":
                    job["argv"].append("--generating")
                else:
                    job["window"] = window
                    job["argv"].append(f"--window={window}")
            jobs.append(job)
    return jobs


# ---------------------------------------------------------------------------
# oracle-crosscheck: small profiles, windows around the generating set

# window points per (n, kind), one job of each per round; a relative
# check at n = 4 scans more nabla sets per point, so its windows are smaller.
# The cost per point varies up to 8x between profiles, so windows are kept
# small enough for a run to hold several hundred jobs: with half as many,
# job_p90_ms depended on which costly profiles a seed happened to draw.
ORACLE_SLOTS = {
    (2, "absolute"): (1_500, 2_500), (2, "relative"): (1_500, 2_500),
    (3, "absolute"): (1_250, 2_500), (3, "relative"): (1_000, 2_000),
    (4, "absolute"): (1_000, 2_250), (4, "relative"): (500, 1_125),
}


def _box_size(his, margin):
    size = 1
    for h in his:
        size *= h + margin + 1
    return size


def oracle_crosscheck(rng, rounds, add_profile):
    jobs = []
    for _ in range(rounds):
        slots = list(ORACLE_SLOTS)
        rng.shuffle(slots)
        for n, kind in slots:
            lo, hi = ORACLE_SLOTS[n, kind]
            while True:
                r = rng.randint(max(3, n), 8)
                # the generating set spans at least m - 1 per coordinate
                m = rng.randint(2, min(40, round(hi ** (1 / n))))
                lams = _random_lambdas(rng, m, r, n, small=4)
                if lams is None:
                    continue
                ref = Reference(m, lams, n)
                his = [1] * n  # upper corner of the generating set
                for i in range(1, m):
                    t = ref.target(i, rho(kind, n))
                    if t >= 0:
                        for k in range(n):
                            his[k] = max(his[k], m * t + i * lams[k] % m)
                # widen the window on both sides up to the size class
                margin = rng.randint(1, 3)
                while _box_size(his, margin) < lo:
                    margin += 1
                    his = [h + 1 for h in his]
                if _box_size(his, margin) <= hi:
                    break
            path = add_profile({"m": m, "lambdas": lams, "n": n})
            window = ",".join(f"{-margin}:{h}" for h in his)
            jobs.append({
                "cmd": "oracle", "fmt": "json", "profile": path, "kind": kind,
                "window": window,
                "argv": ["oracle", path, "--kind", kind, f"--window={window}"],
            })
    return jobs


WORKLOADS = {
    "box-scan": box_scan,
    "generating-set": generating_set,
    "oracle-crosscheck": oracle_crosscheck,
}


def generate(workload: str, seed: int, profile_dir: str):
    """(profiles keyed by path, jobs) for one workload and seed.  Paths
    are relative to the checkout root, where the worker runs."""
    rng = random.Random(f"{workload}:{seed}")
    profiles = {}

    def add_profile(prof):
        path = f"{profile_dir}/p{len(profiles):05d}.json"
        profiles[path] = prof
        return path

    jobs = WORKLOADS[workload](rng, ROUNDS[workload], add_profile)
    for idx, job in enumerate(jobs):
        job["id"] = idx
    return profiles, jobs
