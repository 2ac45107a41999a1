"""Check one job's stdout against the independent reference.

Every checker parses the output, rebuilds what a correct answer must
contain from ``reference.Reference`` and returns ``(problem, rows)``:
``problem`` is None when the output is right, and ``rows`` is the number
of data rows the output holds.
"""

from __future__ import annotations

import csv
import io
import json
from functools import lru_cache
from itertools import product

from reference import Reference, rho


def parse_bounds(text: str, clamp: bool = False):
    bounds = []
    for part in text.split(","):
        lo, hi = (int(x) for x in part.split(":"))
        bounds.append((max(lo, 0) if clamp else lo, hi))
    return bounds


def _strict_object(pairs):
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate key in {keys}")
    return dict(pairs)


def _json(text: str):
    return json.loads(text, object_pairs_hook=_strict_object)


def _table(text: str, fmt: str, profile: dict, query: dict):
    """Header (None for JSON without results) and data rows of a CSV or
    JSON tabular output, values read back as int where they are one.
    JSON must echo the profile and the query."""
    if fmt == "json":
        doc = _json(text)
        if doc.get("profile") != profile:
            raise ValueError("JSON profile echo differs from the input profile")
        if doc.get("query") != query:
            raise ValueError(f"JSON query echo {doc.get('query')!r} != {query!r}")
        results = doc["results"]
        header = list(results[0]) if results else None
        return header, [list(r.values()) for r in results]
    lines = list(csv.reader(io.StringIO(text)))
    header, rows = lines[0], lines[1:]
    return header, [[_int(v) for v in row] for row in rows]


def _int(v: str):
    try:
        return int(v)
    except ValueError:
        return v


def _coord_header(n):
    return [f"alpha_{k}" for k in range(1, n + 1)]


def check_box(job, text, profile, ref: Reference):
    cmd, n = job["cmd"], ref.n
    bounds = parse_bounds(job["box"], clamp=True)
    want = []
    for alpha in product(*(range(lo, hi + 1) for lo, hi in bounds)):
        v = ref.verdict(alpha)
        if cmd == "semigroup" and v == "Member":
            want.append(list(alpha))
        elif cmd == "puregaps" and v == "PureGap":
            want.append(list(alpha))
        elif cmd == "gaps" and v in ("Gap", "PureGap"):
            want.append(list(alpha) + [v])
    header, rows = _table(text, job["fmt"], profile, {"command": cmd, "box": job["box"]})
    want_header = _coord_header(n) + (["verdict"] if cmd == "gaps" else [])
    if header not in (None, want_header):
        return f"header {header} != {want_header}", len(rows)
    if rows != want:
        return f"{len(rows)} rows, reference has {len(want)} (or contents differ)", len(rows)
    return None, len(rows)


def check_count(job, text, profile, ref):
    want = ref.cardinality(rho(job["kind"], ref.n))
    if text != f"{want}\n":
        return f"count {text.strip()!r} != {want}", 1
    return None, 1


def check_blocks(job, text, profile, ref):
    want = [[k, c] for k, c in ref.block_counts(rho(job["kind"], ref.n)).items()]
    query = {"command": "blocks", "kind": job["kind"]}
    header, rows = _table(text, job["fmt"], profile, query)
    if header not in (None, ["k", "count"]):
        return f"header {header}", len(rows)
    if rows != want:
        return f"blocks differ from the reference ({len(rows)} vs {len(want)} rows)", len(rows)
    return None, len(rows)


def check_maximal(job, text, profile, ref):
    """Each row must satisfy the criterion and be consistent with its
    residue and j-vector; rows must be distinct and in canonical order;
    their number must equal the reference count, which with the first
    three conditions makes the set exact."""
    n, m, kind = ref.n, ref.m, job["kind"]
    target = rho(kind, n)
    if job.get("window"):
        bounds = parse_bounds(job["window"])
        query = {"command": "maximal", "kind": kind, "window": [list(b) for b in bounds]}
        want_rows = ref.count_in_window(bounds, target)
    else:
        bounds = None
        query = {"command": "maximal", "kind": kind, "generating": True}
        want_rows = ref.cardinality(target)
    header, rows = _table(text, job["fmt"], profile, query)
    want_header = _coord_header(n) + ["residue_i"] + [f"j_{k}" for k in range(1, n + 1)] + ["kind"]
    if header not in (None, want_header):
        return f"header {header}", len(rows)
    if len(rows) != want_rows:
        return f"{len(rows)} rows, reference count {want_rows}", len(rows)
    prev = None
    for row in rows:
        alpha, res, js, k = tuple(row[:n]), row[n], tuple(row[n + 1 : 2 * n + 1]), row[-1]
        i = None if res == "m-multiple" else res
        if k != kind or i != ref.branch_residue(alpha):
            return f"row {row}: wrong kind or residue", len(rows)
        if alpha != tuple(m * j + o for j, o in zip(js, ref.offsets(i))):
            return f"row {row}: coordinates do not match residue and j", len(rows)
        if sum(js) != ref.target(i, target) or not ref.is_maximal(alpha, target):
            return f"row {row}: fails the maximality criterion", len(rows)
        if bounds is None and min(alpha) < 1:
            return f"row {row}: generating element with a coordinate < 1", len(rows)
        if bounds is not None and not all(lo <= a <= hi for a, (lo, hi) in zip(alpha, bounds)):
            return f"row {row}: outside the window", len(rows)
        key = (m if i is None else i, js)
        if prev is not None and key <= prev:
            return f"row {row}: duplicate or out of canonical order", len(rows)
        prev = key
    return None, len(rows)


def check_oracle(job, text, profile, ref):
    bounds = parse_bounds(job["window"])
    size = 1
    for lo, hi in bounds:
        size *= hi - lo + 1
    want = {"agree": True, "kind": job["kind"], "points_scanned": size, "mismatches": []}
    got = _json(text)
    if got != want:
        return f"oracle report {got!r} != {want!r}", 1
    return None, 1


CHECKERS = {
    "semigroup": check_box,
    "puregaps": check_box,
    "gaps": check_box,
    "count": check_count,
    "blocks": check_blocks,
    "maximal": check_maximal,
    "oracle": check_oracle,
}


@lru_cache(maxsize=None)
def _reference(m, lambdas, n):
    """One Reference per distinct profile, so that its memoised beta(i)
    and tail sums serve every job on a repeated (preset) profile."""
    return Reference(m, lambdas, n)


def check_job(job, text: str, profile: dict):
    """(problem or None, data rows) for one job's complete stdout."""
    ref = _reference(profile["m"], tuple(profile["lambdas"]), profile["n"])
    try:
        return CHECKERS[job["cmd"]](job, text, profile, ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}", 0
