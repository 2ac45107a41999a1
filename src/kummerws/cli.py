"""Command-line front end.

Exit codes: 0 ok, 1 invalid profile (or oracle mismatch), 2 bad
arguments or unreadable input, 3 scan budget exceeded.  Validation
warnings go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys

from . import maximal as mx
from . import model, oracle
from .errors import DEFAULT_BUDGET, BadPreset, BudgetExceeded, check_budget
from .maximal import Window
from .membership import MaximalKind, Verdict, classify, classify_window

EXIT_OK = 0
EXIT_INVALID_PROFILE = 1
EXIT_BAD_ARGS = 2
EXIT_BUDGET = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_BAD_ARGS):
        super().__init__(message)
        self.code = code


def _read_profile(path):
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fp:
                data = json.load(fp)
        return model.profile_from_dict(data)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read profile: {exc}") from exc


def _checked_profile(path):
    profile = _read_profile(path)
    report = model.validate(profile)
    for v in report.warnings:
        print(f"warning: {v.message}", file=sys.stderr)
    if not report.ok:
        for v in report.errors:
            print(f"error: {v.message}", file=sys.stderr)
        raise CliError("invalid profile", EXIT_INVALID_PROFILE)
    return profile


def _parse_ints(text, n, what):
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"malformed {what}: {text!r}") from None
    if len(values) != n:
        raise CliError(f"{what} must have {n} coordinates, got {len(values)}")
    return values


def _parse_window(text, n, clamp_nonnegative=False):
    bounds = []
    for part in text.split(","):
        try:
            lo_s, hi_s = part.split(":")
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise CliError(f"malformed window interval: {part!r}") from None
        if clamp_nonnegative:
            lo = max(lo, 0)
        if lo > hi:
            raise CliError(f"empty window interval: {part!r}")
        bounds.append((lo, hi))
    if len(bounds) != n:
        raise CliError(f"window must have {n} intervals, got {len(bounds)}")
    return Window(tuple(bounds))


def _budget(args):
    if args.budget is not None:
        return args.budget
    env = os.environ.get("KWSG_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"bad KWSG_BUDGET value: {env!r}") from None
    return DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args):
    profile = _read_profile(args.profile)
    report = model.validate(profile)
    if not report.violations:
        print("ok")
    for v in report.violations:
        print(f"{v.severity}: {v.message}")
    return EXIT_OK if report.ok else EXIT_INVALID_PROFILE


def cmd_classify(args):
    profile = _checked_profile(args.profile)
    alpha = _parse_ints(args.alpha, profile.n, "--alpha")
    result = classify(alpha, profile)
    if args.format == "json":
        print(
            json.dumps(
                {"verdict": result.verdict.value, "drops": sorted(result.drops)}
            )
        )
    elif result.verdict is Verdict.GAP:
        print(f"Gap drops={sorted(result.drops)}")
    else:
        print(result.verdict.value)
    return EXIT_OK


def _maximal_rows(kind, elements, n):
    for e in elements:
        residue = "m-multiple" if e.residue is None else e.residue
        yield list(e.coords) + [residue] + list(e.js) + [kind.value]


def _emit(args, profile, header, rows, query):
    """Write the rows as CSV, or stream them as the JSON document that
    json.dumps({"profile", "query", "results"}, indent=2) prints."""
    rows = iter(rows)
    first = next(rows, None)  # an error in it comes before any output
    rows = itertools.chain(() if first is None else (first,), rows)
    out = sys.stdout
    if args.format == "json":
        doc = {"profile": model.profile_to_dict(profile), "query": query,
               "results": []}
        head, end = json.dumps(doc, indent=2).rsplit("[]", 1)
        # indent=2 puts each result at depth 2; with scalar values these
        # separators give the same bytes from the C encoder
        enc = json.JSONEncoder(separators=(",\n      ", ": "))
        out.write(head + "[")
        sep = "\n    {\n      "
        for row in rows:
            out.write(sep + enc.encode(dict(zip(header, row)))[1:-1] + "\n    }")
            sep = ",\n    {\n      "
        out.write(("]" if first is None else "\n  ]") + end + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_maximal(args):
    profile = _checked_profile(args.profile)
    kind = MaximalKind(args.kind)
    n = profile.n
    header = (
        [f"alpha_{k}" for k in range(1, n + 1)]
        + ["residue_i"]
        + [f"j_{k}" for k in range(1, n + 1)]
        + ["kind"]
    )
    if args.generating:
        elements = mx.enumerate_minimal_generating(kind, profile)
        query = {"command": "maximal", "kind": kind.value, "generating": True}
    else:
        window = _parse_window(args.window, n)
        elements = mx.enumerate_maximal_in_window(kind, window, profile)
        query = {
            "command": "maximal",
            "kind": kind.value,
            "window": [list(b) for b in window.bounds],
        }
    _emit(args, profile, header, _maximal_rows(kind, elements, n), query)
    return EXIT_OK


def cmd_count(args):
    profile = _checked_profile(args.profile)
    print(mx.cardinality(MaximalKind(args.kind), profile))
    return EXIT_OK


def cmd_blocks(args):
    profile = _checked_profile(args.profile)
    kind = MaximalKind(args.kind)
    rows = [[k, c] for k, c in mx.block_counts(kind, profile).items()]
    _emit(args, profile, ["k", "count"], rows,
          {"command": "blocks", "kind": kind.value})
    return EXIT_OK


# command -> (verdicts kept, whether rows carry a verdict column)
BOX_SCANS = {
    "gaps": ((Verdict.GAP, Verdict.PURE_GAP), True),
    "puregaps": ((Verdict.PURE_GAP,), False),
    "semigroup": ((Verdict.MEMBER,), False),
}


def cmd_box(args):
    profile = _checked_profile(args.profile)
    keep, with_verdict = BOX_SCANS[args.command]
    box = _parse_window(args.box, profile.n, clamp_nonnegative=True)
    check_budget(box.size(), "box points")
    header = [f"alpha_{k}" for k in range(1, profile.n + 1)]
    if with_verdict:
        header.append("verdict")
    rows = (
        (*alpha, verdict.value) if with_verdict else alpha
        for alpha, verdict in classify_window(box, profile)
        if verdict in keep
    )
    _emit(args, profile, header, rows, {"command": args.command, "box": args.box})
    return EXIT_OK


# family -> (constructor, its options in call order)
PRESETS = {
    "separable": (model.preset_separable, ("m", "t", "places")),
    "xabns": (model.preset_xabns, ("p", "a", "b", "nexp", "s", "places")),
    "yns": (model.preset_yns, ("q", "nexp", "s", "places")),
    "beelen-montanucci": (model.preset_beelen_montanucci, ("q", "nexp", "places")),
}


def cmd_preset(args):
    make, options = PRESETS[args.family]
    try:
        profile = make(*(getattr(args, name) for name in options))
    except BadPreset as exc:
        raise CliError(str(exc)) from exc
    model.dump_profile(profile, sys.stdout)
    return EXIT_OK


def cmd_oracle(args):
    profile = _checked_profile(args.profile)
    kind = MaximalKind(args.kind)
    window = _parse_window(args.window, profile.n)
    check_budget(window.size(), "oracle window points")
    report = oracle.crosscheck_window(kind, window, profile, budget=_budget(args))
    doc = {
        "agree": report.agree,
        "kind": kind.value,
        "points_scanned": report.points_scanned,
        "mismatches": [
            {
                "alpha": list(m.alpha),
                "in_formula": m.in_formula,
                "in_oracle": m.in_oracle,
                "t": m.t,
                "criterion_sum": m.criterion_sum,
                "nabla_nonempty": {
                    ",".join(map(str, sorted(J))): v
                    for J, v in sorted(
                        m.nabla_status.items(), key=lambda kv: sorted(kv[0])
                    )
                },
            }
            for m in report.mismatches
        ],
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK if report.agree else EXIT_INVALID_PROFILE


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="kummerws",
        description="Weierstrass semigroup computations for Kummer extensions "
        "given by ramification data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_profile(p):
        p.add_argument("profile", help="profile JSON file, or - for stdin")
        return p

    def with_format(p):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        return p

    p = with_profile(sub.add_parser("validate", help="check a profile"))
    p.set_defaults(func=cmd_validate)

    p = with_profile(sub.add_parser("classify", help="classify one lattice point"))
    p.add_argument("--alpha", required=True, help="comma-separated coordinates")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_classify)

    p = with_profile(sub.add_parser("maximal", help="enumerate maximal elements"))
    p.add_argument("--kind", required=True, choices=["absolute", "relative"])
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--window", help="per-coordinate lo:hi, comma-joined")
    what.add_argument("--generating", action="store_true",
                      help="emit the finite minimal generating set instead")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: output is always streamed "
                   "serially in canonical order")
    with_format(p)
    p.set_defaults(func=cmd_maximal)

    p = with_profile(sub.add_parser("count", help="cardinality of the finite set"))
    p.add_argument("--kind", required=True, choices=["absolute", "relative"])
    p.set_defaults(func=cmd_count)

    p = with_profile(sub.add_parser("blocks", help="block counts by target sum"))
    p.add_argument("--kind", required=True, choices=["absolute", "relative"])
    with_format(p)
    p.set_defaults(func=cmd_blocks)

    for name in BOX_SCANS:
        p = with_profile(sub.add_parser(name, help=f"list {name} in a box"))
        p.add_argument("--box", required=True, help="per-coordinate lo:hi")
        with_format(p)
        p.set_defaults(func=cmd_box)

    p = sub.add_parser("preset", help="emit a curve-family profile as JSON")
    fam = p.add_subparsers(dest="family", required=True)
    for family, (_, options) in PRESETS.items():
        f = fam.add_parser(family)
        for name in options:
            f.add_argument(f"--{name}", type=int, required=True)
    p.set_defaults(func=cmd_preset)

    p = with_profile(sub.add_parser("oracle", help="cross-check enumeration "
                                    "against the definitional brute force"))
    p.add_argument("--kind", required=True, choices=["absolute", "relative"])
    p.add_argument("--window", required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="max scan points per nabla query "
                   "(default from KWSG_BUDGET or 10^7)")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
