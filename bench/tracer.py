"""Outside-in tracer: wraps module attributes of ``kummerws`` from the
benchmark's own files, without editing the package.

Each wrapped call (and each resumption of a wrapped generator) is a span
with a name, start, end, parent span and job id.  A stack of open spans
gives each layer its self time: a span's duration minus the time its
child spans cover.  Counters are taken at the same boundaries, from the
arguments and results of the wrapped calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

LAYERS = ("model", "arith", "membership", "maximal", "oracle", "cli")

# (module, attribute, layer, counter hook).  Membership is wrapped where
# cli and oracle look it up, so each membership query is one span.  Names
# a module imported with ``from ... import`` are wrapped in the importing
# module.
TARGETS = (
    ("kummerws.model", "profile_from_dict", "model", "_count_model"),
    ("kummerws.model", "validate", "model", "_count_model"),
    ("kummerws.arith", "BetaTable.build", "arith", "_count_table"),
    ("kummerws.cli", "classify", "membership", "_count_membership"),
    ("kummerws.oracle", "is_member", "membership", "_count_oracle_membership"),
    ("kummerws.maximal", "branch_targets", "maximal", None),
    ("kummerws.maximal", "enumerate_minimal_generating", "maximal", "_count_generating"),
    ("kummerws.maximal", "enumerate_maximal_in_window", "maximal", None),
    ("kummerws.oracle", "enumerate_maximal_in_window", "maximal", None),
    ("kummerws.maximal", "_branch_in_window", "maximal", "_count_branch"),
    ("kummerws.maximal", "cardinality", "maximal", None),
    ("kummerws.maximal", "block_counts", "maximal", None),
    ("kummerws.oracle", "crosscheck_window", "oracle", "_count_crosscheck"),
    ("kummerws.oracle", "nabla_nonempty", "oracle", "_count_nabla"),
    ("kummerws.cli", "main", "cli", None),
    ("kummerws.cli", "build_parser", "cli", None),
    ("kummerws.cli", "_emit", "cli", None),
)

MAX_SPANS = 100_000  # spans kept for the trace file; the rest only counted


def _target(module, attr):
    """(owner object, attribute name) of a dotted target; None if the
    package no longer has it."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or name not in vars(owner):
        return None
    return owner, name


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = Counter()
        self.spans = []  # (id, parent, name, start, end, job)
        self.dropped = 0
        self.missing = []
        self.job = None
        self._stack = []  # open spans: [id, start, child time]
        self._next_id = 0
        self._saved = []  # (owner, name, original object)

    # -- span bookkeeping -------------------------------------------------

    def _open(self):
        self._next_id += 1
        frame = [self._next_id, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _close(self, frame, name, layer):
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        self.self_s[layer] += dur - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (frame[0], parent[0] if parent else None, name, frame[1], end, self.job)
            )
        else:
            self.dropped += 1

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, layer, post):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, layer, post)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, name, layer)
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name, layer, post):
        """Time spent inside each next() is charged to the layer."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            produced = 0
            try:
                while True:
                    frame = tracer._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame, name, layer)
                    produced += 1
                    yield item
            finally:
                it.close()
                if post is not None:
                    post(args, produced)

        return wrapper

    # -- counters, from arguments and results -----------------------------

    def _count_membership(self, args, result):
        self.counts["membership.calls"] += 1

    def _count_oracle_membership(self, args, result):
        self.counts["membership.calls"] += 1
        self.counts["oracle.member_calls"] += 1

    def _count_table(self, args, table):
        profile = args[1]
        self.counts["arith.table_builds"] += 1
        self.counts["arith.table_cells"] += (profile.m - 1) * len(profile.lambdas)

    def _count_branch(self, args, produced):
        self.counts["maximal.branches"] += 1
        self.counts["maximal.useful_branches"] += produced > 0
        self.counts["maximal.rows"] += produced

    def _count_generating(self, args, elements):
        profile = args[1]
        self.counts["maximal.branches"] += profile.m - 1
        self.counts["maximal.useful_branches"] += len({e.residue for e in elements})
        self.counts["maximal.rows"] += len(elements)

    def _count_crosscheck(self, args, report):
        self.counts["oracle.points"] += report.points_scanned

    def _count_nabla(self, args, result):
        self.counts["oracle.nabla_queries"] += 1

    def _count_model(self, args, result):
        self.counts["model.calls"] += 1

    # -- install / remove -------------------------------------------------

    def install(self):
        for module, attr, layer, hook in TARGETS:
            found = _target(module, attr)
            if found is None:
                if f"{module}.{attr}" not in self.missing:
                    self.missing.append(f"{module}.{attr}")
                continue
            owner, name = found
            original = vars(owner)[name]
            label = f"{module.rsplit('.', 1)[-1]}.{attr}"
            post = getattr(self, hook) if hook else None
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, label, layer, post))
            else:
                wrapped = self._wrap(original, label, layer, post)
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapped)

    def remove(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        c = self.counts
        calls = c["membership.calls"]
        points = c["oracle.points"]
        branches = c["maximal.branches"]
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({
            "membership.calls": calls,
            "membership.us_per_call": self.self_s["membership"] / calls * 1e6 if calls else 0.0,
            "arith.table_builds": c["arith.table_builds"],
            "arith.table_cells": c["arith.table_cells"],
            "maximal.rows": c["maximal.rows"],
            "maximal.useful_branch_ratio": c["maximal.useful_branches"] / branches if branches else 0.0,
            "oracle.points": points,
            "oracle.nabla_queries": c["oracle.nabla_queries"],
            "oracle.member_calls_per_point": c["oracle.member_calls"] / points if points else 0.0,
            "model.calls": c["model.calls"],
        })
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fp:
            json.dump({
                "fields": ["id", "parent", "name", "start", "end", "job"],
                "spans_kept": len(self.spans),
                "spans_dropped": self.dropped,
                "missing_targets": self.missing,
                "self_s": self.self_s,
                "counts": dict(self.counts),
            }, fp)
            fp.write("\n")
            for span in self.spans:
                fp.write(json.dumps(span))
                fp.write("\n")
