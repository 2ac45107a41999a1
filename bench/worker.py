"""Benchmark worker: runs CLI jobs through ``kummerws.cli.main(argv)`` in
this one process and thread, in a closed loop with one client.

    python3 worker.py SRC JOBS_FILE OUT_DIR SECONDS TRACE_JOBS

It imports ``kummerws`` from SRC, prints ``ready`` and waits for one
line on stdin: ``quit`` ends it (a set-up timing run), ``go`` starts the
jobs.  Each job's stdout goes to a file under OUT_DIR; the first run of
each job keeps its file for the checker, later runs only compare the
sha256.  Results go to OUT_DIR/results.json, then it prints ``done``.

TRACE_JOBS 0: jobs run in pool order, cycling, until SECONDS of job time,
each right after a host-speed probe (see probe.py).
Otherwise each of the first TRACE_JOBS jobs runs untraced and traced, in
alternating order, so that counters repeat exactly for a seed; the
traced runs give the layer metrics and the pairs the tracing overhead.
The pass stops early once the untraced runs reach SECONDS.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from time import perf_counter


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    def __init__(self, main, out_dir):
        self.main = main
        self.out_dir = out_dir
        self.first = {}  # job id -> sha256 of its first output

    def run(self, job):
        """Run one job; returns (seconds, exit code or error text, output
        sha256, stderr).  Only the call to main and the flush are timed."""
        kept = job["id"] not in self.first
        path = os.path.join(self.out_dir, f"{job['id']}.out" if kept else "repeat.out")
        saved = sys.stdout, sys.stderr
        with open(path, "w") as out:
            sys.stdout, sys.stderr = out, io.StringIO()
            try:
                t0 = perf_counter()
                try:
                    code = self.main(job["argv"])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a failed job is counted, not fatal
                    code = f"{type(exc).__name__}: {exc}"
                out.flush()
                elapsed = perf_counter() - t0
            finally:
                stderr = sys.stderr.getvalue()
                sys.stdout, sys.stderr = saved
        digest = _sha256(path)
        if kept:
            self.first[job["id"]] = digest
        else:
            os.remove(path)
            if digest != self.first[job["id"]]:
                code = f"output differs from the first run (sha256 {digest})"
        return elapsed, code, digest, stderr


def untraced(runner, jobs, seconds):
    """Each job runs right after a host-speed probe (probe.py), whose
    time is kept with the job's."""
    from probe import probe

    records = []
    measured = 0.0
    k = 0
    while measured < seconds:
        job = jobs[k % len(jobs)]
        probe_s = probe()
        elapsed, code, digest, stderr = runner.run(job)
        measured += elapsed
        records.append({"id": job["id"], "s": elapsed, "probe_s": probe_s, "code": code,
                        "sha256": digest, "stderr": stderr[-500:]})
        k += 1
    return records, measured


def traced(runner, jobs, seconds, trace_path):
    """Pairs of untraced and traced runs of the given jobs."""
    import tracer as tracing  # only here, so an untraced worker never loads it

    tr = tracing.Tracer()
    records = []
    plain_total = traced_total = 0.0
    for k, job in enumerate(jobs):
        if plain_total >= seconds:
            break
        order = (False, True) if k % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                tr.job = job["id"]
                tr.install()
            try:
                elapsed, code, digest, stderr = runner.run(job)
            finally:
                tr.remove()
            if with_trace:
                traced_total += elapsed
            else:
                plain_total += elapsed
            records.append({"id": job["id"], "s": elapsed, "code": code, "traced": with_trace,
                            "sha256": digest, "stderr": stderr[-500:]})
    tr.write(trace_path)
    metrics = tr.layer_metrics()
    metrics["trace.overhead_ratio"] = traced_total / plain_total
    metrics["trace.jobs"] = len(records) // 2
    return records, plain_total, metrics, tr.missing


def main():
    src, jobs_file, out_dir, seconds, trace_jobs = sys.argv[1:6]
    sys.path.insert(0, src)
    import kummerws
    import kummerws.cli as cli

    with open(jobs_file) as fp:
        jobs = json.load(fp)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    runner = Runner(lambda argv: cli.main(argv), out_dir)
    result = {"kummerws_file": kummerws.__file__}
    wall0 = perf_counter()
    if int(trace_jobs):
        records, measured, metrics, missing = traced(
            runner, jobs[: int(trace_jobs)], float(seconds),
            os.path.join(out_dir, "trace.jsonl"))
        result.update(layer_metrics=metrics, missing_targets=missing)
    else:
        records, measured = untraced(runner, jobs, float(seconds))
    result.update(records=records, measured_s=measured, wall_s=perf_counter() - wall0)
    with open(os.path.join(out_dir, "results.json"), "w") as fp:
        json.dump(result, fp)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
