"""kummerws benchmark: seeded CLI job streams, checked and timed.

    python3 bench/run.py --workload box-scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``kummerws`` is imported from
its ``src/``.  Set-up (generate and write the seeded inputs, start the
worker, import the package) is repeated SETUP_REPS times and its median
reported.  The last worker then runs the jobs in a closed loop with one
client (see worker.py).  Every job's output is checked against the
independent reference afterwards, outside the timed interval.  Job
times are reported scaled to a reference host speed by the probe timed
before each job (probe.py); the raw figures are printed beside them.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced pass.  The lines
before it name every metric with its unit, plus provenance, digests of
the inputs and outputs and the error rate.  A full report (per-job
times and output sha256) and the trace go to .bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from check import check_job
from probe import NOMINAL_S, probe
from reference import valid_profile
from workloads import WORKLOADS, generate

SETUP_REPS = 7
WORKER_DEADLINE_S = 170  # a worker still running then is killed
# jobs in the traced pass: 5 to 8 s of untraced job time at the seed commit
TRACE_JOBS = {"box-scan": 100, "generating-set": 100, "oracle-crosscheck": 240}

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Worker:
    """One worker process, from spawn to exit, with its own peak RSS."""

    def __init__(self, jobs_file, out_dir, seconds, trace_jobs):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT / "src"),
             str(jobs_file), str(out_dir), str(seconds), str(trace_jobs)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.timer = threading.Timer(WORKER_DEADLINE_S, self.proc.kill)
        self.timer.start()
        self.rusage = None

    def expect(self, word):
        line = self.proc.stdout.readline().strip()
        if line != word:
            raise RuntimeError(f"worker said {line!r}, expected {word!r}")

    def send(self, word):
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def wait(self):
        """Reap the worker and keep its own rusage (not RUSAGE_CHILDREN,
        which is a maximum over every child ever waited for)."""
        if self.proc.returncode is None:
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.timer.cancel()
        return self.proc.returncode

    def stop(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.wait()


def validate_inputs(profiles):
    """Every generated profile meets the hypotheses and passes the
    package's own validation."""
    sys.path.insert(0, str(ROOT / "src"))
    import kummerws

    for path, prof in profiles.items():
        if not valid_profile(prof["m"], prof["lambdas"], prof["n"]):
            raise RuntimeError(f"generator produced an invalid profile {path}")
        report = kummerws.validate(kummerws.profile_from_dict(prof))
        if not report.ok:
            raise RuntimeError(f"{path} fails kummerws.validate: {report.errors}")


def write_inputs(work, profiles, jobs):
    """Put the inputs on disk; returns the sha256 over all of them.  A file
    that already holds the right bytes is left alone: rewriting hundreds of
    files made set-up time depend on the file system's writeback state."""
    digest = hashlib.sha256()
    files = [(ROOT / path, json.dumps(prof, sort_keys=True).encode())
             for path, prof in profiles.items()]
    files.append((work / "jobs.json", json.dumps(jobs, sort_keys=True).encode()))
    for target, data in files:
        digest.update(str(target.relative_to(ROOT)).encode() + b"\0" + data + b"\0")
        try:
            if target.read_bytes() == data:
                continue
        except FileNotFoundError:
            pass
        target.write_bytes(data)
    return digest.hexdigest()


def set_up(args, work, trace_jobs):
    """One set-up: fresh inputs and a worker that has imported the
    package.  Returns (seconds, worker, profiles, jobs, input digest)."""
    t0 = perf_counter()
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "out").mkdir()
    profiles, jobs = generate(args.workload, args.seed, str((work / "inputs").relative_to(ROOT)))
    validate_inputs(profiles)
    digest = write_inputs(work, profiles, jobs)
    worker = Worker(work / "jobs.json", work / "out", args.seconds, trace_jobs)
    try:
        worker.expect("ready")
    except BaseException:
        worker.stop()
        raise
    return perf_counter() - t0, worker, profiles, jobs, digest


def check_outputs(work, jobs, profiles, records):
    """Check the first output of every job run; returns per-job
    (problem, rows, bytes) and the number of failed runs."""
    verdicts = {}
    for rec in records:
        if rec["id"] in verdicts:
            continue
        job = jobs[rec["id"]]
        out = work / "out" / f"{rec['id']}.out"
        text = out.read_text()
        problem, rows = check_job(job, text, profiles[job["profile"]])
        verdicts[rec["id"]] = (problem, rows, len(text.encode()))
    failed = 0
    for rec in records:
        if rec["code"] != 0 or verdicts[rec["id"]][0] is not None:
            failed += 1
    return verdicts, failed


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end(records, setup_times, rusage):
    """Job times are put on the reference host speed: each is multiplied
    by NOMINAL_S over the time of the probe run just before it (probe.py).
    The raw wall-time figures are returned with the extras."""
    scaled = sorted(rec["s"] * NOMINAL_S / rec["probe_s"] for rec in records)
    raw = sorted(rec["s"] for rec in records)

    def p90(times):
        return statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]

    return {
        "job_p50_ms": statistics.median(scaled) * 1e3,
        "job_p90_ms": p90(scaled) * 1e3,
        "jobs_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": rusage.ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }, {
        "job_samples": len(scaled),
        "samples_beyond_p90": sum(t > p90(scaled) for t in scaled),
        "raw_job_p50_ms": statistics.median(raw) * 1e3,
        "raw_job_p90_ms": p90(raw) * 1e3,
        "raw_jobs_per_s": len(raw) / sum(raw),
        "probe_p50_ms": statistics.median(rec["probe_s"] for rec in records) * 1e3,
    }


def per_layer(result, records, verdicts):
    metrics = dict(result["layer_metrics"])
    traced_ids = [rec["id"] for rec in records if rec.get("traced")]
    metrics["cli.bytes_out"] = sum(verdicts[i][2] for i in traced_ids)
    metrics["cli.rows_out"] = sum(verdicts[i][1] for i in traced_ids)
    return metrics


def with_units(values, kind):
    """The metrics BENCHMARK.json lists under ``kind``, in its order, as
    (value, unit); a listed metric the run did not produce is an error."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec[kind]}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "kummerws" / "__init__.py").is_file():
        print(f"error: no kummerws package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_out" / args.workload
    trace_jobs = TRACE_JOBS[args.workload] if args.trace else 0
    setup_times, setup_probes = [], []
    worker = None
    try:
        for rep in range(SETUP_REPS):
            setup_probes.append(statistics.median(probe() for _ in range(3)))
            seconds, worker, profiles, jobs, input_digest = set_up(args, work, trace_jobs)
            setup_times.append(seconds)
            if rep < SETUP_REPS - 1:
                worker.send("quit")
                worker.wait()
        worker.send("go")
        worker.expect("done")
        worker.wait()
    finally:
        if worker is not None:
            worker.stop()
    result = json.loads((work / "out" / "results.json").read_text())
    records = result["records"]
    verdicts, failed = check_outputs(work, jobs, profiles, records)
    if args.trace:
        metrics = with_units(per_layer(result, records, verdicts), "per_layer")
        extra = {"missing_targets": result["missing_targets"]}
    else:
        scaled_setups = [t * NOMINAL_S / p for t, p in zip(setup_times, setup_probes)]
        values, extra = end_to_end(records, scaled_setups, worker.rusage)
        extra["raw_setup_s"] = statistics.median(setup_times)
        metrics = with_units(values, "end_to_end")
    problems = {i: v[0] for i, v in verdicts.items() if v[0] is not None}
    bad_codes = {rec["id"]: rec["code"] for rec in records if rec["code"] != 0}
    outputs = hashlib.sha256("".join(
        f"{rec['id']}:{rec['sha256']}\n" for rec in records).encode()).hexdigest()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "kummerws_file": os.path.relpath(result["kummerws_file"], ROOT),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
        },
        "inputs_sha256": input_digest,
        "outputs_sha256": outputs,
        "setup_s_each": setup_times,
        "setup_probe_s_each": setup_probes,
        "attempted": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "problems": problems,
        "exit_codes": bad_codes,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **extra,
        "jobs": [
            {"id": rec["id"], "ms": rec["s"] * 1e3, "sha256": rec["sha256"],
             "probe_ms": rec["probe_s"] * 1e3 if "probe_s" in rec else None,
             "traced": rec.get("traced", False)}
            for rec in records
        ],
    }
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    for out in (work / "out").glob("*.out"):
        out.unlink()

    prov = report["provenance"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(" ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"inputs_sha256 {input_digest} pool_jobs {len(jobs)}")
    print(f"outputs_sha256 {outputs}")
    for key, value in extra.items():
        print(f"{key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {report['error_rate']:.6g} ratio ({failed} of {len(records)} failed)")
    for i, problem in list(problems.items())[:5]:
        print(f"problem job {i}: {problem}")
    for i, code in list(bad_codes.items())[:5]:
        print(f"exit job {i}: {code}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
