"""Tests of the benchmark itself.

    python3 -m pytest bench -q

The reference checker must agree with ``kummerws`` on the fixtures of
tests/conftest.py and reject corrupted outputs; the tracer must leave the
package as it found it; the host-speed probe must not touch the package;
each workload must run clean.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import kummerws as k  # noqa: E402
import kummerws.cli as cli  # noqa: E402
import tracer as tracing  # noqa: E402
from check import check_job  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def _fixtures():
    spec = importlib.util.spec_from_file_location("kummerws_fixtures", ROOT / "tests" / "conftest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ALL_PROFILES, mod.SCAN_WINDOWS


PROFILES, WINDOWS = _fixtures()


def _ref(profile):
    return Reference(profile.m, profile.lambdas, profile.n)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_reference_agrees_with_package(name):
    profile, bounds = PROFILES[name], WINDOWS[name]
    ref = _ref(profile)
    for i in range(1, profile.m):
        assert ref.beta(i) == k.beta(i, profile)
    for alpha in product(*(range(lo, hi + 1) for lo, hi in bounds)):
        assert ref.verdict(alpha) == k.classify(alpha, profile).verdict.value
        for kind in k.MaximalKind:
            assert ref.is_maximal(alpha, kind.rho(profile.n)) == k.is_maximal_by_criterion(
                alpha, kind, profile)
    for kind in k.MaximalKind:
        rho = kind.rho(profile.n)
        assert ref.cardinality(rho) == k.cardinality(kind, profile)
        assert ref.block_counts(rho) == k.block_counts(kind, profile)
        listed = list(k.enumerate_maximal_in_window(kind, k.Window(bounds), profile))
        assert ref.count_in_window(bounds, rho) == len(listed)
        for e in listed:
            assert ref.branch_residue(e.coords) == e.residue


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _corruptions(text):
    """A few ways to damage an output: drop its last row, change one
    digit, duplicate a row."""
    lines = text.splitlines(keepends=True)
    yield "".join(lines[:-1])
    i = max(idx for idx, ch in enumerate(text) if ch.isdigit())
    yield text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    if len(lines) > 2:
        yield "".join(lines[:2] + lines[1:])


def _jobs_of(workload, count):
    """The first jobs of each command and format of a workload."""
    prof_dir = ".bench_out/test-inputs"
    profiles, jobs = generate(workload, 7, prof_dir)
    (ROOT / prof_dir).mkdir(parents=True, exist_ok=True)
    seen = {}
    for job in jobs:
        key = (job["cmd"], job["fmt"], "window" in job)
        if len(seen.setdefault(key, [])) < count:
            (ROOT / job["profile"]).write_text(json.dumps(profiles[job["profile"]]))
            seen[key].append(job)
    return profiles, [j for group in seen.values() for j in group]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checker_accepts_real_and_rejects_corrupted_output(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    profiles, jobs = _jobs_of(workload, 1)
    for job in jobs:
        text = _run_cli(job["argv"])
        profile = profiles[job["profile"]]
        assert check_job(job, text, profile)[0] is None
        for bad in _corruptions(text):
            if bad != text:
                assert check_job(job, bad, profile)[0] is not None, (job["argv"], bad[-200:])


def test_generator_is_seeded_and_valid():
    for workload in WORKLOADS:
        a = generate(workload, 3, "x")
        assert a == generate(workload, 3, "x")
        assert a != generate(workload, 4, "x")
        for prof in a[0].values():
            assert k.validate(k.profile_from_dict(prof)).ok


def _snapshot():
    out = {}
    for module, attr, _, _ in tracing.TARGETS:
        owner, name = tracing._target(module, attr)
        out[module, attr] = (owner, name, vars(owner)[name])
    return out


def test_tracer_remove_restores_every_attribute(monkeypatch):
    monkeypatch.chdir(ROOT)
    before = _snapshot()
    tr = tracing.Tracer()
    tr.install()
    try:
        for owner, name, original in before.values():
            assert vars(owner)[name] is not original
        profiles, jobs = _jobs_of("generating-set", 1)
        window_job = next(j for j in jobs if "window" in j)
        _run_cli(window_job["argv"])
    finally:
        tr.remove()
    for owner, name, original in before.values():
        assert vars(owner)[name] is original
    assert not tr.missing
    metrics = tr.layer_metrics()
    assert metrics["maximal.rows"] > 0 and metrics["maximal.self_s"] > 0
    assert metrics["arith.table_builds"] == 1


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_is_clean(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "error_rate 0 ratio" in proc.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(want)


def test_probe_is_independent_of_the_package():
    code = "import sys, probe; assert probe.probe() > 0; assert 'kummerws' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_scaled_times_follow_the_job_not_the_host():
    import run

    usage = type("Usage", (), {"ru_maxrss": 1024})()
    base = [{"s": 0.01 * (1 + k % 7), "probe_s": 0.002 * (1 + k % 3)} for k in range(50)]
    slow_host = [{"s": 2 * r["s"], "probe_s": 2 * r["probe_s"]} for r in base]
    fast_job = [{"s": r["s"] / 2, "probe_s": r["probe_s"]} for r in base]
    first, _ = run.end_to_end(base, [1.0], usage)
    assert run.end_to_end(slow_host, [1.0], usage)[0] == pytest.approx(first)
    halved, _ = run.end_to_end(fast_job, [1.0], usage)
    for name in ("job_p50_ms", "job_p90_ms"):
        assert halved[name] == pytest.approx(first[name] / 2)
    assert halved["jobs_per_s"] == pytest.approx(2 * first["jobs_per_s"])


def test_fails_without_the_package():
    lone = ROOT / ".bench_out" / "lone"
    shutil.rmtree(lone, ignore_errors=True)
    shutil.copytree(HERE, lone / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", lone)
    proc = _bench("--workload", "box-scan", "--seed", "1", "--seconds", "1", cwd=lone)
    shutil.rmtree(lone)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
