"""Tests of the benchmark itself: seeded inputs, the output checker, and
short runs of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    with run.workdir() as a, run.workdir() as b:
        jobs_a = inputs.build_jobs(workload, 7, 2, a)
        jobs_b = inputs.build_jobs(workload, 7, 2, b)
        assert _files(a) == _files(b)
        assert [[x.replace(a, "") for x in j.argv] for j in jobs_a] == \
            [[x.replace(b, "") for x in j.argv] for j in jobs_b]
        with run.workdir() as c:
            inputs.build_jobs(workload, 8, 2, c)
            assert _files(c) != _files(a)


def test_relabelled_files_describe_the_same_group():
    with run.workdir() as wd:
        writer = inputs._Writer(wd, inputs.random.Random(1))
        for name, spec in inputs.POOL.items():
            path, listed, gens, normal = writer.group_file(spec)
            elems = set(inputs.closure_bfs(spec.degree, listed))
            assert len(elems) == len(inputs.closure_bfs(spec.degree, spec.gens)), name
            assert inputs.subgroup_closure(gens, spec.degree) == elems, name
            assert inputs.subgroup_closure(normal, spec.degree) <= elems, name


def _run_cli(job):
    cli = run.import_package()
    return run.call(cli, job.argv + ["--format", "json"])[:2]


def test_checker_rejects_a_flipped_series_coefficient():
    with run.workdir() as wd:
        job = next(j for j in inputs.build_jobs("bordism", 3, 1, wd)
                   if j.kind == "bordism-global")
        rc, out = _run_cli(job)
    assert checks.check(job, rc, out, {}) is None
    for pos in (1, 2):  # an odd coefficient, then an even one against a relabelling
        flipped = json.loads(out)
        flipped["results"]["series"][pos] += 1
        refs = {}
        assert checks.check(job, rc, out, refs) is None
        assert checks.check(job, rc, json.dumps(flipped), refs) is not None


def test_checker_rejects_a_wrong_subgroup_class_count():
    with run.workdir() as wd:
        job = next(j for j in inputs.build_jobs("bordism", 3, 1, wd)
                   if j.kind == "bordism-global")
        rc, out = _run_cli(job)
    report = json.loads(out)
    missing = json.loads(out)
    del missing["results"]["breakdown"]
    assert checks.check(job, rc, json.dumps(missing), {}) is not None
    # a class dropped by the enumeration changes series[0] and the breakdown together
    report["results"]["series"][0] -= 1
    report["results"]["breakdown"].popitem()
    assert checks.check(job, rc, json.dumps(report), {}) is not None


def test_traced_call_must_match_the_untraced_one():
    with run.workdir() as wd:
        job = inputs.build_jobs("clifford", 3, 1, wd, 1)[0]
        rc, out = _run_cli(job)
    assert checks.same_outcome(rc, out, rc, out) is None
    assert checks.same_outcome(rc, out, -1, "") is not None
    changed = json.loads(out)
    changed["results"]["extra"] = 1
    assert checks.same_outcome(rc, out, rc, json.dumps(changed)) is not None


def test_checker_rejects_a_corrupted_bundle_reported_ok():
    with run.workdir() as wd:
        jobs = inputs.build_jobs("bundles", 3, 1, wd)
        bad = next(j for j in jobs if j.corrupted_orbit is not None)
        rc, out = _run_cli(bad)
        assert rc == 1 and checks.check(bad, rc, out, {}) is None
        report = json.loads(out)
        report["results"]["ok"] = True
        report["results"]["per_point"] = {p: [] for p in report["results"]["per_point"]}
        assert checks.check(bad, 0, json.dumps(report), {}) is not None
        assert checks.check(bad, 1, json.dumps(report), {}) is not None


def test_benchmark_json_names_what_the_runner_prints():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER) + ["trace.overhead"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _smoke(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not os.path.exists(run.WORKDIR)
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(workload):
    lines = _smoke(workload, 0)
    for name in list(run.END_TO_END_UNITS) + ["error_rate"]:
        assert any(line.split()[:1] == [name] for line in lines), name
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(run.END_TO_END_UNITS)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert len(env["speed_per_cycle"]) == 1 and len(env["setup_speeds"]) == run.SETUP_REPEATS
    assert all(f > 0 for f in env["speed_per_cycle"] + env["setup_speeds"])


def test_probe_samples_inside_an_interval_and_leaves_its_time_out():
    probe = speed.Probe()
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        pass
    seconds, sampled, factor = probe.stop()
    assert sampled > 0   # samples ran inside the interval
    assert 0.3 - 0.01 < seconds + sampled < 0.3 + 0.05
    assert seconds < 0.3 and factor > 0


def test_traced_smoke_run_emits_every_layer_metric():
    result = json.loads(_smoke("bundles", 1)[-1])
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert result["metrics"]["cyclotomic.constructed"]["value"] > 0


def test_missing_package_fails_without_a_result():
    """Run from a copy holding only the benchmark: no result line, exit != 0."""
    with run.workdir() as wd:
        os.makedirs(os.path.join(wd, "perfbench"))
        for name in ("run.py", "inputs.py", "checks.py", "spans.py", "speed.py"):
            with open(os.path.join(BENCH, name)) as src, \
                    open(os.path.join(wd, "perfbench", name), "w") as dst:
                dst.write(src.read())
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bordism",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=wd, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
