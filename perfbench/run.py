"""End-to-end benchmark of the isotypic command line, one workload per run.

    python3 perfbench/run.py --workload clifford --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root.  One closed loop with one client in one
process: each job is an in-process ``isotypic.cli.main([..., "--format",
"json"])`` call on seeded input files, and the next job starts when the
previous one returns.  A run is a whole number of cycles, each a fixed
mix of jobs (see inputs.CYCLES), sized so that a run takes about
``--seconds`` at this commit.  Every output is checked (checks.py).

With ``--trace 0`` the last line is a JSON object whose metrics are the
end-to-end ones; with ``--trace 1`` the jobs run once untraced and once with
layer spans (spans.py), and the metrics are the per-layer ones.  Lines
before it give every metric with its unit, the error rate, a sha256 over
the ``results`` payloads (comparable across commits for one seed and
length) and a record of the run environment.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import inputs
import speed
from spans import CYCLOTOMIC_OPS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = tuple(inputs.CYCLES)

# Seconds one cycle's jobs take at reference speed (speed.py) at the commit
# that defined the benchmark (Python 3.11, 2 vCPUs); they fix how many cycles
# a given --seconds runs, so the work per run is the same on every commit
# and machine.
CYCLE_SECONDS = {"clifford": 11.3, "bundles": 3.2, "bordism": 4.9}
SETUP_REPEATS = 9

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_p90_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

# name -> (span names summed, "calls" or "self_s")
PER_LAYER = {}
for _name in ("groups.finite_group_init", "groups.closure", "groups.all_subgroups",
              "groups.minimal_generators", "characters.character_table",
              "characters.inner_product", "characters.determinant_character_value",
              "repmatrices.matrix_irreps", "repmatrices.intertwiner", "orbits.irr_action",
              "bundles.stabilizer", "bundles.fiber_character",
              "bundles.induction_piece_character", "bordism.rank_profile"):
    PER_LAYER[_name + ".calls"] = ((_name,), "calls")
for _name in ("groups.group_from_generators", "groups.finite_group_init",
              "groups.conjugacy_classes", "groups.closure", "groups.all_subgroups",
              "groups.subgroup_conjugacy_classes", "groups.minimal_generators",
              "groups.normalizer", "groups.is_normal", "groups.quotient", "groups.as_group",
              "characters.character_table", "characters.inner_product", "characters.restrict",
              "characters.determinant_character_value", "repmatrices.matrix_irreps",
              "repmatrices.intertwiner", "repmatrices.obstruction_cocycle",
              "repmatrices.stabilizer_of_character", "orbits.orbit_decomposition",
              "orbits.irr_action", "orbits.omega_regular_count", "orbits.extension_exists",
              "bundles.gset_init", "bundles.stabilizer", "bundles.fiber_character",
              "bundles.induction_piece_character", "bundles.verify_decomposition",
              "bundles.from_multiplicities", "bordism.rank_profile",
              "bordism.burnside_label_series", "bordism.global_generator_series",
              "bordism.d2p_certify", "files.load", "cli.render"):
    PER_LAYER[_name + ".self_s"] = ((_name,), "self_s")
PER_LAYER["cyclotomic.constructed"] = (("cyclotomic.init",), "calls")
PER_LAYER["cyclotomic.self_s"] = (CYCLOTOMIC_OPS, "self_s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    probe = speed.Probe()
    if args.setup_only:
        probe.start()
    try:
        cli = import_package()
    except ImportError as exc:
        print("error: cannot import the isotypic package from %s/src: %s" % (ROOT, exc),
              file=sys.stderr)
        return 2
    cycles, limit = plan(args.workload, args.seconds)
    if args.setup_only:
        with workdir() as wd:
            inputs.build_jobs(args.workload, args.seed, cycles, wd, limit)
            _, sampled, factor = probe.stop()
            print("ready", flush=True)
        print(sampled, factor, flush=True)
        return 0
    return run_workload(args, cli, cycles, limit)


def import_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import isotypic.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise ImportError("isotypic resolved outside the checkout: %s" % cli.__file__)
    return cli


def plan(workload: str, seconds: float) -> tuple:
    """(cycles, job limit): whole cycles, or a prefix of one for a short run."""
    share = seconds / CYCLE_SECONDS[workload]
    if share >= 0.5:
        return max(1, round(share)), None
    return 1, max(1, round(share * len(inputs.CYCLES[workload])))


@contextlib.contextmanager
def workdir():
    os.makedirs(WORKDIR, exist_ok=True)
    path = tempfile.mkdtemp(dir=WORKDIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)


def measure_setup(args) -> tuple:
    """Wall times from starting a fresh interpreter to inputs ready, less
    the set-up process's speed sampling, repeated; returns (seconds, speed
    factors), the factor of each as sampled by its process (speed.py)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    times, speeds = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            rc = proc.wait()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError("set-up run failed with exit code %d" % rc)
        sampled, factor = map(float, rest.split())
        times.append(elapsed - sampled)
        speeds.append(factor)
    return times, speeds


def call(cli, argv, probe=None) -> tuple:
    """One in-process CLI call; returns (exit code, stdout, seconds, speed
    factor).  With a probe the seconds leave out its sampling and the factor
    is the machine's speed during the call (speed.py); without, it is 1."""
    buf = io.StringIO()
    if probe is not None:
        probe.start()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed run
            print("%s raised %r" % (" ".join(argv), exc), file=sys.stderr)
            rc = -1
    if probe is None:
        return rc, buf.getvalue(), time.perf_counter() - t0, 1.0
    seconds, _, factor = probe.stop()
    return rc, buf.getvalue(), seconds, factor


def run_jobs(cli, jobs, tracer=None) -> tuple:
    """Run the jobs back to back; returns (calls, traced calls), each a list
    of call() results in job order.

    The heap is collected before each call, outside its time, so a job does
    not pay for the garbage of the jobs before it.  Untraced calls sample
    the machine's speed.  With a tracer each job runs twice in a row,
    untraced and then traced, so both runs of a job see the same warm state
    and the same machine load.
    """
    probe = speed.Probe()
    calls, traced = [], []
    for i, job in enumerate(jobs):
        argv = job.argv + ["--format", "json"]
        gc.collect()
        calls.append(call(cli, argv, probe))
        if tracer is not None:
            tracer.job = i
            gc.collect()
            tracer.install()
            try:
                traced.append(call(cli, argv))
            finally:
                tracer.uninstall()
    return calls, traced


def chunks(values, size: int):
    return [values[i:i + size] for i in range(0, len(values), size)]


def percentile(values, q: float) -> tuple:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_workload(args, cli, cycles: int, limit) -> int:
    setup_times, setup_speeds = ([], []) if args.trace else measure_setup(args)
    with workdir() as wd:
        jobs = inputs.build_jobs(args.workload, args.seed, cycles, wd, limit)
        # objects alive after set-up are never collected again, which keeps
        # the collection before each job down to the garbage of the last one
        gc.collect()
        gc.freeze()
        tracer = Tracer() if args.trace else None
        calls, traced = run_jobs(cli, jobs, tracer)
    latencies = [seconds for _, _, seconds, _ in calls]
    factors = [factor for _, _, _, factor in calls]
    cycle_len = limit or len(jobs) // cycles
    refs = {}
    failures = []
    digest = hashlib.sha256()
    for i, (job, (rc, out, _, _)) in enumerate(zip(jobs, calls)):
        reason = checks.check(job, rc, out, refs)
        if not reason and tracer is not None:
            reason = checks.same_outcome(rc, out, *traced[i][:2])
        if reason:
            failures.append(i)
            print("job %d failed (%s): %s" % (i, " ".join(job.argv), reason), file=sys.stderr)
        with contextlib.suppress(ValueError, KeyError):
            digest.update(json.dumps(json.loads(out)["results"], sort_keys=True).encode())
        digest.update(b"\n")

    print("workload %s, seed %d: %d jobs in %d cycle(s), closed loop, one client"
          % (args.workload, args.seed, len(jobs), cycles))
    if tracer is None:
        print("  raw: %.6f jobs/s, p50 %.6f s, p90 %.6f s, set-up %.6f s; "
              "median speed factor %.3f (jobs), %.3f (set-up)"
              % (len(latencies) / sum(latencies), percentile(latencies, 0.5)[0],
                 percentile(latencies, 0.9)[0], statistics.median(setup_times),
                 statistics.median(factors), statistics.median(setup_speeds)))
        metrics = end_to_end_metrics(
            [x / f for x, f in zip(latencies, factors)], cycle_len,
            [x / f for x, f in zip(setup_times, setup_speeds)])
    else:
        traced_s = sum(seconds for _, _, seconds, _ in traced)
        print("  job seconds: %.6f untraced, %.6f traced" % (sum(latencies), traced_s))
        metrics = layer_metrics(tracer, sum(latencies) / traced_s)
    for name, m in metrics.items():
        print("  %-46s %14.6f %s%s" % (name, m["value"], m["unit"], m.pop("note", "")))
    print("  %-46s %14.6f share  (%d of %d jobs failed)"
          % ("error_rate", len(failures) / len(jobs), len(failures), len(jobs)))
    print("results_sha256 %s %s" % (args.workload, digest.hexdigest()))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "cycles": cycles, "jobs": len(jobs), "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
        "machine": platform.machine(), "reference_s": speed.REFERENCE_SECONDS,
        "speed_per_cycle": [statistics.median(block) for block in chunks(factors, cycle_len)],
        "setup_runs_s": setup_times, "setup_speeds": setup_speeds,
    }
    print("env " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(jobs),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def end_to_end_metrics(latencies: list, cycle_len: int, setup_times: list) -> dict:
    """The end-to-end metrics from job latencies and set-up times, both
    already at reference speed."""
    p50, _ = percentile(latencies, 0.5)
    p90, beyond = percentile(latencies, 0.9)
    values = {
        "jobs_per_s": statistics.median(
            len(block) / sum(block) for block in chunks(latencies, cycle_len)),
        "job_p50_s": p50,
        "job_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    metrics["job_p90_s"]["note"] = "  (%d samples, %d beyond)" % (len(latencies), beyond)
    metrics["setup_s"]["note"] = "  (median of %d)" % len(setup_times)
    return metrics


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    totals = tracer.totals()
    metrics = {}
    for name, (spans, field) in PER_LAYER.items():
        calls = sum(totals.get(s, (0, 0.0))[0] for s in spans)
        self_s = sum(totals.get(s, (0, 0.0))[1] for s in spans)
        if field == "calls":
            metrics[name] = {"value": calls, "unit": "count"}
        else:
            metrics[name] = {"value": self_s, "unit": "s"}
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
