"""Output checks for benchmark jobs.

Each check reads one job's exit code and JSON report and returns None when
the output is right, or a one-line reason.  Invariants that must not depend
on the relabelling of a group are compared across every job drawn from the
same pool entry through a shared reference dict.
"""

from __future__ import annotations

import json


def check(job, rc: int, out: str, refs: dict):
    """Reason the job's output is wrong, or None."""
    if rc != job.expect_exit:
        return "exit %d, expected %d" % (rc, job.expect_exit)
    try:
        results = json.loads(out)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return "no JSON report: %s" % exc
    return _CHECKS[job.kind](job, results, refs)


def same_outcome(rc: int, out: str, traced_rc: int, traced_out: str):
    """Reason a traced call differs from the untraced call of the same job,
    or None: the exit code and the ``results`` payload must be the same."""
    if traced_rc != rc:
        return "traced call exit %d, untraced %d" % (traced_rc, rc)
    try:
        same = json.loads(traced_out)["results"] == json.loads(out)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return "traced call gave no JSON report: %s" % exc
    return None if same else "traced call changed the results"


def _irr(job, res, refs):
    n = job.order
    degrees = [row["degree"] for row in res["rows"]]
    sizes = [c["size"] for c in res["classes"]]
    if res["order"] != n:
        return "order %d, expected %d" % (res["order"], n)
    if len(degrees) != len(sizes):
        return "%d rows for %d classes" % (len(degrees), len(sizes))
    if sum(sizes) != n:
        return "class sizes sum to %d" % sum(sizes)
    if sum(d * d for d in degrees) != n:
        return "squared degrees sum to %d" % sum(d * d for d in degrees)
    if any(n % d for d in degrees):
        return "a degree does not divide the order"
    return _same(refs, job.key, sorted(degrees))


def _clifford(job, res, refs):
    if not res["consistent"]:
        return "report not consistent"
    counts = [rec["twisted_count"] for rec in res["orbits"]]
    if res["group_order"] != job.order:
        return "group order %d, expected %d" % (res["group_order"], job.order)
    if sum(counts) != res["total_irr_g"]:
        return "twisted counts sum to %d, |Irr(G)| = %d" % (sum(counts), res["total_irr_g"])
    if any(rec["twisted_count"] != rec["omega_regular_count"] for rec in res["orbits"]):
        return "an orbit's twisted count differs from its omega-regular count"
    return _same(refs, job.key, sorted(counts))


def _bundle(job, res, refs):
    bad = {int(p) for p, classes in res["per_point"].items() if classes}
    if len(res["per_point"]) != job.points:
        return "%d points checked of %d" % (len(res["per_point"]), job.points)
    if job.corrupted_orbit is None:
        if not res["ok"] or bad:
            return "genuine bundle reported mismatches at %s" % sorted(bad)
        return None
    if res["ok"] or not bad:
        return "corrupted bundle reported ok"
    if not bad <= set(job.corrupted_orbit):
        return "mismatches at %s outside the corrupted orbit" % sorted(bad - set(job.corrupted_orbit))
    return None


def _series(job, series, refs):
    if any(series[n] for n in range(1, len(series), 2)):
        return "nonzero odd coefficient"
    if any(c < 0 for c in series):
        return "negative coefficient"
    return _same(refs, job.key, series)


def _bordism(job, res, refs):
    series = res["series"]
    if len(series) != res["max_degree"] + 1:
        return "series length %d for max degree %d" % (len(series), res["max_degree"])
    if job.kind == "bordism-global":
        if "breakdown" not in res:
            return "no breakdown in a --global report"
        expected = job.subgroup_classes
        if series[0] != expected or len(res["breakdown"]) != expected:
            return "series[0] = %d and %d breakdown entries, %d subgroup classes" % (
                series[0], len(res["breakdown"]), expected)
    return _series(job, series, refs)


def _d2p(job, res, refs):
    if not res["odd_vanishing"]:
        return "odd coefficients do not vanish"
    if res["degree_zero"] != 4:
        return "degree_zero = %d, expected 4" % res["degree_zero"]
    return _series(job, res["global_series"], refs)


def _same(refs, key, value):
    first = refs.setdefault(key, value)
    if first != value:
        return "relabelling changed the result: %s vs %s" % (value, first)
    return None


_CHECKS = {"irr": _irr, "clifford": _clifford, "bundle": _bundle,
           "bordism-global": _bordism, "bordism-pair": _bordism, "d2p": _d2p}
