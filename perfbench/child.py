"""One benchmark repetition in a fresh interpreter, as a `hodgekp verify` call.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the workload, the points ("q p s" integer triples, or
null for the shipped catalog), the weight, and whether to trace or to
stop at the first job (a set-up probe).  The child runs the workload's
(check, point) jobs through `hodgekp.cli.run_verification`, then the
workload's negative control, and prints one JSON line with job
timestamps (time.monotonic, comparable with the parent's), verdicts, the
report digest and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class SetupDone(Exception):
    """Raised at the first job's start in a set-up probe."""


def import_hodgekp():
    """Import hodgekp from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hodgekp", "__init__.py")):
        raise SystemExit(f"hodgekp sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import hodgekp.cli

    if not os.path.abspath(hodgekp.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported hodgekp from {hodgekp.__file__}, not from {SRC}")
    return hodgekp.cli


def resolve_points(cli, points):
    if points is None:
        return cli.default_points()
    from hodgekp.curve import CurveParams

    return [CurveParams(q, p, s) for q, p, s in points]


def report_digest(summary) -> str:
    """sha256 of the per-check JSON reports, as `verify --out` writes them."""
    h = hashlib.sha256()
    for obj in summary["results"]:
        h.update((json.dumps(obj, indent=1, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def run_control(name, points, weight):
    """True when the workload's negative control reports the failure it must."""
    from fractions import Fraction

    from hodgekp.algebra import TPoly
    from hodgekp.cli import RunConfig, run_verification
    from hodgekp.curve import build_curve
    from hodgekp.kp import hirota_full_check, specialize_hbar
    from hodgekp.operators import virasoro_conjugation_check
    from hodgekp.tau import kw_tau

    if name == "flip-sign":
        curve = build_curve(points[0], 2 * 6 + 2)
        return not virasoro_conjugation_check(curve, 6, flip_sign=True).passed
    if name == "perturbed-tau":
        tau = specialize_hbar(kw_tau(11).body, 1)
        bump = TPoly("t", 11, {((1, 1), (3, 1)): Fraction(1, 7)})
        return not hirota_full_check(tau + bump, 3).passed
    if name == "perturbed-identification":
        config = RunConfig(checks=["identification"], points=points, weight=weight, perturbed=True)
        return run_verification(config)[1]["status"] == "pass"
    raise ValueError(f"unknown control {name!r}")


def execute(spec, cli=None):
    """Run one repetition described by `spec`; returns the result record."""
    from workloads import WORKLOADS

    cli = cli or import_hodgekp()
    workload = WORKLOADS[spec["workload"]]
    tracer = None
    if spec.get("trace"):
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = []
    run_one = cli._run_one

    def timed_job(config, name, point):
        start = time.monotonic()
        if spec.get("setup_only"):
            jobs.append({"start": start})
            raise SetupDone
        try:
            if tracer is not None:
                result = tracer.job_span(len(jobs), run_one, config, name, point)
            else:
                result = run_one(config, name, point)
            error = None
        except Exception as exc:  # an exception is a failed job, not an aborted run
            result = cli.CheckResult(name, point.label(), "fail", 0, {"error": repr(exc)})
            error = repr(exc)
        jobs.append(
            {
                "check": name,
                "point": point.label(),
                "status": result.status,
                "error": error,
                "start": start,
                "end": time.monotonic(),
            }
        )
        return result

    cli._run_one = timed_job
    try:
        points = resolve_points(cli, spec["points"])
        config = cli.RunConfig(checks=list(workload.checks), points=points, weight=spec["weight"])
        try:
            _, summary = cli.run_verification(config)
        except SetupDone:
            return {"jobs": jobs}
        record = {
            "points": [p.label() for p in points],
            "jobs": jobs,
            "digest": report_digest(summary),
        }
        if tracer is not None:
            tracer.active = False
            record["layers"] = tracer.layer_metrics(len(jobs))
            record["trace"] = tracer.records()
    finally:
        cli._run_one = run_one
        if tracer is not None:
            tracer.uninstall()
    try:
        record["control"] = {"name": workload.control, "detected": run_control(workload.control, points, spec["weight"])}
    except Exception as exc:
        record["control"] = {"name": workload.control, "detected": False, "error": repr(exc)}
    return record


def main(argv):
    spec = json.loads(argv[1])
    record = execute(spec)
    trace = record.pop("trace", None)
    if trace is not None and spec.get("trace_out"):
        with open(spec["trace_out"], "w") as fh:
            json.dump(trace, fh)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
