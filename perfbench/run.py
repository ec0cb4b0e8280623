"""hodgekp benchmark: time to verdict for three verification workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload conj-w6 --seed 0 --seconds 30 --trace 0

Load model: closed loop, one client.  Each repetition is a fresh child
interpreter (perfbench/child.py), as a `hodgekp verify` call is, so the
correlator caches start cold; the benchmark sets no HODGEKP_* variable
and runs at most two processes at once (itself and one child).

Host-speed correction: the CPU speed of a shared virtual machine can
drift (by up to 1.6x within seconds on the 2-core VM of the first
baseline, perfbench/README.md).  While a child runs, a thread of this process times a fixed
calibration loop on the child's CPU every PROBE_PERIOD_S, and every time
the benchmark reports is the wall time rescaled to the speed at which that
loop takes REF_CALIBRATION_S (see SpeedProbe).  The raw wall times are
printed alongside.

--trace 0 prints the end-to-end metrics (median over the repetitions of
one run); --trace 1 puts each traced repetition between two untraced
ones and prints the per-layer metrics.  Human-readable lines come first; the
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Exit status: 0 when every verdict matches the known answer,
1 when one does not, 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS, draw_points  # noqa: E402

SETUP_PROBES = 30  # children that stop at the first job, for setup_s
SETUP_SHARE = 0.25  # the probes stop early once they took this share of --seconds
MIN_PROBES = 3
MIN_REPS = 2
RUN_LIMIT_S = 165  # no child runs past this; the repetitions that finished count

PROBE_PERIOD_S = 0.05
# The calibration loop's thread CPU time at the reference speed: about
# its median on the 2-core host of the first baseline (perfbench/README.md).
REF_CALIBRATION_S = 0.0013


class ChildFailed(Exception):
    pass


class ChildKilled(ChildFailed):
    """The child was still running at the run's hard limit."""


# Two fixed 12-term polynomials, keyed like hodgekp's TPoly: a monomial is
# a sorted tuple of (variable index, exponent) pairs, a coefficient a Fraction.
CAL_A = {((1, i % 3 + 1), (i + 2, 1)): Fraction(i + 1, 3) for i in range(12)}
CAL_B = {((2, 1), (i + 1, 2)): Fraction(2, i + 5) for i in range(12)}


def calibration_loop():
    """Fixed pure-Python work shaped like hodgekp's: one sparse polynomial
    product over Fraction coefficients, about 1.3 ms on the baseline host."""
    product = {}
    for ma, ca in CAL_A.items():
        for mb, cb in CAL_B.items():
            exps = dict(ma)
            for var, e in mb:
                exps[var] = exps.get(var, 0) + e
            mono = tuple(sorted(exps.items()))
            product[mono] = product.get(mono, 0) + ca * cb
    return product


def child_cpu(pid):
    """The CPU that process `pid` last ran on (field 39 of /proc/<pid>/stat)."""
    with open(f"/proc/{pid}/stat") as fh:
        stat = fh.read()
    return int(stat[stat.rindex(")") + 2 :].split()[36])


class SpeedProbe:
    """Samples the speed of the CPU that the current child runs on.

    Every PROBE_PERIOD_S a thread of this process moves to the child's CPU
    and times `calibration_loop` in thread CPU time, which preemption does
    not inflate but a slower processor does.  The loop runs in this
    process, never in the child, so nothing a hodgekp change does to its
    own process (its heap, its threads) can alter the samples.  It takes
    about 2.5 % of the child's CPU, the same share on every run.
    """

    def __init__(self):
        self.pid = None
        self.samples = []  # (monotonic time, loop CPU seconds), in time order
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            pid = self.pid
            if pid is None:
                continue
            try:
                cpu = child_cpu(pid)
                os.sched_setaffinity(0, {cpu})  # this thread only
            except (OSError, ValueError, IndexError):
                continue  # the child has ended, or its CPU is not ours
            t0, c0 = time.monotonic(), time.thread_time()
            calibration_loop()
            c1, t1 = time.thread_time(), time.monotonic()
            self.samples.append(((t0 + t1) / 2, c1 - c0))

    def speed(self, start, end):
        """Mean host speed over [start, end], relative to the reference speed.

        Uses the samples taken in the interval, or the one nearest to it
        when the interval is shorter than a sampling period.
        """
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside and self.samples:
            mid = (start + end) / 2
            inside = [min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]]
        if not inside:
            return 1.0
        return REF_CALIBRATION_S * statistics.fmean(1 / s for s in inside)

    def corrected(self, start, end):
        """The wall seconds from `start` to `end` at the reference speed.

        The work a CPU does in an interval is its duration times its mean
        speed, so this is (end - start) times the speed relative to the
        reference.
        """
        return (end - start) * self.speed(start, end)


def spawn(spec, limit, probe):
    """Run one child, killed after `limit` seconds, while `probe` samples
    its CPU; returns (spawn time, record, peak RSS in MB)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HODGEKP_")}
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    probe.pid = proc.pid
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(limit, kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        probe.pid = None
        proc.stdout.close()
        # wait4, not wait: its rusage is this child's, descendants included.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        if killed.is_set():
            raise ChildKilled(f"child still running at the run's limit of {RUN_LIMIT_S} s")
        raise ChildFailed(f"child exited with status {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise ChildFailed("child printed no result")
    return t_spawn, json.loads(lines[-1]), usage.ru_maxrss / 1024


class Run:
    """The repetitions of one benchmark run and the verdicts they gave."""

    def __init__(self, workload, seed, weight, probe):
        self.hard_deadline = time.monotonic() + RUN_LIMIT_S
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.points = draw_points(seed)
        self.weight = weight or self.workload.weight
        self.host = probe
        self.setup = []  # (corrected, wall) seconds to the first job
        self.reps = []  # untraced full repetitions
        self.traced = []
        self.attempted = 0
        self.wrong = 0
        self.exceptions = 0
        self.missed_controls = 0
        self.problems = []

    def spec(self, **extra):
        return {"workload": self.name, "points": self.points, "weight": self.weight, **extra}

    def spawn(self, spec):
        return spawn(spec, max(1.0, self.hard_deadline - time.monotonic()), self.host)

    def fits(self, seconds, deadline):
        """Whether `seconds` more work ends by `deadline` and the hard limit."""
        end = time.monotonic() + seconds
        return end <= deadline and end <= self.hard_deadline

    def probe(self):
        t_spawn, record, _ = self.spawn(self.spec(setup_only=True))
        start = record["jobs"][0]["start"]
        return self.host.corrected(t_spawn, start), start - t_spawn

    def rep(self, traced=False):
        spec = self.spec(trace=traced)
        if traced:
            os.makedirs(OUT, exist_ok=True)
            spec["trace_out"] = os.path.join(
                OUT, f"trace-{self.name}-seed{self.seed}-{len(self.traced)}.json"
            )
        t_spawn, record, rss = self.spawn(spec)
        elapsed = time.monotonic() - t_spawn
        jobs = record["jobs"]
        first, last = min(j["start"] for j in jobs), max(j["end"] for j in jobs)
        rep = {
            "setup": self.host.corrected(t_spawn, jobs[0]["start"]),
            "verdict": self.host.corrected(first, last),
            "wall": last - first,
            "speed": self.host.speed(first, last),
            "elapsed": elapsed,
            "job_s": [self.host.corrected(j["start"], j["end"]) for j in jobs],
            "rss": rss,
            "record": record,
        }
        self.score(record)
        (self.traced if traced else self.reps).append(rep)
        if not traced:
            self.setup.append((rep["setup"], jobs[0]["start"] - t_spawn))
        return rep

    def score(self, record):
        """Check one repetition against the known answer.

        Every shipped check passes at every valid point; the workload's
        negative control must report its failure.
        """
        self.attempted += len(record["jobs"]) + 1
        for job in record["jobs"]:
            if job["error"] is not None:
                self.exceptions += 1
            elif job["status"] != "pass":
                self.wrong += 1
        if not record["control"]["detected"]:
            self.missed_controls += 1
        if {j["check"] for j in record["jobs"]} != set(self.workload.checks):
            self.problems.append("the jobs run do not cover the workload's checks")
        first = (self.reps + self.traced)[0]["record"] if self.reps or self.traced else record
        for key in ("digest", "points"):
            if record[key] != first[key]:
                self.problems.append(f"{key} differs between repetitions")
        if [(j["check"], j["point"]) for j in record["jobs"]] != [(j["check"], j["point"]) for j in first["jobs"]]:
            self.problems.append("the job order differs between repetitions")

    @property
    def failed(self):
        return self.wrong + self.exceptions + self.missed_controls

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def tail(values):
    """Median and the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} (n={n}"
    if n < 11:
        return text + "; no percentile has 10 samples beyond it)"
    pct = math.floor(100 * (1 - 10 / n))
    rank = math.ceil(n * pct / 100)
    return text + f"; p{pct} {sorted(values)[rank - 1]:.4f}, {n - rank} beyond)"


def measure(run, seconds):
    deadline = time.monotonic() + seconds
    probes_end = time.monotonic() + SETUP_SHARE * seconds
    run.probe()  # warm-up: compiles bytecode, fills the file cache
    for i in range(SETUP_PROBES):
        run.setup.append(run.probe())
        if i + 1 >= MIN_PROBES and time.monotonic() > probes_end:
            break
    while True:
        try:
            run.rep()
        except ChildKilled:
            if not run.reps:
                raise
            break  # report the repetitions that finished
        longest = max(r["elapsed"] for r in run.reps)
        if not run.fits(longest, deadline if len(run.reps) >= MIN_REPS else math.inf):
            break
    job_s = [t for r in run.reps for t in r["job_s"]]
    # The slowest (check, point) job, each job timed by its median over the repetitions.
    per_job = [statistics.median(times) for times in zip(*(r["job_s"] for r in run.reps))]
    k = max(range(len(per_job)), key=per_job.__getitem__)
    slowest = run.reps[0]["record"]["jobs"][k]
    print(f"verdict_s      s   {tail([r['verdict'] for r in run.reps])}")
    print(
        f"slowest_job_s  s   {tail([r['job_s'][k] for r in run.reps])}: "
        f"{slowest['check']} at {slowest['point']}"
    )
    print(f"job_s          s   {tail(job_s)}")
    print(f"setup_s        s   {tail([c for c, _ in run.setup])}")
    print(f"peak_rss_mb    MB  {tail([r['rss'] for r in run.reps])}")
    print(f"wall verdict   s   {tail([r['wall'] for r in run.reps])}")
    print(f"wall setup     s   {tail([w for _, w in run.setup])}")
    print(f"host speed     x   {tail([r['speed'] for r in run.reps])}")
    return {
        "verdict_s": (statistics.median(r["verdict"] for r in run.reps), "s"),
        "slowest_job_s": (per_job[k], "s"),
        "setup_s": (statistics.median(c for c, _ in run.setup), "s"),
        "peak_rss_mb": (statistics.median(r["rss"] for r in run.reps), "MB"),
    }


def layer_unit(name):
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    return "bits" if name.endswith("_bits") else "count"


def layer_values(record):
    """Per-layer metrics of one traced repetition.

    A self time becomes `<name>.self_pct`, its share of the time spent in
    jobs, because shares stay comparable when the host's speed drifts and
    the child's seconds are not corrected for it.  A layer that a workload
    never enters reads 0 %.
    """
    layers = dict(record["layers"])
    total = layers.pop("traced_s")
    return {
        (name[: -len("_s")] + "_pct" if name.endswith(".self_s") else name): (
            100 * value / total if name.endswith(".self_s") else value
        )
        for name, value in layers.items()
    }


def measure_traced(run, seconds):
    """Traced repetitions, each between two untraced ones.

    A traced repetition's overhead is its verdict time minus the mean of
    its two neighbours', which cancels what drift the speed correction
    leaves.  A traced repetition whose second neighbour is cut by the
    run's limit is compared with the first alone.
    """
    deadline = time.monotonic() + seconds
    before = run.rep()
    overheads = []
    while True:
        try:
            traced = run.rep(traced=True)
            after = run.rep()
        except ChildKilled:
            if not run.traced:
                raise
            if len(overheads) < len(run.traced):
                overheads.append(run.traced[-1]["verdict"] - before["verdict"])
            break
        overheads.append(traced["verdict"] - (before["verdict"] + after["verdict"]) / 2)
        if not run.fits(traced["elapsed"] + after["elapsed"], deadline):
            break
        before = after
    reps = [layer_values(r["record"]) for r in run.traced]
    layers = dict(reps[0])
    for name, value in layers.items():
        if name.endswith("_pct"):
            layers[name] = statistics.median(r[name] for r in reps)
        elif any(r[name] != value for r in reps):
            run.problems.append(f"count {name} differs between traced repetitions")
    layers["trace.overhead_s"] = statistics.median(overheads)
    seconds_of = {
        name: statistics.median(r["record"]["layers"][name] for r in run.traced)
        for name in run.traced[0]["record"]["layers"]
        if name.endswith("_s")
    }
    for name, value in sorted(layers.items()):
        own = seconds_of.get(name[: -len("_pct")] + "_s") if name.endswith("_pct") else None
        print(f"{name:<40} {value:.6g}" + (f"   ({own:.4f} s)" if own is not None else ""))
    print(f"{'time in jobs, traced':<40} {seconds_of['traced_s']:.4f} s")
    return {name: (value, layer_unit(name)) for name, value in layers.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--weight", type=int, default=None, help="override the workload's weight (tests)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hodgekp", "__init__.py")):
        sys.stderr.write(f"error: no hodgekp sources under {ROOT}/src\n")
        return 2
    with SpeedProbe() as probe:
        run = Run(args.workload, args.seed, args.weight, probe)
        try:
            if args.trace:
                metrics = measure_traced(run, args.seconds)
            else:
                metrics = measure(run, args.seconds)
        except ChildFailed as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
    first = (run.reps or run.traced)[0]["record"]
    print(f"workload {run.name}: seed {run.seed}, weight {run.weight}, points {'; '.join(first['points'])}")
    print(f"digest sha256:{first['digest']}")
    print(
        f"ops_failed {run.failed}/{run.attempted} ({run.wrong} wrong verdicts, "
        f"{run.exceptions} exceptions, {run.missed_controls} missed controls)"
    )
    for problem in sorted(set(run.problems)):
        print(f"problem: {problem}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
