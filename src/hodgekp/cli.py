"""Batch verification driver.

Runs named check suites over parameter points, writes machine-readable
JSON reports plus a human-readable table, and returns a conventional
exit status: 0 all pass, 1 some check failed, 2 usage or configuration
error, 3 internal invariant violation.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction

from .algebra import InvariantViolation, Record, TPoly, double_factorial, rat, rat_str
from .curve import (
    CurveParams,
    CurveSeries,
    build_curve,  # unused here; perfbench/tests read it as `cli.build_curve`
    identification_residual,
    perturbed_control_curve,
)
from .kp import hirota_graded_check, kdv_reduction_check
from .operators import (
    DILATON_TIME,
    exp_apply,
    givental_routes,
    linear_change,
    operator_equality_check,
    rl_identity_check,
    tqp_forms_symbolic,
    unit_monomials,
    virasoro_conjugation_check,
    virasoro_factorization_check,
)
from .tau import (
    PointArtifacts,
    bgw_tau,
    hodge_partition,
    kw_tau,
    tau_qp_check,
    trust_band,
)

ENGINE_VERSION = "0.1.0"

__all__ = ["main", "run_verification", "RunConfig", "CHECKS", "MIN_WEIGHT", "identification_size"]


class RunConfig(Record):
    __slots__ = _fields = ("checks", "points", "weight", "out", "perturbed")

    def __init__(self, checks: list, points: list, weight: int = 9, out: str | None = None, perturbed: bool = False):
        self.checks = checks
        self.points = points
        self.weight = weight
        self.out = out
        self.perturbed = perturbed


class CheckResult(Record):
    __slots__ = _fields = ("check", "point", "status", "millis", "details")

    def __init__(self, check: str, point: str, status: str, millis: int, details: dict | None = None):
        self.check = check
        self.point = point
        self.status = status  # pass | fail
        self.millis = millis
        self.details = {} if details is None else details

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "point": self.point,
            "status": self.status,
            "details": self.details,
        }


class ConfigError(Exception):
    pass


class _PointRun(PointArtifacts):
    """What the checks at one point read: the run's config, and the curve
    and tau-functions of `PointArtifacts`, built once for all of them.
    Each check takes the `_PointRun` of its point and the point, and reads
    its curve to the series order it names.  The curve is built at the
    first such read, to the largest order that any check of the run
    reads (`_curve_order`), so that it is built once."""

    def __init__(self, config: RunConfig, point: CurveParams, bases: dict):
        super().__init__(point, bases)
        self.config = config
        self.order = max(_curve_order(name, config) for name in config.checks)

    def curve(self, order: int) -> CurveSeries:
        return super().curve(max(order, self.order))


# ---------------------------------------------------------------------------
# The check registry
# ---------------------------------------------------------------------------


def _chk_lemma_grunsky(run: _PointRun, point: CurveParams) -> dict:
    W = run.config.weight
    rep = virasoro_factorization_check(run.curve(2 * W + 1), W)
    return {"passed": rep.passed, "report": rep.to_json_obj()}


def _chk_lemma_laplace(run: _PointRun, point: CurveParams) -> dict:
    # a curve of order at least 2W + 2 lists I to order W at least
    W = run.config.weight
    curve = run.curve(2 * W + 2)
    I = curve.I.truncate(W)
    ok = I == curve.R.subs_neg().truncate(I.order)
    return {
        "passed": ok,
        "order": I.order,
        "ratio_series": [rat_str(I.coeff_or_zero(e)) for e in range(I.order + 1)],
    }


def _chk_identification(run: _PointRun, point: CurveParams) -> dict:
    size = identification_size(run.config.weight)
    order = 2 * (2 * size + 1)
    if run.config.perturbed:
        control = perturbed_control_curve(order)
        res = identification_residual(control, size, require_symplectic=False)
        nonzero = [
            (k, m) for k in range(size) for m in range(size) if res[k][m] != 0
        ]
        ok = any(k + m <= 4 for k, m in nonzero)
        return {
            "passed": ok,
            "control": "out-of-family (degree-4 denominator term)",
            "size": size,
            "nonzeroEntries": nonzero,
        }
    res = identification_residual(run.curve(order), size)
    ok = all(x == 0 for row in res for x in row)
    return {
        "passed": ok,
        "size": size,
        "residual": [[rat_str(x) for x in row] for row in res],
    }


def _chk_lemma_factorization(run: _PointRun, point: CurveParams) -> dict:
    W = run.config.weight
    direct, factorized = givental_routes(run.curve(W + 1), W)
    rep = operator_equality_check(direct.core, factorized.core, unit_monomials("T", W))
    failures = [{"monomial": f["input"], "difference": f["difference"]} for f in rep.failures]
    return {"passed": not failures, "checked": rep.checked, "failures": failures[:5]}


def _chk_lemma_changevars(run: _PointRun, point: CurveParams) -> dict:
    W = run.config.weight
    curve = run.curve(W + 1)
    kmax = (W - 1) // 2
    forms = run.forms(W)
    symbolic = tqp_forms_symbolic(point, kmax, W)
    v0 = linear_change(curve, W)
    rb = curve.R.subs_neg()
    failures = []
    for k in range(kmax + 1):
        lhs = TPoly.zero("t", W)
        for m in range(k + 1):
            c = rb.coeff_or_zero(k - m)
            if c:
                lhs = lhs + forms[m].scale(c)
        rhs = exp_apply(
            v0, TPoly.variable("t", 2 * k + 1, W, double_factorial(2 * k + 1))
        )
        if lhs != rhs:
            failures.append({"k": k, "difference": repr(lhs - rhs)})
        if forms[k] != symbolic[k]:
            failures.append({"k": k, "symbolCrossCheck": "mismatch"})
    return {"passed": not failures, "maxIndex": kmax, "failures": failures}


def _chk_theorem_rl(run: _PointRun, point: CurveParams) -> dict:
    W = run.config.weight
    extra = [run.base("standard", W).body] if W >= 3 else []
    rep = rl_identity_check(run.curve(W + 1), run.forms(W), extra=extra)
    return {"passed": rep.passed, "report": rep.to_json_obj(), "includesBaseTau": bool(extra)}


def _chk_tau_identity(run: _PointRun, mode: str) -> dict:
    rep = run.identity(mode, run.config.weight)
    return {"passed": rep.equal, "report": rep.to_json_obj()}


def _chk_kp_base(run: _PointRun, mode: str) -> dict:
    # the base tau carries one hbar power per monomial, so its check at
    # the band (0, 0) holds every coefficient of every hbar power
    W = run.config.weight
    tau = run.base(mode, W)
    r = hirota_graded_check(tau.body, HIROTA_Y_WEIGHT, trust_band(tau.kind))
    return {"passed": r.passed, "weight": W, "report": r.to_json_obj()}


def _chk_kp_hodge(run: _PointRun, point: CurveParams) -> dict:
    W = run.config.weight
    construction, hirota = {}, []
    for mode in DILATON_TIME:
        rep = run.identity(mode, W)
        construction[mode] = rep.equal
        hirota.append(hirota_graded_check(rep.tau.body, HIROTA_Y_WEIGHT, trust_band(rep.tau.kind)))
    return {
        "passed": all(construction.values()) and all(r.passed for r in hirota),
        "construction": construction,
        "hirota": [r.to_json_obj() for r in hirota],
    }


def _chk_kdv_reduction(run: _PointRun, point: CurveParams) -> dict:
    W = run.config.weight
    reports = {mode: kdv_reduction_check(run.identity(mode, W).tau.body) for mode in DILATON_TIME}
    if point.p == -2 * point.q:
        ok = all(r.passed for r in reports.values())
        expectation = "even-time independence (p = -2q)"
    else:
        ok = not any(r.passed for r in reports.values())
        expectation = "even-time dependence (generic point control)"
    return {"passed": ok, "expectation": expectation, **{mode: r.to_json_obj() for mode, r in reports.items()}}


def _chk_conjugation(run: _PointRun, point: CurveParams) -> dict:
    W = run.config.weight
    rep = virasoro_conjugation_check(run.curve(2 * W + 1), W)
    return {"passed": rep.passed, "report": rep.to_json_obj()}


CHECKS = {
    "lemma-grunsky": (_chk_lemma_grunsky, "factorization of the group element with the Grunsky quadratic kernel"),
    "lemma-laplace": (_chk_lemma_laplace, "moment transform of the curve equals R(-z)"),
    "identification": (_chk_identification, "vanishing of the identification residual (use --perturbed for the control)"),
    "lemma-factorization": (_chk_lemma_factorization, "direct vs factorized quantized action on the T-basis"),
    "lemma-changevars": (_chk_lemma_changevars, "transformed variables match the linear change on odd times"),
    "theorem-rl": (_chk_theorem_rl, "full operator identification on the odd-time basis"),
    "theorem-hodge": (lambda run, point: _chk_tau_identity(run, "standard"), "two constructions of the triple-Hodge tau-function agree"),
    "theorem-theta": (lambda run, point: _chk_tau_identity(run, "theta"), "two constructions of the Theta-Hodge tau-function agree"),
    "kp-kw": (lambda run, point: _chk_kp_base(run, "standard"), "bilinear identity for the psi-class tau-function"),
    "kp-bgw": (lambda run, point: _chk_kp_base(run, "theta"), "bilinear identity for the Theta-class tau-function"),
    "kp-hodge": (_chk_kp_hodge, "graded bilinear identity for both derived tau-functions"),
    "kdv-reduction": (_chk_kdv_reduction, "even-time (in)dependence matching the reduction locus"),
    "conjugation": (_chk_conjugation, "conjugation of current modes by the group element"),
}

# The y-weight of the Hirota equation table the KP checks run.  Its
# equations have derivative weight up to HIROTA_Y_WEIGHT + 1, which is
# the smallest weight at which each of them covers a residual.
HIROTA_Y_WEIGHT = 3

# The smallest weight at which a check is meaningful; 1 when absent.
# The standard-side tau-functions (kw_tau, tau_qp) start at W = 3.  At W = 1
# no term of a_1 L_1 or quantized generator acts; lemma-changevars needs W = 3
# to compare more than the seed t_1.
MIN_WEIGHT = {
    "lemma-grunsky": 2,
    "lemma-factorization": 2,
    "lemma-changevars": 3,
    "theorem-rl": 2,
    "theorem-theta": 2,
    "theorem-hodge": 3,
    "kp-kw": HIROTA_Y_WEIGHT + 1,
    "kp-bgw": HIROTA_Y_WEIGHT + 1,
    "kp-hodge": HIROTA_Y_WEIGHT + 1,
    "kdv-reduction": 3,
}


def identification_size(W: int) -> int:
    """The size of the identification residual at weight W, never below
    the 4 x 4 block: the entries (k, m) with k, m < W // 2 hold every
    T_k T_m of weight (2k + 1) + (2m + 1) <= W.  The curve it reads, of
    order 2(2 size + 1), is 18 up to W = 9, above lemma-laplace's 2W + 2
    below W = 8, and at most 2W + 2 from W = 8 on."""
    return max(4, W // 2)


def _curve_order(name: str, config: RunConfig) -> int:
    """The series order of the point's curve that the check `name` reads
    at the run's weight W: lemma-laplace's 2W + 2, the identification
    residual's 2(2 size + 1) (its perturbed control reads a curve of its
    own), conjugation's and lemma-grunsky's 2W + 1, and W + 1 for the
    others, which read it through the routes of weight cap W (the
    point-free checks read none)."""
    W = config.weight
    if name == "identification":
        return 0 if config.perturbed else 2 * (2 * identification_size(W) + 1)
    if name == "lemma-laplace":
        return 2 * W + 2
    return 2 * W + 1 if name in ("lemma-grunsky", "conjugation") else W + 1


# Checks whose outcome does not depend on a parameter point.
POINT_FREE = {"kp-kw", "kp-bgw"}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def default_points() -> list[CurveParams]:
    # read through this module's loader, which finds the package data in a
    # source tree, an installed package or a zip archive alike
    path = os.path.join(os.path.dirname(__file__), "data", "points.cfg")
    text = __loader__.get_data(path).decode("utf-8")
    points = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        if key.strip() != "point":
            raise ConfigError(f"unknown key in points config: {key.strip()!r}")
        q, p, s = value.split()
        points.append(CurveParams(rat(q), rat(p), rat(s)))
    return points


def _run_one(run: _PointRun, name: str, point: CurveParams) -> CheckResult:
    fn = CHECKS[name][0]
    t0 = time.perf_counter()
    details = fn(run, point)
    ms = int((time.perf_counter() - t0) * 1000)
    status = "pass" if details.pop("passed") else "fail"
    return CheckResult(name, point.label(), status, ms, details)


def run_verification(config: RunConfig) -> tuple[int, dict]:
    """Execute each (check, point) pair; returns (exit status, summary)."""
    for name in config.checks:
        if name not in CHECKS:
            raise ConfigError(f"unknown check name {name!r}; see `hodgekp list-checks`")
        _require_weight(config.weight, MIN_WEIGHT.get(name, 1), f"check {name!r}")
    if config.out:
        # before the first job, so that an unusable --out costs no work
        os.makedirs(config.out, exist_ok=True)
    jobs = []
    for name in config.checks:
        point_free = name in POINT_FREE or (name == "identification" and config.perturbed)
        jobs.extend((name, point) for point in (config.points[:1] if point_free else config.points))
    # The jobs run point by point, so that the checks at one point share
    # its curves and tau-functions, which are dropped when the point is
    # done; the base tau-functions are shared by the whole run.  Results
    # keep the check-major order of `jobs`.
    done = {}
    bases: dict = {}
    for point in dict.fromkeys(point for _, point in jobs):
        run = _PointRun(config, point, bases)
        for job in jobs:
            if job[1] == point:
                # `_run_one` is looked up as a module global on each job,
                # so that a caller can wrap it, for example to time it.
                done[job] = _run_one(run, *job)
    results = [done[job] for job in jobs]
    all_pass = all(r.passed for r in results)
    summary = {
        "engineVersion": ENGINE_VERSION,
        "config": {
            "checks": config.checks,
            "points": [p.label() for p in config.points],
            "weight": config.weight,
        },
        "results": [r.to_json_obj() for r in results],
        "status": "pass" if all_pass else "fail",
        # Wall-clock timings are reported for information only; they are
        # the one summary field excluded from byte-determinism.
        "timings_ms": {f"{r.check}::{r.point}": r.millis for r in results},
    }
    if config.out:
        for r in results:
            fname = f"{r.check}__{r.point}".replace("/", "_").replace(",", "_") + ".json"
            _write(os.path.join(config.out, fname), r.to_json_obj())
        _write(os.path.join(config.out, "summary.json"), summary)
    return (0 if all_pass else 1), summary


def _write(path: str, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _print_summary(summary: dict, fmt: str):
    stream = sys.stdout
    if fmt == "json":
        json.dump(summary, stream, indent=1, sort_keys=True)
        stream.write("\n")
        return
    rows = summary["results"]
    wname = max([len(r["check"]) for r in rows] + [5])
    wpoint = max([len(r["point"]) for r in rows] + [5])
    for r in rows:
        ms = summary["timings_ms"].get(f'{r["check"]}::{r["point"]}', 0)
        stream.write(
            f'{r["check"]:<{wname}}  {r["point"]:<{wpoint}}  {r["status"]:<4}  {ms:>6} ms\n'
        )
    stream.write(f'overall: {summary["status"]}\n')


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser():
    # argparse is imported here, by the command line alone: a run through
    # `run_verification` never loads it
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argument parser, its subcommands' parsers too, whose errors are
        `ConfigError`s: one `error:` line and exit status 2, with no usage."""

        def error(self, message):
            raise ConfigError(message)

    ap = _Parser(
        prog="hodgekp",
        description="Exact finite-order verification of the rank-one quantized "
        "group action against the Heisenberg-Virasoro symmetries of KP.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run one named check suite")
    v.add_argument("check", help="check name (see list-checks), or 'all'")
    v.add_argument("--q", help="rational q (requires --p and --s)")
    v.add_argument("--p", help="rational p")
    v.add_argument("--s", help="rational s with s^2 = p + q")
    v.add_argument("--weight", type=int, default=9, help="weight truncation W")
    v.add_argument("--format", choices=("json", "text"), default="text")
    v.add_argument("--out", default=None, help="directory for JSON reports")
    v.add_argument("--perturbed", action="store_true", help="run the out-of-family control (identification)")

    t = sub.add_parser("tau", help="dump a truncated tau-function as JSON")
    t.add_argument("kind", choices=tuple(_TAU_KINDS))
    t.add_argument("--weight", type=int, required=True)
    t.add_argument("--q", help="rational q (for point-dependent kinds)")
    t.add_argument("--p", help="rational p")
    t.add_argument("--s", help="rational s")
    t.add_argument("--out", default=None, help="output file (default stdout)")

    sub.add_parser("list-checks", help="list available check names")
    return ap


def _parse_rational(flag: str, text: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{flag} {text!r} is not an exact rational") from None


def _parse_point(args) -> CurveParams | None:
    given = [x is not None for x in (args.q, args.p, args.s)]
    if not any(given):
        return None
    if not all(given):
        raise ConfigError("--q, --p and --s must be given together")
    q = _parse_rational("--q", args.q)
    p = _parse_rational("--p", args.p)
    s = _parse_rational("--s", args.s)
    try:
        return CurveParams(q, p, s)
    except ValueError as exc:
        raise ConfigError(f"invalid point: {exc}") from None


def _require_weight(W: int, minimum: int, what: str):
    if W < minimum:
        raise ConfigError(f"--weight {W} too small for {what}: need >= {minimum}")
    # a series order beyond sys.maxsize cannot index a coefficient list;
    # the largest one allocated is 2W + 4, `build_curve`'s working order
    # K + 2 for lemma-laplace's curve of order K = 2W + 2
    if 2 * W + 4 > sys.maxsize:
        raise ConfigError(f"--weight {W} too large: the series order 2W + 4 exceeds {sys.maxsize}")


def _cmd_verify(args) -> int:
    point = _parse_point(args)
    points = [point] if point is not None else default_points()
    checks = list(CHECKS) if args.check == "all" else [args.check]
    if args.perturbed and "identification" not in checks:
        raise ConfigError(f"--perturbed applies to the identification check alone, not {args.check!r}")
    config = RunConfig(checks=checks, points=points, weight=args.weight, out=args.out, perturbed=args.perturbed)
    code, summary = run_verification(config)
    _print_summary(summary, args.format)
    return code


def _agreed_tau(point: CurveParams, W: int, mode: str):
    """The tau-function of the side `mode` at the point, once its two
    routes agree; a disagreement is an invariant violation, as in the
    `hodge` dumps (`hodge_partition`)."""
    rep = tau_qp_check(point, W, mode)
    if not rep.equal:
        raise InvariantViolation(f"the two routes to the {mode} tau-function disagree; diff = {rep.difference!r}")
    return rep.tau


# `tau` kinds: (minimum weight, whether a point is needed, builder).
_TAU_KINDS = {
    "kw": (3, False, lambda point, W: kw_tau(W)),
    "bgw": (1, False, lambda point, W: bgw_tau(W)),
    "hodge": (3, True, lambda point, W: hodge_partition(point, W, "standard")),
    "theta-hodge": (1, True, lambda point, W: hodge_partition(point, W, "theta")),
    "tau-qp": (3, True, lambda point, W: _agreed_tau(point, W, "standard")),
    "tau-theta-qp": (1, True, lambda point, W: _agreed_tau(point, W, "theta")),
}


def _cmd_tau(args) -> int:
    min_weight, needs_point, build = _TAU_KINDS[args.kind]
    _require_weight(args.weight, min_weight, f"tau kind {args.kind!r}")
    point = _parse_point(args)
    if needs_point and point is None:
        raise ConfigError(f"tau kind {args.kind!r} needs --q/--p/--s")
    if not needs_point and point is not None:
        raise ConfigError(f"tau kind {args.kind!r} takes no --q/--p/--s")
    series = build(point, args.weight)
    obj = series.to_json_obj()
    obj["provenance"]["engineVersion"] = ENGINE_VERSION
    if args.out:
        _write(args.out, obj)
    else:
        json.dump(obj, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def _run_command(args) -> int:
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "tau":
            return _cmd_tau(args)
        for name, (_, doc) in CHECKS.items():  # list-checks
            sys.stdout.write(f"{name:<20} {doc}\n")
        return 0
    except InvariantViolation as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        if args.command == "verify" and args.out:
            with open(os.path.join(args.out, "invariant-violation.txt"), "w") as fh:
                fh.write(f"{exc}\n")
        return 3


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _run_command(args)
    except (ConfigError, OSError) as exc:
        # the commands' only OSErrors come from their files: a report
        # path that cannot be written is a usage error too
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        # only a weight far beyond what a run can hold asks for that much
        sys.stderr.write(f"error: --weight {args.weight} too large: its series do not fit in memory\n")
        return 2
