import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import hodgekp
from hodgekp.cli import (
    CHECKS,
    MIN_WEIGHT,
    ConfigError,
    RunConfig,
    default_points,
    identification_size,
    main,
    run_verification,
)
from hodgekp.algebra import HbarPoly, TPoly, rat_str
from hodgekp.curve import CurveParams, build_curve, identification_residual
from hodgekp.kp import kdv_reduction_check, specialize_hbar
from hodgekp.operators import (
    rl_identity_check,
    tqp_forms,
    virasoro_conjugation_check,
    virasoro_factorization_check,
)
from hodgekp.tau import kw_tau, tau_qp_check


class TestConfig:
    def test_default_points_catalog(self):
        points = default_points()
        assert len(points) == 5
        assert points[0].label() == "q=1,p=3,s=2"

    def test_unknown_check_rejected(self):
        config = RunConfig(checks=["no-such-check"], points=default_points())
        with pytest.raises(ConfigError, match="unknown check"):
            run_verification(config)


class TestMainEntry:
    def test_list_checks(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        for name in CHECKS:
            assert name in out

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hodgekp.__file__)))
        run = lambda *args: subprocess.run(
            [sys.executable, "-m", "hodgekp", *args], env=env, capture_output=True, text=True, timeout=120
        )
        listed = run("list-checks")
        assert listed.returncode == 0
        for name in CHECKS:
            assert name in listed.stdout
        assert run("verify", "bogus", "--weight", "6").returncode == 2

    def test_unknown_check_exit_code(self, capsys):
        code = main(["verify", "bogus", "--weight", "6"])
        assert code == 2
        assert "unknown check" in capsys.readouterr().err

    def test_inconsistent_point_flags(self, capsys):
        code = main(["verify", "lemma-laplace", "--q", "1", "--weight", "6"])
        assert code == 2

    def test_laplace_single_point(self, capsys):
        code = main(
            ["verify", "lemma-laplace", "--q", "1", "--p", "3", "--s", "2", "--weight", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lemma-laplace" in out and "pass" in out

    def test_json_format(self, capsys):
        code = main(
            [
                "verify", "lemma-laplace",
                "--q", "0", "--p", "4", "--s", "2",
                "--weight", "6", "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"
        assert payload["results"][0]["check"] == "lemma-laplace"

    def test_perturbed_control(self, capsys):
        code = main(["verify", "identification", "--perturbed", "--weight", "6"])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_tau_dump(self, tmp_path, capsys):
        out = tmp_path / "kw.json"
        code = main(["tau", "kw", "--weight", "6", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"]["kind"] == "KW"
        assert any(
            term["monomial"] == {"t1": 3} and term["coeff"] == {"h^1": "1/6"}
            for term in payload["terms"]
        )

    def test_tau_point_kinds_need_point(self, capsys):
        assert main(["tau", "tau-qp", "--weight", "6"]) == 2

    @pytest.mark.parametrize("kind, check", [("tau-qp", "theorem-hodge"), ("tau-theta-qp", "theorem-theta")])
    def test_tau_dump_whose_routes_disagree_exits_3(self, kind, check, monkeypatch, capsys):
        # the symmetry-group route halved: the dump prints nothing and
        # exits 3, as the check of the same pair fails with exit 1
        import hodgekp.tau as tau_module

        real = tau_module.rl_transform_virasoro

        def halved(curve, W, mode="standard"):
            core = real(curve, W, mode).core

            def half(num, den):
                num, den = core(num, den)
                return num, 2 * den

            return SimpleNamespace(core=half)

        monkeypatch.setattr(tau_module, "rl_transform_virasoro", halved)
        point = ["--q", "1", "--p", "3", "--s", "2"]
        assert main(["tau", kind, "--weight", "6", *point]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("internal invariant violation: the two routes")
        assert main(["verify", check, "--weight", "6", *point]) == 1


class TestReportsAndDeterminism:
    def test_reports_written_and_deterministic(self, tmp_path):
        point = CurveParams(F(1), F(3), F(2))
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            config = RunConfig(
                checks=["lemma-laplace", "kdv-reduction"],
                points=[point],
                weight=6,
                out=str(out),
            )
            code, _ = run_verification(config)
            assert code == 0
            dirs.append(out)
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files == sorted(p.name for p in dirs[1].iterdir())
        for fname in files:
            a = (dirs[0] / fname).read_text()
            b = (dirs[1] / fname).read_text()
            if fname == "summary.json":
                pa, pb = json.loads(a), json.loads(b)
                pa.pop("timings_ms"), pb.pop("timings_ms")
                assert pa == pb
            else:
                assert a == b  # byte-deterministic per-check reports

    def test_failure_exit_status(self):
        # every shipped check passes on valid input, so a failure is patched in
        from hodgekp import cli

        original = cli.CHECKS["lemma-laplace"]
        cli.CHECKS["lemma-laplace"] = (lambda cfg, pt: {"passed": False}, "doc")
        try:
            config = RunConfig(checks=["lemma-laplace"], points=[CurveParams(F(1), F(3), F(2))], weight=6)
            code, summary = run_verification(config)
            assert code == 1 and summary["status"] == "fail"
        finally:
            cli.CHECKS["lemma-laplace"] = original

    def test_invariant_violation_exit_code_and_artifact(self, tmp_path, capsys):
        from hodgekp import cli
        from hodgekp.algebra import InvariantViolation

        def broken(cfg, pt):
            raise InvariantViolation("pipelines disagree: <diff>")

        original = cli.CHECKS["lemma-laplace"]
        cli.CHECKS["lemma-laplace"] = (broken, "doc")
        try:
            code = main(
                [
                    "verify", "lemma-laplace",
                    "--q", "1", "--p", "3", "--s", "2",
                    "--weight", "6", "--out", str(tmp_path / "r"),
                ]
            )
        finally:
            cli.CHECKS["lemma-laplace"] = original
        assert code == 3
        assert "invariant violation" in capsys.readouterr().err
        artifact = tmp_path / "r" / "invariant-violation.txt"
        assert artifact.exists() and "diff" in artifact.read_text()

    def test_cold_and_warm_runs_agree(self):
        # the base tau-functions come from their constraints alone: a run
        # of the checks that read them asks for no correlator
        from hodgekp.tau import psi_correlator, theta_correlator

        point = CurveParams(F(1), F(3), F(2))
        config = RunConfig(checks=["kp-kw", "kp-bgw", "theorem-theta"], points=[point], weight=6)
        psi_correlator.cache_clear()
        theta_correlator.cache_clear()
        _, cold = run_verification(config)
        _, warm = run_verification(config)
        for correlator in (psi_correlator, theta_correlator):
            info = correlator.cache_info()
            assert info.currsize == info.hits == info.misses == 0
        cold.pop("timings_ms"), warm.pop("timings_ms")
        assert cold["status"] == "pass"
        assert cold == warm


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lemma-laplace", "--q", "x", "--p", "3", "--s", "2"],
        ["verify", "lemma-laplace", "--q", "1", "--p", "3", "--s", "3"],
        ["verify", "lemma-laplace", "--q", "1", "--p", "-1", "--s", "0"],
        ["verify", "lemma-laplace", "--q", "1/0", "--p", "3", "--s", "2"],
        ["verify", "lemma-laplace", "--hbar", "x"],
        ["verify", "lemma-laplace", "--weight", "0"],
        ["verify", "kp-kw", "--hbar", "0"],
        ["tau", "kw", "--weight", "2"],
        ["tau", "tau-theta-qp", "--weight", "0", "--q", "1", "--p", "3", "--s", "2"],
        ["verify", "lemma-laplace", "--q", "1"],
        ["verify", "lemma-grunsky", "--q", "1", "--p", "3", "--s", "2", "--weight", "0"],
        ["verify", "identification", "--perturbed", "--weight", "0"],
        ["verify", "theorem-hodge", "--q", "1", "--p", "3", "--s", "2", "--weight", "2"],
        ["verify", "kp-kw", "--weight", "1"],
        ["verify", "lemma-grunsky", "--weight", "99999999999999999999999"],
        ["tau", "kw", "--weight", "99999999999999999999999"],
        ["verify", "lemma-grunsky", "--q", "1", "--p", "3", "--s", "2", "--weight", "4611686018427387902"],
        ["verify", "lemma-grunsky", "--q", "1", "--p", "3", "--s", "2", "--weight", "4611686018427387901"],
        # the argument parser's own errors, the subcommands' included
        ["verify", "lemma-laplace", "--weight", "abc"],
        ["verify", "lemma-laplace", "--no-such-flag"],
        ["tau", "kw"],
        ["verify", "lemma-laplace", "--format", "xml"],
    ],
)
def test_bad_input_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("check, build, W", [("kp-kw", "kw_tau", 11), ("kp-bgw", "bgw_tau", 8)])
def test_kp_base_check_sees_a_bump_that_vanishes_at_hbar_1_and_one_half(check, build, W, monkeypatch):
    # (1/7)(2 hbar^2 - 3 hbar + 1) t1 t3 specializes to zero at hbar = 1
    # and at hbar = 1/2, so a check at those two values alone passes it
    import hodgekp.tau as tau_mod

    base = getattr(tau_mod, build)(W)
    bump = TPoly("t", W, {((1, 1), (3, 1)): HbarPoly({2: F(2, 7), 1: F(-3, 7), 0: F(1, 7)})})
    bumped = tau_mod.TauSeries(base.body + bump, base.kind, base.provenance)
    for hb in (F(1), F(1, 2)):
        assert specialize_hbar(bumped.body, hb) == specialize_hbar(base.body, hb)
    monkeypatch.setattr(tau_mod, build, lambda W: bumped)
    code, summary = run_verification(RunConfig(checks=[check], points=default_points(), weight=W))
    assert code == 1 and [r["status"] for r in summary["results"]] == ["fail"]


def test_kp_hodge_sees_a_bump_on_the_theta_tau_at_weight_w(monkeypatch):
    # (1/7) hbar^3 t1^6, added to the Theta tau after its identity check,
    # sits at monomial weight W = 6 inside the band 2e <= W + v; the
    # equation D1^4 + 3 D2^2 - 4 D1 D3 leaves a residual of it at weight
    # 2.  A Theta tau built to W - 1 holds no monomial of weight W.
    import dataclasses

    import hodgekp.tau as tau_mod

    W = 6
    real = tau_mod._tau_identity

    def bumped(params, w, mode, *inputs):
        rep = real(params, w, mode, *inputs)
        if mode == "theta" and w == W:
            body = rep.tau.body + TPoly("t", w, {((1, 6),): HbarPoly.hbar(3, F(1, 7))})
            rep = dataclasses.replace(rep, tau=dataclasses.replace(rep.tau, body=body))
        return rep

    monkeypatch.setattr(tau_mod, "_tau_identity", bumped)
    code, summary = run_verification(RunConfig(checks=["kp-hodge"], points=default_points(), weight=W))
    assert code == 1
    for r in summary["results"]:
        details = r["details"]
        assert r["status"] == "fail" and details["construction"] == {"standard": True, "theta": True}
        assert [rep["status"] for rep in details["hirota"]] == ["pass", "fail"]
        assert all(rep["coveredWeight"] == W - 4 for rep in details["hirota"])


def _hirota_reports(obj):
    """Every Hirota report nested anywhere in a JSON payload."""
    if isinstance(obj, dict):
        if "coveredWeight" in obj:
            yield obj
        for value in obj.values():
            yield from _hirota_reports(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _hirota_reports(value)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_each_check_runs_at_its_minimum_weight_and_exits_2_below(name, capsys):
    point = ["--q", "1", "--p", "3", "--s", "2"]
    minimum = MIN_WEIGHT.get(name, 1)
    with_weight = lambda W: ["verify", name, *point, "--weight", str(W), "--format", "json"]
    assert main(with_weight(minimum)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["weight"] == minimum
    assert all(r["details"].get("weight", minimum) == minimum for r in payload["results"])
    hirota = list(_hirota_reports(payload))
    assert all(rep["coveredWeight"] >= 0 for rep in hirota)
    assert all(eq["status"] != "skipped" for rep in hirota for eq in rep["equations"])
    assert main(with_weight(minimum - 1)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err


def test_default_orders_give_the_reports_of_the_former_default():
    # each check builds its curve to the order it reads; a curve built to
    # the former default max(2W + 2, need) must give the same reports
    from hodgekp import cli

    W = 6
    point = CurveParams(F(-1), F(2), F(1))
    former = build_curve(point, 2 * W + 2)
    names = ["lemma-grunsky", "identification", "lemma-changevars", "theorem-rl", "conjugation"]
    config = RunConfig(checks=names, points=[point], weight=W)
    _, summary = run_verification(config)
    assert summary["status"] == "pass"
    details = {r["check"]: r["details"] for r in summary["results"]}
    assert details["lemma-grunsky"]["report"] == virasoro_factorization_check(former, W).to_json_obj()
    # the size-4 identification residual needs order 18 > 2W + 2
    residual = identification_residual(build_curve(point, 18), 4)
    assert details["identification"]["residual"] == [[rat_str(x) for x in row] for row in residual]
    rl = rl_identity_check(former, tqp_forms(point, (W - 1) // 2, W), extra=[kw_tau(W).body])
    assert details["theorem-rl"]["report"] == rl.to_json_obj()
    assert details["conjugation"]["report"] == virasoro_conjugation_check(former, W).to_json_obj()

    class FormerOrder(cli._PointRun):
        def curve(self, order):
            return former

    changevars = cli._chk_lemma_changevars(FormerOrder(config, point, {}), point)
    assert changevars.pop("passed")
    assert changevars == details["lemma-changevars"]


def test_lemma_changevars_reads_every_form_the_point_builds():
    # at W = 12 the point builds the forms of T_0..T_5; a wrong T_5 form
    # must fail the check
    from hodgekp import cli

    W = 12
    point = CurveParams(F(1), F(3), F(2))
    config = RunConfig(checks=["lemma-changevars"], points=[point], weight=W)

    class WrongTopForm(cli._PointRun):
        def forms(self, W):
            forms = list(super().forms(W))
            forms[5] = forms[5].scale(F(8, 7))
            return forms

    assert cli._chk_lemma_changevars(cli._PointRun(config, point, {}), point)["passed"]
    rep = cli._chk_lemma_changevars(WrongTopForm(config, point, {}), point)
    assert not rep["passed"] and rep["maxIndex"] == 5
    assert {f["k"] for f in rep["failures"]} == {5}


@pytest.mark.parametrize(
    "check,expected",
    [
        ("theorem-rl", {"build_curve": 1, "witt_coefficients": 1, "tqp_forms": 1, "givental_v_matrix": 1}),
        ("lemma-factorization", {"build_curve": 1, "givental_v_matrix": 1}),
    ],
)
def test_group_elements_are_built_once_per_job(check, expected, monkeypatch):
    import hodgekp.curve as curve
    import hodgekp.operators as operators
    import hodgekp.tau as tau

    calls = dict.fromkeys(expected, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # at every binding a job can reach them through
    for module in (curve, operators, tau):
        for name in expected:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    code, _ = run_verification(RunConfig(checks=[check], points=default_points()[:1], weight=8))
    assert code == 0
    assert calls == expected


def test_each_curve_base_and_identity_is_built_once_per_run(monkeypatch):
    import hodgekp.cli as cli
    import hodgekp.curve as curve
    import hodgekp.operators as operators
    import hodgekp.tau as tau

    keys = {
        "build_curve": lambda params, K: (params, K),
        "witt_coefficients": lambda f: repr(f),
        "kw_tau": lambda W: W,
        "bgw_tau": lambda W: W,
        "_tau_identity": lambda params, W, mode, *inputs: (params, mode, W),
        "shift_data": lambda c, **kwargs: (c.params, c.K),
    }
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name, keys[name](*args, **kwargs)] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (cli, curve, operators, tau):
        for name in keys:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    W = 5
    points = default_points()[:2]
    checks = ["theorem-rl", "lemma-changevars", "theorem-hodge", "theorem-theta", "kp-hodge", "kdv-reduction"]
    code, _ = run_verification(RunConfig(checks=checks, points=points, weight=W))
    assert code == 0
    # one curve per point, to W + 1, and one tau identity per (point,
    # side) at W, which theorem-hodge, theorem-theta, kp-hodge and
    # kdv-reduction all read
    expected = (
        {("build_curve", (p, W + 1)) for p in points}
        | {("shift_data", (p, W + 1)) for p in points}
        | {("witt_coefficients", repr(build_curve(p, W + 1).f)) for p in points}
        | {("kw_tau", W), ("bgw_tau", W)}
        | {("_tau_identity", (p, mode, W)) for p in points for mode in ("standard", "theta")}
    )
    assert set(calls) == expected
    assert all(n == 1 for n in calls.values()), calls


# the checks that read a point's group element exp(sum a_k L_k) or its
# quantized pair
GROUP_READERS = ["lemma-grunsky", "lemma-factorization", "theorem-rl", "theorem-hodge", "theorem-theta", "kp-hodge", "conjugation"]
TWO_POINTS = [CurveParams(F(1), F(3), F(2)), CurveParams(F(-1), F(2), F(1))]


def test_one_group_element_and_one_quantized_pair_per_point(monkeypatch):
    import hodgekp.operators as operators

    caps, directs, factorizeds, kernels, rows = [], Counter(), Counter(), Counter(), Counter()
    plans = []  # held, so that no plan's id is reused within the run
    real_sum, real_direct, real_factorized = operators.virasoro_sum_op, operators.givental_direct, operators.givental_factorized
    real_kernel = operators.givental_kernel
    real_rows = operators._ApplyPlan.compile_rows

    def virasoro_sum_op(a, W):
        caps.append(W)
        return real_sum(a, W)

    def givental_direct(couplings, W, mode="standard"):
        directs[tuple(sorted(couplings.items())), W, mode] += 1
        return real_direct(couplings, W, mode)

    def givental_factorized(R, W, mode="standard", *, kernel):
        factorizeds[repr(R), W, mode] += 1
        return real_factorized(R, W, mode, kernel=kernel)

    def givental_kernel(R, W):
        kernels[repr(R), W] += 1
        return real_kernel(R, W)

    def compile_rows(plan, ids, kind, cap):
        plans.append(plan)
        rows.update((id(plan), plan.monos[i]) for i in ids)
        return real_rows(plan, ids, kind, cap)

    monkeypatch.setattr(operators, "virasoro_sum_op", virasoro_sum_op)
    monkeypatch.setattr(operators, "givental_direct", givental_direct)
    monkeypatch.setattr(operators, "givental_factorized", givental_factorized)
    monkeypatch.setattr(operators, "givental_kernel", givental_kernel)
    monkeypatch.setattr(operators._ApplyPlan, "compile_rows", compile_rows)
    W = 5
    code, _ = run_verification(RunConfig(checks=GROUP_READERS, points=TWO_POINTS, weight=W))
    assert code == 0
    # point by point: the element at cap W, rebuilt once at 2W for conjugation
    assert caps == [W, 2 * W] * len(TWO_POINTS)
    # one pair per (point, side), both at W
    for built in (directs, factorizeds):
        assert len(built) == 2 * len(TWO_POINTS) and set(built.values()) == {1}, built
    assert {key[1:] for key in factorizeds} == {(W, "standard"), (W, "theta")}
    # one factorized kernel per point, at W, which the standard and the
    # Theta pair share
    assert len(kernels) == len(TWO_POINTS) and set(kernels.values()) == {1}, kernels
    assert {key[1] for key in kernels} == {W}
    assert rows and max(rows.values()) == 1


def _statuses(checks, W, points=TWO_POINTS):
    # run_verification builds fresh curves, so a corrupted operator kept on
    # them dies with the run
    _, summary = run_verification(RunConfig(checks=checks, points=points, weight=W))
    return {(r["check"], r["point"]): r["status"] for r in summary["results"]}


def _scale_group_element(monkeypatch):
    import hodgekp.operators as operators

    real = operators.virasoro_sum_op
    monkeypatch.setattr(operators, "virasoro_sum_op", lambda a, W: real(a, W).scale(F(8, 7)))


def _scale_direct_route(monkeypatch):
    import hodgekp.operators as operators

    real = operators.givental_direct
    scaled = lambda couplings, W, mode="standard": real({k: c * F(8, 7) for k, c in couplings.items()}, W, mode)
    monkeypatch.setattr(operators, "givental_direct", scaled)


def _scale_linear_change(monkeypatch):
    import hodgekp.cli as cli

    real = cli.linear_change_generator
    monkeypatch.setattr(cli, "linear_change_generator", lambda a, W: real(a, W).scale(F(8, 7)))


def test_a_scaled_group_element_fails_every_check_that_reads_it(monkeypatch):
    # the other route of each pair (the Grunsky factorization, the
    # quantized action, the h-transformed modes) never reads the element
    _scale_group_element(monkeypatch)
    statuses = _statuses(GROUP_READERS, 4)
    assert len(statuses) == len(GROUP_READERS) * len(TWO_POINTS)
    for (check, point), status in statuses.items():
        assert status == ("pass" if check == "lemma-factorization" else "fail"), (check, point)


def test_a_scaled_direct_quantized_route_fails_its_readers(monkeypatch):
    from hodgekp.algebra import InvariantViolation

    _scale_direct_route(monkeypatch)
    assert set(_statuses(["lemma-factorization"], 4).values()) == {"fail"}
    with pytest.raises(InvariantViolation, match="pipeline disagreement"):
        _statuses(["theorem-hodge"], 4)


@pytest.mark.parametrize(
    "check, corrupt",
    [
        ("lemma-grunsky", _scale_group_element),
        ("theorem-rl", _scale_group_element),
        ("theorem-theta", _scale_group_element),
        ("lemma-factorization", _scale_direct_route),
        ("lemma-changevars", _scale_linear_change),
    ],
)
def test_each_check_catches_a_scaled_operator_at_its_minimum_weight(check, corrupt, monkeypatch):
    # one weight lower, each of these checks passed with the operator
    # scaled: no term of it acted on the basis, or only the seed t_1 was
    # compared
    corrupt(monkeypatch)
    assert set(_statuses([check], MIN_WEIGHT[check], default_points()).values()) == {"fail"}


def test_identification_size_grows_with_the_weight():
    # at W = 12 every T_k T_m of weight <= 12 is compared: the 6 x 6
    # residual vanishes on the catalog, and the out-of-family control
    # still shows nonzero entries of low degree
    W = 12
    assert [identification_size(w) for w in (1, 8, 9, 12, 13)] == [4, 4, 4, 6, 6]
    _, summary = run_verification(RunConfig(checks=["identification"], points=default_points(), weight=W))
    assert summary["status"] == "pass" and len(summary["results"]) == 5
    for result in summary["results"]:
        details = result["details"]
        assert details["size"] == 6
        assert [len(row) for row in details["residual"]] == [6] * 6
        assert all(x == "0" for row in details["residual"] for x in row)
    config = RunConfig(checks=["identification"], points=default_points(), weight=W, perturbed=True)
    _, control = run_verification(config)
    (result,) = control["results"]
    assert result["status"] == "pass" and result["details"]["size"] == 6
    assert any(k + m <= 4 for k, m in result["details"]["nonzeroEntries"])


@pytest.mark.parametrize("W", [4, 5])
def test_each_check_reports_alike_alone_and_in_one_run(W):
    # the checks at a point share one curve, built to the largest order
    # asked for so far; in reverse order identification asks first, for
    # order 18, more than any other check at these weights.  Every check
    # reads only the prefix it needs, so its report is the one it gives alone.
    points = [CurveParams(F(1), F(3), F(2)), CurveParams(F(-1), F(2), F(1))]

    def reports(checks):
        _, summary = run_verification(RunConfig(checks=checks, points=points, weight=W))
        return {(r["check"], r["point"]): r for r in summary["results"]}

    alone = {}
    for name in CHECKS:
        alone.update(reports([name]))
    assert all(r["status"] == "pass" for r in alone.values())
    for checks in (list(CHECKS), list(reversed(CHECKS))):
        assert reports(checks) == alone


@pytest.mark.parametrize("kind", ["verify", "tau"])
def test_unwritable_out_exits_2_with_one_line(kind, tmp_path, capsys, monkeypatch):
    from hodgekp import cli

    if kind == "verify":
        # --out names an existing file: refused before the first job
        monkeypatch.setattr(cli, "_run_one", lambda *args: pytest.fail("a job ran"))
        existing = tmp_path / "report"
        existing.write_text("")
        argv = ["verify", "lemma-laplace", "--q", "1", "--p", "3", "--s", "2", "--weight", "4", "--out", str(existing)]
    else:
        argv = ["tau", "kw", "--weight", "4", "--out", str(tmp_path / "missing" / "kw.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _point_sets(draw):
    """2-3 points q, p = s^2 - q with s != 0, one of them on the reduction
    locus q = -s^2 (p = -2q)."""
    s = draw(_RATIONALS.filter(bool))
    points = [CurveParams(-s * s, 2 * s * s, s)]
    for _ in range(draw(st.integers(1, 2))):
        s, q = draw(_RATIONALS.filter(bool)), draw(_RATIONALS)
        points.append(CurveParams(q, s * s - q, s))
    return draw(st.permutations(points))


@settings(max_examples=10)
@given(points=_point_sets())
def test_checks_pass_at_random_points(points):
    # several points in one run: curves or tau-functions shared across
    # points would give a wrong report at one of them; kp-hodge and
    # conjugation (V^{-1} read from V's rows) run at rational points too
    checks = ["lemma-laplace", "identification", "theorem-hodge", "kdv-reduction", "kp-hodge", "conjugation"]
    code, summary = run_verification(RunConfig(checks=checks, points=points, weight=4))
    failed = [(r["check"], r["point"]) for r in summary["results"] if r["status"] != "pass"]
    assert code == 0, failed


def test_kdv_reduction_reads_both_sides_at_w_over_the_catalog(capsys):
    # at W = 3 the verdicts are those of W = 4, and each side's block is
    # the even-time check of that side's tau identity at W itself, so the
    # Theta block lists no monomial of weight above 3
    def details(W):
        assert main(["verify", "kdv-reduction", "--weight", str(W), "--format", "json"]) == 0
        return {r["point"]: r["details"] for r in json.loads(capsys.readouterr().out)["results"]}

    at3, at4 = details(3), details(4)
    verdicts = lambda d: {point: (x["standard"]["status"], x["theta"]["status"]) for point, x in d.items()}
    assert verdicts(at3) == verdicts(at4)
    weight = lambda mono: sum(int(v) * int(e or 1) for v, _, e in (x[1:].partition("^") for x in mono.split()))
    for point in default_points():
        for mode in ("standard", "theta"):
            block = at3[point.label()][mode]
            assert block == kdv_reduction_check(tau_qp_check(point, 3, mode).tau.body).to_json_obj()
            assert all(weight(mono) <= 3 for mono in block["evenMonomials"])


def test_verify_all_traffic_builds_one_curve_per_point(monkeypatch):
    # the checks of `verify all` without conjugation at W=8: lemma-grunsky
    # asks for lemma-laplace's order 2W + 2, so the point's first curve
    # serves every later check
    import hodgekp.tau as tau

    built = Counter()
    build = tau.build_curve

    def counting(params, K):
        built[params, K] += 1
        return build(params, K)

    monkeypatch.setattr(tau, "build_curve", counting)
    W = 8
    checks = [name for name in CHECKS if name != "conjugation"]
    point = CurveParams(F(1), F(3), F(2))
    code, _ = run_verification(RunConfig(checks=checks, points=[point], weight=W))
    assert code == 0
    assert built == {(point, 2 * W + 2): 1}


# sha256 of the per-check reports over the shipped catalog, each serialized
# as `verify --out` writes it: the same reports as the conj-w6, kp-w11 and
# sweep-w8 workloads of perfbench.  The seed-0 digests in
# perfbench/README.md predate the one-report kp-kw/kp-bgw form and the
# Theta identity at W in kp-hodge and kdv-reduction; only conj-w6's still
# matches there.
REPORT_DIGESTS = [
    (("conjugation",), 6, "bc9d822402a42fe406317a4a54c11fd2b7c2d52d24c7332b97fcf8ba15a1b731"),
    (
        ("kp-kw", "kp-bgw", "kp-hodge", "theorem-hodge", "theorem-theta", "kdv-reduction"),
        11,
        "ff0b12418aedc218b179344bea1a89e5cfad074fdea514ad872c9abe021ef025",
    ),
    (
        (
            "lemma-grunsky",
            "lemma-laplace",
            "identification",
            "lemma-factorization",
            "lemma-changevars",
            "theorem-rl",
            "theorem-hodge",
            "theorem-theta",
            "kp-kw",
            "kp-bgw",
            "kp-hodge",
            "kdv-reduction",
        ),
        8,
        "92feed7a297764d4363d3b86f97b388dc55ce9c99da44f79daf95e10f2611dd5",
    ),
]


@pytest.mark.parametrize("checks, weight, digest", REPORT_DIGESTS, ids=["conj-w6", "kp-w11", "sweep-w8"])
def test_reports_are_byte_identical(checks, weight, digest):
    code, summary = run_verification(RunConfig(checks=list(checks), points=default_points(), weight=weight))
    assert code == 0
    h = hashlib.sha256()
    for obj in summary["results"]:
        h.update((json.dumps(obj, indent=1, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == digest
