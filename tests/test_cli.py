import json
from fractions import Fraction as F

import pytest

from hodgekp.cli import (
    CHECKS,
    MIN_WEIGHT,
    ConfigError,
    RunConfig,
    default_points,
    main,
    run_verification,
)
from hodgekp.curve import CurveParams


class TestConfig:
    def test_default_points_catalog(self):
        points = default_points()
        assert len(points) == 5
        assert points[0].label() == "q=1,p=3,s=2"

    def test_unknown_check_rejected(self):
        config = RunConfig(checks=["no-such-check"], points=default_points())
        with pytest.raises(ConfigError, match="unknown check"):
            run_verification(config)

    def test_order_insufficiency_is_config_error(self):
        config = RunConfig(
            checks=["lemma-grunsky"], points=default_points()[:1], weight=9, order=5
        )
        with pytest.raises(ConfigError, match="order"):
            run_verification(config)


class TestMainEntry:
    def test_list_checks(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        for name in CHECKS:
            assert name in out

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
        # a generic point run through kdv-reduction *expects* even-time
        # dependence; force the opposite expectation via a reduction
        # point with the wrong weight?  Instead: use a point where the
        # control logic asserts dependence and feed the reduced point
        # with perturbed=False -> both pass; so synthesize a failure by
        # asking identification at insufficient weight=6 order... that is
        # a config error.  Simplest true failure: unknown-free checks all
        # pass, so drive exit=1 with a monkeypatched check.
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
        from hodgekp.tau import psi_correlator, theta_correlator

        point = CurveParams(F(1), F(3), F(2))
        config = RunConfig(checks=["kp-kw", "kp-bgw", "theorem-theta"], points=[point], weight=6)
        psi_correlator.cache_clear()
        theta_correlator.cache_clear()
        _, cold = run_verification(config)
        assert psi_correlator.cache_info().currsize and theta_correlator.cache_info().currsize
        _, warm = run_verification(config)
        assert psi_correlator.cache_info().hits and theta_correlator.cache_info().hits
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
        ["verify", "lemma-laplace", "--q", "1", "--p", "3", "--s", "2", "--order", "2"],
        ["verify", "lemma-grunsky", "--q", "1", "--p", "3", "--s", "2", "--weight", "1", "--order", "3"],
        ["verify", "identification", "--perturbed", "--order", "10"],
        ["verify", "theorem-hodge", "--q", "1", "--p", "3", "--s", "2", "--weight", "2"],
        ["verify", "kp-kw", "--weight", "1"],
    ],
)
def test_bad_input_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
    # each check builds its curve to the order it reads; the former
    # default max(2W + 2, need) must not change a single report byte
    W = 6
    former = {
        "lemma-grunsky": 2 * W + 2,
        "identification": 18,  # its size-4 residual needs 18 > 2W + 2
        "lemma-changevars": 2 * W + 2,
        "theorem-rl": 2 * W + 2,
        "conjugation": 2 * W + 2,
    }
    point = CurveParams(F(-1), F(2), F(1))
    for name, order in former.items():
        reports = []
        for K in (None, order):
            _, summary = run_verification(RunConfig(checks=[name], points=[point], weight=W, order=K))
            assert summary["status"] == "pass"
            reports.append(json.dumps(summary["results"], sort_keys=True))
        assert reports[0] == reports[1], name


@pytest.mark.parametrize(
    "check,expected",
    [
        ("theorem-rl", {"witt_coefficients": 1, "tqp_forms": 1, "givental_v_matrix": 1}),
        ("lemma-factorization", {"givental_v_matrix": 1}),
    ],
)
def test_group_elements_are_built_once_per_job(check, expected, monkeypatch):
    import hodgekp.operators as operators

    calls = dict.fromkeys(expected, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in expected:
        monkeypatch.setattr(operators, name, counting(name, getattr(operators, name)))
    code, _ = run_verification(RunConfig(checks=[check], points=default_points()[:1], weight=8))
    assert code == 0
    assert calls == expected
