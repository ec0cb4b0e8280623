"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, draw_points  # noqa: E402

TINY = 4


@pytest.fixture(scope="module")
def cli():
    return child.import_hodgekp()


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_declared_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace), "--weight", str(TINY))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_failing_check_raises_ops_failed(cli, monkeypatch):
    monkeypatch.setitem(cli.CHECKS, "conjugation", (lambda config, point: {"passed": False}, "always fails"))
    scored = run.Run("conj-w6", DEFAULT_SEED, TINY, run.SpeedProbe())
    scored.score(child.execute({"workload": "conj-w6", "points": None, "weight": TINY}, cli))
    assert scored.wrong == 5 and scored.failed == 5 and not scored.correct


def test_raising_check_counts_as_failed_operation(cli, monkeypatch):
    def boom(config, point):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.CHECKS, "conjugation", (boom, "always raises"))
    scored = run.Run("conj-w6", DEFAULT_SEED, TINY, run.SpeedProbe())
    scored.score(child.execute({"workload": "conj-w6", "points": None, "weight": TINY}, cli))
    assert scored.exceptions == 5 and not scored.correct


def test_speed_correction_rescales_wall_time_to_the_reference_speed():
    probe = run.SpeedProbe()
    # The calibration loop took twice its reference time: the host ran at half speed.
    probe.samples = [(t, 2 * run.REF_CALIBRATION_S) for t in range(10)]
    assert probe.corrected(0, 9) == pytest.approx(4.5)
    assert probe.corrected(20, 22) == pytest.approx(1.0)  # no sample inside: the nearest one
    probe.samples = [(0, run.REF_CALIBRATION_S), (1, run.REF_CALIBRATION_S / 3)]
    assert probe.speed(0, 1) == pytest.approx(2.0)  # the mean speed, not the mean loop time


def test_a_repetition_cut_by_the_run_limit_leaves_the_finished_ones(monkeypatch):
    with run.SpeedProbe() as probe:
        measured = run.Run("conj-w6", DEFAULT_SEED, TINY, probe)
        full_rep = measured.rep

        def rep(traced=False):
            if measured.reps:
                raise run.ChildKilled("cut")
            return full_rep(traced)

        monkeypatch.setattr(measured, "rep", rep)
        metrics = run.measure(measured, 0)
    assert len(measured.reps) == 1 and measured.correct
    assert set(metrics) == set(declared("end_to_end"))


def test_traced_and_untraced_runs_agree(cli):
    spec = {"workload": "kp-w11", "points": draw_points(7), "weight": TINY}
    plain = child.execute(spec, cli)
    original = cli.build_curve
    traced = child.execute({**spec, "trace": True}, cli)
    assert cli.build_curve is original  # the tracer removed its wrappers
    assert traced["digest"] == plain["digest"]
    assert [j["status"] for j in traced["jobs"]] == [j["status"] for j in plain["jobs"]]
    assert traced["layers"]["curve.build_curve.calls"] == 30
    assert traced["layers"]["cli.jobs"] == len(plain["jobs"]) == 22


def test_default_seed_is_the_shipped_catalog(cli):
    assert draw_points(DEFAULT_SEED) is None
    assert child.resolve_points(cli, draw_points(DEFAULT_SEED)) == cli.default_points()


@pytest.mark.parametrize("seed", [1, 2, 3, 12345])
def test_other_seeds_draw_five_valid_points_one_on_the_locus(cli, seed):
    points = draw_points(seed)
    assert points == draw_points(seed)
    assert len(set(points)) == 5
    assert all(s in (1, 2, 3) and -4 <= q <= 4 and p == s * s - q for q, p, s in points)
    assert sum(p == -2 * q for q, p, s in points) == 1
    assert len(child.resolve_points(cli, points)) == 5  # CurveParams validates each


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    out = bench("--workload", "conj-w6", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
