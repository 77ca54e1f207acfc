"""Tests of the benchmark itself, at tiny sizes:  python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import freqtrack.cli  # noqa: E402
import freqtrack.hmm  # noqa: E402
import freqtrack.markov  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# Small enough that every operation takes well under a second.
TINY = {
    "mc_default": replace(workloads.WORKLOADS["mc_default"], bins=24, grid="-2.5,2.5,40"),
    "estimate_wide": replace(workloads.WORKLOADS["estimate_wide"], bins=24, grid="-3.5,3.5,48"),
    "track_long": replace(workloads.WORKLOADS["track_long"], bins=64, grid="-4,4,96",
                          track_range="-1,1"),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_workload_has_a_tiny_variant():
    assert set(TINY) == set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_operation_passes_its_output_check(name, tmp_path):
    workload = TINY[name]
    argv = workloads.prepare(workload, 7, tmp_path)
    rc, seconds = workloads.run_op(argv)
    assert rc == 0 and seconds > 0
    outcome = workloads.Outcome(7, seconds)
    workloads.check(workload, tmp_path, outcome)
    assert outcome.error is None


def test_check_reports_inconsistent_output(tmp_path):
    workload = TINY["track_long"]
    rc, seconds = workloads.run_op(workloads.prepare(workload, 7, tmp_path))
    assert rc == 0
    metrics = tmp_path / "metrics.txt"
    metrics.write_text(metrics.read_text().replace("rmse_hessian_map=", "rmse_hessian_map=1"))
    outcome = workloads.Outcome(7, seconds)
    workloads.check(workload, tmp_path, outcome)
    assert "rmse_hessian_map" in outcome.error


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_runs_write_identical_outputs(name, tmp_path):
    workload = TINY[name]
    argv = workloads.prepare(workload, 3, tmp_path)
    assert workloads.run_op(argv)[0] == 0
    untraced = workloads.read_outputs(workload, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert workloads.run_op(argv)[0] == 0
    assert workloads.read_outputs(workload, tmp_path) == untraced
    metrics = tracing.op_metrics(tracer.spans)  # raises if counts disagree
    assert metrics["cli.main.calls"] == 1
    assert metrics["cli.main.s"] >= metrics["cli.self_s"] > 0


def test_bindings_are_restored():
    original = freqtrack.hmm.forward
    tracer = tracing.Tracer()
    with tracer.installed():
        assert freqtrack.hyperopt.forward is not original
        assert freqtrack.hmm.forward is freqtrack.hyperopt.forward
    assert freqtrack.hmm.forward is original
    assert freqtrack.hyperopt.forward is original


def test_missing_import_site_fails_loudly(monkeypatch):
    monkeypatch.delattr(freqtrack.cli, "viterbi")
    with pytest.raises(tracing.TracingError, match="hmm.viterbi: no longer bound"):
        tracing.Tracer()


def test_undeclared_import_site_fails_loudly(monkeypatch):
    monkeypatch.setattr(freqtrack.markov, "forward", freqtrack.hmm.forward, raising=False)
    with pytest.raises(tracing.TracingError, match="undeclared import site"):
        tracing.Tracer()


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric_of_benchmark_json(trace, kind):
    done = _run(ROOT, "--workload", "mc_default", "--seed", "1", "--seconds", "0.1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]


def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "mc_default", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
