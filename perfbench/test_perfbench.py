"""The benchmark's own test: every workload at a small size through
every path, untraced and traced.  It gates on known answers and on the
metric names BENCHMARK.json declares, never on wall time."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _short_samples(monkeypatch):
    monkeypatch.setattr(run, "MACHINE_MIN_S", 0.0)
    monkeypatch.setattr(workloads, "calibration_s", lambda: workloads.CAL_REF_S)


def _bench(name):
    w = workloads.build(name, 1, workloads.SMOKE_SIZES[name])
    return run.Bench(w, run.Tally())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_meets_known_answers_and_reports_every_metric(name, tmp_path):
    bench = _bench(name)
    e2e, _ = run.end_to_end(bench, 0, setup_s=1.0)
    layers, _ = run.per_layer(bench, 0, tmp_path / "spans.jsonl")
    assert bench.tally.failed == 0, bench.tally.messages
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(value > 0 for value, _ in e2e.values())
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_stage_spans_and_overhead_add_up_to_the_verify_span(tmp_path):
    layers, _ = run.per_layer(_bench("pow2_deep"), 0, tmp_path / "spans.jsonl")
    stages = sum(value for metric, (value, _) in layers.items()
                 if run.SPAN_METRICS.get(metric, ("",))[0] == "decompose")
    assert stages + layers["harness.overhead_s"][0] == pytest.approx(layers["harness.verify_s"][0])


def test_a_missed_known_answer_fails_the_run(monkeypatch):
    real = workloads.expectations

    def off_by_one(w):
        return [e.__class__(**{**e.__dict__, "space": e.space + 1}) for e in real(w)]

    monkeypatch.setattr(workloads, "expectations", off_by_one)
    bench = _bench("church_wide")
    run.end_to_end(bench, 0, setup_s=1.0)
    assert bench.tally.failed > 0
    assert bench.tally.errors["space_kam"] > 0


@pytest.mark.parametrize("name, betas", [("church_wide", 16 + 2), ("pow2_deep", 3 * 2**3)])
def test_reference_reducer_agrees_with_the_closed_forms(name, betas):
    w = workloads.build(name, 1, workloads.SMOKE_SIZES[name])
    assert workloads.reference_whnf(w.ref_terms[0], 10**4) == (betas, workloads.ID_DB)


def test_reference_reducer_sees_the_loop_diverge():
    w = workloads.build("loop_machine", 1, 10)
    assert workloads.reference_whnf(w.ref_terms[0], 10) == (None, "diverges")


def test_without_package_sources_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop_machine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_calibration_times_pure_python_work():
    assert 0 < workloads.calibration_s() < 60
