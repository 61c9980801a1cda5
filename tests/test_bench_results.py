"""Committed benchmark results: each BENCH_<n>.json at the repository
root keeps the result line of every perfbench run it reports, parent
and change, with the command, the Python version, nproc, and the
medians and change-better counts worked out from those lines.  A file
that records a failed run, or a metric the benchmark does not declare,
reports something other than the benchmark."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_some_bench_results_are_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_bench_results_are_correct_runs_of_declared_metrics(path):
    bench = json.loads(path.read_text())
    assert {"command", "python", "nproc", "runs", "summary"} <= bench.keys()
    for run in bench["runs"]:
        assert run["workload"] in WORKLOADS and run["side"] in ("parent", "change")
        line = run["result"]
        assert line["correct"] is True and line["failed"] == 0, run
        assert set(line["metrics"]) <= METRICS, run
    # the summary is recomputed from the lines: per workload and metric,
    # each side's median and the pairs the change wins
    for workload, metrics in bench["summary"].items():
        runs = [r for r in bench["runs"] if r["workload"] == workload]
        for name, got in metrics.items():
            assert name in METRICS
            better = next(m["better"] for m in DECLARED["end_to_end"] if m["name"] == name)
            value = {(r["pair"], r["side"]): r["result"]["metrics"][name]["value"] for r in runs}
            pairs = sorted({p for p, _ in value})
            side = {s: [value[p, s] for p in pairs] for s in ("parent", "change")}
            wins = sum(
                (c < p) if better == "lower" else (c > p) for p, c in zip(side["parent"], side["change"])
            )
            assert got == {
                "parent_median": statistics.median(side["parent"]),
                "change_median": statistics.median(side["change"]),
                "change_better": wins,
                "pairs": len(pairs),
            }, (workload, name)
            assert len(pairs) >= 5
