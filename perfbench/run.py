"""The spacekam benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload church_wide --seed 1 --seconds 20 --trace 0

The package is imported from src/ of the checkout this file sits in;
without it the command fails with exit code 2.  One process, one
thread.  A run repeats rounds until --seconds have passed; a round
takes every term of the workload through the user paths (lanes.py),
with a gc.collect() before each path and a calibration on either side
of it.  Timings are scaled by that calibration (see
workloads.calibration_s).  Every output is checked against its known
answer (workloads.py).

--trace 0 reports the end-to-end metrics.  --trace 1 reports the
per-layer ones: it first runs the traced paths once under tracemalloc
for memory peaks, discarding their times, then alternates traced and
untraced rounds, and writes the spans to perfbench/out/.

Human-readable lines come first; the last line of stdout is one JSON
object.  The exit code is 1 when an output missed its known answer.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROCESSES = 7
MACHINE_MIN_S = 0.5  # a machine-path sample repeats short runs up to this length
LAYERS = ("terms", "kam", "space_kam", "extractor", "checker", "types", "harness")


def import_package():
    src = ROOT / "src"
    if not (src / "spacekam" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {src / 'spacekam'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(HERE)]
    import spacekam

    if Path(spacekam.__file__).resolve().parent != (src / "spacekam").resolve():
        sys.exit(f"perfbench: imported spacekam from {spacekam.__file__}, not from {src}")


class Tally:
    """Operations attempted and failed, and failures per layer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()
        self.messages: list = []

    def fail(self, layers, message):
        self.failed += 1
        for layer in set(layers):
            self.errors[layer] += 1
        if len(self.messages) < 10:
            self.messages.append(message)


class Bench:
    """A workload, its known answers, and the rounds that time it."""

    def __init__(self, workload, tally):
        import lanes
        import workloads

        self.lanes = lanes
        self.workloads = workloads
        self.w = workload
        self.exps = workloads.expectations(workload)
        self.tally = tally
        self.cal_s: list = []  # every calibration so far
        self.scale = 1.0  # CAL_REF_S over the latest calibration
        self.paths = {
            "verify": lanes.verify_path,
            "infer": lanes.infer_path,
            "kam": lanes.kam_path,
            "skam": lanes.skam_path,
            "decompose": lanes.decompose_path,
        }

    def one_pass(self, path, rec, round_no, on_info=None, collect=True):
        """Every term once through one path.  Unless collect is false, a
        calibration and a gc.collect() come before it and a second
        calibration after it; self.scale then holds CAL_REF_S over their
        mean.  Returns the raw (seconds, info) of each operation that met
        its known answer, and the wall time of the pass.  With on_info,
        info goes there and is not kept."""
        fn = self.paths[path]
        if collect:
            cal_before = self.workloads.calibration_s()
            gc.collect()
        out = []
        t0 = time.perf_counter()
        for i, exp in enumerate(self.exps):
            self.tally.attempted += 1
            try:
                with rec.root(f"path.{path}", f"r{round_no}.{path}.t{i}"):
                    dt, problems, info = fn(self.w, i, exp, rec)
            except Exception as ex:  # a crash fails this operation, not the run
                layer = self.lanes.layer_of(ex, "harness")
                self.tally.fail([layer], f"{path} term {i}: {layer}: {type(ex).__name__}: {ex}")
                continue
            if problems:
                self.tally.fail([layer for layer, _ in problems],
                                f"{path} term {i}: " + "; ".join(m for _, m in problems[:3]))
                continue
            if on_info is not None:
                on_info(info)
                info = None
            out.append((dt, info))
        wall = time.perf_counter() - t0
        if collect:
            self.cal_s.append((cal_before + self.workloads.calibration_s()) / 2)
            self.scale = self.workloads.CAL_REF_S / self.cal_s[-1]
        return out, wall

    def machine_rate(self, path, rec, round_no):
        """Scaled steps per second, over passes repeated to MACHINE_MIN_S;
        the first pass collects and calibrates."""
        steps = secs = wall = 0.0
        collect = True
        while True:
            res, pass_wall = self.one_pass(path, rec, round_no, collect=collect)
            collect = False
            wall += pass_wall
            steps += sum(info["steps"] for _, info in res)
            secs += sum(dt for dt, _ in res)
            if secs >= MACHINE_MIN_S or not res:
                return (steps / (secs * self.scale) if secs else 0.0), wall

    def round(self, rec, round_no, samples, on_decompose=None):
        """Every user path once, appending scaled timings to samples.
        With on_decompose, the decompose path runs too.  Returns the wall
        time of the paths that traced and untraced rounds share."""
        res, wall = self.one_pass("verify", rec, round_no)
        samples["verify_s"].append(self.scale * sum(dt for dt, _ in res))
        samples["term_s"].append([self.scale * dt for dt, _ in res])
        samples["incomplete"].append(sum(not info["complete"] for _, info in res))
        if on_decompose is not None:
            self.one_pass("decompose", rec, round_no, on_decompose)
        res, pass_wall = self.one_pass("infer", rec, round_no)
        wall += pass_wall
        samples["roundtrip_s"].append(self.scale * sum(dt for dt, _ in res))
        samples["json_bytes"].append(sum(info["json_bytes"] for _, info in res))
        for path in ("kam", "skam"):
            rate, pass_wall = self.machine_rate(path, rec, round_no)
            wall += pass_wall
            samples[f"{path}_steps_per_s"].append(rate)
        return wall


def new_samples():
    return {k: [] for k in ("verify_s", "term_s", "incomplete", "roundtrip_s", "json_bytes",
                            "kam_steps_per_s", "skam_steps_per_s")}


def measure_setup(workload, seed):
    """Median over fresh interpreters of importing the package and
    building the inputs, scaled like every other timing."""
    times = []
    for _ in range(SETUP_PROCESSES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def p99(xs):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[98]


def end_to_end(bench, seconds, setup_s):
    samples = new_samples()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        bench.round(bench.lanes.UNTRACED, rounds, samples)
        rounds += 1
    if bench.tally.failed:
        return {}, {"rounds": (rounds, "count")}
    med = statistics.median
    verify_s = med(samples["verify_s"])
    # each term's median over rounds; the percentiles are over terms
    per_term = [med(times) for times in zip(*samples["term_s"])]
    metrics = {
        "setup_s": (setup_s, "s"),
        "verify_s": (verify_s, "s"),
        "roundtrip_s": (med(samples["roundtrip_s"]), "s"),
        "skam_steps_per_s": (med(samples["skam_steps_per_s"]), "1/s"),
        "kam_steps_per_s": (med(samples["kam_steps_per_s"]), "1/s"),
        "terms_per_s": (len(bench.exps) / verify_s, "1/s"),
        "term_p50_ms": (1000 * med(per_term), "ms"),
        "term_p99_ms": (1000 * p99(per_term), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "json_bytes": (med(samples["json_bytes"]), "B"),
        "rounds": (rounds, "count"),
        "calibration_s": (med(bench.cal_s), "s"),
    }
    return metrics, info


# ---------------------------------------------------------------------------
# the traced pass

# per-layer time metric -> (path, span name); the mean over rounds of the
# per-round total, so that the decompose stages plus harness.overhead_s
# add up to harness.verify_s
SPAN_METRICS = {
    "terms.parse_s": ("infer", "terms.parse"),
    "terms.whnf_eval_s": ("decompose", "terms.whnf_eval"),
    "terms.alpha_eq_s": ("decompose", "terms.alpha_eq"),
    "kam.compile_s": ("decompose", "kam.compile"),
    "kam.run_s": ("decompose", "kam.run"),
    "kam.decode_s": ("decompose", "kam.decode"),
    "space_kam.run_s": ("decompose", "space_kam.run"),
    "space_kam.invariant_s": ("decompose", "space_kam.invariant"),
    "extractor.extract_s": ("decompose", "extractor.extract"),
    "extractor.extract_kam_s": ("decompose", "extractor.extract_kam"),
    "checker.check_space_s": ("decompose", "checker.check_space"),
    "checker.check_time_s": ("decompose", "checker.check_time"),
    "checker.check_kam_s": ("decompose", "checker.check_kam"),
    "checker.reweight_s": ("decompose", "checker.reweight"),
    "checker.weight_of_s": ("decompose", "checker.weight_of"),
    "checker.size_of_s": ("decompose", "checker.size_of"),
    "checker.correspondence_s": ("decompose", "checker.correspondence"),
    "checker.to_json_s": ("infer", "checker.to_json"),
    "checker.from_json_s": ("infer", "checker.from_json"),
    "json.dumps_s": ("infer", "json.dumps"),
    "json.loads_s": ("infer", "json.loads"),
    "harness.random_term_s": ("decompose", "harness.random_term"),
    "harness.verify_s": ("verify", "harness.verify"),
}
# per-layer memory metric -> (path, span name); the largest call
PEAK_METRICS = {
    "kam.peak_mb": ("decompose", "kam.run"),
    "space_kam.peak_mb": ("decompose", "space_kam.run"),
    "extractor.peak_mb": ("decompose", "extractor.extract"),
    "checker.to_json_peak_mb": ("infer", "checker.to_json"),
}


def stage_spans(spans):
    """(path, span name, seconds, peak) for every span below a path's root."""
    for name, request, parent, t0, t1, peak, _ in spans:
        if parent is not None:
            yield request.split(".")[1], name, t1 - t0, peak


class Gauges:
    """Counts taken from outside, by walking the runs and derivations
    that the decompose path returns."""

    def __init__(self, sk):
        self.sk = sk
        self.kam_steps = self.skam_steps = 0
        self.max_env = self.max_stack = 0
        self.nodes = self.distinct = self.max_multi = 0

    def __call__(self, info):
        self.kam_steps += info["krun"].transitions
        srun = info["srun"]
        self.skam_steps += srun.transitions
        for s in [srun.initial] + [s for _, s in srun.trace]:
            self.max_env = max(self.max_env, len(s.env))
            self.max_stack = max(self.max_stack, len(s.stack))
        roots = []
        for d in info.get("derivations", ()):
            roots.extend(self._nodes(d))
        self.distinct += self._distinct(roots)

    def _nodes(self, d):
        """Count every node occurrence, as check and size_of do; return
        the types of the distinct nodes."""
        seen: set = set()
        roots = []
        todo = [d]
        while todo:
            n = todo.pop()
            self.nodes += 1
            todo.extend(n.premises)
            if id(n) in seen:
                continue
            seen.add(id(n))
            j = n.conclusion
            roots.extend(m for _, m in j.context.entries)
            if type(j.assigned) is self.sk.TypeContext:
                roots.extend(m for _, m in j.assigned.entries)
            else:
                roots.append(j.assigned)
        return roots

    def _distinct(self, roots):
        """Structurally distinct types among roots and their parts."""
        sk = self.sk
        ids: dict = {}
        memo: dict = {}
        todo = [(a, False) for a in roots]
        while todo:
            a, expanded = todo.pop()
            if id(a) in memo:
                continue
            if type(a) in (sk.Arrow, sk.DCArrow):
                kids = (a.arg, a.res)
            elif type(a) in (sk.ClosureMulti, sk.MultiType):
                kids = a.elems
                self.max_multi = max(self.max_multi, len(kids))
            else:
                kids = ()
            if not expanded:
                todo.append((a, True))
                todo.extend((k, False) for k in kids)
                continue
            key = (type(a).__name__, getattr(a, "index", None), tuple(memo[id(k)] for k in kids))
            memo[id(a)] = ids.setdefault(key, len(ids))
        return len(ids)


def per_layer(bench, seconds, spans_file):
    import tracemalloc

    import spacekam as sk

    lanes = bench.lanes

    # memory: the traced paths once under tracemalloc; times discarded
    mem = lanes.Recorder(True, tracemalloc)
    tracemalloc.start()
    try:
        bench.one_pass("decompose", mem, "m", on_info=lambda _: None)
        bench.one_pass("infer", mem, "m")
    finally:
        tracemalloc.stop()
    peaks = dict.fromkeys(PEAK_METRICS, 0.0)
    for path, name, _, peak in stage_spans(mem.spans):
        for metric, where in PEAK_METRICS.items():
            if where == (path, name):
                peaks[metric] = max(peaks[metric], peak / 1e6)
    del mem

    # time: traced and untraced rounds, alternating
    bench.cal_s.clear()
    rec = lanes.Recorder(True)
    gauges = Gauges(sk)
    traced, untraced = new_samples(), new_samples()
    traced_wall, untraced_wall = [], []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        on_decompose = gauges if rounds == 0 else (lambda _: None)
        traced_wall.append(bench.round(rec, rounds, traced, on_decompose))
        untraced_wall.append(bench.round(lanes.UNTRACED, rounds, untraced))
        rounds += 1
    write_spans(rec.spans, spans_file)

    totals = Counter()
    for path, name, dt, _ in stage_spans(rec.spans):
        totals[(path, name)] += dt
    scale = bench.workloads.CAL_REF_S / statistics.median(bench.cal_s)
    times = {metric: scale * totals[where] / rounds for metric, where in SPAN_METRICS.items()}
    stages = scale * sum(v for (path, _), v in totals.items() if path == "decompose") / rounds
    nodes = gauges.nodes
    metrics = {name: (value, "s") for name, value in times.items()}
    metrics.update({
        "harness.overhead_s": (times["harness.verify_s"] - stages, "s"),
        "harness.incomplete": (statistics.median(traced["incomplete"]), "count"),
        "kam.steps": (gauges.kam_steps, "count"),
        "kam.us_per_step": (1e6 * times["kam.run_s"] / max(gauges.kam_steps, 1), "us"),
        "space_kam.steps": (gauges.skam_steps, "count"),
        "space_kam.us_per_step": (1e6 * times["space_kam.run_s"] / max(gauges.skam_steps, 1), "us"),
        "space_kam.max_env": (gauges.max_env, "count"),
        "space_kam.max_stack": (gauges.max_stack, "count"),
        "extractor.nodes": (nodes, "count"),
        "extractor.us_per_node": (1e6 * times["extractor.extract_s"] / max(nodes, 1), "us"),
        "checker.us_per_node": (1e6 * times["checker.check_space_s"] / max(nodes, 1), "us"),
        "checker.json_bytes": (statistics.median(traced["json_bytes"]), "B"),
        "types.distinct": (gauges.distinct, "count"),
        "types.max_multi": (gauges.max_multi, "count"),
        "trace.overhead_pct": (100 * (sum(traced_wall) / sum(untraced_wall) - 1), "%"),
    })
    metrics.update({name: (value, "MB") for name, value in peaks.items()})
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (bench.tally.errors[layer], "count")
    return metrics, {"rounds": (rounds, "count"), "spans": (len(rec.spans), "count"),
                     "calibration_s": (statistics.median(bench.cal_s), "s")}


def write_spans(spans, path):
    """One JSON line per span; times in seconds from the first span."""
    base = spans[0][3] if spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for sid, (name, request, parent, t0, t1, _, raised) in enumerate(spans):
            f.write(json.dumps({"id": sid, "parent": parent, "request": request, "name": name,
                                "start": t0 - base, "end": t1 - base, "raised": raised}) + "\n")


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description="Time the spacekam pipeline on one workload.")
    ap.add_argument("--workload", required=True,
                    choices=("church_wide", "pow2_deep", "loop_machine", "fuzz_mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import workloads

    w = workloads.build(args.workload, args.seed)  # also leaves bytecode for the probes
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    tally = Tally()
    bench = Bench(w, tally)
    if args.trace:
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, info = per_layer(bench, args.seconds, spans_file)
    else:
        metrics, info = end_to_end(bench, args.seconds, setup_s)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    rate = tally.failed / max(tally.attempted, 1)
    print(f"  {'error_rate':28s} {rate:14.6g} ratio ({tally.failed} of {tally.attempted} failed)")
    for m in tally.messages:
        print(f"  FAILED {m}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
