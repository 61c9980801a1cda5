"""The user paths the benchmark times, one function per path and term.

  verify    verify(t, fuel), or fuzz(1, s, 25, fuel) on the fuzz campaign
  infer     the `infer -o` then `check` path: parse the text, compile,
            skam_run, extract, derivation_to_json, json.dumps,
            json.loads, derivation_from_json, check in space mode
  kam       kam_run on the compiled term
  skam      skam_run on the compiled term
  decompose the calls verify makes, in verify's order, one span each;
            only the traced pass runs it

Every function returns (seconds, problems, info).  seconds covers the
calls into the package and not the checks; problems lists (layer,
message) pairs for outputs that miss the known answer.  Calls into the
package run inside rec.span(name), which records a span when the
recorder traces and does nothing otherwise.
"""

from __future__ import annotations

import json
import time
import traceback
from pathlib import Path

import spacekam as sk
import workloads

_PACKAGE_DIR = Path(sk.__file__).resolve().parent
_clock = time.perf_counter


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _Span:
    __slots__ = ("rec", "name", "sid", "t0", "mem0")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.sid = len(rec.spans)
        rec.spans.append(None)
        rec.stack.append(self.sid)
        if rec.tracemalloc is not None and len(rec.stack) > 1:
            rec.tracemalloc.reset_peak()
            self.mem0 = rec.tracemalloc.get_traced_memory()[0]
        else:
            self.mem0 = None
        self.t0 = _clock()
        return self

    def __exit__(self, et, ev, tb):
        t1 = _clock()
        rec = self.rec
        rec.stack.pop()
        parent = rec.stack[-1] if rec.stack else None
        peak = None
        if self.mem0 is not None:
            peak = rec.tracemalloc.get_traced_memory()[1] - self.mem0
        rec.spans[self.sid] = (self.name, rec.request, parent, self.t0, t1, peak, et is not None)
        return False


class Recorder:
    """Spans kept in memory: (name, request, parent span index, start,
    end, tracemalloc peak in bytes or None, raised).  A request is one
    term on one path in one round; its spans share the request id.
    With tracemalloc given, every span below a path's root span also
    records the peak of traced memory above what was live at its start."""

    def __init__(self, traced: bool, tracemalloc=None):
        self.traced = traced
        self.tracemalloc = tracemalloc
        self.spans: list = []
        self.stack: list = []
        self.request = None

    def span(self, name: str):
        return _Span(self, name) if self.traced else _NO_SPAN

    def root(self, name: str, request: str):
        self.request = request
        return self.span(name)


_NO_SPAN = _NoSpan()
UNTRACED = Recorder(False)


def layer_of(ex: BaseException, fallback: str) -> str:
    """The package module in which an exception was raised."""
    for frame in reversed(traceback.extract_tb(ex.__traceback__)):
        path = Path(frame.filename).resolve()
        if path.parent == _PACKAGE_DIR:
            return path.stem
    return fallback


def _same(problems, layer, what, got, want):
    if want is not None and got != want:
        problems.append((layer, f"{what}: got {got!r}, known answer {want!r}"))


# ---------------------------------------------------------------------------
# the user paths

def verify_path(w, i, exp, rec):
    problems: list = []
    if w.gen_seeds is not None:
        with rec.span("harness.verify"):
            t0 = _clock()
            summary = sk.fuzz(1, w.gen_seeds[i], workloads.FUZZ_BUDGET, w.fuel)
            dt = _clock() - t0
        if summary["failed"]:
            problems.append(("harness", f"fuzz seed {w.gen_seeds[i]}: {summary['failures']}"))
        complete = summary["complete"] == 1
        _same(problems, "harness", "complete", complete, exp.complete)
        return dt, problems, {"complete": complete}
    with rec.span("harness.verify"):
        t0 = _clock()
        rep = sk.verify(w.terms[i], w.fuel)
        dt = _clock() - t0
    failed = [name for name, ok in rep.checks if not ok]
    if failed:
        problems.append(("harness", f"verify checks failed: {failed} {rep.notes}"))
    _same(problems, "harness", "complete", rep.complete, exp.complete)
    _same(problems, "kam", "kam transitions", rep.kam["transitions"], exp.kam_transitions)
    _same(problems, "space_kam", "skam transitions", rep.skam["transitions"], exp.skam_transitions)
    _same(problems, "space_kam", "space", rep.skam["space"], exp.space)
    if rep.complete:
        _same(problems, "space_kam", "time", rep.skam["time"], exp.time)
        _same(problems, "checker", "space weight", rep.skam["space_weight"], exp.space)
        _same(problems, "checker", "time weight", rep.skam["time_weight"], exp.time)
        _same(problems, "checker", "kam weight", rep.kam["decarvalho_weight"], exp.kam_transitions)
        _same(problems, "terms", "weak head steps", rep.wh_steps, exp.betas)
    return dt, problems, {"complete": rep.complete}


def infer_path(w, i, exp, rec):
    """Returns info with the JSON size; a run that ends on fuel stops at
    extract, as `spacekam infer` does."""
    problems: list = []
    t0 = _clock()
    with rec.span("terms.parse"):
        t = sk.parse_term(w.texts[i])
    with rec.span("kam.compile"):
        s = sk.compile(t)
    with rec.span("space_kam.run"):
        run = sk.skam_run(s, w.fuel)
    try:
        with rec.span("extractor.extract"):
            d = sk.extract(run)
    except sk.IncompleteRun:
        dt = _clock() - t0
        _same(problems, "space_kam", "complete", False, exp.complete)
        return dt, problems, {"json_bytes": 0}
    with rec.span("checker.to_json"):
        obj = sk.derivation_to_json(d)
    with rec.span("json.dumps"):
        blob = json.dumps(obj)
    del obj, d
    with rec.span("json.loads"):
        obj = json.loads(blob)
    with rec.span("checker.from_json"):
        d = sk.derivation_from_json(obj)
    with rec.span("checker.check_space"):
        res = sk.check(d, "space")
    dt = _clock() - t0
    _same(problems, "space_kam", "complete", True, exp.complete)
    if not res.ok:
        problems.append(("checker", f"derivation read back from JSON fails: {res.errors[:3]}"))
    _same(problems, "checker", "derivation weight", d.conclusion.weight, run.space)
    _same(problems, "checker", "derivation weight", d.conclusion.weight, exp.space)
    return dt, problems, {"json_bytes": len(blob)}


def _machine_result(problems, layer, run, beta, exp):
    _same(problems, layer, "transitions", run.transitions,
          exp.kam_transitions if layer == "kam" else exp.skam_transitions)
    _same(problems, layer, "complete", run.final_reached, exp.complete)
    if run.final_reached:
        _same(problems, layer, "beta transitions", beta, exp.betas)
        if exp.result is not None:
            got = workloads.to_db(sk.decode(run.final))
            if got != exp.result:
                problems.append((layer, "final state does not read back to the known normal form"))


def kam_path(w, i, exp, rec):
    problems: list = []
    s = sk.compile(w.terms[i])
    with rec.span("kam.run"):
        t0 = _clock()
        run = sk.kam_run(s, w.fuel)
        dt = _clock() - t0
    _machine_result(problems, "kam", run, run.counts["beta"], exp)
    return dt, problems, {"steps": run.transitions}


def skam_path(w, i, exp, rec):
    problems: list = []
    s = sk.compile(w.terms[i])
    with rec.span("space_kam.run"):
        t0 = _clock()
        run = sk.skam_run(s, w.fuel)
        dt = _clock() - t0
    _machine_result(problems, "space_kam", run, run.counts["beta_w"] + run.counts["beta_nw"], exp)
    _same(problems, "space_kam", "space", run.space, exp.space)
    if run.final_reached:
        _same(problems, "space_kam", "time", run.time, exp.time)
    return dt, problems, {"steps": run.transitions}


def decompose_path(w, i, exp, rec):
    """verify's calls, in verify's order, each in its own span.  info
    keeps the runs and derivations for the gauges."""
    problems: list = []
    t0 = _clock()
    if w.gen_seeds is not None:
        with rec.span("harness.random_term"):
            t = sk.random_closed_term(w.gen_seeds[i], workloads.FUZZ_BUDGET)
    else:
        t = w.terms[i]
    with rec.span("kam.compile"):
        initial = sk.compile(t)
    with rec.span("kam.run"):
        krun = sk.kam_run(initial, w.fuel)
    with rec.span("space_kam.run"):
        srun = sk.skam_run(initial, w.fuel)
    info = {"krun": krun, "srun": srun}
    if krun.final_reached and srun.final_reached:
        with rec.span("terms.whnf_eval"):
            wh = sk.whnf_eval(t, krun.counts["beta"])
        for run in (krun, srun):
            with rec.span("kam.decode"):
                back = sk.decode(run.final)
            with rec.span("terms.alpha_eq"):
                if not sk.alpha_eq(back, wh.result):
                    problems.append(("terms", "final state does not read back to whnf_eval's result"))
        with rec.span("extractor.extract"):
            pi = sk.extract(srun)
        with rec.span("checker.check_space"):
            ok_space = sk.check(pi, "space").ok
        with rec.span("checker.weight_of"):
            w_space = sk.weight_of(pi, "space")
        with rec.span("checker.weight_of"):
            w_time = sk.weight_of(pi, "time")
        with rec.span("checker.reweight"):
            pit = sk.reweight(pi, "time")
        with rec.span("checker.check_time"):
            ok_time = sk.check(pit, "time").ok
        with rec.span("checker.size_of"):
            size = sk.size_of(pi)
        with rec.span("checker.correspondence"):
            ok_corr = sk.check_rule_transition_correspondence(pi, srun)
        with rec.span("extractor.extract_kam"):
            pik = sk.extract_kam(krun)
        with rec.span("checker.check_kam"):
            ok_kam = sk.check(pik, "kam").ok
        with rec.span("checker.weight_of"):
            w_kam = sk.weight_of(pik, "kam")
        with rec.span("space_kam.invariant"):
            ok_inv = all(
                sk.check_env_domain_invariant(s) for s in [srun.initial] + [s for _, s in srun.trace]
            )
        if not (ok_space and ok_time and ok_corr and ok_kam):
            problems.append(("checker", "a rebuilt derivation fails its check"))
        if not ok_inv:
            problems.append(("space_kam", "dom(env) = fv(code) fails in some state"))
        _same(problems, "checker", "space weight", w_space, srun.space)
        _same(problems, "checker", "time weight", w_time, srun.time)
        _same(problems, "checker", "kam weight", w_kam, krun.transitions)
        _same(problems, "checker", "derivation size", size, srun.transitions + 1)
        info["derivations"] = (pi, pik)
    return _clock() - t0, problems, info
