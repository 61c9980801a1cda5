import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import spacekam as sk
from spacekam import kam, space_kam
from spacekam.kam import (
    Closure,
    MachState,
    OpenTerm,
    ReplayMismatch,
    StuckState,
    compile,
    decode,
    kam_run,
    kam_step,
    run_summary,
    run_trace_rows,
    state_size,
)
from spacekam.space_kam import skam_run, skam_step
from spacekam.terms import Abs, Var, alpha_eq, parse_term, whnf_eval, whnf_step


IDENT = parse_term(r"\a.a")


def test_compile_rejects_open_terms():
    with pytest.raises(OpenTerm) as exc:
        compile(parse_term(r"\x.x y z"))
    assert "y" in str(exc.value) and "z" in str(exc.value)


def test_compile_initial_state():
    s = compile(IDENT)
    assert s == MachState(IDENT, (), ())


def test_identity_is_final_without_steps():
    run = kam_run(compile(IDENT), 0)
    assert run.final_reached
    assert run.transitions == 0
    assert run.final == run.initial


def test_example_run_counts(example_kam):
    assert example_kam.final_reached
    assert example_kam.transitions == 7
    assert example_kam.counts == {"sea": 3, "beta": 3, "sub": 1}


def test_example_label_sequence(example_kam):
    labels = [label for label, _ in example_kam.trace]
    assert labels == ["sea", "beta", "sea", "beta", "sea", "beta", "sub"]


def test_example_final_decodes_to_identity(example_kam):
    assert example_kam.final.stack == ()
    assert isinstance(example_kam.final.code, Abs)
    assert alpha_eq(decode(example_kam.final), IDENT)


def test_decode_initial_is_term(example_term, example_kam):
    assert decode(example_kam.initial) == example_term


def test_decode_tracks_head_reduction(example_term, example_kam):
    # the state right after the first beta reads back as one wh step
    state_after_beta = example_kam.trace[1][1]
    assert alpha_eq(decode(state_after_beta), whnf_step(example_term))


def test_decode_applies_stack_top_first():
    c = Closure(IDENT, ())
    s = MachState(Var("x"), (("x", c),), (c,))
    assert decode(s) == parse_term(r"(\a.a) (\a.a)")


def test_decode_of_a_deep_closure_chain():
    # deeper than any recursion limit the package sets
    c = Closure(IDENT, ())
    for _ in range(20000):
        c = Closure(Var("x"), (("x", c),))
    assert decode(c) == IDENT
    assert decode(MachState(Var("x"), (("x", c),), (c,))) == parse_term(r"(\a.a) (\a.a)")


def test_decode_substitutes_env():
    c = Closure(IDENT, ())
    s = MachState(parse_term("x x"), (("x", c),), ())
    assert decode(s) == parse_term(r"(\a.a) (\a.a)")


def test_step_on_final_state_is_none():
    assert kam_step(compile(IDENT)) is None


def test_step_unbound_variable_is_stuck():
    with pytest.raises(StuckState):
        kam_step(MachState(Var("q"), (), ()))


def test_exact_fuel_still_detects_final(example_term):
    run = kam_run(compile(example_term), 7)
    assert run.final_reached and run.transitions == 7


def test_one_short_of_fuel_is_incomplete(example_term):
    run = kam_run(compile(example_term), 6)
    assert not run.final_reached
    assert run.final is None
    assert run.transitions == 6


def test_omega_never_finishes():
    omega = parse_term(r"(\x.x x) (\x.x x)")
    run = kam_run(compile(omega), 50)
    assert not run.final_reached
    assert run.transitions == 50
    assert run.counts["sub"] > 0


def test_trace_rows_shape(example_kam):
    rows = list(run_trace_rows(example_kam))
    assert len(rows) == 7
    assert [r["step"] for r in rows] == list(range(1, 8))
    assert set(rows[0]) == {"step", "label", "code", "env", "stack"}
    assert rows[0]["label"] == "sea"


def test_run_summary(example_kam):
    assert run_summary(example_kam) == {
        "transitions": 7,
        "counts": {"sea": 3, "beta": 3, "sub": 1},
        "complete": True,
    }


def _trace_by_hand(step, s, n):
    trace = []
    for _ in range(n):
        nxt = step(s)
        trace.append(nxt)
        s = nxt[1]
    return trace


@pytest.mark.parametrize(
    "machine_run, step", [(kam_run, kam_step), (skam_run, skam_step)], ids=["kam", "skam"]
)
def test_run_contract(machine_run, step):
    for seed in range(200):
        run = machine_run(compile(sk.random_closed_term(seed, 25)), 500)
        assert sum(run.counts.values()) == run.transitions
        assert sum(1 for _ in run_trace_rows(run)) == run.transitions
        assert run._trace is None  # the rows stream, nothing is cached
        assert list(run.trace) == _trace_by_hand(step, run.initial, run.transitions)
        assert run.trace is run.trace
        assert len(run.states) == run.transitions + 1
        assert run.states[-1] == run.last
        assert (run.final is None) == (not run.final_reached)
        if run.final_reached:
            assert run.final is run.last
            assert step(run.last) is None
        if machine_run is skam_run:
            sizes = [state_size(s) for s in run.states]
            assert (run.space, run.time) == (max(sizes), sum(sizes))
        else:
            assert run.space is None and run.time is None
        if run.transitions:
            label = next(iter(run.counts))
            bad_counts = {**run.counts, label: run.counts[label] + 1}
            for bad in (
                dataclasses.replace(run, counts=bad_counts),
                dataclasses.replace(run, last=run.initial),
                dataclasses.replace(run, transitions=run.transitions - 1),
            ):
                with pytest.raises(ReplayMismatch):
                    bad.trace
                with pytest.raises(ReplayMismatch):
                    list(bad.replay())  # what run_trace_rows streams


def test_replay_compares_the_last_state_in_full():
    # a last state that differs from the replay's deep inside a closure
    t = parse_term(r"(\x.\y.y x) (\a.a)")
    run = kam_run(compile(t), 10)
    assert run.final_reached
    deep = MachState(run.last.code, (("x", Closure(parse_term(r"\b.b"), ())),), ())
    assert run.last != deep
    with pytest.raises(ReplayMismatch):
        dataclasses.replace(run, last=deep).trace


def test_verify_on_fuel_never_replays(monkeypatch):
    calls = {"kam": 0, "skam": 0}

    def counted(name, step):
        def wrapped(s):
            calls[name] += 1
            return step(s)
        return wrapped

    monkeypatch.setattr(kam, "kam_step", counted("kam", kam_step))
    monkeypatch.setattr(space_kam, "skam_step", counted("skam", skam_step))
    rep = sk.verify(parse_term(r"(\x.x x) (\x.x x)"), 5000)
    assert not rep.complete
    # fuel transitions, then one call that finds the last state not final
    assert calls == {"kam": 5001, "skam": 5001}


@pytest.mark.parametrize("machine_run", [kam_run, skam_run], ids=["kam", "skam"])
def test_memory_stays_flat_as_fuel_grows(machine_run):
    # The Space KAM loops in space 2.  The plain machine builds a
    # renaming chain that grows with the square root of the transitions,
    # so its memory is compared per pointer of the run's space (the max
    # state size, taken from a streamed replay after tracing stops).
    omega = compile(parse_term(r"(\x.x x) (\x.x x)"))

    def peak_per_pointer(fuel):
        tracemalloc.start()
        try:
            run = machine_run(omega, fuel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        space = max(state_size(s) for _, s in run.replay())
        return peak, peak / (1 + space)

    (_, small), (large_peak, large) = peak_per_pointer(20_000), peak_per_pointer(200_000)
    assert large_peak < 1_000_000
    assert large <= 2 * small


@given(st.integers(0, 2**30))
@settings(max_examples=150, deadline=None)
def test_machine_agrees_with_rewriting(seed):
    t = sk.random_closed_term(seed, 20)
    run = kam_run(compile(t), 400)
    if not run.final_reached:
        return
    wh = whnf_eval(t, run.counts["beta"])
    assert not wh.exhausted
    assert wh.steps == run.counts["beta"]
    assert alpha_eq(decode(run.final), wh.result)
