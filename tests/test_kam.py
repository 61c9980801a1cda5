import copy
import dataclasses
import functools
import json
import pickle
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st
from machine_steps import step

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
    kam_fire,
    kam_run,
    run_summary,
    run_trace_rows,
    state_size,
)
from spacekam.space_kam import skam_fire, skam_run
from spacekam.checker import derivation_from_json, derivation_to_json
from spacekam.extractor import expand, type_final_state
from spacekam.terms import (
    Abs,
    Var,
    _subst_sim,
    alpha_eq,
    parse_term,
    print_term,
    subst,
    whnf_eval,
    whnf_step,
)


IDENT = parse_term(r"\a.a")


def _states(run):
    """The initial state followed by every state of the trace."""
    return [run.initial, *(s for _, s in run.trace)]


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
    assert step(kam_fire, compile(IDENT)) is None


def test_step_unbound_variable_is_stuck():
    with pytest.raises(StuckState):
        step(kam_fire, MachState(Var("q"), (), ()))


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
    lines = list(run_trace_rows(example_kam))
    rows = [json.loads(line) for line in lines]
    assert lines == [json.dumps(row) for row in rows]  # json.dumps' own layout
    states = [r for r in rows if "step" in r]
    assert len(states) == 7
    assert [r["step"] for r in states] == list(range(1, 8))
    assert set(states[0]) == {"step", "label", "code", "env", "stack"}
    assert states[0]["label"] == "sea"
    # each closure once, numbered in order, just before the first row
    # that names it
    assert [r for r in rows if "step" not in r] == [
        {"closure": 0, "code": r"\a.a", "env": []},
        {"closure": 1, "code": "x", "env": [["x", 0]]},
        {"closure": 2, "code": "x y", "env": [["y", 1], ["x", 0]]},
    ]
    assert [i for i, r in enumerate(rows) if "closure" in r] == [0, 3, 6]
    assert rows[1]["stack"] == [0] and rows[8]["env"] == [["z", 2], ["y", 1], ["x", 0]]


def test_trace_row_of_closures_nested_20000_deep():
    # a variable bound to 20,000 nested closures: the sub transition's
    # state holds 20,000 of them, each written once, children first
    c = Closure(IDENT, ())
    for _ in range(20_000):
        c = Closure(Var("x"), (("x", c),))
    lines = list(run_trace_rows(kam_run(MachState(Var("x"), (("x", c),), ()), 1)))
    assert len(lines) == 20_001
    assert lines[0] == r'{"closure": 0, "code": "\\a.a", "env": []}'
    assert lines[1:-1] == [f'{{"closure": {i}, "code": "x", "env": [["x", {i - 1}]]}}' for i in range(1, 20_000)]
    # the state after sub is c's own: code x, env [x <- 19,999 deep]
    assert lines[-1] == '{"step": 1, "label": "sub", "code": "x", "env": [["x", 19999]], "stack": []}'


def test_loop_trace_bytes_per_transition_stay_flat():
    # the plain loop's env chain grows by one closure per round; rows
    # that name closures by number keep each transition's bytes flat
    loop = compile(parse_term(r"(\x.x x) (\x.x x)"))
    per = [sum(map(len, run_trace_rows(kam_run(loop, fuel)))) / fuel for fuel in (2000, 16_000)]
    assert per[1] <= 1.1 * per[0] and per[0] < 100


def _church(n):
    return r"(\f.\x." + "f (" * n + "x" + ")" * n + ")"


@pytest.mark.parametrize("machine_run", [kam_run, skam_run], ids=["kam", "skam"])
def test_trace_rows_read_back_to_the_replayed_states(machine_run):
    # every closure row rebuilds a closure from earlier rows, and every
    # state row a state equal to the replayed one, with its size
    terms = [sk.random_closed_term(seed, 25) for seed in range(200)]
    terms += [parse_term(_church(16) + r" (\a.a) (\b.b)")]
    terms += [parse_term(_church(3) + " " + _church(2) + r" (\a.a) (\b.b)")]
    term = functools.cache(parse_term)
    for t in terms:
        run = machine_run(compile(t), 2000)
        closures = []

        def built(i):
            assert 0 <= i < len(closures)  # written before its first use
            return closures[i]

        replayed = enumerate(run.trace, start=1)
        for line in run_trace_rows(run):
            row = json.loads(line)
            if "closure" in row:
                assert row.keys() == {"closure", "code", "env"}
                assert row["closure"] == len(closures)  # each index written once, in order
                closures.append(Closure(term(row["code"]), tuple((x, built(i)) for x, i in row["env"])))
                continue
            step, (label, s) = next(replayed)
            assert (row["step"], row["label"]) == (step, label)
            env = tuple((x, built(i)) for x, i in row["env"])
            got = MachState(term(row["code"]), env, tuple(map(built, row["stack"])))
            assert got == s
            if run.space is None:
                assert "size" not in row
            else:
                assert row["size"] == state_size(got)
        assert next(replayed, None) is None


def test_run_summary(example_kam):
    assert run_summary(example_kam) == {
        "transitions": 7,
        "counts": {"sea": 3, "beta": 3, "sub": 1},
        "complete": True,
    }


def _trace_by_hand(fire, s, n):
    trace = []
    for _ in range(n):
        nxt = step(fire, s)
        trace.append(nxt)
        s = nxt[1]
    return trace


@pytest.mark.parametrize(
    "machine_run, fire", [(kam_run, kam_fire), (skam_run, skam_fire)], ids=["kam", "skam"]
)
def test_run_contract(machine_run, fire):
    for seed in range(200):
        run = machine_run(compile(sk.random_closed_term(seed, 25)), 500)
        assert sum(run.counts.values()) == run.transitions
        assert sum("step" in json.loads(row) for row in run_trace_rows(run)) == run.transitions
        trace = run.trace
        assert list(trace) == _trace_by_hand(fire, run.initial, run.transitions)
        # nothing of a replay is kept: each read replays anew, and no
        # field of the run holds a replayed state
        assert not run.transitions or run.trace is not trace
        kept = [getattr(run, f.name) for f in dataclasses.fields(run)]
        assert not any(v is trace or v is s for v in kept for _, s in trace)
        states = [run.initial, *(s for _, s in trace)]
        assert len(states) == run.transitions + 1
        assert states[-1] == run.last
        assert (run.final is None) == (not run.final_reached)
        if run.final_reached:
            assert run.final is run.last
            assert step(fire, run.last) is None
        if machine_run is skam_run:
            sizes = [state_size(s) for s in states]
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
                    list(bad.fires())  # what run_trace_rows streams


def test_replay_compares_the_last_state_in_full():
    # a last state that differs from the replay's deep inside a closure
    t = parse_term(r"(\x.\y.y x) (\a.a)")
    run = kam_run(compile(t), 10)
    assert run.final_reached
    deep = MachState(run.last.code, (("x", Closure(parse_term(r"\b.b"), ())),), ())
    assert run.last != deep
    with pytest.raises(ReplayMismatch):
        dataclasses.replace(run, last=deep).trace


def test_negative_fuel_is_refused():
    s = compile(IDENT)
    for machine_run in (kam_run, skam_run):
        with pytest.raises(ValueError, match="fuel must be at least 0, not -1"):
            machine_run(s, -1)
        assert machine_run(s, 0).final_reached
    with pytest.raises(ValueError, match="fuel must be at least 0, not -2"):
        sk.verify(IDENT, -2)


def test_verify_on_fuel_never_replays(monkeypatch):
    calls = {"kam": 0, "skam": 0}

    def counted(name, fire):
        def wrapped(code, env, stack):
            calls[name] += 1
            return fire(code, env, stack)
        return wrapped

    monkeypatch.setattr(kam, "kam_fire", counted("kam", kam.kam_fire))
    monkeypatch.setattr(space_kam, "skam_fire", counted("skam", space_kam.skam_fire))
    rep = sk.verify(parse_term(r"(\x.x x) (\x.x x)"), 5000)
    assert not rep.complete
    # fuel transitions, then one call that finds the last state not final
    assert calls == {"kam": 5001, "skam": 5001}


@pytest.mark.parametrize("machine_run", [kam_run, skam_run], ids=["kam", "skam"])
def test_a_run_builds_one_state_and_its_trace_one_per_transition(monkeypatch, machine_run):
    # the run loop fires on bare (code, env, stack) triples: only the
    # last state is a MachState; a replay builds one per transition
    built = [0]
    init = MachState.__init__

    def counted(self, code, env, stack):
        built[0] += 1
        init(self, code, env, stack)

    omega = compile(parse_term(r"(\x.x x) (\x.x x)"))
    monkeypatch.setattr(MachState, "__init__", counted)
    run = machine_run(omega, 10_000)
    assert run.transitions == 10_000 and not run.final_reached
    assert built[0] <= 1
    built[0] = 0
    assert len(run.trace) == 10_000
    assert built[0] == 10_000


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
        space = max(state_size(MachState(*s[1:])) for s in run.fires())
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


# ------------------------------------------------------------ closures and states

def _chain(depth, base=IDENT):
    c = Closure(base, ())
    for _ in range(depth):
        c = Closure(Var("x"), (("x", c),))
    return c


def test_fields_cannot_be_assigned_or_deleted():
    c = Closure(IDENT, ())
    s = MachState(Var("x"), (("x", c),), (c,))
    for obj, names in ((c, ("code", "env", "_size", "size", "other")), (s, ("code", "env", "stack", "other"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert (c.code, c.env) == (IDENT, ())
    assert (s.code, s.env, s.stack) == (Var("x"), (("x", c),), (c,))
    assert not hasattr(c, "__dict__") and not hasattr(s, "__dict__")


def test_repr_is_the_field_by_field_form():
    c = Closure(IDENT, ())
    cr = "Closure(code=Abs(binder='a', body=Var(name='a')), env=())"
    assert repr(c) == cr
    c.size  # the cached size takes no part in repr
    assert repr(c) == cr
    assert repr(MachState(Var("x"), (), ())) == "MachState(code=Var(name='x'), env=(), stack=())"
    assert repr(MachState(Var("x"), (("x", c), ("y", c)), (c,))) == (
        f"MachState(code=Var(name='x'), env=(('x', {cr}), ('y', {cr})), stack=({cr},))"
    )


def test_equality_and_hash_follow_the_fields():
    c, d = Closure(IDENT, ()), Closure(parse_term(r"\a.a"), ())
    assert c == d and hash(c) == hash(d) and c is not d
    assert Closure(Var("x"), (("x", c),)) == Closure(Var("x"), (("x", d),))
    assert Closure(Var("x"), (("x", c),)) != Closure(Var("x"), (("y", c),))
    assert Closure(Var("x"), (("x", c),)) != Closure(Var("x"), (("x", c), ("x", c)))
    assert Closure(IDENT, ()) != Closure(parse_term(r"\b.b"), ())
    s = MachState(Var("x"), (("x", c),), (c,))
    assert s == MachState(Var("x"), (("x", d),), (d,))
    assert hash(s) == hash(MachState(Var("x"), (("x", d),), (d,)))
    assert s != MachState(Var("x"), (("x", c),), ())
    assert s != MachState(Var("x"), (("x", c),), (Closure(parse_term(r"\b.b"), ()),))
    # a closure is not a state, and neither equals a plain tuple of its fields
    assert MachState(IDENT, (), ()) != Closure(IDENT, ())
    assert c != (IDENT, ()) and s != (Var("x"), (("x", c),), (c,))
    assert len({c, d, s, MachState(Var("x"), (("x", d),), (d,))}) == 2


def test_copy_deepcopy_and_pickle_give_equal_objects(example_kam, example_skam):
    for run in (example_kam, example_skam):
        for s in _states(run):
            for c in (*s.stack, *(c for _, c in s.env)):
                for other in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
                    assert type(other) is Closure and other == c and hash(other) == hash(c)
                    assert other.size == c.size
            for other in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
                assert type(other) is MachState and other == s and hash(other) == hash(s)
                assert state_size(other) == state_size(s)


def test_states_read_back_from_derivation_files_equal_the_machines(example_skam):
    runs = [example_skam]
    runs += [r for r in (skam_run(compile(sk.random_closed_term(seed, 15)), 40) for seed in range(40))
             if r.final_reached]
    assert len(runs) > 20
    for run in runs:
        states = _states(run)
        labels = [label for label, *_ in run.fires()]  # one replay per run
        d = type_final_state(states[-1])
        for i in reversed(range(run.transitions + 1)):
            if i < run.transitions:
                d = expand(d, (labels[i], states[i]))
            back = derivation_from_json(derivation_to_json(d)).conclusion.subject
            assert type(back) is MachState and back is not states[i]
            assert back == states[i] and hash(back) == hash(states[i])
            assert repr(back) == repr(states[i])


def test_eq_hash_repr_of_closures_nested_20000_deep():
    assert sys.getrecursionlimit() <= 10_000  # the default, not raised for this test
    a, b = _chain(20_000), _chain(20_000)
    other = _chain(20_000, parse_term(r"\b.b"))  # differs at the bottom only
    assert a == b and not a != b
    assert a != other and not a == other
    assert hash(a) == hash(b)
    inner = "Closure(code=Abs(binder='a', body=Var(name='a')), env=())"
    want = "Closure(code=Var(name='x'), env=(('x', " * 20_000 + inner + "),))" * 20_000
    assert repr(a) == want
    # a state that holds the chain in its env and on its stack
    s, t = MachState(Var("x"), (("x", a),), (a,)), MachState(Var("x"), (("x", b),), (b,))
    assert s == t and hash(s) == hash(t)
    assert s != MachState(Var("x"), (("x", a),), (other,))
    assert s != MachState(Var("x"), (("x", other),), (a,))
    assert repr(s) == f"MachState(code=Var(name='x'), env=(('x', {want}),), stack=({want},))"


def test_closure_rows_number_each_distinct_closure_once_children_first():
    a, b = _chain(3), _chain(3)  # equal, but not the same objects
    table = kam.ClosureRows()
    assert table.add(a) == table.add(b) == 3
    assert table.add(_chain(2)) == 2
    assert table.add(Closure(Var("y"), (("y", b),))) == 4
    assert table.rows == [(IDENT, ())] + [(Var("x"), (("x", i),)) for i in range(3)] + [(Var("y"), (("y", 3),))]


def test_pickle_of_closures_and_states_20000_deep():
    assert sys.getrecursionlimit() <= 10_000  # the default, not raised for this test
    a = _chain(20_000)
    s = MachState(Var("x"), (("x", a),), (a, _chain(3)))
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is Closure and back is not a and back == a
    assert back.size == a.size == 20_001
    other = pickle.loads(pickle.dumps(s))
    assert type(other) is MachState and other == s and hash(other) == hash(s)
    # a closure the state holds twice comes back as one object
    assert other.env[0][1] is other.stack[0]
    assert copy.copy(s) == s and copy.deepcopy(s) == s


def test_equality_compares_each_shared_pair_once():
    # a diamond-shaped closure graph 200 levels deep has 2^200 paths;
    # equality visits each pair of closure objects once
    a, b = Closure(IDENT, ()), Closure(IDENT, ())
    for _ in range(200):
        a = Closure(parse_term("x y"), (("x", a), ("y", a)))
        b = Closure(parse_term("x y"), (("x", b), ("y", b)))
    assert a == b


def _decode_every_binding(s):
    """The read-back as it was first written: every closure in an env is
    read back and substituted, in env order, used or not; each closure
    object once."""
    memo = {}

    def cl(c):
        if id(c) not in memo:
            t = c.code
            for x, e in c.env:
                t = subst(t, x, cl(e))
            memo[id(c)] = t
        return memo[id(c)]

    t = cl(Closure(s.code, s.env))
    for c in s.stack:
        t = sk.App(t, cl(c))
    return t


def test_decode_agrees_with_reading_back_every_binding():
    for seed in range(1000):
        t = sk.random_closed_term(seed, 25)
        for run in (kam_run(compile(t), 2000), skam_run(compile(t), 2000)):
            assert print_term(decode(run.last)) == print_term(_decode_every_binding(run.last)), seed


def _let_chain(n):
    body = rf"\z. x{n}"
    for i in range(n, 0, -1):
        body = rf"(\x{i}. {body}) (\w. x{i - 1})"
    return parse_term(rf"(\x0. {body}) (\a.a)")


def test_decode_reads_back_only_the_bindings_the_code_uses(monkeypatch):
    # the plain machine's final state on a 1000-deep let chain binds
    # x0..x1000, and each closure's env every x before its own: reading
    # back all of them would substitute 501,501 bindings
    n = 1000
    run = kam_run(compile(_let_chain(n)), 10 * n)
    assert run.final_reached and len(run.final.env) == n + 1
    bindings = []

    def counted(t, sigma, avoid):
        bindings.append(len(sigma))
        return _subst_sim(t, sigma, avoid)

    monkeypatch.setattr(kam, "_subst_sim", counted)
    got = decode(run.final)
    assert sum(bindings) <= n + 1
    assert print_term(got) == r"\z." + r"\w." * n + r"\a.a"


@pytest.mark.parametrize("swap", [False, True])
def test_decode_substitutes_a_closures_bindings_at_once(swap):
    # x reads back to the open term y, which y's own binding must not
    # reach, whichever of the two comes first in the env
    env = (("x", Closure(Var("y"), ())), ("y", Closure(IDENT, ())))
    c = Closure(parse_term("x y"), env[::-1] if swap else env)
    assert print_term(decode(c)) == r"y (\a.a)"
