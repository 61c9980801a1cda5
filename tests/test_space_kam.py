import json
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st
from machine_steps import step

import spacekam as sk
from spacekam import kam, space_kam
from spacekam.harness import random_closed_term
from spacekam.kam import Closure, MachState, compile, run_summary, run_trace_rows
from spacekam.space_kam import (
    InvariantViolation,
    check_env_domain_invariant,
    check_run_env_domain_invariant,
    env_restrict,
    size_env,
    skam_fire,
    skam_run,
    state_size,
)
from spacekam.terms import Abs, App, Var, alpha_eq, parse_term


IDENT = parse_term(r"\a.a")
I_CL = Closure(IDENT, ())


def all_states(run):
    return [run.initial] + [s for _, s in run.trace]


# ---------------------------------------------------------------- sizes

def test_size_of_env_free_closure():
    assert I_CL.size == 1


def test_size_nested_closure():
    inner = Closure(parse_term("x"), (("x", I_CL),))
    assert inner.size == 2


def test_state_size_sums_env_and_stack():
    s = MachState(parse_term("x"), (("x", I_CL),), (I_CL,))
    assert state_size(s) == 2


def nested_closure(depth):
    c = I_CL
    for _ in range(depth):
        c = Closure(Var("x"), (("x", c),))
    return c


def test_sizes_of_deeply_nested_closures():
    assert nested_closure(20000).size == 20001
    c = nested_closure(20000)
    assert state_size(MachState(Var("x"), (("x", c),), (c, I_CL))) == 40003


def test_initial_state_has_size_zero(example_term):
    assert state_size(compile(example_term)) == 0


# ---------------------------------------------------------------- restriction

def test_env_restrict_keeps_needed_entries():
    e = (("x", I_CL), ("y", I_CL))
    assert env_restrict(e, parse_term("y").fv) == (("y", I_CL),)


def test_env_restrict_keeps_order_and_first_binding():
    c2 = Closure(parse_term("x"), (("x", I_CL),))
    e = (("y", I_CL), ("x", c2), ("x", I_CL))
    assert env_restrict(e, {"x", "y"}) == (("y", I_CL), ("x", c2))


def test_env_restrict_to_nothing_is_empty():
    assert env_restrict((("x", I_CL),), frozenset()) == ()


def test_env_restrict_stops_reading_once_every_name_has_a_binding():
    # a plain machine env holds every binding below the newest, and
    # decode restricts each closure's env to its code's names
    c2 = Closure(parse_term("x"), (("x", I_CL),))

    def env():
        yield ("y", I_CL)
        yield ("z", I_CL)
        yield ("x", c2)
        raise AssertionError("read past the last binding kept")

    assert env_restrict(env(), frozenset({"x", "y"})) == (("y", I_CL), ("x", c2))
    assert env_restrict(env(), frozenset()) == ()
    assert kam.env_restrict is env_restrict  # decode and the Space KAM share it


def test_sea_nv_checks_the_closure_it_builds(monkeypatch):
    # \w.y is pushed with y and z in scope, restricted to y, and dropped
    # unread by beta_w: no later state holds its env, so only the check
    # where the closure is built can see a wrong restriction
    t = parse_term(r"(\y.\z. (\k.\a.z) (\w.y)) (\b.b) (\c.c)")
    assert skam_run(compile(t), 100).counts["beta_w"] == 1
    real = space_kam.env_restrict

    def stale(e, names):  # a restriction that keeps z for the argument alone
        return e if names == {"y"} else real(e, names)

    monkeypatch.setattr(space_kam, "env_restrict", stale)
    with pytest.raises(InvariantViolation, match=r"closure of \\w\.y binds \['y', 'z'\]"):
        skam_run(compile(t), 100)


# ---------------------------------------------------------------- the example

def test_example_label_sequence(example_skam):
    labels = [label for label, _ in example_skam.trace]
    assert labels == ["sea_nv", "beta_nw", "sea_v", "beta_nw", "sea_nv", "beta_w", "sub"]


def test_example_state_sizes(example_skam):
    sizes = [state_size(s) for s in all_states(example_skam)]
    assert sizes == [0, 1, 1, 2, 2, 4, 1, 0]


def test_example_space_and_time(example_skam):
    assert example_skam.space == 4
    assert example_skam.time == 11
    assert example_skam.final_reached
    assert example_skam.transitions == 7


def test_example_counts(example_skam):
    assert example_skam.counts == {
        "sea_v": 1, "sea_nv": 2, "beta_w": 1, "beta_nw": 2, "sub": 1,
    }


def test_example_envs_stay_tight(example_skam):
    # binding pushed by beta lands at the front of the environment
    s4 = example_skam.trace[3][1]
    assert [name for name, _ in s4.env] == ["y", "x"]
    for s in all_states(example_skam):
        assert check_env_domain_invariant(s)


def test_example_final_decodes_to_identity(example_skam):
    assert alpha_eq(sk.decode(example_skam.final), IDENT)


def test_weakening_beta_drops_the_argument(example_skam):
    before = example_skam.trace[4][1]
    after = example_skam.trace[5][1]
    assert example_skam.trace[5][0] == "beta_w"
    assert state_size(before) == 4 and state_size(after) == 1


# ---------------------------------------------------------------- stepping

def test_step_requires_domain_equals_free_vars():
    s = MachState(parse_term("x"), (("x", I_CL), ("y", I_CL)), ())
    with pytest.raises(InvariantViolation):
        step(skam_fire, s)


def test_step_requires_no_missing_bindings():
    s = MachState(parse_term("x y"), (("x", I_CL),), ())
    with pytest.raises(InvariantViolation):
        step(skam_fire, s)


def test_variable_step_requires_singleton_env():
    # a variable whose env carries a stale entry is a hard error
    s = MachState(parse_term("x"), (("y", I_CL), ("x", I_CL)), ())
    with pytest.raises(InvariantViolation):
        step(skam_fire, s)


def test_variable_step_rejects_duplicate_bindings():
    # dom(env) = fv(code) holds as a set, but the env is not a singleton
    s = MachState(parse_term("x"), (("x", I_CL), ("x", I_CL)), ())
    with pytest.raises(InvariantViolation):
        step(skam_fire, s)


def test_step_on_final_state_is_none():
    assert step(skam_fire, MachState(IDENT, (), ())) is None


_CODES = tuple(parse_term(t) for t in (
    r"\a.a", "x", "y", "x y", "x x", "y (x y)", r"x (\a.a)", r"(\a.a) x", r"x (\a. y a)",
    r"\a. x y a", r"(\a.a) (\b.b)", "x (y z)", r"(\a. x) y", r"(\a. a) (z x)",
))
_NAMES = ("x", "y", "z")
_CLOSURES = (I_CL, Closure(parse_term("x"), (("x", I_CL),)), Closure(IDENT, ()))


@st.composite
def _tampered_states(draw):
    """A code, an environment binding each of its free variables once in
    some order, then perhaps tampered with: a binding missing, an extra
    binding, a second binding of a bound name, or an env drawn at random."""
    closures = st.sampled_from(_CLOSURES)
    t = draw(st.sampled_from(_CODES))
    env = [(x, draw(closures)) for x in draw(st.permutations(sorted(t.fv)))]
    how = draw(st.sampled_from(("none", "missing", "extra", "duplicate", "random")))
    if how == "missing" and env:
        del env[draw(st.integers(0, len(env) - 1))]
    elif how == "extra":
        env.insert(draw(st.integers(0, len(env))), (draw(st.sampled_from(_NAMES + ("w",))), draw(closures)))
    elif how == "duplicate" and env:
        x = env[draw(st.integers(0, len(env) - 1))][0]
        env.insert(draw(st.integers(0, len(env))), (x, draw(closures)))
    elif how == "random":
        env = draw(st.lists(st.tuples(st.sampled_from(_NAMES), closures), max_size=4))
    return MachState(t, tuple(env), tuple(draw(st.lists(closures, max_size=2))))


@given(_tampered_states())
@example(MachState(parse_term("x x"), (("x", I_CL), ("x", _CLOSURES[1])), ()))
@example(MachState(parse_term("x"), (("x", I_CL), ("x", _CLOSURES[1])), ()))
@example(MachState(parse_term("x y"), (), ()))
@example(MachState(parse_term("x y"), (("x", I_CL), ("x", I_CL)), ()))
@example(MachState(parse_term("x y"), (("x", I_CL), ("z", I_CL)), ()))
@example(MachState(parse_term("x y"), (("y", I_CL), ("x", I_CL)), ()))
@example(MachState(IDENT, (("x", I_CL),), (I_CL,)))
@settings(max_examples=600, deadline=None)
def test_step_check_rejects_exactly_where_dom_differs_from_fv(s):
    # the check skam_fire makes without a set for envs of 0, 1 or 2
    # entries, against the comparison of sizes and sets it stands for;
    # and the envs it passes on as they are, against restricting them
    t, e = s.code, s.env
    if len(e) != len(t.fv) or {x for x, _ in e} != t.fv:
        with pytest.raises(InvariantViolation, match="environment domain"):
            step(skam_fire, s)
        return
    nxt = step(skam_fire, s)
    if type(t) is App:
        label, after = nxt
        assert after.env == env_restrict(e, t.fun.fv)
        if len(t.fun.fv) == len(e):
            assert after.env is e
        if type(t.arg) is not Var:
            assert after.stack[0].env == env_restrict(e, t.arg.fv)
            if len(t.arg.fv) == len(e):
                assert after.stack[0].env is e


def test_check_env_domain_invariant_flags_stale_entry():
    bad = MachState(parse_term("x"), (("x", I_CL), ("y", I_CL)), ())
    assert not check_env_domain_invariant(bad)


def test_a_name_bound_twice_breaks_the_invariant():
    twice = (("x", I_CL), ("x", I_CL))
    s = MachState(parse_term("x x"), twice, ())
    with pytest.raises(InvariantViolation, match=r"environment domain \['x', 'x'\]"):
        skam_run(s, 100)
    assert not check_env_domain_invariant(s)
    assert not check_env_domain_invariant(MachState(IDENT, (), (Closure(Var("x"), twice),)))


def test_check_env_domain_invariant_descends_into_closures():
    bad_cl = Closure(IDENT, (("z", I_CL),))
    s = MachState(parse_term("x"), (("x", bad_cl),), ())
    assert not check_env_domain_invariant(s)


def test_run_invariant_flags_a_stale_entry_in_a_shared_closure():
    bad_cl = Closure(IDENT, (("z", I_CL),))
    ok_state = MachState(IDENT, (), (I_CL,))
    shares_bad = MachState(parse_term("x"), (("x", bad_cl),), (I_CL,))
    for states in ([ok_state, shares_bad], [shares_bad, ok_state], [shares_bad, shares_bad]):
        assert not check_run_env_domain_invariant(states)
    # the stack is walked top last: I_CL, already visited, comes off
    # first, and the bad closure after it must still be looked at
    later = MachState(IDENT, (), (bad_cl, I_CL))
    assert not check_run_env_domain_invariant([ok_state, later])
    # the same, one level down: a good closure whose env holds the bad one
    outer = Closure(parse_term("x"), (("x", bad_cl),))
    assert not check_run_env_domain_invariant([ok_state, MachState(IDENT, (), (outer, I_CL))])
    assert check_run_env_domain_invariant([ok_state, ok_state])
    assert check_run_env_domain_invariant([])


def test_run_invariant_agrees_with_the_per_state_check():
    stale = Closure(IDENT, (("z", I_CL),))
    for seed in range(200):
        run = skam_run(compile(random_closed_term(seed, 25)), 2000)
        states = all_states(run)
        assert all(check_env_domain_invariant(s) for s in states)
        assert check_run_env_domain_invariant(all_states(run))
        assert check_run_env_domain_invariant(iter(states))
        # plant a stale closure in the last state, below a closure that
        # earlier states hold, so the run-level walk has seen it already
        earlier = [c for p in states[:-1] for c in (*p.stack, *(d for _, d in p.env))]
        shared = earlier[0] if earlier else I_CL
        s = states[-1]
        wrapped = Closure(parse_term("x"), (("x", stale),))
        bad = MachState(s.code, s.env, s.stack + (wrapped, shared))
        planted = states[:-1] + [bad]
        assert not check_env_domain_invariant(bad)
        assert not check_run_env_domain_invariant(planted)


# ---------------------------------------------------------------- runs

def test_exact_fuel_still_detects_final(example_term):
    run = skam_run(compile(example_term), 7)
    assert run.final_reached and run.transitions == 7


def test_incomplete_run_has_no_final(example_term):
    run = skam_run(compile(example_term), 3)
    assert not run.final_reached and run.final is None
    # space and time still cover the states seen so far
    assert run.space == 2 and run.time == 0 + 1 + 1 + 2


def test_omega_runs_in_constant_space():
    omega = parse_term(r"(\x.x x) (\x.x x)")
    run = skam_run(compile(omega), 1000)
    assert not run.final_reached
    assert run.space == 2
    assert run.time == 1333
    sizes = [state_size(s) for s in all_states(run)]
    assert sizes[:6] == [0, 1, 1, 2, 1, 1]
    assert sizes[3:] == [2, 1, 1] * 332 + [2, 1]


def test_trace_rows_include_sizes(example_skam):
    rows = [json.loads(line) for line in run_trace_rows(example_skam)]
    states = [r for r in rows if "step" in r]
    assert [r["size"] for r in states] == [1, 1, 2, 2, 4, 1, 0]
    assert set(states[0]) == {"step", "label", "code", "env", "stack", "size"}
    assert [r for r in rows if "step" not in r] == [
        {"closure": 0, "code": r"\a.a", "env": []},
        {"closure": 1, "code": "x y", "env": [["y", 0], ["x", 0]]},
    ]


def test_run_summary_shape(example_skam):
    assert run_summary(example_skam) == {
        "transitions": 7,
        "counts": {"sea_v": 1, "sea_nv": 2, "beta_w": 1, "beta_nw": 2, "sub": 1},
        "space": 4,
        "time": 11,
        "complete": True,
    }


# ---------------------------------------------------------------- properties

def test_state_sizes_match_the_direct_recount(example_skam):
    # the forward count keeps the stack size as it goes, as the run loop
    # does: it gives state_size of every state, from the initial one on
    church = lambda n: r"(\f.\x." + "f (" * n + "x" + ")" * n + ")"
    terms = [random_closed_term(seed, 25) for seed in range(200)]
    terms += [parse_term(church(16) + r" (\a.a) (\b.b)")]
    terms += [parse_term(church(3) + " " + church(2) + r" (\a.a) (\b.b)")]
    # a mid-run start with a non-empty env and stack, so the opening
    # sums count closures; a pickle round trip rebuilds them unsized
    mid = all_states(example_skam)[3]
    assert mid.env and mid.stack
    starts = [compile(t) for t in terms] + [mid, pickle.loads(pickle.dumps(mid))]
    for s in starts:
        run = skam_run(s, 2000)
        sizes = [state_size(x) for x in all_states(run)]
        assert list(kam.state_sizes(run.initial, run.fires())) == sizes
        assert (run.space, run.time) == (max(sizes), sum(sizes))
    unsized = pickle.loads(pickle.dumps(mid))
    assert unsized.stack[0]._size is None
    run = skam_run(mid, 100)
    assert list(kam.state_sizes(unsized, run.fires())) == [state_size(x) for x in all_states(run)]
    assert (run.space, run.time) == (4, 2 + 2 + 4 + 1 + 0)


@given(st.integers(0, 2**30))
@settings(max_examples=120, deadline=None)
def test_bookkeeping_matches_direct_recomputation(seed):
    t = sk.random_closed_term(seed, 20)
    run = skam_run(compile(t), 300)
    sizes = [state_size(s) for s in all_states(run)]
    assert run.space == max(sizes)
    assert run.time == sum(sizes)
    for s in all_states(run):
        assert check_env_domain_invariant(s)


@given(st.integers(0, 2**30))
@example(83877)  # the Space KAM ends in 374 transitions, the KAM in 429
@settings(max_examples=120, deadline=None)
def test_both_machines_agree_on_the_result(seed):
    # The Space KAM's run maps onto the KAM's step for step, except that
    # sea_v pushes e(x) where the KAM pushes the closure (x, e): each
    # Space KAM sub is one KAM sub plus one for each such variable
    # closure on its way, and those are distinct closures, each pushed
    # at its own sea_v.  So the KAM makes the same seas and betas, never
    # fewer transitions, and at most sub * sea_v more.
    t = sk.random_closed_term(seed, 20)
    srun = skam_run(compile(t), 400)
    if not srun.final_reached:
        assert not sk.kam_run(compile(t), 400).final_reached
        return
    c = srun.counts
    krun = sk.kam_run(compile(t), srun.transitions + c["sub"] * c["sea_v"])
    assert krun.final_reached
    assert krun.counts["sea"] == c["sea_v"] + c["sea_nv"]
    assert krun.counts["beta"] == c["beta_w"] + c["beta_nw"]
    assert krun.counts["sub"] >= c["sub"]
    assert alpha_eq(sk.decode(krun.final), sk.decode(srun.final))
