"""A 20,000-deep environment at the interpreter's default recursion limit.

An environment is a chain of cells (name, closure, rest), a nested
tuple, and Python's own tuple ==, hash, repr and pickle recurse through
the nesting.  So the machines' states and closures, the read-back, the
typing of a final state, the checker and the trace rows must each walk
a chain with a stack of their own.  The plain machine on wide_app n
binds n names before its one sub: its state there holds a 20,000-deep
environment of identity closures."""

import copy
import json
import pickle
import sys

import pytest

import families
from machine_steps import env_cells, read_trace
from spacekam.checker import KIND_ENV, Judgment, check, derivation_from_json, derivation_to_json
from spacekam.extractor import type_final_state
from spacekam.kam import (
    Closure,
    MachState,
    compile,
    decode,
    env_pairs,
    kam_run,
    run_trace_rows,
    state_size,
)
from spacekam.terms import Abs, App, Var, parse_term
from spacekam.types import EMPTY_CONTEXT

N = 20_000
IDENT = parse_term(r"\a.a")


@pytest.fixture(scope="module")
def deep():
    """The plain machine's last state before the sub of x0 on wide_app
    N, and a closure over its environment."""
    assert sys.getrecursionlimit() <= 10_000  # the default, not raised for this test
    run = kam_run(compile(parse_term(families.wide_app(N))), 2 * N)
    s = run.last
    assert not run.final_reached and s.code == Var("x0") and s.stack == ()
    assert [x for x, _ in env_pairs(s.env)] == [f"x{i}" for i in reversed(range(N))]
    return s, Closure(s.code, s.env)


def _rebuilt(env, bottom=IDENT):
    """An equal chain of new cells over new closures, the deepest bound
    to a closure of the code bottom."""
    pairs = [(x, Closure(IDENT, ())) for x, _ in env_pairs(env)]
    pairs[-1] = (pairs[-1][0], Closure(bottom, ()))
    return env_cells(pairs)


def test_eq_and_hash_of_a_state_and_a_closure(deep):
    s, c = deep
    env, other = _rebuilt(s.env), _rebuilt(s.env, parse_term(r"\b.b"))
    t = MachState(s.code, env, ())
    assert env is not s.env and s == t and not s != t and hash(s) == hash(t)
    assert s != MachState(s.code, other, ())  # differs at the bottom only
    d = Closure(c.code, env)
    assert c == d and hash(c) == hash(d)
    assert c != Closure(c.code, other)


def test_repr_of_a_state_and_a_closure(deep):
    s, c = deep
    cr = "Closure(code=Abs(binder='a', body=Var(name='a')), env=())"
    env = "".join(f"('x{i}', {cr}, " for i in reversed(range(N))) + "()" + ")" * N
    assert repr(s) == f"MachState(code=Var(name='x0'), env={env}, stack=())"
    assert repr(c) == f"Closure(code=Var(name='x0'), env={env})"


def test_copy_and_pickle_of_a_state_and_a_closure(deep):
    s, c = deep
    for x in (s, c):
        for other in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(other) is type(x) and other is not x
            assert other == x and hash(other) == hash(x)
    assert state_size(pickle.loads(pickle.dumps(s))) == state_size(s) == N


def test_decode(deep):
    s, c = deep
    assert decode(s) == IDENT
    assert decode(c) == IDENT


def _uses_all(names):
    """\\z. t, where t applies every name once, as a balanced tree."""
    level = [Var(x) for x in names]
    while len(level) > 1:
        pairs = [App(f, a) for f, a in zip(level[::2], level[1::2])]
        level = pairs + level[len(pairs) * 2:]
    return Abs("z", level[0])


def test_a_final_state_types_and_checks(deep):
    # a Space KAM state binds exactly its code's free variables: here,
    # the code reads every name of the deep env
    s, _ = deep
    final = MachState(_uses_all([x for x, _ in env_pairs(s.env)]), s.env, ())
    d = type_final_state(final)
    res = check(d, "space")
    assert res.ok and res.weight == state_size(final) == N
    back = derivation_from_json(json.loads(json.dumps(derivation_to_json(d))))
    assert back.conclusion.subject.env is not final.env  # decoded anew, compared in full
    assert back == d and check(back, "space").ok
    env = d.premises[1].conclusion
    assert env.subject_kind == KIND_ENV and env.subject is final.env
    same = Judgment(KIND_ENV, _rebuilt(final.env), EMPTY_CONTEXT, env.assigned, env.weight)
    assert same == env and hash(same) == hash(env) and repr(same) == repr(env)
    assert Judgment(KIND_ENV, _rebuilt(final.env, parse_term(r"\b.b")), EMPTY_CONTEXT, env.assigned, 0) != env


def test_trace_rows(deep):
    # from x0 x1 over the deep env: a sea pushes (x1, env), the sub of x0
    # reaches \a.a, which binds and reads it back, and the sub of x1
    # ends the run; the deep env is written once, cell by cell, and the
    # row of the sea and the closure (x1, env) name it by one index
    s, _ = deep
    run = kam_run(MachState(App(Var("x0"), Var("x1")), s.env, ()), 10)
    assert run.final_reached and run.transitions == 5
    _, closures, states = read_trace(run_trace_rows(run))
    assert [row["label"] for row, _ in states] == ["sea", "sub", "beta", "sub", "sub"]
    assert [t for _, t in states] == [t for _, t in run.trace]
    names = [[x for x, _ in env_pairs(t.env)] for _, t in states]
    want = [f"x{i}" for i in reversed(range(N))]
    assert names == [want, [], ["a"], want, []]
    pushed = [c for c in closures if type(c) is Closure][-1]
    assert pushed.code == Var("x1") and pushed.env is states[0][1].env
    assert states[0][0]["env"] == states[3][0]["env"]
    assert len(closures) < N + 10
