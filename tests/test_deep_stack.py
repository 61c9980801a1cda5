"""A 20,000-deep stack at the interpreter's default recursion limit.

A stack is a chain of cells (top, rest), a nested tuple, in the fire
functions and in a state alike, and Python's own tuple ==, hash, repr
and pickle recurse through the nesting.  So a state's ==, hash, repr,
copy and pickle, the read-back, the sizes, the domain check and the
trace rows must each walk the chain with a stack of their own.  The
plain machine on wide_app n pushes its n arguments before its first
beta: its state there holds all 20,000 of them on its stack."""

import copy
import pickle
import sys

import pytest

import families
from machine_steps import read_trace, stack_cells, stack_tuple
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
from spacekam.space_kam import check_env_domain_invariant, skam_run
from spacekam.terms import parse_term

N = 20_000
IDENT = parse_term(r"\a.a")


@pytest.fixture(scope="module")
def deep():
    """The plain machine's state on wide_app N once it has pushed every
    argument, and the term it started from."""
    assert sys.getrecursionlimit() <= 10_000  # the default, not raised for this test
    t = parse_term(families.wide_app(N))
    s = kam_run(compile(t), N).last
    assert s.env == () and len(stack_tuple(s.stack)) == N
    return s, t


def _rebuilt(bottom=IDENT):
    """An equal chain of new cells over new closures, the deepest a
    closure of the code bottom."""
    return stack_cells([Closure(IDENT, ()) for _ in range(N - 1)] + [Closure(bottom, ())])


def test_eq_and_hash(deep):
    s, _ = deep
    t = MachState(s.code, (), _rebuilt())
    assert t.stack is not s.stack and s == t and not s != t and hash(s) == hash(t)
    assert s != MachState(s.code, (), _rebuilt(parse_term(r"\b.b")))  # differs at the bottom only
    assert s != MachState(s.code, (), s.stack[1]) and s != MachState(s.code, (), (s.stack[0], s.stack))


def test_repr(deep):
    s, _ = deep
    code = "".join(f"Abs(binder='x{i}', body=" for i in range(N)) + "Var(name='x0')" + ")" * N
    cr = "Closure(code=Abs(binder='a', body=Var(name='a')), env=())"
    stack = f"({cr}, " * N + "()" + ")" * N
    assert repr(s) == f"MachState(code={code}, env=(), stack={stack})"


def test_copy_deepcopy_and_pickle(deep):
    s, _ = deep
    for other in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(other) is MachState and other is not s and other.stack is not s.stack
        assert other == s and hash(other) == hash(s)
        assert state_size(other) == N


def test_decode_sizes_and_the_domain_check(deep):
    s, t = deep
    assert decode(s) is t  # terms are interned: the read-back is the source term itself
    assert state_size(s) == N
    assert check_env_domain_invariant(s)
    stale = Closure(IDENT, ("z", Closure(IDENT, ()), ()))  # binds a name its code does not use
    bad = stack_cells([*stack_tuple(s.stack)[:-1], stale])
    assert not check_env_domain_invariant(MachState(s.code, (), bad))


@pytest.mark.parametrize("machine_run", [kam_run, skam_run], ids=["kam", "skam"])
def test_trace_rows_of_a_few_steps(deep, machine_run):
    # three betas: x0 is bound (beta, or beta_nw: the body reads it),
    # then x1 and x2 are bound or dropped (beta_w: it does not); each
    # pops one argument, and every argument shares the one closure entry
    s, _ = deep
    run = machine_run(s, 3)
    assert run.transitions == 3
    _, closures, states = read_trace(run_trace_rows(run))
    assert [t for _, t in states] == [t for _, t in run.trace]
    rows = [row for row, _ in states]
    assert [len(stack_tuple(t.stack)) for _, t in states] == [N - 1, N - 2, N - 3]
    # a pop names the cell below the stack before it
    assert all(closures[a["stack"]][1] is closures[b["stack"]] for a, b in zip(rows, rows[1:]))
    (ident,) = [c for c in closures if type(c) is Closure]
    assert ident.code == IDENT and all(c is ident for c in stack_tuple(states[0][1].stack))
    if machine_run is kam_run:
        assert [r["label"] for r in rows] == ["beta"] * 3
        assert [len(env_pairs(t.env)) for _, t in states] == [1, 2, 3]
        assert len(closures) == 2 + (N - 1) + 3  # (), the closure, stack and env cells
    else:
        assert [r["label"] for r in rows] == ["beta_nw", "beta_w", "beta_w"]
        assert [env_pairs(t.env) for _, t in states] == [(("x0", ident),)] * 3
        assert len({r["env"] for r in rows}) == 1
        assert [r["size"] for r in rows] == [N, N - 1, N - 2]
        assert len(closures) == 2 + (N - 1) + 1
