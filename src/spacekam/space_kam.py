"""The Space KAM: a Krivine machine that is reasonable for space.

Two changes against the plain machine.  Eager garbage collection: every
environment is restricted, on the fly, to the free variables of the
code it accompanies, and a beta transition binding a variable that does
not occur in the body drops the argument closure on the spot.  Variable
unchaining: an application with a variable argument pushes that
variable's closure rather than a new closure wrapping the variable, so
environments never build renaming chains.

Transitions (e|_t is e restricted to fv(t)):

    (t x, e, S)        -> sea_v    (t, e|_t, e(x) . S)
    (t u, e, S)        -> sea_nv   (t, e|_t, (u, e|_u) . S)   u not a variable
    (\\x.t, e, c . S)   -> beta_w   (t, e, S)                  x not in fv(t)
    (\\x.t, e, c . S)   -> beta_nw  (t, [x <- c] . e, S)       x in fv(t)
    (x, [x <- (u, e)], S) -> sub   (u, e, S)

Every reachable state satisfies dom(env) = fv(code), for the state
itself and inside every closure; skam_step checks the top level of that
invariant and refuses to fire a sub whose environment is not exactly
the one binding for the variable.

Sizes count pointers: a closure is 1 plus its environment, an
environment or stack is the sum of its closures, a state is environment
plus stack (kam.state_size).  A run's space is the max state size over all states
including the initial one; its time is the sum over all states.
"""

from __future__ import annotations

from dataclasses import replace

from .kam import (
    Closure,
    Env,
    MachState,
    Run,
    env_lookup,
    run_machine,
    size_env,
    state_size,  # re-exported: a run's space and time are its max and sum
)
from .terms import Abs, App, Term, Var, print_term


class InvariantViolation(Exception):
    """A state broke dom(env) = fv(code), or a variable state did not
    carry exactly its own binding."""


LABEL_SEA_V = "sea_v"
LABEL_SEA_NV = "sea_nv"
LABEL_BETA_W = "beta_w"
LABEL_BETA_NW = "beta_nw"
LABEL_SUB = "sub"

SKAM_LABELS = (LABEL_SEA_V, LABEL_SEA_NV, LABEL_BETA_W, LABEL_BETA_NW, LABEL_SUB)


def env_restrict(e: Env, names: frozenset[str]) -> Env:
    """Keep the first binding of each name in names, in entry order."""
    out = []
    seen = set()
    for x, c in e:
        if x in names and x not in seen:
            out.append((x, c))
            seen.add(x)
    return tuple(out)


def size_closure(c: Closure) -> int:
    return c.size


def _dom(e: Env) -> set[str]:
    return {x for x, _ in e}


def skam_step(s: MachState) -> tuple[str, MachState] | None:
    """One transition, or None when s is final."""
    t, e, stack = s.code, s.env, s.stack
    fv = t.fv
    if _dom(e) != fv:
        raise InvariantViolation(
            f"environment domain {sorted(_dom(e))} differs from "
            f"free variables {sorted(fv)} of {print_term(t)}"
        )
    if type(t) is App:
        fun, arg = t.fun, t.arg
        fun_env = env_restrict(e, fun.fv)
        if type(arg) is Var:
            c = env_lookup(e, arg.name)
            assert c is not None  # arg.name is in fv, hence in dom(e)
            return LABEL_SEA_V, MachState(fun, fun_env, (c,) + stack)
        c = Closure(arg, env_restrict(e, arg.fv))
        return LABEL_SEA_NV, MachState(fun, fun_env, (c,) + stack)
    if type(t) is Abs:
        if not stack:
            return None
        c = stack[0]
        if t.binder in t.body.fv:
            return LABEL_BETA_NW, MachState(t.body, ((t.binder, c),) + e, stack[1:])
        return LABEL_BETA_W, MachState(t.body, e, stack[1:])
    # variable: its environment must be the one binding and nothing else
    if len(e) != 1 or e[0][0] != t.name:
        raise InvariantViolation(
            f"variable {t.name} must carry exactly its own binding, "
            f"environment has domain {sorted(_dom(e))} with {len(e)} entries"
        )
    c = e[0][1]
    return LABEL_SUB, MachState(c.code, c.env, stack)


def skam_run(s: MachState, fuel: int) -> Run:
    """Run for at most fuel transitions, measuring space and time as the
    machine goes, in memory proportional to the space.

    Both measures include the initial state; time also includes the
    final state when it is reached.  The stack size is kept
    incrementally, and states share closures that cache their own sizes
    (Closure.size), so measuring a step costs O(|env|) rather than
    O(state size).
    """
    stack_sz = sum(c.size for c in s.stack)
    space = time = size_env(s.env) + stack_sz
    prev = s

    def measure(nxt):
        nonlocal stack_sz, space, time, prev
        label, cur = nxt
        if label in (LABEL_SEA_V, LABEL_SEA_NV):
            stack_sz += cur.stack[0].size
        elif label in (LABEL_BETA_W, LABEL_BETA_NW):
            stack_sz -= prev.stack[0].size
        sz = size_env(cur.env) + stack_sz
        if sz > space:
            space = sz
        time += sz
        prev = cur

    run = run_machine(skam_step, SKAM_LABELS, s, fuel, measure)
    return replace(run, space=space, time=time)


def check_run_env_domain_invariant(states) -> bool:
    """dom(env) = fv(code) in every one of an iterable of states (such
    as Run.states), for the state itself and inside every closure.

    Successive states share their closures, and closures are immutable,
    so a closure that checked once stays valid: each distinct closure
    object is visited once per call.  The states hold every closure
    alive for the whole call, so a set of ids is enough."""
    states = list(states)
    seen: set[int] = set()
    for s in states:
        if _dom(s.env) != s.code.fv:
            return False
        work = [c for _, c in s.env]
        work.extend(s.stack)
        while work:
            c = work.pop()
            if id(c) in seen:
                continue
            seen.add(id(c))
            if _dom(c.env) != c.code.fv:
                return False
            work.extend(d for _, d in c.env)
    return True


def check_env_domain_invariant(s: MachState) -> bool:
    """dom(env) = fv(code) for the state and inside every closure."""
    return check_run_env_domain_invariant((s,))
