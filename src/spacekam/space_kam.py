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
itself and inside every closure; skam_fire checks the top level of that
invariant and refuses to fire a sub whose environment is not exactly
the one binding for the variable.  Once the check has passed, a
restriction to as many names as the environment has entries keeps
every entry, so skam_fire passes that environment on as it is rather
than copying it.

Sizes count pointers: a closure is 1 plus its environment, an
environment or stack is the sum of its closures, a state is environment
plus stack (kam.state_size).  A run's space is the max state size over all states
including the initial one; its time is the sum over all states.
"""

from __future__ import annotations

from .hashcons import postorder
from .kam import (
    Closure,
    Env,
    MachState,
    Run,
    Stack,
    _env_closures,
    env_lookup,
    fire_state,
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


def skam_fire(t: Term, e: Env, stack: Stack) -> tuple | None:
    """One transition as (label, code, env, stack), or None when final."""
    fv = t.fv
    # dom(e) = fv(t), building a set only for an env of 2 or more entries
    n = len(e)
    if n > 1:
        ok = _dom(e) == fv
    elif n:
        ok = len(fv) == 1 and e[0][0] in fv
    else:
        ok = not fv
    if not ok:
        raise InvariantViolation(
            f"environment domain {sorted(_dom(e))} differs from "
            f"free variables {sorted(fv)} of {print_term(t)}"
        )
    if type(t) is App:
        # dom(e) = fv(t) holds, so a restriction to as many names as e
        # has entries drops nothing: e itself is the restriction
        fun, arg = t.fun, t.arg
        fun_env = e if len(fun.fv) == n else env_restrict(e, fun.fv)
        if type(arg) is Var:
            c = env_lookup(e, arg.name)
            assert c is not None  # arg.name is in fv, hence in dom(e)
            return LABEL_SEA_V, fun, fun_env, (c,) + stack
        arg_env = e if len(arg.fv) == n else env_restrict(e, arg.fv)
        c = Closure(arg, arg_env, 1 + size_env(arg_env))  # from cached sizes: no walk
        return LABEL_SEA_NV, fun, fun_env, (c,) + stack
    if type(t) is Abs:
        if not stack:
            return None
        if t.binder in t.body.fv:
            return LABEL_BETA_NW, t.body, ((t.binder, stack[0]),) + e, stack[1:]
        return LABEL_BETA_W, t.body, e, stack[1:]
    # variable: its environment must be the one binding and nothing else
    if n != 1 or e[0][0] != t.name:
        raise InvariantViolation(
            f"variable {t.name} must carry exactly its own binding, "
            f"environment has domain {sorted(_dom(e))} with {n} entries"
        )
    c = e[0][1]
    return LABEL_SUB, c.code, c.env, stack


def skam_step(s: MachState) -> tuple[str, MachState] | None:
    """One transition, or None when s is final."""
    return fire_state(skam_fire, s)


def skam_run(s: MachState, fuel: int) -> Run:
    """Run for at most fuel transitions, measuring space and time as the
    machine goes, in memory proportional to the space.

    Both measures include the initial state; time also includes the
    final state when it is reached.  Each step is measured from the env
    and stack skam_fire returns, building no state.  The stack size is
    kept incrementally: a sea pushes one closure and a beta pops one.
    Closures cache their sizes (Closure.size): a step costs O(|env|).
    """
    # these opening sums size every closure reachable from s; sea_nv
    # builds each new closure with its size, and every other transition
    # only moves closures already sized, so measure reads the stored
    # _size and never enters the Closure.size property
    stack_sz = sum(c.size for c in s.stack)
    space = time = size_env(s.env) + stack_sz
    prev = s.stack

    def measure(nxt):
        nonlocal stack_sz, space, time, prev
        _, _, env, stack = nxt
        if len(stack) > len(prev):
            stack_sz += stack[0]._size
        elif len(stack) < len(prev):
            stack_sz -= prev[0]._size
        prev = stack
        sz = stack_sz
        for _, c in env:
            sz += c._size
        if sz > space:
            space = sz
        time += sz

    run = run_machine(skam_fire, SKAM_LABELS, s, fuel, measure)
    # the run is not yet shared with a caller: complete it in place
    object.__setattr__(run, "space", space)
    object.__setattr__(run, "time", time)
    return run


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
        for c in postorder([*_env_closures(s), *s.stack], _env_closures, lambda c: id(c) in seen):
            if _dom(c.env) != c.code.fv:
                return False
            seen.add(id(c))
    return True


def check_env_domain_invariant(s: MachState) -> bool:
    """dom(env) = fv(code) for the state and inside every closure."""
    return check_run_env_domain_invariant((s,))
