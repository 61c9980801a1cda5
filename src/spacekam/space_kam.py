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

Every reachable state satisfies dom(env) = fv(code), with one binding
per name, for the state itself and inside every closure; skam_fire
checks it for each state and each closure it builds (so a run checks
all but its initial state), so a sub's environment is exactly the one
binding for its variable.  The check of a state builds a set of names
only for an environment of three or more entries; one or two entries
are compared with fv(code) name by name.  Once the check has passed, a
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
    env_restrict,  # re-exported: the restriction e|_t of the transitions above
    run_machine,
    size_env,
    state_size,  # re-exported: a run's space and time are its max and sum
)
from .terms import Abs, App, Term, Var, print_term


class InvariantViolation(Exception):
    """A state or a closure being built broke dom(env) = fv(code), with
    one binding per name."""


LABEL_SEA_V = "sea_v"
LABEL_SEA_NV = "sea_nv"
LABEL_BETA_W = "beta_w"
LABEL_BETA_NW = "beta_nw"
LABEL_SUB = "sub"

SKAM_LABELS = (LABEL_SEA_V, LABEL_SEA_NV, LABEL_BETA_W, LABEL_BETA_NW, LABEL_SUB)


def _binds_exactly(e: Env, names: frozenset[str]) -> bool:
    return len(e) == len(names) and {x for x, _ in e} == names


def skam_fire(t: Term, e: Env, stack: Stack) -> tuple | None:
    """One transition as (label, code, env, stack), or None when final."""
    fv = t.fv
    # dom(e) = fv(t), one binding per name; a set only for n > 2 entries
    n = len(e)
    if n == 1:
        ok = len(fv) == 1 and e[0][0] in fv
    elif n == 2:
        x, y = e[0][0], e[1][0]
        ok = len(fv) == 2 and x != y and x in fv and y in fv
    elif n:
        ok = _binds_exactly(e, fv)
    else:
        ok = not fv
    if not ok:
        raise InvariantViolation(
            f"environment domain {sorted(x for x, _ in e)} differs from "
            f"free variables {sorted(fv)} of {print_term(t)}"
        )
    if type(t) is App:
        # dom(e) = fv(t) holds, so a restriction to as many names as e
        # has entries drops nothing: e itself is the restriction
        fun, arg = t.fun, t.arg
        fun_env = e if len(fun.fv) == n else env_restrict(e, fun.fv)
        if type(arg) is Var:
            x = arg.name
            for y, c in e:
                if y == x:
                    break
            else:
                c = None
            assert c is not None  # arg.name is in fv, hence in dom(e)
            return LABEL_SEA_V, fun, fun_env, (c,) + stack
        arg_env = e if len(arg.fv) == n else env_restrict(e, arg.fv)
        if len(arg.fv) != n and not _binds_exactly(arg_env, arg.fv):  # checked where it is built
            raise InvariantViolation(f"closure of {print_term(arg)} binds {sorted(x for x, _ in arg_env)}")
        size = 1  # from cached sizes: no walk
        for _, c in arg_env:
            size += c.size
        return LABEL_SEA_NV, fun, fun_env, (Closure(arg, arg_env, size),) + stack
    if type(t) is Abs:
        if not stack:
            return None
        if t.binder in t.body.fv:
            return LABEL_BETA_NW, t.body, ((t.binder, stack[0]),) + e, stack[1:]
        return LABEL_BETA_W, t.body, e, stack[1:]
    # a variable: the check above leaves e its own binding alone
    c = e[0][1]
    return LABEL_SUB, c.code, c.env, stack


def skam_run(s: MachState, fuel: int) -> Run:
    """Run for at most fuel transitions, measuring space and time as the
    machine goes, in memory proportional to the space.

    Both measures include the initial state; time also includes the
    final state when it is reached.  The shared loop measures each step
    inline (run_machine, sized), from the env and stack skam_fire
    returns and the sizes it stores: O(|env|) a step, and no state built.
    """
    return run_machine(skam_fire, SKAM_LABELS, s, fuel, sized=True)


def check_run_env_domain_invariant(states) -> bool:
    """dom(env) = fv(code), one binding per name, in every state of an
    iterable (such as a run's initial state and the states of its
    trace) and inside every closure.

    Successive states share their closures, and closures are immutable,
    so a closure that checked once stays valid: each distinct closure
    object is visited once per call.  The states hold every closure
    alive for the whole call, so a set of ids is enough."""
    states = list(states)
    seen: set[int] = set()
    for s in states:
        if not _binds_exactly(s.env, s.code.fv):
            return False
        for c in postorder([*_env_closures(s), *s.stack], _env_closures, lambda c: id(c) in seen):
            if not _binds_exactly(c.env, c.code.fv):
                return False
            seen.add(id(c))
    return True


def check_env_domain_invariant(s: MachState) -> bool:
    """dom(env) = fv(code) for the state and inside every closure."""
    return check_run_env_domain_invariant((s,))
