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
only for a code with three or more free variables; an environment for
one or two is compared with fv(code) cell by cell.  Once the check has
passed, a restriction to as many names as the environment has entries
keeps every entry, so skam_fire passes that environment on as it is
rather than copying it.  A restriction of a checked environment binds
each name at most once, so the check of the closure sea_nv builds
counts its cells.

The environment and the stack skam_fire takes and returns are linked,
as kam_fire's are: a beta_nw binds its name in one new cell over the
environment, a push is one new cell over the stack, and a pop returns
the cell below, so a transition copies neither, however deep they are;
a restriction builds new cells for the entries it keeps, but for a
tail it keeps whole.

A label is the transition's index in SKAM_LABELS, which skam_fire
carries as skam_fire.labels, named through them where it leaves the
machine (kam.Run).

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
    env_names,
    env_restrict,  # re-exported: the restriction e|_t of the transitions above
    run_machine,
    size_env,
    state_size,  # re-exported: a run's space and time are its max and sum
)
from .terms import Abs, App, Term, Var, print_term


class InvariantViolation(Exception):
    """A state or a closure being built broke dom(env) = fv(code), with
    one binding per name."""


# skam_fire's labels are indices into SKAM_LABELS, which names them
SKAM_LABELS = ("sea_v", "sea_nv", "beta_w", "beta_nw", "sub")
LABEL_SEA_V, LABEL_SEA_NV, LABEL_BETA_W, LABEL_BETA_NW, LABEL_SUB = range(len(SKAM_LABELS))


def _binds_exactly(e: Env, names: frozenset[str]) -> bool:
    seen = set()
    while e:
        x = e[0]
        if x not in names or x in seen:
            return False
        seen.add(x)
        e = e[2]
    return len(seen) == len(names)


def skam_fire(t: Term, e: Env, stack: Stack) -> tuple | None:
    """One transition as (label, code, env, stack), or None when final;
    the label is the transition's index in SKAM_LABELS, and the
    environments and stacks are linked cells."""
    fv = t.fv
    # dom(e) = fv(t), one binding per name; a set only for n > 2 names
    n = len(fv)
    if n == 1:
        ok = e and not e[2] and e[0] in fv
    elif n == 2:
        rest = e and e[2]
        ok = rest and not rest[2] and e[0] != rest[0] and e[0] in fv and rest[0] in fv
    elif n:
        ok = _binds_exactly(e, fv)
    else:
        ok = not e
    if not ok:
        raise InvariantViolation(
            f"environment domain {sorted(env_names(e))} differs from "
            f"free variables {sorted(fv)} of {print_term(t)}"
        )
    if type(t) is App:
        # dom(e) = fv(t) holds, so a restriction to as many names as e
        # has entries drops nothing: e itself is the restriction
        fun, arg = t.fun, t.arg
        fun_env = e if len(fun.fv) == n else env_restrict(e, fun.fv)
        if type(arg) is Var:
            x = arg.name
            while e[0] != x:  # arg.name is in fv, hence in dom(e)
                e = e[2]
            return LABEL_SEA_V, fun, fun_env, (e[1], stack)
        arg_fv = arg.fv
        arg_env = e if len(arg_fv) == n else env_restrict(e, arg_fv)
        size, k, a = 1, 0, arg_env  # the size from cached sizes, and the entries
        while a:
            size += a[1].size
            k += 1
            a = a[2]
        if k != len(arg_fv):  # checked where it is built: a restriction binds each name once
            raise InvariantViolation(f"closure of {print_term(arg)} binds {sorted(env_names(arg_env))}")
        return LABEL_SEA_NV, fun, fun_env, (Closure(arg, arg_env, size), stack)
    if type(t) is Abs:
        if not stack:
            return None
        if t.binder in t.body.fv:
            return LABEL_BETA_NW, t.body, (t.binder, stack[0], e), stack[1]
        return LABEL_BETA_W, t.body, e, stack[1]
    # a variable: the check above leaves e its own binding alone
    c = e[1]
    return LABEL_SUB, c.code, c.env, stack


skam_fire.labels = SKAM_LABELS


def skam_run(s: MachState, fuel: int) -> Run:
    """Run for at most fuel transitions, measuring space and time as the
    machine goes, in memory proportional to the space.

    Both measures include the initial state; time also includes the
    final state when it is reached.  The shared loop measures each step
    inline (run_machine, sized), from the env and stack skam_fire
    returns and the sizes it stores: O(|env|) a step, and no state built.
    """
    return run_machine(skam_fire, s, fuel, sized=True)


def check_env_domain_invariant(*states: MachState) -> bool:
    """dom(env) = fv(code), one binding per name, in every state given
    (one, or a run's initial state and the states of its trace) and
    inside every closure.

    Successive states share their closures, and closures are immutable,
    so a closure that checked once stays valid: each distinct closure
    object is visited once per call.  The states hold every closure
    alive for the whole call, so a set of ids is enough."""
    seen: set[int] = set()
    for s in states:
        if not _binds_exactly(s.env, s.code.fv):
            return False
        roots, k = _env_closures(s), s.stack
        while k:
            roots.append(k[0])
            k = k[1]
        for c in postorder(roots, _env_closures, lambda c: id(c) in seen):
            if not _binds_exactly(c.env, c.code.fv):
                return False
            seen.add(id(c))
    return True
