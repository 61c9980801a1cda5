"""The Krivine machine for closed call-by-name evaluation.

A state is a code subterm, an environment binding its free variables to
closures, and a stack of argument closures (top first, so the top is
the innermost argument).  Environments are association lists, most
recent binding first, and lookup takes the first match.  All state is
immutable; successive states share structure.

Transitions:

    (t u, e, S)        -> sea   (t, e, (u, e) . S)
    (\\x.t, e, c . S)   -> beta  (t, [x <- c] . e, S)
    (x, e, S)          -> sub   (u, e', S)        where e(x) = (u, e')

A state with abstraction code and empty stack has no transition; for
closed terms that is the only way a run ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import Abs, App, Term, Var, print_term, subst


class OpenTerm(Exception):
    """Only closed terms can be loaded into the machine."""


class StuckState(Exception):
    """A variable had no binding: the state was not reachable from a
    closed term."""


@dataclass(frozen=True, slots=True)
class Closure:
    code: Term
    env: "Env"
    _size: int | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def size(self) -> int:
        """Pointer count: 1 plus the sizes of the closures in env.

        Worked out on first use, not at construction, and cached on
        every closure the walk visits, so a closure shared by many
        states is walked once.  The walk is iterative: nesting depth is
        not limited by the interpreter's recursion limit."""
        work = [self] if self._size is None else []
        while work:
            c = work[-1]
            todo = [d for _, d in c.env if d._size is None]
            if todo:
                work.extend(todo)
            else:
                work.pop()
                object.__setattr__(c, "_size", 1 + sum(d._size for _, d in c.env))
        return self._size


# association list, most recent binding first
Env = tuple[tuple[str, Closure], ...]
Stack = tuple[Closure, ...]

EMPTY_ENV: Env = ()


@dataclass(frozen=True, slots=True)
class MachState:
    code: Term
    env: Env
    stack: Stack


def env_lookup(e: Env, x: str) -> Closure | None:
    for y, c in e:
        if y == x:
            return c
    return None


LABEL_SEA = "sea"
LABEL_BETA = "beta"
LABEL_SUB = "sub"

KAM_LABELS = (LABEL_SEA, LABEL_BETA, LABEL_SUB)


def size_env(e: Env) -> int:
    """Pointer count of an environment: the sum of its closures' sizes."""
    return sum(c.size for _, c in e)


def state_size(s: MachState) -> int:
    """Pointer count of a state: its environment plus its stack."""
    return size_env(s.env) + sum(c.size for c in s.stack)


@dataclass(frozen=True, slots=True)
class Run:
    """A recorded run of either machine: the initial state, one (label,
    state) pair per transition, whether a final state was reached within
    fuel, and the transition counts per label, in label order.  space
    and time are the space machine's measures, None for a plain run."""

    initial: MachState
    trace: tuple[tuple[str, MachState], ...]
    final_reached: bool
    counts: dict
    space: int | None = None
    time: int | None = None

    @property
    def final(self) -> MachState | None:
        """The final state, or None when the run stopped on fuel."""
        if not self.final_reached:
            return None
        return self.trace[-1][1] if self.trace else self.initial

    @property
    def transitions(self) -> int:
        return len(self.trace)

    @property
    def states(self) -> list[MachState]:
        """The initial state followed by every traced state, as a new list."""
        return [self.initial, *(s for _, s in self.trace)]


def compile(t: Term) -> MachState:
    """Initial state for a closed term: empty environment and stack."""
    if t.fv:
        raise OpenTerm(f"term has free variables: {', '.join(sorted(t.fv))}")
    return MachState(t, (), ())


def kam_step(s: MachState) -> tuple[str, MachState] | None:
    """One transition, or None when s is final."""
    t = s.code
    if type(t) is App:
        c = Closure(t.arg, s.env)
        return LABEL_SEA, MachState(t.fun, s.env, (c,) + s.stack)
    if type(t) is Abs:
        if not s.stack:
            return None
        c = s.stack[0]
        return LABEL_BETA, MachState(t.body, ((t.binder, c),) + s.env, s.stack[1:])
    c = env_lookup(s.env, t.name)
    if c is None:
        raise StuckState(f"variable {t.name} has no binding in the environment")
    return LABEL_SUB, MachState(c.code, c.env, s.stack)


def run_machine(step, labels, s: MachState, fuel: int) -> Run:
    """Fire step from s for at most fuel transitions and record the run.
    step returns (label, next state), or None on a final state; labels
    are every label it can return."""
    trace: list[tuple[str, MachState]] = []
    counts = dict.fromkeys(labels, 0)
    cur = s
    for _ in range(fuel):
        nxt = step(cur)
        if nxt is None:
            return Run(s, tuple(trace), True, counts)
        label, cur = nxt
        counts[label] += 1
        trace.append(nxt)
    return Run(s, tuple(trace), step(cur) is None, counts)


def kam_run(s: MachState, fuel: int) -> Run:
    """Run for at most fuel transitions."""
    return run_machine(kam_step, KAM_LABELS, s, fuel)


# ---------------------------------------------------------------------------
# decoding and serialization

def _decode_closure(c: Closure) -> Term:
    # (t, [x <- c] . e) reads back as (t{x := read-back of c}, e)
    t = c.code
    for x, d in c.env:
        t = subst(t, x, _decode_closure(d))
    return t


def decode(s: MachState | Closure) -> Term:
    """Read a state or closure back into a plain term.

    The stack top is the innermost argument: the code/env read-back is
    applied to the stack closures top first.
    """
    if isinstance(s, Closure):
        return _decode_closure(s)
    t = _decode_closure(Closure(s.code, s.env))
    for c in s.stack:
        t = App(t, _decode_closure(c))
    return t


def closure_to_json(c: Closure) -> dict:
    return {"code": print_term(c.code), "env": env_to_json(c.env)}


def env_to_json(e: Env) -> list:
    return [[x, closure_to_json(c)] for x, c in e]


def state_to_json(s: MachState) -> dict:
    return {
        "code": print_term(s.code),
        "env": env_to_json(s.env),
        "stack": [closure_to_json(c) for c in s.stack],
    }


def run_trace_rows(run: Run):
    """One JSON-ready dict per transition: the label, the state size
    for a measured run, and the state it produced.  Step numbers start
    at 1; the initial state is step 0 and has no row."""
    for i, (label, s) in enumerate(run.trace, start=1):
        row = {"step": i, "label": label}
        if run.space is not None:
            row["size"] = state_size(s)
        row.update(state_to_json(s))
        yield row


def run_summary(run: Run) -> dict:
    """Transitions, counts per label, space and time for a measured
    run, and whether the run is complete."""
    out = {"transitions": run.transitions, "counts": dict(run.counts)}
    if run.space is not None:
        out["space"] = run.space
        out["time"] = run.time
    out["complete"] = run.final_reached
    return out
