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

This module also holds the run core both machines share.  A run keeps
only its current state while it goes, so a run that only measures uses
memory in proportion to its space, not to its transitions.  A Run
stores no trace: the machines are deterministic, so Run.trace and
Run.states replay the run from its initial state on first use.
"""

from __future__ import annotations

from collections.abc import Callable
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


class ReplayMismatch(Exception):
    """Replaying a run from its initial state did not land on the run's
    stored last state with the run's transition counts."""


@dataclass(frozen=True, slots=True)
class Run:
    """A run of either machine: its initial state, the state it stopped
    in, whether that state is final, the transition counts per label in
    label order, the number of transitions, and the step function that
    made it.  space and time are the space machine's measures, None for
    a plain run.

    A run stores no trace.  The machines are deterministic, so the
    initial state, the step function and the transition count determine
    every state in between: trace and states replay the run on first
    use, and the replayed trace is cached on the run."""

    initial: MachState
    last: MachState
    final_reached: bool
    counts: dict
    transitions: int
    step: Callable[[MachState], tuple[str, MachState] | None]
    space: int | None = None
    time: int | None = None
    _trace: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def final(self) -> MachState | None:
        """The final state, or None when the run stopped on fuel."""
        return self.last if self.final_reached else None

    def replay(self):
        """Fire step from the initial state again, yielding one (label,
        state) pair per transition, without keeping them.  Raises
        ReplayMismatch, after the last pair, unless the replay ends on
        the stored last state with the stored counts."""
        counts = dict.fromkeys(self.counts, 0)
        cur = self.initial
        for i in range(1, self.transitions + 1):
            nxt = self.step(cur)
            if nxt is None:
                raise ReplayMismatch(f"replay reached a final state at transition {i}")
            yield nxt
            label, cur = nxt
            counts[label] += 1
        if counts != self.counts:
            raise ReplayMismatch(f"replay counts {counts} differ from the run's {self.counts}")
        if not _states_equal(cur, self.last):
            raise ReplayMismatch("replay ends in a state other than the run's last state")

    @property
    def trace(self) -> tuple[tuple[str, MachState], ...]:
        """One (label, state) pair per transition, replayed on first use
        and cached."""
        if self._trace is None:
            object.__setattr__(self, "_trace", tuple(self.replay()))
        return self._trace

    @property
    def states(self) -> list[MachState]:
        """The initial state followed by every traced state, as a new list."""
        return [self.initial, *(s for _, s in self.trace)]


def _states_equal(a: MachState, b: MachState) -> bool:
    """a == b, without recursion and comparing each pair of closure
    objects once, however deep or shared the closures are."""
    if len(a.stack) != len(b.stack):
        return False
    # a state has code and env like a closure, and is compared like one
    pairs = [(a, b), *zip(a.stack, b.stack)]
    seen = set()  # both states hold every closure alive, so ids are stable
    while pairs:
        c, d = pairs.pop()
        if c is d or (id(c), id(d)) in seen:
            continue
        seen.add((id(c), id(d)))
        if (c.code is not d.code and c.code != d.code) or len(c.env) != len(d.env):
            return False
        for (x, c2), (y, d2) in zip(c.env, d.env):
            if x != y:
                return False
            pairs.append((c2, d2))
    return True


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


def run_machine(step, labels, s: MachState, fuel: int, on_step=None) -> Run:
    """Fire step from s for at most fuel transitions, keeping only the
    current state.  step returns (label, next state), or None on a final
    state; labels are every label it can return.  on_step, when given,
    is called with each (label, next state) pair as it is fired."""
    counts = dict.fromkeys(labels, 0)
    cur = s
    for n in range(fuel):
        nxt = step(cur)
        if nxt is None:
            return Run(s, cur, True, counts, n, step)
        label, cur = nxt
        counts[label] += 1
        if on_step is not None:
            on_step(nxt)
    return Run(s, cur, step(cur) is None, counts, fuel, step)


def kam_run(s: MachState, fuel: int) -> Run:
    """Run for at most fuel transitions."""
    return run_machine(kam_step, KAM_LABELS, s, fuel)


# ---------------------------------------------------------------------------
# decoding and serialization

def _decode_closure(c: Closure, memo: dict) -> Term:
    # (t, [x <- c] . e) reads back as (t{x := read-back of c}, e).
    # Post-order with an explicit stack; memo maps the id of each closure
    # read back so far to its term, so a shared closure is read back
    # once.  The caller holds every closure alive, so ids are stable.
    work = [c]
    while work:
        d = work[-1]
        if id(d) in memo:
            work.pop()
            continue
        todo = [e for _, e in d.env if id(e) not in memo]
        if todo:
            work.extend(todo)
            continue
        work.pop()
        t = d.code
        for x, e in d.env:
            t = subst(t, x, memo[id(e)])
        memo[id(d)] = t
    return memo[id(c)]


def decode(s: MachState | Closure) -> Term:
    """Read a state or closure back into a plain term.

    The stack top is the innermost argument: the code/env read-back is
    applied to the stack closures top first.  Each distinct closure is
    read back once per call, without recursion.
    """
    memo: dict[int, Term] = {}
    if isinstance(s, Closure):
        return _decode_closure(s, memo)
    top = Closure(s.code, s.env)
    t = _decode_closure(top, memo)
    for c in s.stack:
        t = App(t, _decode_closure(c, memo))
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
    at 1; the initial state is step 0 and has no row.  The rows stream
    from a replay of the run (Run.replay), which is not cached."""
    for i, (label, s) in enumerate(run.replay(), start=1):
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
