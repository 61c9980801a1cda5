"""The Krivine machine for closed call-by-name evaluation.

A state is a code subterm, an environment binding its free variables to
closures, and a stack of argument closures (top first, so the top is
the innermost argument).  Environments are association lists, most
recent binding first, and lookup takes the first match.  All state is
immutable; successive states share structure.

Closures and states are hashcons.Frozen __slots__ classes, not
dataclasses: a constructor that stores through the slot descriptors
costs a fraction of a frozen dataclass's.  Assigning a field raises
AttributeError all the same.  ==, hash and repr walk closures with
explicit stacks, so nesting depth is not limited by the interpreter's
recursion limit; copy and pickle rebuild them through the constructor.

Transitions:

    (t u, e, S)        -> sea   (t, e, (u, e) . S)
    (\\x.t, e, c . S)   -> beta  (t, [x <- c] . e, S)
    (x, e, S)          -> sub   (u, e', S)        where e(x) = (u, e')

A state with abstraction code and empty stack has no transition; for
closed terms that is the only way a run ends.

This module also holds the run core both machines share.  A run fires
on bare (code, env, stack) triples and builds a MachState for its last
state alone, so its memory grows with its space, not its transitions.
A Run stores no trace: the machines are deterministic, so Run.trace and
Run.states replay the run from its initial state on first use.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

from .hashcons import Frozen, postorder
from .terms import Abs, App, Term, Var, _subst_sim, print_term


class OpenTerm(Exception):
    """Only closed terms can be loaded into the machine."""


class StuckState(Exception):
    """A variable had no binding: the state was not reachable from a
    closed term."""


class _Sized(Frozen):
    __slots__ = ("_size",)  # Closure.size once worked out, else None


class Closure(_Sized):
    """A code term with an environment binding its free variables.

    Immutable: assigning or deleting a field raises AttributeError.  ==
    compares code and environment in full, hash reads the code and the
    environment's names only, and neither recurses, so closures nest to
    any depth."""

    __slots__ = ("code", "env")

    def __init__(self, code: Term, env: "Env", size: int | None = None):
        _set_closure_code(self, code)
        _set_closure_env(self, env)
        _set_closure_size(self, size)

    @property
    def size(self) -> int:
        """Pointer count: 1 plus the sizes of the closures in env.

        Worked out on first use (the Space KAM passes it as it builds a
        closure) and cached on every closure the walk visits, so a
        closure shared by many states is walked once.  The walk is
        iterative: depth is not limited by the recursion limit."""
        if self._size is None:
            for c in postorder((self,), _env_closures, _size_of):
                _set_closure_size(c, 1 + sum(map(_size_of, _env_closures(c))))
        return self._size

    def __eq__(self, other):
        if other.__class__ is not Closure:
            return NotImplemented
        return self is other or _pairs_equal([(self, other)])

    def __hash__(self):
        return hash((self.code, tuple(x for x, _ in self.env)))


_set_closure_code = Closure.code.__set__
_set_closure_env = Closure.env.__set__
_set_closure_size = Closure._size.__set__


_size_of = attrgetter("_size")  # None until worked out; a size is at least 1
_second = itemgetter(1)


def _env_closures(c: Closure):
    return map(_second, c.env)


# association list, most recent binding first
Env = tuple[tuple[str, Closure], ...]
Stack = tuple[Closure, ...]

EMPTY_ENV: Env = ()


class MachState(Frozen):
    """A machine state: code, environment and stack.

    Immutable, and compared, hashed and printed like a closure with a
    stack: without recursion, however deep its closures nest."""

    __slots__ = ("code", "env", "stack")

    def __init__(self, code: Term, env: Env, stack: Stack):
        _set_state_code(self, code)
        _set_state_env(self, env)
        _set_state_stack(self, stack)

    def __eq__(self, other):
        if other.__class__ is not MachState:
            return NotImplemented
        if self is other:
            return True
        if len(self.stack) != len(other.stack):
            return False
        # a state has code and env like a closure, and is compared like one
        return _pairs_equal([(self, other), *zip(self.stack, other.stack)])

    def __hash__(self):
        return hash((self.code, tuple(x for x, _ in self.env), len(self.stack)))


_set_state_code = MachState.code.__set__
_set_state_env = MachState.env.__set__
_set_state_stack = MachState.stack.__set__


def _pairs_equal(pairs: list) -> bool:
    """Whether each pair of closures (or states, taken as their code and
    env) in pairs is equal: one walk with an explicit stack that
    compares each pair of objects once, however deep or shared the
    closures are.  The caller holds both sides alive, so ids are
    stable."""
    seen = set()
    while pairs:
        c, d = pairs.pop()
        if c is d or (id(c), id(d)) in seen:
            continue
        seen.add((id(c), id(d)))
        if c.code is not d.code or len(c.env) != len(d.env):
            return False
        for (x, c2), (y, d2) in zip(c.env, d.env):
            if x != y:
                return False
            pairs.append((c2, d2))
    return True


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
    label order, the number of transitions, and the fire function that
    made it (kam_fire or skam_fire).  space and time are the space
    machine's measures, None for a plain run.

    A run stores no trace.  The machines are deterministic, so the
    initial state, the fire function and the transition count determine
    every state in between: trace and states replay the run on first
    use, and the replayed trace is cached on the run."""

    initial: MachState
    last: MachState
    final_reached: bool
    counts: dict
    transitions: int
    step: Callable[[Term, Env, Stack], tuple | None]
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
        code, env, stack = cur.code, cur.env, cur.stack
        for i in range(1, self.transitions + 1):
            nxt = self.step(code, env, stack)
            if nxt is None:
                raise ReplayMismatch(f"replay reached a final state at transition {i}")
            label, code, env, stack = nxt
            cur = MachState(code, env, stack)
            yield label, cur
            counts[label] += 1
        if counts != self.counts:
            raise ReplayMismatch(f"replay counts {counts} differ from the run's {self.counts}")
        if cur != self.last:
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


def compile(t: Term) -> MachState:
    """Initial state for a closed term: empty environment and stack."""
    if t.fv:
        raise OpenTerm(f"term has free variables: {', '.join(sorted(t.fv))}")
    return MachState(t, (), ())


def fire_state(fire, s: MachState) -> tuple[str, MachState] | None:
    """fire on s's fields, as (label, next state), or None when s is final."""
    nxt = fire(s.code, s.env, s.stack)
    return None if nxt is None else (nxt[0], MachState(nxt[1], nxt[2], nxt[3]))


def kam_fire(t: Term, env: Env, stack: Stack) -> tuple | None:
    """One transition as (label, code, env, stack), or None when final."""
    if type(t) is App:
        return LABEL_SEA, t.fun, env, (Closure(t.arg, env),) + stack
    if type(t) is Abs:
        if not stack:
            return None
        return LABEL_BETA, t.body, ((t.binder, stack[0]),) + env, stack[1:]
    c = env_lookup(env, t.name)
    if c is None:
        raise StuckState(f"variable {t.name} has no binding in the environment")
    return LABEL_SUB, c.code, c.env, stack


def kam_step(s: MachState) -> tuple[str, MachState] | None:
    """One transition, or None when s is final."""
    return fire_state(kam_fire, s)


def run_machine(fire, labels, s: MachState, fuel: int, on_step=None) -> Run:
    """Fire from s for at most fuel transitions, building a MachState
    for the last state alone.  fire(code, env, stack) returns (label,
    code, env, stack), or None on a final state; labels are every label
    it can return.  on_step, when given, is called with each 4-tuple."""
    counts = dict.fromkeys(labels, 0)
    code, env, stack = s.code, s.env, s.stack
    for n in range(fuel):
        nxt = fire(code, env, stack)
        if nxt is None:
            return Run(s, MachState(code, env, stack), True, counts, n, fire)
        label, code, env, stack = nxt
        counts[label] += 1
        if on_step is not None:
            on_step(nxt)
    return Run(s, MachState(code, env, stack), fire(code, env, stack) is None, counts, fuel, fire)


def kam_run(s: MachState, fuel: int) -> Run:
    """Run for at most fuel transitions."""
    return run_machine(kam_fire, KAM_LABELS, s, fuel)


# ---------------------------------------------------------------------------
# decoding and serialization

def _used_bindings(d: Closure) -> dict:
    """The first binding of each free variable of d's code, in env
    order: the only bindings d's read-back depends on."""
    fv = d.code.fv
    out = {}
    for x, e in d.env:
        if len(out) == len(fv):
            break
        if x in fv and x not in out:
            out[x] = e
    return out


def _decode_closure(c: Closure, memo: dict) -> Term:
    # (t, e) reads back as t{x := read-back of e(x)} for the first
    # binding of each x free in t, all substituted at once; no other
    # binding is read back.  memo maps the id of each closure read back
    # to its term, used of each closure in the walk to _used_bindings;
    # closures compare in full, and the caller holds them all alive.
    used: dict = {}

    def children(d):
        if id(d) not in used:
            used[id(d)] = _used_bindings(d)
        return used[id(d)].values()

    for d in postorder((c,), children, lambda d: id(d) in memo):
        sigma = {x: memo[id(e)] for x, e in used.pop(id(d)).items()}
        avoid = frozenset().union(*[u.fv for u in sigma.values()])
        memo[id(d)] = _subst_sim(d.code, sigma, avoid) if sigma else d.code
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


def _state_row(head: dict, s: MachState) -> str:
    """json.dumps' text of head plus s's code, env and stack, closures
    as {"code", "env"} and environments as [[x, closure], ...], written
    pre-order from an explicit stack: a shared closure is written in
    full wherever it occurs, each code term is printed once per row."""
    import json  # only --trace writes rows: importing the package need not load json

    codes: dict = {}  # code term -> its JSON string
    out = [json.dumps(head)[:-1]]
    work = ["}", s.stack, ', "stack": ', s.env, ', "env": ', s.code, ', "code": ']
    while work:
        x = work.pop()
        if type(x) is str:
            out.append(x)
        elif type(x) is Closure:
            work += ("}", x.env, ', "env": ', x.code, '{"code": ')
        elif type(x) is tuple:  # an env of (name, closure) pairs or a stack of closures
            work.append("]")
            for i in range(len(x) - 1, -1, -1):
                e = x[i]
                work += ("]", e[1], f"[{json.dumps(e[0])}, ") if type(e) is tuple else (e,)
                if i:
                    work.append(", ")
            work.append("[")
        else:
            if x not in codes:
                codes[x] = json.dumps(print_term(x))
            out.append(codes[x])
    return "".join(out)


def run_trace_rows(run: Run):
    """One JSON line per transition: the step number, the label, the
    state size for a measured run, and the state it produced.  Step
    numbers start at 1; the initial state is step 0 and has no row.
    The rows stream from a replay of the run (Run.replay), which is not
    cached."""
    for i, (label, s) in enumerate(run.replay(), start=1):
        head = {"step": i, "label": label}
        if run.space is not None:
            head["size"] = state_size(s)
        yield _state_row(head, s)


def run_summary(run: Run) -> dict:
    """Transitions, counts per label, space and time for a measured
    run, and whether the run is complete."""
    out = {"transitions": run.transitions, "counts": dict(run.counts)}
    if run.space is not None:
        out["space"] = run.space
        out["time"] = run.time
    out["complete"] = run.final_reached
    return out
