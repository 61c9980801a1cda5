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
recursion limit; copy and pickle rebuild them from the flat table of
the closures they hold (ClosureRows), at any depth.

Transitions:

    (t u, e, S)        -> sea   (t, e, (u, e) . S)
    (\\x.t, e, c . S)   -> beta  (t, [x <- c] . e, S)
    (x, e, S)          -> sub   (u, e', S)        where e(x) = (u, e')

A state with abstraction code and empty stack has no transition; for
closed terms that is the only way a run ends.

This module also holds the run core both machines share.  A run fires
on bare (code, env, stack) triples and builds a MachState for its last
state alone, so its memory grows with its space, not its transitions,
and a sized run keeps its space and time as it goes.  A Run stores no
trace: the machines are deterministic, so Run.fires replays the run's
bare tuples, which the extractors walk, and Run.trace the states built
from them, on each read.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice, repeat, tee
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

    def __reduce__(self):
        return _from_table, _table(self.code, self.env, None)


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
        return self is other or _pairs_equal([(self, other)])

    def __hash__(self):
        return hash((self.code, tuple(x for x, _ in self.env), len(self.stack)))

    def __reduce__(self):
        return _from_table, _table(self.code, self.env, self.stack)


_set_state_code = MachState.code.__set__
_set_state_env = MachState.env.__set__
_set_state_stack = MachState.stack.__set__


class ClosureRows:
    """The one closure table of pickle, derivation files and trace rows:
    row i is (code, ((name, row), ...)), children first, and equal
    closures share a row.  add(c) numbers c and the closures below it
    (hashcons.postorder) and returns c's row.  Lookups go by id(); the
    table holds every closure it numbered, so the ids stay theirs."""

    def __init__(self):
        self.rows: list = []
        self._at: dict = {}  # row -> its index
        self._ids: dict = {}  # id(closure) -> (its row, the closure, kept alive)

    def add(self, c: Closure) -> int:
        ids = self._ids
        if id(c) not in ids:
            for d in postorder((c,), _env_closures, lambda d: id(d) in ids):
                row = (d.code, tuple((x, ids[id(e)][0]) for x, e in d.env))
                i = self._at.get(row)
                if i is None:
                    i = self._at[row] = len(self.rows)
                    self.rows.append(row)
                ids[id(d)] = i, d
        return ids[id(c)][0]


def _table(code, env, stack) -> tuple:
    """A closure (stack None) or a state as the arguments of _from_table:
    the rows of every closure it holds (ClosureRows), then its code, its
    env as (name, row) pairs and its stack as rows."""
    table = ClosureRows()
    env = tuple((x, table.add(c)) for x, c in env)
    return table.rows, code, env, None if stack is None else tuple(map(table.add, stack))


def _from_table(rows, code, env, stack):
    """The closure or state _table wrote, built row by row."""
    built: list = []
    for c, e in rows:
        built.append(Closure(c, tuple((x, built[i]) for x, i in e)))
    env = tuple((x, built[i]) for x, i in env)
    if stack is None:
        return Closure(code, env)
    return MachState(code, env, tuple(built[i] for i in stack))


def _pairs_equal(pairs: list) -> bool:
    """Whether each pair in pairs is equal: pairs of closures, of states
    (code, env and stack) or of environments.  One walk with an explicit
    stack compares each pair of objects once, however deep or shared the
    closures are.  The caller holds both sides alive, so ids are stable."""
    seen = set()
    while pairs:
        c, d = pairs.pop()
        if c is d or (id(c), id(d)) in seen:
            continue
        seen.add((id(c), id(d)))
        if type(c) is not tuple:  # a closure or a state, not an environment
            if c.code is not d.code:
                return False
            if type(c) is MachState:
                if len(c.stack) != len(d.stack):
                    return False
                pairs += zip(c.stack, d.stack)
            c, d = c.env, d.env
        if len(c) != len(d):
            return False
        for (x, c2), (y, d2) in zip(c, d):
            if x != y:
                return False
            pairs.append((c2, d2))
    return True


def env_restrict(e: Env, names: frozenset[str]) -> Env:
    """Keep the first binding of each name in names, in entry order.
    Reading stops once every name has its binding."""
    out = []
    seen = set()
    for binding in e if names else ():
        x = binding[0]
        if x in names and x not in seen:
            out.append(binding)
            seen.add(x)
            if len(seen) == len(names):
                break
    return tuple(out)


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


def state_sizes(s: MachState, fired):
    """state_size of s, then of the state after each transition in
    fired, a Space KAM run from s as Run.fires yields it, at O(|env|)
    a state: sizes are read and the stack's kept as run_machine does."""
    prev, stack_sz = s.stack, sum(c.size for c in s.stack)
    depth = len(prev)
    yield size_env(s.env) + stack_sz
    for _, _, env, stack in fired:
        d = len(stack)
        if d > depth:
            stack_sz += stack[0]._size
        elif d < depth:
            stack_sz -= prev[0]._size
        prev, depth = stack, d
        sz = stack_sz
        for _, c in env:
            sz += c._size
        yield sz


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
    every state in between: fires and trace replay the run on each
    read, and nothing of a replay is kept on the run."""

    initial: MachState
    last: MachState
    final_reached: bool
    counts: dict
    transitions: int
    step: Callable[[Term, Env, Stack], tuple | None]
    space: int | None = None
    time: int | None = None

    @property
    def final(self) -> MachState | None:
        """The final state, or None when the run stopped on fuel."""
        return self.last if self.final_reached else None

    def fires(self):
        """Fire step from the initial state again, yielding each (label,
        code, env, stack) it returns, one per transition, building no
        state.  Raises ReplayMismatch, after the last, unless the replay
        ends on the stored last state with the stored counts."""
        counts = dict.fromkeys(self.counts, 0)
        s, step = self.initial, self.step
        code, env, stack = s.code, s.env, s.stack
        for i in range(1, self.transitions + 1):
            nxt = step(code, env, stack)
            if nxt is None:
                raise ReplayMismatch(f"replay reached a final state at transition {i}")
            yield nxt
            label, code, env, stack = nxt
            counts[label] += 1
        if counts != self.counts:
            raise ReplayMismatch(f"replay counts {counts} differ from the run's {self.counts}")
        last = self.last
        same = code is last.code and len(stack) == len(last.stack)
        if not (same and _pairs_equal([(env, last.env), *zip(stack, last.stack)])):
            raise ReplayMismatch("replay ends in a state other than the run's last state")

    @property
    def trace(self) -> tuple[tuple[str, MachState], ...]:
        """One (label, state) pair per transition, built from fires anew."""
        return tuple((label, MachState(code, env, stack)) for label, code, env, stack in self.fires())


def compile(t: Term) -> MachState:
    """Initial state for a closed term: empty environment and stack."""
    if t.fv:
        raise OpenTerm(f"term has free variables: {', '.join(sorted(t.fv))}")
    return MachState(t, (), ())


def kam_fire(t: Term, env: Env, stack: Stack) -> tuple | None:
    """One transition as (label, code, env, stack), or None when final."""
    if type(t) is App:
        return LABEL_SEA, t.fun, env, (Closure(t.arg, env),) + stack
    if type(t) is Abs:
        if not stack:
            return None
        return LABEL_BETA, t.body, ((t.binder, stack[0]),) + env, stack[1:]
    x = t.name
    for y, c in env:  # the first binding of x
        if y == x:
            return LABEL_SUB, c.code, c.env, stack
    raise StuckState(f"variable {x} has no binding in the environment")


def run_machine(fire, labels, s: MachState, fuel: int, sized: bool = False) -> Run:
    """Fire from s for at most fuel transitions, building a MachState
    for the last state alone.  fire(code, env, stack) returns (label,
    code, env, stack), or None on a final state; labels are every label
    it can return.  A sized run keeps its space and time, the max and
    sum of its state sizes, as it goes: the opening sums size every
    closure reachable from s, fire must size each closure it builds
    (skam_fire does), and a step reads stored sizes, keeping the stack's
    as a push adds the top's and a pop takes it off: O(|env|) a step.
    The stack's depth is kept in a local too, so a sized step makes one
    len() call, and each fire tuple is unpacked once."""
    if fuel < 0:
        raise ValueError(f"fuel must be at least 0, not {fuel}")
    counts = dict.fromkeys(labels, 0)
    code, env, stack = s.code, s.env, s.stack
    depth = len(stack)
    stack_sz = sum(c.size for c in stack) if sized else 0
    space = time = size_env(env) + stack_sz if sized else None
    for n in range(fuel):
        nxt = fire(code, env, stack)
        if nxt is None:
            return Run(s, MachState(code, env, stack), True, counts, n, fire, space, time)
        prev = stack
        label, code, env, stack = nxt
        counts[label] += 1
        if sized:
            d = len(stack)
            if d > depth:
                stack_sz += stack[0]._size
            elif d < depth:
                stack_sz -= prev[0]._size
            depth = d
            sz = stack_sz
            for _, c in env:
                sz += c._size
            space = sz if sz > space else space
            time += sz
    last = MachState(code, env, stack)
    return Run(s, last, fire(code, env, stack) is None, counts, fuel, fire, space, time)


def kam_run(s: MachState, fuel: int) -> Run:
    """Run for at most fuel transitions."""
    return run_machine(kam_fire, KAM_LABELS, s, fuel)


# ---------------------------------------------------------------------------
# decoding and serialization

def _decode_closure(c: Closure, memo: dict) -> Term:
    # (t, e) reads back as t{x := read-back of e(x)} for the first
    # binding of each x free in t, all substituted at once; no other
    # binding is read back.  memo maps the id of each closure read back
    # to its term, used of each closure in the walk to those bindings;
    # closures compare in full, and the caller holds them all alive.
    used: dict = {}

    def children(d):
        if id(d) not in used:
            used[id(d)] = env_restrict(d.env, d.code.fv)
        return map(_second, used[id(d)])

    for d in postorder((c,), children, lambda d: id(d) in memo):
        sigma = {x: memo[id(e)] for x, e in used.pop(id(d))}
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


def run_trace_rows(run: Run):
    """One JSON line per transition, streamed from a replay of the run:
    the step number (from 1), the label, the state size for a measured
    run (state_sizes), and the state's code, env [[x, i], ...] and stack
    [i, ...], where i is a closure's row in one ClosureRows.  Each
    closure row is written once, as {"closure": i, "code", "env"}, on a
    line of its own just before the first line that names it."""
    import json  # only --trace writes rows: importing the package need not load json

    table = ClosureRows()
    fired, sizes = run.fires(), repeat(None)
    if run.space is not None:
        fired, ahead = tee(fired)
        sizes = islice(state_sizes(run.initial, ahead), 1, None)  # no row for the initial state
    for i, ((label, code, env, stack), size) in enumerate(zip(fired, sizes), start=1):
        written = len(table.rows)
        env = [[x, table.add(c)] for x, c in env]
        stack = [table.add(c) for c in stack]
        for j in range(written, len(table.rows)):
            code_j, e = table.rows[j]
            yield json.dumps({"closure": j, "code": print_term(code_j), "env": e})
        row = {"step": i, "label": label}
        if size is not None:
            row["size"] = size
        row.update(code=print_term(code), env=env, stack=stack)
        yield json.dumps(row)


def run_summary(run: Run) -> dict:
    """Transitions, counts per label, space and time for a measured
    run, and whether the run is complete."""
    out = {"transitions": run.transitions, "counts": dict(run.counts)}
    if run.space is not None:
        out["space"] = run.space
        out["time"] = run.time
    out["complete"] = run.final_reached
    return out
