"""The Krivine machine for closed call-by-name evaluation.

A state is a code subterm, an environment binding its free variables to
closures, and a stack of argument closures (top first, so the top is
the innermost argument).  An environment is linked: a cell (name,
closure, rest), most recent binding first, or () when empty, and lookup
walks the cells to the first match.  A beta builds one cell over the
environment it fired from, so binding a name copies nothing, and
closures and states share every cell below their own.  All state is
immutable; successive states share structure.

Closures and states are hashcons.Frozen __slots__ classes, not
dataclasses: a constructor that stores through the slot descriptors
costs a fraction of a frozen dataclass's.  Assigning a field raises
AttributeError all the same.  ==, hash and repr walk closures and
environments with explicit stacks, so neither nesting nor environment
depth is limited by the interpreter's recursion limit.  A raw
environment or stack is a nested tuple, so it never meets Python's own
tuple ==, hash or pickle, which recurse: _pairs_equal compares them and
Rows writes them.

Rows, the one row writer of pickle, derivation files and trace rows,
numbers each term, closure, env cell and stack cell once, so a shared
tail is written once and a state is three indices; read_rows is the one
reader, for files and unpickling alike, at any depth.

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
from them, on each read.  The fire functions, and so Run.fires, give a
transition's label as its index in KAM_LABELS or SKAM_LABELS, so a run
and a replay count it in a list slot.  Each fire function carries its
machine's label names as fire.labels, and a label leaves the machines
only as its name, read from those: in Run.counts, Run.trace, trace rows
and the summary.

The stack is linked too, in the fire functions and in MachState.stack
alike: a cell (top, rest), or () when empty.  A push builds one cell
over the stack it was given and a pop returns the rest, so neither
copies the stack, successive stacks share every cell below their top,
and a run, its replay and its states all hold the one chain; nothing
converts at a run's or a replay's edge, nor where a state meets a
format.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat, tee
from operator import attrgetter, itemgetter

from .hashcons import Frozen, decode_table, json_index, postorder
from .terms import Abs, App, Term, TermTable, _name, _subst_sim, term_entry


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
    environment's names only, and neither recurses, so closures nest and
    environments link to any depth."""

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
        return hash((self.code, env_names(self.env)))

    def __reduce__(self):
        rows = Rows()
        i = rows.add(self)
        return _from_rows, (rows.terms.entries, rows.closures, i)


_set_closure_code = Closure.code.__set__
_set_closure_env = Closure.env.__set__
_set_closure_size = Closure._size.__set__


_size_of = attrgetter("_size")  # None until worked out; a size is at least 1
_second = itemgetter(1)

Env = tuple  # a linked environment: () or (name, closure, the cells below it)
Stack = tuple  # a linked stack: () or (top closure, the cells below it)


def env_pairs(e: Env) -> tuple:
    """A linked environment as (name, closure) pairs, most recent
    binding first."""
    out = []
    while e:
        x, c, e = e
        out.append((x, c))
    return tuple(out)


def env_names(e: Env) -> tuple:
    """The names a linked environment binds, most recent first."""
    out = []
    while e:
        out.append(e[0])
        e = e[2]
    return tuple(out)


def _env_closures(c: Closure) -> list:
    """The closures c's environment binds (c may be a state), most
    recent first."""
    out, e = [], c.env
    while e:
        out.append(e[1])
        e = e[2]
    return out


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
        depth, k = 0, self.stack
        while k:
            depth += 1
            k = k[1]
        return hash((self.code, env_names(self.env), depth))

    def __reduce__(self):
        rows = Rows()
        at = rows.state(self.code, self.env, self.stack)
        return _from_rows, (rows.terms.entries, rows.closures, *at.values())


_set_state_code = MachState.code.__set__
_set_state_env = MachState.env.__set__
_set_state_stack = MachState.stack.__set__


def _held(x) -> tuple:
    """What a closure, an env cell, a stack cell or () holds below it,
    as Rows numbers them: a closure's env, a cell's closure and rest."""
    if x.__class__ is Closure:
        return (x.env,)
    return x[1:] if len(x) == 3 else x


class Rows:
    """The terms table (terms.TermTable) and the closures table, whose
    entries are closures {"code": term, "env": e}, env cells {"name": x,
    "closure": c, "rest": e}, stack cells {"top": c, "rest": k} and the
    empty chain {}.  add(x) numbers x and all below it once, children
    first (hashcons.postorder), and returns x's entry; equal values
    share one.  Lookups go by id(), and the writer holds what it
    numbered, so the ids stay theirs."""

    def __init__(self):
        self.terms = TermTable()
        self.closures: list = []
        self._at: dict = {}  # an entry's key -> its index
        self._ids: dict = {}  # id(value) -> (its index, the value, kept alive)

    def add(self, x) -> int:
        ids = self._ids
        if id(x) not in ids:
            for y in postorder((x,), _held, lambda y: id(y) in ids):
                key = tuple(ids[id(z)][0] for z in _held(y))
                if y.__class__ is Closure:
                    key = (y.code, *key)
                elif len(y) == 3:
                    key = (y[0], *key)
                i = self._at.get(key)
                if i is None:
                    i = self._at[key] = len(self.closures)
                    self.closures.append(self._entry(key))
                ids[id(y)] = i, y
        return ids[id(x)][0]

    def _entry(self, key) -> dict:
        if len(key) == 3:
            return {"name": key[0], "closure": key[1], "rest": key[2]}
        if not key:
            return {}
        if type(key[0]) is int:
            return {"top": key[0], "rest": key[1]}
        return {"code": self.terms.add(key[0]), "env": key[1]}

    def state(self, code, env, stack) -> dict:
        """A state's entries, as {"code": term, "env": e, "stack": k}."""
        return {"code": self.terms.add(code), "env": self.add(env), "stack": self.add(stack)}


_KINDS = {Closure: "a closure", 3: "an environment", 2: "a stack"}


def row_at(built, i, kind):
    """Entry i of a closures table read_rows decoded, which must be of
    kind: Closure, or 3 for an environment and 2 for a stack (a cell of
    that length, or the empty chain)."""
    x = built[json_index(i, len(built))]
    if (x.__class__ is Closure) if kind is Closure else (x.__class__ is tuple and len(x) in (0, kind)):
        return x
    raise ValueError(f"closures[{i}] is not {_KINDS[kind]}")


def _row_entry(terms, e, done):
    keys = e.keys() if isinstance(e, dict) else None
    if keys == {"code", "env"}:
        return Closure(terms[json_index(e["code"], len(terms))], row_at(done, e["env"], 3))
    if keys == {"name", "closure", "rest"}:
        return _name(e["name"]), row_at(done, e["closure"], Closure), row_at(done, e["rest"], 3)
    if keys == {"top", "rest"}:
        return row_at(done, e["top"], Closure), row_at(done, e["rest"], 2)
    if e == {}:
        return ()
    raise ValueError(f"not a closure, env cell or stack cell: {e!r}")


def read_rows(terms, closures) -> tuple:
    """The terms and closures tables Rows wrote, decoded entry by entry,
    each built once and shared by every entry that names it; a
    ValueError names the entry, as closures[3]: ..."""
    terms = decode_table(terms, "terms", term_entry)
    return terms, decode_table(closures, "closures", partial(_row_entry, terms))


def _from_rows(terms, closures, *at):
    """The closure (one index) or state (code, env and stack) pickled
    as the rows of one Rows."""
    terms, built = read_rows(terms, closures)
    return built[at[0]] if len(at) == 1 else MachState(terms[at[0]], built[at[1]], built[at[2]])


def _pairs_equal(pairs: list) -> bool:
    """Whether each pair in pairs is equal: closures, states (code, env
    and stack), tuples (environment and stack cells, paired element by
    element, identical elements skipped), or other values (terms, say),
    compared by ==.  One walk with an explicit stack compares each pair
    of objects once, however deep or shared the closures and chains are,
    so a tail that a pair of closures shares with a pair of states is
    walked once.  The caller holds both sides alive, so ids are stable."""
    seen = set()
    while pairs:
        c, d = pairs.pop()
        if c is d or (id(c), id(d)) in seen:
            continue
        seen.add((id(c), id(d)))
        kind = type(c)
        if kind is not type(d):
            return False
        if kind is tuple:  # an environment or stack cell, or ()
            if len(c) != len(d):
                return False
            pairs += [p for p in zip(c, d) if p[0] is not p[1]]
        elif kind is Closure or kind is MachState:
            if c.code is not d.code:
                return False
            if kind is MachState:
                pairs.append((c.stack, d.stack))
            pairs.append((c.env, d.env))
        elif c != d:
            return False
    return True


def env_restrict(e: Env, names: frozenset[str]) -> Env:
    """Keep the first binding of each name in names, in entry order.
    Reading stops once every name has its binding.  A kept cell whose
    rest is the restriction of what lies below it is shared, so only
    the cells above a dropped entry are built anew."""
    if len(names) == 1:
        (x,) = names
        while e and e[0] != x:
            e = e[2]
        return e if not e or not e[2] else (x, e[1], ())
    kept = []
    if names:
        seen = set()
        while e:
            x = e[0]
            if x in names and x not in seen:
                kept.append(e)
                seen.add(x)
                if len(seen) == len(names):
                    break
            e = e[2]
    out = ()
    for cell in reversed(kept):
        out = cell if cell[2] is out else (cell[0], cell[1], out)
    return out


# kam_fire's labels are indices into KAM_LABELS, which names them
KAM_LABELS = ("sea", "beta", "sub")
LABEL_SEA, LABEL_BETA, LABEL_SUB = range(len(KAM_LABELS))


def size_env(e: Env) -> int:
    """Pointer count of an environment: the sum of its closures' sizes."""
    sz = 0
    while e:
        sz += e[1].size
        e = e[2]
    return sz


def size_stack(k: Stack) -> int:
    """Pointer count of a stack: the sum of its closures' sizes."""
    sz = 0
    while k:
        sz += k[0].size
        k = k[1]
    return sz


def state_size(s: MachState) -> int:
    """Pointer count of a state: its environment plus its stack."""
    return size_env(s.env) + size_stack(s.stack)


def state_sizes(s: MachState, fired):
    """state_size of s, then of the state after each transition in
    fired, a Space KAM run from s as Run.fires yields it, at O(|env|)
    a state: sizes are read and the stack's kept as run_machine does."""
    stack_sz = size_stack(s.stack)
    yield size_env(s.env) + stack_sz
    prev = s.stack
    for _, _, env, stack in fired:
        if stack is not prev:
            if stack and stack[1] is prev:
                stack_sz += stack[0]._size
            else:
                stack_sz -= prev[0]._size
        prev = stack
        sz = stack_sz
        while env:
            sz += env[1]._size
            env = env[2]
        yield sz


class ReplayMismatch(Exception):
    """Replaying a run from its initial state did not land on the run's
    stored last state with the run's transition counts."""


@dataclass(frozen=True, slots=True)
class Run:
    """A run of either machine: its initial state, the state it stopped
    in, whether that state is final, the transition counts keyed by
    label name, the number of transitions, and the fire function that
    made it (kam_fire or skam_fire), whose step.labels name the label
    indices it returns.  space and time are the space machine's
    measures, None for a plain run.

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
        state; the label is the transition's index in step.labels, and
        the envs and stacks are linked cells, the first over the initial
        state's own.  Raises ReplayMismatch, after the last, unless the
        replay ends on the stored last state with the stored counts: one
        _pairs_equal walk, which pairs each cell and closure once, so on
        the replayed cells as on the run's the check is linear in the
        last state."""
        s, step = self.initial, self.step
        names = step.labels
        counts = [0] * len(names)
        code, env, stack = s.code, s.env, s.stack
        for i in range(1, self.transitions + 1):
            nxt = step(code, env, stack)
            if nxt is None:
                raise ReplayMismatch(f"replay reached a final state at transition {i}")
            yield nxt
            label, code, env, stack = nxt
            counts[label] += 1
        counts = dict(zip(names, counts))
        if counts != self.counts:
            raise ReplayMismatch(f"replay counts {counts} differ from the run's {self.counts}")
        last = self.last
        if not (code is last.code and _pairs_equal([(env, last.env), (stack, last.stack)])):
            raise ReplayMismatch("replay ends in a state other than the run's last state")

    @property
    def trace(self) -> tuple[tuple[str, MachState], ...]:
        """One (label name, state) pair per transition, built from fires
        anew; each state holds the replay's cells as they are."""
        names = self.step.labels
        return tuple((names[label], MachState(code, env, stack)) for label, code, env, stack in self.fires())


def compile(t: Term) -> MachState:
    """Initial state for a closed term: empty environment and stack."""
    if t.fv:
        raise OpenTerm(f"term has free variables: {', '.join(sorted(t.fv))}")
    return MachState(t, (), ())


def kam_fire(t: Term, env: Env, stack: Stack) -> tuple | None:
    """One transition as (label, code, env, stack), or None when final;
    the label is the transition's index in KAM_LABELS, and the envs and
    stacks are linked cells: a beta binds its name in one cell over env,
    and a sub walks the cells to its variable's first binding."""
    if type(t) is App:
        return LABEL_SEA, t.fun, env, (Closure(t.arg, env), stack)
    if type(t) is Abs:
        if not stack:
            return None
        return LABEL_BETA, t.body, (t.binder, stack[0], env), stack[1]
    x = t.name
    while env:  # the first binding of x
        if env[0] == x:
            c = env[1]
            return LABEL_SUB, c.code, c.env, stack
        env = env[2]
    raise StuckState(f"variable {x} has no binding in the environment")


kam_fire.labels = KAM_LABELS


def run_machine(fire, s: MachState, fuel: int, sized: bool = False) -> Run:
    """Fire from s for at most fuel transitions, building a MachState
    for the last state alone.  fire(code, env, stack) takes and returns
    the env and the stack as linked cells, and returns (label, code,
    env, stack), or None on a final state, its label an index into
    fire.labels, the names of every transition it can fire.  A step
    counts into the label's list slot, and the run names the counts
    once, in Run.counts.  A sized run keeps its space and time, the max and sum
    of its state sizes, as it goes: the opening sums size every closure
    reachable from s, fire must size each closure it builds (skam_fire
    does), and a step reads stored sizes, keeping the stack's as a push
    adds the top's and a pop takes it off: O(|env|) a step.  A push is
    told from a pop by identity, as the new cell over the old stack, and
    each fire tuple is unpacked once."""
    if fuel < 0:
        raise ValueError(f"fuel must be at least 0, not {fuel}")
    labels = fire.labels
    counts = [0] * len(labels)
    code, env, stack = s.code, s.env, s.stack
    stack_sz = size_stack(stack) if sized else 0
    space = time = size_env(env) + stack_sz if sized else None
    for n in range(fuel):
        nxt = fire(code, env, stack)
        if nxt is None:
            return Run(s, MachState(code, env, stack), True, dict(zip(labels, counts)), n, fire, space, time)
        prev = stack
        label, code, env, stack = nxt
        counts[label] += 1
        if sized:
            if stack is not prev:
                if stack and stack[1] is prev:
                    stack_sz += stack[0]._size
                else:
                    stack_sz -= prev[0]._size
            sz, e = stack_sz, env
            while e:
                sz += e[1]._size
                e = e[2]
            space = sz if sz > space else space
            time += sz
    final = fire(code, env, stack) is None
    return Run(s, MachState(code, env, stack), final, dict(zip(labels, counts)), fuel, fire, space, time)


def kam_run(s: MachState, fuel: int) -> Run:
    """Run for at most fuel transitions."""
    return run_machine(kam_fire, s, fuel)


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
            used[id(d)] = env_pairs(env_restrict(d.env, d.code.fv))
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
    t, k = _decode_closure(Closure(s.code, s.env), memo), s.stack
    while k:
        t = App(t, _decode_closure(k[0], memo))
        k = k[1]
    return t


def run_trace_rows(run: Run):
    """One JSON line per transition, streamed from a replay of the run:
    the step number (from 1), the label's name, the state size for a
    measured run (state_sizes), and the state as Rows.state writes it,
    three indices.  Each entry of the writer's tables is written once, on a
    line of its own tagged with its table and index, {"terms": i, ...}
    or {"closures": i, ...}, just before the first line that names it."""
    import json  # only --trace writes rows: importing the package need not load json

    rows = Rows()
    tables = (("terms", rows.terms.entries), ("closures", rows.closures))
    names, fired, sizes = run.step.labels, run.fires(), repeat(None)
    if run.space is not None:
        fired, ahead = tee(fired)
        sizes = islice(state_sizes(run.initial, ahead), 1, None)  # no row for the initial state
    for i, ((label, code, env, stack), size) in enumerate(zip(fired, sizes), start=1):
        written = [len(entries) for _, entries in tables]
        state = rows.state(code, env, stack)
        for (name, entries), start in zip(tables, written):
            for j in range(start, len(entries)):
                yield json.dumps({name: j, **entries[j]})
        row = {"step": i, "label": names[label]}
        if size is not None:
            row["size"] = size
        row.update(state)
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
