"""Rebuilding weighted derivations from complete machine runs.

A run stores no trace; extract and extract_kam replay it into locals
of their own as bare (label, code, env, stack) tuples (Run.fires, which
checks the replay against the run's last state and counts), each label
the index of an undo rule of its own machine, so each refuses a run of
the other machine's fire function with a ValueError; they build a
MachState for the final state alone, and read sizes from one forward
count that keeps the stack's as the run loop does (state_sizes).  The
replayed environments and stacks are the machines' linked cells, so
successive states share them and the replay holds memory linear in the
run.

extract walks the run back to front.  The final state gets the
canonical typing: its code typed by TLamStar, every closure dry (an
empty multi at the closure's own size), everything at weight zero but
the closing abstraction, which weighs the final environment.  Each
transition is then undone by the rule that matches it.  A state typing
is a term derivation for the code plus typings of the environment and
of the stack, and only the term derivation is minted as it goes: a
closure typing is kept as a bag of uses of the closure's code, each
with a typing of the closure's environment, and two typings of one
closure merge in O(1).  An environment typing is one dict, a bag per
name, changed in place: a sub hands it to its bag and starts a new one,
so no bag holds the dict a beta or a sea changes, and no step copies
the typing of every live name.  A bag is opened once, when undoing the
sea_nv transition that created its closure: that mints the argument's
TMany over every use in merge order (or TNone when there are none) and
merges the uses' environment typings into the state's.  The state
judgments (TSt, TEnv, TCl) are never minted, and every node extract
mints lands in the tree it returns.

Term nodes are hash-consed per call, keyed on their rule's inputs: the
rule, the code, the premises' ids and the one value the rule reads
besides them.  Each undo looks its key up first and builds the node's
context and type only for a key it has not seen, so a repeated step
builds no type, and each distinct subtree is minted once: the tree
comes back as a DAG, which the checker and the file encoder read place
by place.

Every node is minted with both weights: space as its stored judgment
weight, time in the node's own time field, which judgments, equality
and JSON ignore.  Bags and stack typings carry the weights their nodes
would have, and environment typings' are worked out where read, as the
checker's TCl, TEnv and TSt rules join them (max in space, sum in
time), so each state's weights are known without minting it, and every
undo checks the two step equations

    space(source) = max(size(source), space(target))
    time(source)  = size(source) + time(target)

so the root's weights are the run's space and time by induction, with
no summary arithmetic anywhere.  A broken equation raises
StepEquationError, under python -O too.

All multi type indices are canonical here: the index typing a closure
is that closure's size.  Opening a bag asserts this; merging two
typings of the same closure then never has an index clash.

expand, type_final_state, dry_type_closure and dry_type_env give state,
closure and environment judgments of record.  They run the same undo
rules: a read step turns a minted state derivation into bags, and a
mint step opens the bags into TSt, TEnv and TCl nodes; expand first
fills in the time weights of a decoded or hand-built derivation.
Minting and opening keep explicit stacks, so closure nesting depth is
not limited by the recursion limit.

extract_kam does the same backward walk over a plain machine run with
the unindexed rules and the same bags: a sub makes a one-use bag of the
code typing with the target's environment typing, typings of a shared
name join in O(1), a beta opens the binder's bag into the arrow source
and the stack top, and the sea that pushed the closure merges the
bag's environment typings into the state's dict, name by name.  Its
environment and stack typings are not judgments of record, so its bags
carry no closure and no weight; every transition places exactly one
weighted node in the final tree, minted once per distinct subtree, so
the root weight counts the transitions.  Opening and joining
keep explicit stacks, so no nesting depth is limited by the recursion
limit.
"""

from __future__ import annotations

from itertools import islice

from .checker import (
    KIND_CLOSURE,
    KIND_ENV,
    KIND_STATE,
    KIND_TERM,
    R_APP1,
    R_APP2,
    R_CL,
    R_DC_APP,
    R_DC_LAM,
    R_DC_LAM_STAR,
    R_DC_VAR,
    R_ENV,
    R_LAM1,
    R_LAM2,
    R_LAM_STAR,
    R_MANY,
    R_NONE,
    R_ST,
    R_VAR,
    Derivation,
    Judgment,
    rule_weight,
)
from .hashcons import postorder
from .kam import (LABEL_BETA, LABEL_SUB, Closure, Env, MachState, Run, env_names, env_pairs, kam_fire,
                  state_sizes)
from .space_kam import SKAM_LABELS, skam_fire
from .terms import Abs, print_term
from .types import (
    STAR,
    Arrow,
    ClosureMulti,
    DCArrow,
    EMPTY_CONTEXT,
    MultiType,
    Star,
    TypeContext,
    contexts_union,
    size_context,
)


class NotFinal(Exception):
    """The state does not end a run: its code is not an abstraction or
    its stack is not empty."""


class IncompleteRun(Exception):
    """Only complete runs have derivations to rebuild."""


class ShapeMismatch(Exception):
    """The derivation does not describe the target of the given step."""


class StepEquationError(Exception):
    """A rebuilt derivation's weights break an equation they must meet:
    one of extract's step equations, or extract_kam's root weight against
    the transition count."""


def _time_of(d: Derivation) -> None:
    """Fill in the time weights of d's nodes, bottom-up, once.  Nodes
    minted here carry them already; a derivation from outside (decoded
    or built by hand) does not.  A node that carries one is taken to be
    over premises that do."""
    if d.time is None:
        for n in postorder((d,), lambda n: n.premises, lambda n: n.time is not None):
            c = n.conclusion
            t = rule_weight(n.rule, c.context, c.assigned, [p.time for p in n.premises], "time")
            object.__setattr__(n, "time", t)


# ---------------------------------------------------------------------------
# closure, environment and stack typings that are not minted yet

# the kinds of closure typing
_DRY = 0  # the dry typing: no use, weight zero
_USE = 1  # one use: a term derivation of the code, and a typing of the closure's env
_TCL = 2  # a minted TCl derivation with a TMany premise, read back by expand
_JOIN = 3  # two non-dry typings of the same closure, uses of the first first


class _Cl:
    """A typing of a closure, not minted: a bag of uses of its code,
    each with a typing of its environment.  space and time are the weights
    its TCl node would carry, joined as the checker's TCl, TEnv and TSt
    rules join their premises: max in space, sum in time.  extract_kam's
    bags carry no closure and weigh zero: its weights live in the term
    derivations alone."""

    __slots__ = ("closure", "kind", "a", "b", "space", "time")

    def __init__(self, closure, kind, a=None, b=None, space=0, time=0):
        self.closure = closure
        self.kind = kind
        self.a = a
        self.b = b
        self.space = space
        self.time = time


def _join(p: _Cl, q: _Cl) -> _Cl:
    """The typing of one closure with the uses of p, then those of q.
    The dry typing is the unit, so a join is O(1) and never holds one."""
    assert p.closure is q.closure or p.closure == q.closure, (
        "merge of typings of different closures"
    )
    if p.kind == _DRY:
        return q
    if q.kind == _DRY:
        return p
    # TCl over the joined uses: max in space, sum in time
    return _Cl(p.closure, _JOIN, p, q, p.space if p.space > q.space else q.space, p.time + q.time)


def _env_weights(env: dict) -> tuple[int, int]:
    """The weights the TEnv node of an environment typing, a closure
    typing per name, would carry: max in space, sum in time, 0 for none."""
    space = time = 0
    for p in env.values():
        if p.space > space:
            space = p.space
        time += p.time
    return space, time


def _merge(env: dict, other: dict) -> None:
    """Join other's closure typings into env's, name by name, env's
    first.  other is only read."""
    for x, cl in other.items():
        have = env.get(x)
        env[x] = cl if have is None else _join(have, cl)


def _covers(env: dict, e: Env) -> None:
    """Check that a Space KAM env typing types each name of e, no other."""
    names = env_names(e)  # distinct, in a Space KAM env
    assert len(env) == len(names), f"typings cover {sorted(env)}, environment binds {sorted(names)}"
    for x in names:
        assert x in env, f"typings cover {sorted(env)}, not {x}"


def _dry_env(e: Env) -> dict:
    return {x: _Cl(c, _DRY) for x, c in env_pairs(e)}


def _flatten(cl: _Cl) -> tuple[list, list]:
    """The uses in a closure typing, in merge order, and the typings of
    the closure's environment that come with them, from an explicit
    stack.  The dry typing holds none."""
    uses, envs = [], []
    work = [cl]
    while work:
        p = work.pop()
        if p.kind == _JOIN:
            work += (p.b, p.a)
        elif p.kind == _USE:
            uses.append(p.a)
            envs.append(p.b)
        elif p.kind == _TCL:
            uses += p.a.premises[0].premises
            envs.append(_read_env(p.a.premises[1]))
    return uses, envs


class _Stack:
    """A stack of closure typings, top first, as a linked list whose
    cells carry the weights of everything from themselves down."""

    __slots__ = ("top", "rest", "space", "time")

    def __init__(self, top: _Cl, rest: "_Stack | None"):
        self.top = top
        self.rest = rest
        if rest is None:
            self.space, self.time = top.space, top.time
        else:  # max in space, sum in time
            self.space = top.space if top.space > rest.space else rest.space
            self.time = top.time + rest.time


def _dry_context(e: Env) -> TypeContext:
    """One empty multi per binding, at the bound closure's size."""
    return TypeContext(tuple((x, ClosureMulti((), c.size)) for x, c in env_pairs(e)))


def _mint(rule, kind, subject, ctx, assigned, premises) -> Derivation:
    """A new node with both weights stored."""
    premises = tuple(premises)
    w = rule_weight(rule, ctx, assigned, [p.conclusion.weight for p in premises], "space")
    t = rule_weight(rule, ctx, assigned, [p.time for p in premises], "time")
    return Derivation(rule, Judgment(kind, subject, ctx, assigned, w), premises, t)


class _Builder:
    """Mints derivation nodes with both weights stored, opens closure
    typings, and mints the judgments of record.  Term nodes, minted by
    mint_term, are hash-consed per builder on their rule's inputs, so a
    repeated undo step costs one lookup and builds no type.  Dry closure
    typings are minted once per closure object, so repeated discards
    share subtrees; the cache is keyed by id, and each entry holds its
    closure as its subject."""

    def __init__(self, mint_term=_mint):
        self.dry: dict[int, Derivation] = {}
        self.terms: dict[tuple, Derivation] = {}
        self.mint_term = mint_term

    def add(self, key, premises, ctx, assigned) -> Derivation:
        """A new term node of rule key[0] over code key[1] and premises,
        entered in terms under key.  key holds the rule's inputs: the
        premises' ids, which stay theirs while the table holds the node,
        and what else the rule reads.  Callers look key up in terms first
        and work out ctx and assigned only when it is missing.  Each key
        can be read back off its node, so equal subtrees are one node."""
        d = self.terms[key] = self.mint_term(key[0], KIND_TERM, key[1], ctx, assigned, premises)
        return d

    def open(self, cl: _Cl) -> tuple[Derivation, list]:
        """Split a closure typing into the multi judgment for its code,
        TMany over every use in order or TNone, and the typings of its
        environment, in the same order, for the caller to merge: a bag
        may hold them, so they are only read."""
        c = cl.closure
        if cl.kind == _DRY:
            ctx = _dry_context(c.env)
            key = (R_NONE, c.code, ctx)
            none = self.terms.get(key) or self.add(key, (), ctx, ClosureMulti((), 1 + size_context(ctx)))
            return none, [_dry_env(c.env)]
        if cl.kind == _TCL:
            return cl.a.premises[0], [_read_env(cl.a.premises[1])]
        uses, envs = _flatten(cl)
        key = (R_MANY, c.code, tuple(map(id, uses)))
        many = self.terms.get(key)
        if many is None:
            ctx = contexts_union([u.conclusion.context for u in uses])
            a = ClosureMulti([u.conclusion.assigned for u in uses], 1 + size_context(ctx))
            many = self.add(key, uses, ctx, a)
        k = many.conclusion.assigned.index
        assert k == c.size, (
            f"non-canonical index opening a typing of {print_term(c.code)}: "
            f"context size {k - 1}, closure size {c.size}"
        )
        return many, envs

    def env_node(self, e: Env, premises: list) -> Derivation:
        gamma = TypeContext(
            tuple((x, p.conclusion.assigned) for (x, _), p in zip(env_pairs(e), premises))
        )
        return _mint(R_ENV, KIND_ENV, e, EMPTY_CONTEXT, gamma, premises)

    def mint(self, cls: list) -> list:
        """TCl derivations for closure typings, children before parents."""
        done: dict[_Cl, Derivation] = {}  # _Cl hashes by identity
        opened: dict[_Cl, tuple] = {}

        def minted(cl):
            # cl's TCl derivation when one exists without opening cl
            if cl.kind == _TCL:
                return cl.a
            return self.dry.get(id(cl.closure)) if cl.kind == _DRY else None

        def children(cl):
            if minted(cl) is not None:
                return ()
            if cl not in opened:
                code_d, envs = self.open(cl)
                env = {}
                for other in envs:
                    _merge(env, other)
                _covers(env, cl.closure.env)
                opened[cl] = code_d, env
            return opened[cl][1].values()

        for cl in postorder(cls, children, done.__contains__):
            d = minted(cl)
            if d is None:
                c = cl.closure
                code_d, env = opened[cl]
                env_d = self.env_node(c.env, [done[env[x]] for x in env_names(c.env)])
                a = code_d.conclusion.assigned
                d = _mint(R_CL, KIND_CLOSURE, c, EMPTY_CONTEXT, a, (code_d, env_d))
                if cl.kind == _DRY:
                    self.dry[id(c)] = d
            done[cl] = d
        return [done[cl] for cl in cls]

    def mint_state(self, s: MachState, st: tuple) -> Derivation:
        """The TSt derivation of s from a state typing (term, env, stack)."""
        term, env, stack = st
        cls = [env[x] for x in env_names(s.env)]
        n = len(cls)
        while stack is not None:
            cls.append(stack.top)
            stack = stack.rest
        minted = self.mint(cls)
        env_d = self.env_node(s.env, minted[:n])
        return _mint(R_ST, KIND_STATE, s, EMPTY_CONTEXT, STAR, (term, env_d, *minted[n:]))


def _read_closure(d: Derivation) -> _Cl:
    c = d.conclusion.subject
    if d.premises[0].rule == R_NONE:
        return _Cl(c, _DRY)
    return _Cl(c, _TCL, d, None, d.conclusion.weight, d.time)


def _read_env(d: Derivation) -> dict:
    return {x: _read_closure(p) for x, p in zip(env_names(d.conclusion.subject), d.premises)}


def _read_state(d: Derivation) -> tuple:
    """The state typing (term, env, stack) a TSt derivation holds."""
    stack = None
    for p in reversed(d.premises[2:]):
        stack = _Stack(_read_closure(p), stack)
    return d.premises[0], _read_env(d.premises[1]), stack


def _check_final(s: MachState) -> None:
    if type(s.code) is not Abs or s.stack:
        raise NotFinal(
            f"not a final state: code {print_term(s.code)}, stack {'not ' if s.stack else ''}empty"
        )


def _final_typing(b: _Builder, s: MachState) -> tuple:
    ctx = _dry_context(s.env)
    key = (R_LAM_STAR, s.code, ctx)
    lam = b.terms.get(key) or b.add(key, (), ctx, STAR)
    return lam, _dry_env(s.env), None


def dry_type_closure(c: Closure) -> Derivation:
    """The weight-zero typing of c with the empty multi at index |c|."""
    return _Builder().mint([_Cl(c, _DRY)])[0]


def dry_type_env(e: Env) -> tuple[TypeContext, Derivation]:
    """The dry context for e (one empty multi per binding, at the bound
    closure's size) and its weight-zero derivation."""
    b = _Builder()
    d = b.env_node(e, b.mint([_Cl(c, _DRY) for _, c in env_pairs(e)]))
    return d.conclusion.assigned, d


def type_final_state(s: MachState) -> Derivation:
    """The canonical derivation of a final state; its weight is the
    state's size in both modes."""
    _check_final(s)
    b = _Builder()
    return b.mint_state(s, _final_typing(b, s))


# ---------------------------------------------------------------------------
# undoing one transition: each rule takes the source's code, env and
# stack (args, linked cells: args[0] is the top) and the typing (term,
# env, stack) of its target

def expand(prev: Derivation, step: tuple) -> Derivation:
    """Turn a derivation of a transition's target state into one of its
    source state.  step is a (label, source state) pair; the source must
    actually fire that transition into prev's subject."""
    label, source = step
    if prev.rule != R_ST:
        raise ShapeMismatch("only a state derivation can be expanded")
    got = skam_fire(source.code, source.env, source.stack)
    if got is None:
        raise ShapeMismatch("the source state is final and fires nothing")
    if SKAM_LABELS[got[0]] != label:
        raise ShapeMismatch(f"the source state fires {SKAM_LABELS[got[0]]}, not {label}")
    if prev.conclusion.subject != MachState(*got[1:]):
        raise ShapeMismatch(
            "the derivation's subject is not the target of the transition"
        )
    _time_of(prev)
    b = _Builder()
    st = _UNDO[got[0]](b, source.code, source.env, source.stack, _read_state(prev))
    return b.mint_state(source, st)


def _undo_sub(b, code, e, args, st):
    # (x, [x <- c], S) -> (u, e', S): the code typing becomes a use of
    # c, with the target environment's typing as c's environment, and
    # the variable is typed by the singleton multi at c's size
    term, env, stack = st
    x = code.name
    c = e[1]
    a = term.conclusion.assigned
    k = 1 + size_context(term.conclusion.context)
    assert k == c.size, f"non-canonical index {k} for a closure of size {c.size}"
    key = (R_VAR, code, a, k)
    tvar = b.terms.get(key) or b.add(key, (), TypeContext(((x, ClosureMulti((a,), k)),)), a)
    # TCl over TMany over the one use: TMany weighs what the use does,
    # and TCl joins it with the env's, max in space and sum in time; the
    # bag keeps env, and the source gets a new dict
    w = term.conclusion.weight
    es, et = _env_weights(env)
    cl = _Cl(c, _USE, term, env, w if w > es else es, term.time + et)
    return tvar, {x: cl}, stack


def _undo_beta_nw(b, code, e, args, st):
    # (\x.t, e, c . S) -> (t, [x <- c] . e, S) with x free in t: x's
    # typing in the target environment becomes the stack top's typing,
    # and the body typing closes over x
    term, env, stack = st
    x = code.binder
    ctx_plus = term.conclusion.context
    assert x in ctx_plus.names, f"binder {x} missing from the body typing"
    key = (R_LAM1, code, id(term))
    lam = b.terms.get(key) or b.add(
        key, (term,), ctx_plus.minus(x), Arrow(ctx_plus.get(x), term.conclusion.assigned))
    top = env.pop(x)
    return lam, env, _Stack(top, stack)


def _undo_beta_w(b, code, e, args, st):
    # (\x.t, e, c . S) -> (t, e, S) with x not in fv(t): the discarded
    # closure gets the dry typing, the arrow source the empty multi at
    # the closure's size
    term, env, stack = st
    c = args[0]
    key = (R_LAM2, code, id(term), c.size)
    lam = b.terms.get(key) or b.add(
        key, (term,), term.conclusion.context, Arrow(ClosureMulti((), c.size), term.conclusion.assigned))
    return lam, env, _Stack(_Cl(c, _DRY), stack)


def _undo_sea_v(b, code, e, args, st):
    # (t x, e, S) -> (t, e|_t, e(x) . S): the stack top's typing joins
    # x's typing in the environment; the code typing spends the arrow
    term, env, stack = st
    x = code.arg.name
    arrow = term.conclusion.assigned
    key = (R_APP2, code, id(term))
    app = b.terms.get(key) or b.add(
        key, (term,), contexts_union([term.conclusion.context, TypeContext(((x, arrow.arg),))]), arrow.res)
    _merge(env, {x: stack.top})
    _covers(env, e)
    return app, env, stack.rest


def _undo_sea_nv(b, code, e, args, st):
    # (t u, e, S) -> (t, e|_t, (u, e|_u) . S): the stack top's typing
    # is opened into the argument's multi judgment and typings of e|_u,
    # which join the environment's
    term, env, stack = st
    mu, envs = b.open(stack.top)
    arrow = term.conclusion.assigned
    key = (R_APP1, code, id(term), id(mu))
    app = b.terms.get(key) or b.add(
        key, (term, mu), contexts_union([term.conclusion.context, mu.conclusion.context]), arrow.res)
    for other in envs:
        _merge(env, other)
    _covers(env, e)
    return app, env, stack.rest


# the undo rule of each Space KAM transition, in SKAM_LABELS order
_UNDO = (_undo_sea_v, _undo_sea_nv, _undo_beta_w, _undo_beta_nw, _undo_sub)


# ---------------------------------------------------------------------------
# whole runs

_MACHINES = {kam_fire: "the plain KAM (kam_fire)", skam_fire: "the Space KAM (skam_fire)"}


def _complete_states(run: Run, fire) -> tuple[list, MachState]:
    """A complete run of fire's machine, its states replayed anew, as
    (label fired into it, code, env, stack), envs and stacks as linked
    cells, and its final state, the one MachState built."""
    if run.step is not fire:
        raise ValueError(
            f"this is a run of {_MACHINES.get(run.step, run.step)}, not of {_MACHINES[fire]}"
        )
    if not run.final_reached:
        raise IncompleteRun(
            f"run stopped after {run.transitions} transitions without a final state"
        )
    s = run.initial
    states = [(None, s.code, s.env, s.stack), *run.fires()]
    final = MachState(*states[-1][1:])
    _check_final(final)
    return states, final


def extract(run: Run) -> Derivation:
    """The weighted typing of a complete run's initial code: a closed
    term at the ground type, with space weight the run's space.  Its
    time reweighting has the run's time at the root.  The step equations
    are checked at every transition on the way; a broken one raises
    StepEquationError.  The run's states come from its replay."""
    states, final = _complete_states(run, skam_fire)
    sizes = list(state_sizes(run.initial, islice(states, 1, None)))
    b = _Builder()
    st = _final_typing(b, final)
    w, t = st[0].conclusion.weight, st[0].time  # the dry env weighs 0, the stack is empty
    for i in range(len(states) - 1, 0, -1):
        label = states[i][0]
        _, code, e, args = states[i - 1]
        st = term, env, stack = _UNDO[label](b, code, e, args, st)
        sz, prev_w, prev_t = sizes[i - 1], w, t
        # TSt joins the weights of the term, env and stack typings: max
        # in space, sum in time
        es, et = _env_weights(env)
        w, t = term.conclusion.weight, term.time + et
        if es > w:
            w = es
        if stack is not None:
            if stack.space > w:
                w = stack.space
            t += stack.time
        if w != (sz if sz > prev_w else prev_w):
            raise StepEquationError(
                f"space step equation broken at transition {i} ({SKAM_LABELS[label]}): "
                f"{w} != max({sz}, {prev_w})"
            )
        if t != sz + prev_t:
            raise StepEquationError(
                f"time step equation broken at transition {i} ({SKAM_LABELS[label]}): "
                f"{t} != {sz} + {prev_t}"
            )
    term, env, stack = st
    assert not env, "the initial state's typing wants an environment"
    assert stack is None, "the initial state's typing wants a stack"
    assert term.conclusion.context.is_empty(), "initial code typed with a context"
    assert type(term.conclusion.assigned) is Star, "initial code not at ground type"
    return term


_KAM_DRY = _Cl(None, _DRY)  # the bag of a binder the rest of the run never reads


def _dc_mint(rule, kind, code, ctx, assigned, premises) -> Derivation:
    """A new plain-flavor node, weighed by its rule in kam mode."""
    w = rule_weight(rule, ctx, assigned, [p.conclusion.weight for p in premises], "kam")
    return Derivation(rule, Judgment(kind, code, ctx, assigned, w), premises)


def extract_kam(run: Run) -> Derivation:
    """The plain-flavor typing of a complete plain-machine run's initial
    code; the root weight is the number of transitions."""
    states, final = _complete_states(run, kam_fire)
    b = _Builder(_dc_mint)
    cur = b.add((R_DC_LAM_STAR, final.code, EMPTY_CONTEXT), (), EMPTY_CONTEXT, STAR)
    env = {}  # the environment typing: a bag per name, changed in place
    stack = []  # (multi, uses, env typings) of each stack closure, top last
    for i in range(len(states) - 1, 0, -1):
        label = states[i][0]
        code = states[i - 1][1]
        if label == LABEL_SUB:
            # (x, e, S) -> e(x): the code typing becomes a use of x's
            # closure, with the target's environment typing as the
            # closure's; everything else of e is unused and dropped
            x = code.name
            a = cur.conclusion.assigned
            env = {x: _Cl(None, _USE, cur, env)}
            key = (R_DC_VAR, code, a)
            cur = b.terms.get(key) or b.add(key, (), TypeContext(((x, MultiType((a,))),)), a)
        elif label == LABEL_BETA:
            # (\x.t, e, c . S) -> (t, [x <- c] . e, S): x's bag is opened
            # into the arrow source and the stack top's typing
            x = code.binder
            uses, envs = _flatten(env.pop(x, _KAM_DRY))
            m = MultiType([d.conclusion.assigned for d in uses])
            have = cur.conclusion.context.get(x) or MultiType(())
            assert have == m, f"uses of {x} disagree with its context entry"
            key = (R_DC_LAM, code, id(cur))
            cur = b.terms.get(key) or b.add(
                key, (cur,), cur.conclusion.context.minus(x), DCArrow(m, cur.conclusion.assigned))
            stack.append((m, uses, envs))
        else:
            # (t u, e, S) -> (t, e, (u, e) . S): the stack top's uses
            # become the argument premises, its environment typings join
            # e's
            m, args, envs = stack.pop()
            arrow = cur.conclusion.assigned
            assert type(arrow) is DCArrow, "function typing is not an arrow"
            assert arrow.arg == m, "argument uses disagree with the arrow source"
            ps = (cur, *args)
            key = (R_DC_APP, code, *map(id, ps))
            cur = b.terms.get(key) or b.add(
                key, ps, contexts_union([d.conclusion.context for d in ps]), arrow.res)
            for other in envs:
                _merge(env, other)
    assert not env, "the initial state's typing wants an environment"
    assert not stack, "the initial state's typing wants a stack"
    assert cur.conclusion.context.is_empty(), "initial code typed with a context"
    if cur.conclusion.weight != run.transitions:
        raise StepEquationError(
            f"weight {cur.conclusion.weight} differs from {run.transitions} transitions"
        )
    return cur
