"""Rebuilding weighted derivations from complete machine runs.

A run stores no trace; extract and extract_kam read the run's states
from its replayed trace (Run.trace), which the replay checks against the
run's last state and counts.

extract walks the run back to front.  The final state gets the
canonical typing: its code typed by TLamStar, every closure dry (an
empty multi at the closure's own size), everything at weight zero but
the closing abstraction, which weighs the final environment.  Each
transition is then undone by the rule that matches it.  A state typing
is a term derivation for the code plus typings of the environment and
of the stack, and only the term derivation is minted as it goes: a
closure typing is kept as a bag of uses of the closure's code, each
with a typing of the closure's environment, and two typings of one
closure merge in O(1).  A bag is opened once, when undoing the sea_nv
transition that created its closure: that mints the argument's TMany
over every use in merge order (or TNone when there are none) and folds
the environment typings back into the state's.  The state judgments
(TSt, TEnv, TCl) are never minted, and every node extract mints lands
in the tree it returns exactly once.

Every node is minted with both weights: space as its stored judgment
weight, time in the node's own time field, which judgments, equality
and JSON ignore.  A bag carries the weights its TCl node would have,
combined by the checker's TCl, TEnv and TSt rules (max in space, sum
in time), so each state's weights are known without minting it, and
every undo checks the two step equations

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
mint step opens the bags into TSt, TEnv and TCl nodes.  Minting and
opening keep explicit stacks, so closure nesting depth is not limited
by the recursion limit.

extract_kam does the same backward walk over a plain machine run with
the unindexed rules.  There the environment and stack typings are not
judgments of record, just per-variable bags of term derivations, one
per future use of each closure; every transition mints exactly one
weighted node and every minted node lands in the final tree exactly
once, so the root weight counts the transitions.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .kam import Closure, Env, MachState, Run
from .space_kam import (
    LABEL_BETA_NW,
    LABEL_BETA_W,
    LABEL_SEA_NV,
    LABEL_SEA_V,
    LABEL_SUB,
    skam_step,
    state_size,
)
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


def _time_of(d: Derivation) -> int:
    """d's time weight.  Nodes minted here carry it; a foreign subtree
    (public expand on a hand-built derivation) gets it filled in
    bottom-up, once."""
    if d.time is not None:
        return d.time
    order = []
    stack = [d]
    while stack:
        n = stack.pop()
        if n.time is None:
            order.append(n)
            stack.extend(n.premises)
    for n in reversed(order):
        if n.time is None:  # a shared subtree is listed once per occurrence
            t = rule_weight(
                n.rule,
                n.conclusion.context,
                n.conclusion.assigned,
                [p.time for p in n.premises],
                "time",
            )
            object.__setattr__(n, "time", t)
    return d.time


def _weights(rule: str, spaces: list, times: list) -> tuple[int, int]:
    """The space and time weights of a structural node (TCl, TEnv, TSt)
    whose premises weigh spaces and times."""
    return (
        rule_weight(rule, EMPTY_CONTEXT, STAR, spaces, "space"),
        rule_weight(rule, EMPTY_CONTEXT, STAR, times, "time"),
    )


# ---------------------------------------------------------------------------
# closure, environment and stack typings that are not minted yet

# the kinds of closure typing
_DRY = 0  # the dry typing: no use, weight zero
_USE = 1  # one use: a term derivation of the code, and an _Env of the closure's env
_TCL = 2  # a minted TCl derivation with a TMany premise, read back by expand
_JOIN = 3  # two non-dry typings of the same closure, uses of the first first


class _Cl:
    """A typing of a closure, not minted: a bag of uses of its code,
    each with a typing of its environment.  space and time are the weights
    its TCl node would carry."""

    __slots__ = ("closure", "kind", "a", "b", "space", "time")

    def __init__(self, closure, kind, a=None, b=None, space=0, time=0):
        self.closure = closure
        self.kind = kind
        self.a = a
        self.b = b
        self.space = space
        self.time = time


def _use(c: Closure, term: Derivation, env: "_Env") -> _Cl:
    # TCl over TMany over one premise: TMany weighs what its premise does
    return _Cl(c, _USE, term, env, *_weights(
        R_CL, [term.conclusion.weight, env.space], [_time_of(term), env.time]
    ))


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
    return _Cl(p.closure, _JOIN, p, q, *_weights(R_CL, [p.space, q.space], [p.time, q.time]))


class _Env:
    """A typing of an environment, not minted: one closure typing per
    bound name.  space and time are the weights its TEnv node would
    carry."""

    __slots__ = ("parts", "space", "time")

    def __init__(self, parts: dict, space=None, time=None):
        self.parts = parts
        if space is None:
            space, time = _weights(
                R_ENV, [p.space for p in parts.values()], [p.time for p in parts.values()]
            )
        self.space = space
        self.time = time


def _dry_env(e: Env) -> _Env:
    return _Env({x: _Cl(c, _DRY) for x, c in e}, 0, 0)


def _join_envs(envs: list, e: Env) -> _Env:
    """One typing of e from typings of restrictions of e, the closure
    typings of each name joined in list order."""
    if len(envs) == 1:
        env = envs[0]
    else:
        parts = dict(envs[0].parts)
        for other in envs[1:]:
            for x, p in other.parts.items():
                q = parts.get(x)
                parts[x] = p if q is None else _join(q, p)
        env = _Env(parts, *_weights(
            R_ENV, [other.space for other in envs], [other.time for other in envs]
        ))
    assert env.parts.keys() == dict(e).keys(), (
        f"typings cover {sorted(env.parts)}, environment binds {sorted(x for x, _ in e)}"
    )
    return env


class _Stack:
    """A stack of closure typings, top first, as a linked list whose
    cells carry the weights of everything from themselves down."""

    __slots__ = ("top", "rest", "space", "time")

    def __init__(self, top: _Cl, rest: "_Stack | None"):
        self.top = top
        self.rest = rest
        if rest is None:
            self.space, self.time = top.space, top.time
        else:
            self.space, self.time = _weights(
                R_ST, [top.space, rest.space], [top.time, rest.time]
            )


def _dry_context(e: Env) -> TypeContext:
    """One empty multi per binding, at the bound closure's size."""
    return TypeContext(tuple((x, ClosureMulti((), c.size)) for x, c in e))


def _state_weights(term: Derivation, env: _Env, stack: _Stack | None) -> tuple[int, int]:
    spaces = [term.conclusion.weight, env.space]
    times = [term.time, env.time]
    if stack is not None:
        spaces.append(stack.space)
        times.append(stack.time)
    return _weights(R_ST, spaces, times)


class _Builder:
    """Mints derivation nodes with both weights stored, opens closure
    typings, and mints the judgments of record.  Dry closure typings are
    minted once per closure object, so repeated discards share subtrees;
    the cache is keyed by id, and each entry holds its closure as its
    subject."""

    def __init__(self):
        self.dry: dict[int, Derivation] = {}

    def node(self, rule, kind, subject, ctx, assigned, premises) -> Derivation:
        premises = tuple(premises)
        sw = [p.conclusion.weight for p in premises]
        tw = [p.time for p in premises]
        if None in tw:
            tw = [_time_of(p) for p in premises]
        w = rule_weight(rule, ctx, assigned, sw, "space")
        t = rule_weight(rule, ctx, assigned, tw, "time")
        return Derivation(rule, Judgment(kind, subject, ctx, assigned, w), premises, t)

    def open(self, cl: _Cl) -> tuple[Derivation, _Env]:
        """Split a closure typing into the multi judgment for its code,
        TMany over every use in order or TNone, and the joined typing of
        its environment."""
        c = cl.closure
        if cl.kind == _DRY:
            ctx = _dry_context(c.env)
            none = self.node(
                R_NONE, KIND_TERM, c.code, ctx, ClosureMulti((), 1 + size_context(ctx)), ()
            )
            return none, _dry_env(c.env)
        if cl.kind == _TCL:
            return cl.a.premises[0], _read_env(cl.a.premises[1])
        uses, envs = [], []
        work = [cl]
        while work:
            p = work.pop()
            if p.kind == _JOIN:
                work += (p.b, p.a)
            elif p.kind == _USE:
                uses.append(p.a)
                envs.append(p.b)
            else:  # a read TCl; dry typings never join
                uses += p.a.premises[0].premises
                envs.append(_read_env(p.a.premises[1]))
        ctx = contexts_union([u.conclusion.context for u in uses])
        k = 1 + size_context(ctx)
        assert k == c.size, (
            f"non-canonical index opening a typing of {print_term(c.code)}: "
            f"context size {size_context(ctx)}, closure size {c.size}"
        )
        multi = ClosureMulti([u.conclusion.assigned for u in uses], k)
        many = self.node(R_MANY, KIND_TERM, c.code, ctx, multi, uses)
        return many, _join_envs(envs, c.env)

    def env_node(self, e: Env, premises: list) -> Derivation:
        gamma = TypeContext(
            tuple((x, p.conclusion.assigned) for (x, _), p in zip(e, premises))
        )
        return self.node(R_ENV, KIND_ENV, e, EMPTY_CONTEXT, gamma, premises)

    def mint(self, cls: list) -> list:
        """TCl derivations for closure typings, children before parents
        on an explicit stack."""
        done: dict[int, Derivation] = {}  # by id of _Cl; `opened` holds them all
        opened: dict[int, tuple] = {}
        work = list(cls)
        while work:
            cl = work[-1]
            if id(cl) in done:
                work.pop()
                continue
            c = cl.closure
            got = None
            if cl.kind == _TCL:
                got = cl.a
            elif cl.kind == _DRY:
                got = self.dry.get(id(c))
            if got is not None:
                done[id(cl)] = got
                work.pop()
                continue
            parts = opened.get(id(cl))
            if parts is None:
                parts = opened[id(cl)] = self.open(cl)
            code_d, env = parts
            todo = [p for p in env.parts.values() if id(p) not in done]
            if todo:
                work += todo
                continue
            work.pop()
            env_d = self.env_node(c.env, [done[id(env.parts[x])] for x, _ in c.env])
            d = self.node(
                R_CL, KIND_CLOSURE, c, EMPTY_CONTEXT, code_d.conclusion.assigned, (code_d, env_d)
            )
            if cl.kind == _DRY:
                self.dry[id(c)] = d
            done[id(cl)] = d
        return [done[id(cl)] for cl in cls]

    def mint_state(self, s: MachState, st: tuple) -> Derivation:
        """The TSt derivation of s from a state typing (term, env, stack)."""
        term, env, stack = st
        cls = [env.parts[x] for x, _ in s.env]
        while stack is not None:
            cls.append(stack.top)
            stack = stack.rest
        minted = self.mint(cls)
        n = len(s.env)
        env_d = self.env_node(s.env, minted[:n])
        return self.node(
            R_ST, KIND_STATE, s, EMPTY_CONTEXT, STAR, (term, env_d, *minted[n:])
        )


def _read_closure(d: Derivation) -> _Cl:
    c = d.conclusion.subject
    if d.premises[0].rule == R_NONE:
        return _Cl(c, _DRY)
    return _Cl(c, _TCL, d, None, d.conclusion.weight, _time_of(d))


def _read_env(d: Derivation) -> _Env:
    return _Env(
        {x: _read_closure(p) for (x, _), p in zip(d.conclusion.subject, d.premises)}
    )


def _read_state(d: Derivation) -> tuple:
    """The state typing (term, env, stack) a TSt derivation holds."""
    stack = None
    for p in reversed(d.premises[2:]):
        stack = _Stack(_read_closure(p), stack)
    return d.premises[0], _read_env(d.premises[1]), stack


def _final_typing(b: _Builder, s: MachState) -> tuple:
    if type(s.code) is not Abs or s.stack:
        raise NotFinal(
            f"not a final state: code {print_term(s.code)}, stack of {len(s.stack)}"
        )
    lam = b.node(R_LAM_STAR, KIND_TERM, s.code, _dry_context(s.env), STAR, ())
    return lam, _dry_env(s.env), None


def dry_type_closure(c: Closure) -> Derivation:
    """The weight-zero typing of c with the empty multi at index |c|."""
    return _Builder().mint([_Cl(c, _DRY)])[0]


def dry_type_env(e: Env) -> tuple[TypeContext, Derivation]:
    """The dry context for e (one empty multi per binding, at the bound
    closure's size) and its weight-zero derivation."""
    b = _Builder()
    d = b.env_node(e, b.mint([_Cl(c, _DRY) for _, c in e]))
    return d.conclusion.assigned, d


def type_final_state(s: MachState) -> Derivation:
    """The canonical derivation of a final state; its weight is the
    state's size in both modes."""
    b = _Builder()
    return b.mint_state(s, _final_typing(b, s))


# ---------------------------------------------------------------------------
# undoing one transition: each rule takes the typing (term, env, stack)
# of the state that source fires label into, and gives source's

def expand(prev: Derivation, step: tuple) -> Derivation:
    """Turn a derivation of a transition's target state into one of its
    source state.  step is a (label, source state) pair; the source must
    actually fire that transition into prev's subject."""
    label, source = step
    if prev.rule != R_ST:
        raise ShapeMismatch("only a state derivation can be expanded")
    got = skam_step(source)
    if got is None:
        raise ShapeMismatch("the source state is final and fires nothing")
    want_label, target = got
    if want_label != label:
        raise ShapeMismatch(f"the source state fires {want_label}, not {label}")
    if prev.conclusion.subject != target:
        raise ShapeMismatch(
            "the derivation's subject is not the target of the transition"
        )
    b = _Builder()
    return b.mint_state(source, _UNDO[label](b, source, _read_state(prev)))


def _undo_sub(b, source, st):
    # (x, [x <- c], S) -> (u, e', S): the code typing becomes a use of
    # c, with the target environment's typing as c's environment, and
    # the variable is typed by the singleton multi at c's size
    term, env, stack = st
    x = source.code.name
    c = source.env[0][1]
    gamma = term.conclusion.context
    a = term.conclusion.assigned
    k = 1 + size_context(gamma)
    assert k == c.size, f"non-canonical index {k} for a closure of size {c.size}"
    ctx = TypeContext(((x, ClosureMulti((a,), k)),))
    tvar = b.node(R_VAR, KIND_TERM, source.code, ctx, a, ())
    cl = _use(c, term, env)
    return tvar, _Env({x: cl}, cl.space, cl.time), stack


def _undo_beta_nw(b, source, st):
    # (\x.t, e, c . S) -> (t, [x <- c] . e, S) with x free in t: x's
    # typing in the target environment becomes the stack top's typing,
    # and the body typing closes over x
    term, env, stack = st
    x = source.code.binder
    ctx_plus = term.conclusion.context
    m = ctx_plus.get(x)
    assert m is not None, f"binder {x} missing from the body typing"
    lam = b.node(
        R_LAM1, KIND_TERM, source.code, ctx_plus.minus(x),
        Arrow(m, term.conclusion.assigned), (term,),
    )
    parts = dict(env.parts)
    top = parts.pop(x)
    return lam, _Env(parts), _Stack(top, stack)


def _undo_beta_w(b, source, st):
    # (\x.t, e, c . S) -> (t, e, S) with x not in fv(t): the discarded
    # closure gets the dry typing, the arrow source the empty multi at
    # the closure's size
    term, env, stack = st
    c = source.stack[0]
    lam = b.node(
        R_LAM2, KIND_TERM, source.code, term.conclusion.context,
        Arrow(ClosureMulti((), c.size), term.conclusion.assigned), (term,),
    )
    return lam, env, _Stack(_Cl(c, _DRY), stack)


def _undo_sea_v(b, source, st):
    # (t x, e, S) -> (t, e|_t, e(x) . S): the stack top's typing joins
    # x's typing in the environment; the code typing spends the arrow
    term, env, stack = st
    x = source.code.arg.name
    arrow = term.conclusion.assigned
    ctx = contexts_union([term.conclusion.context, TypeContext(((x, arrow.arg),))])
    app = b.node(R_APP2, KIND_TERM, source.code, ctx, arrow.res, (term,))
    top = stack.top
    return app, _join_envs([env, _Env({x: top}, top.space, top.time)], source.env), stack.rest


def _undo_sea_nv(b, source, st):
    # (t u, e, S) -> (t, e|_t, (u, e|_u) . S): the stack top's typing
    # is opened into the argument's multi judgment and a typing of
    # e|_u, which joins the environment's
    term, env, stack = st
    mu, env_u = b.open(stack.top)
    arrow = term.conclusion.assigned
    ctx = contexts_union([term.conclusion.context, mu.conclusion.context])
    app = b.node(R_APP1, KIND_TERM, source.code, ctx, arrow.res, (term, mu))
    return app, _join_envs([env, env_u], source.env), stack.rest


_UNDO = {
    LABEL_SUB: _undo_sub,
    LABEL_BETA_NW: _undo_beta_nw,
    LABEL_BETA_W: _undo_beta_w,
    LABEL_SEA_V: _undo_sea_v,
    LABEL_SEA_NV: _undo_sea_nv,
}


# ---------------------------------------------------------------------------
# whole runs

def extract(run: Run) -> Derivation:
    """The weighted typing of a complete run's initial code: a closed
    term at the ground type, with space weight the run's space.  Its
    time reweighting has the run's time at the root.  The step equations
    are checked at every transition on the way; a broken one raises
    StepEquationError.  The run's states come from its replayed trace."""
    if not run.final_reached:
        raise IncompleteRun(
            f"run stopped after {run.transitions} transitions without a final state"
        )
    b = _Builder()
    trace = run.trace
    states = run.states
    st = _final_typing(b, states[-1])
    w, t = _state_weights(*st)
    for i in range(len(trace) - 1, -1, -1):
        label = trace[i][0]
        src = states[i]
        st = _UNDO[label](b, src, st)
        prev_w, prev_t = w, t
        w, t = _state_weights(*st)
        sz = state_size(src)
        if w != max(sz, prev_w):
            raise StepEquationError(
                f"space step equation broken at transition {i + 1} ({label}): "
                f"{w} != max({sz}, {prev_w})"
            )
        if t != sz + prev_t:
            raise StepEquationError(
                f"time step equation broken at transition {i + 1} ({label}): "
                f"{t} != {sz} + {prev_t}"
            )
    term, env, stack = st
    assert not env.parts, "the initial state's typing wants an environment"
    assert stack is None, "the initial state's typing wants a stack"
    assert term.conclusion.context.is_empty(), "initial code typed with a context"
    assert type(term.conclusion.assigned) is Star, "initial code not at ground type"
    return term


@dataclass
class _KClosure:
    # one term derivation per future use of the closure's code, plus the
    # typing of its environment
    uses: list
    env: "_KEnv"


@dataclass
class _KEnv:
    # typings only for the variables the rest of the run actually uses
    per_var: dict


def _kenv_merge(a: _KEnv, b: _KEnv) -> _KEnv:
    per = dict(a.per_var)
    for x, kc in b.per_var.items():
        if x in per:
            per[x] = _KClosure(
                per[x].uses + kc.uses, _kenv_merge(per[x].env, kc.env)
            )
        else:
            per[x] = kc
    return _KEnv(per)


def extract_kam(run: Run) -> Derivation:
    """The plain-flavor typing of a complete plain-machine run's initial
    code; the root weight is the number of transitions."""
    if not run.final_reached:
        raise IncompleteRun(
            f"run stopped after {run.transitions} transitions without a final state"
        )
    trace = run.trace
    states = run.states
    final = states[-1]
    if type(final.code) is not Abs or final.stack:
        raise NotFinal(
            f"not a final state: code {print_term(final.code)}, stack of {len(final.stack)}"
        )
    cur = Derivation(
        R_DC_LAM_STAR, Judgment(KIND_TERM, final.code, EMPTY_CONTEXT, STAR, 0)
    )
    env_t = _KEnv({})
    stack_t: list[_KClosure] = []
    for i in range(len(trace) - 1, -1, -1):
        label = trace[i][0]
        src = states[i]
        if label == "sub":
            # (x, e, S) -> e(x): the code typing becomes a future use of
            # x's closure; everything else of e is unused and dropped
            x = src.code.name
            a = cur.conclusion.assigned
            ctx = TypeContext(((x, MultiType((a,))),))
            env_t = _KEnv({x: _KClosure([cur], env_t)})
            cur = Derivation(R_DC_VAR, Judgment(KIND_TERM, src.code, ctx, a, 1))
        elif label == "beta":
            # (\x.t, e, c . S) -> (t, [x <- c] . e, S): x's collected
            # uses become the arrow source and the stack top's typing
            x = src.code.binder
            per = dict(env_t.per_var)
            kc = per.pop(x, _KClosure([], _KEnv({})))
            m = MultiType([d.conclusion.assigned for d in kc.uses])
            have = cur.conclusion.context.get(x) or MultiType(())
            assert have == m, f"uses of {x} disagree with its context entry"
            cur = Derivation(
                R_DC_LAM,
                Judgment(
                    KIND_TERM,
                    src.code,
                    cur.conclusion.context.minus(x),
                    DCArrow(m, cur.conclusion.assigned),
                    cur.conclusion.weight + 1,
                ),
                (cur,),
            )
            env_t = _KEnv(per)
            stack_t.append(kc)
        else:
            # (t u, e, S) -> (t, e, (u, e) . S): the stack top's uses
            # become the argument premises, its environment typing folds
            # back into e's
            kc = stack_t.pop()
            arrow = cur.conclusion.assigned
            assert type(arrow) is DCArrow, "function typing is not an arrow"
            args = kc.uses
            assert arrow.arg == MultiType(
                [d.conclusion.assigned for d in args]
            ), "argument uses disagree with the arrow source"
            ctx = contexts_union([cur.conclusion.context, *(d.conclusion.context for d in args)])
            w = cur.conclusion.weight + sum(d.conclusion.weight for d in args) + 1
            cur = Derivation(
                R_DC_APP,
                Judgment(KIND_TERM, src.code, ctx, arrow.res, w),
                (cur,) + tuple(args),
            )
            env_t = _kenv_merge(env_t, kc.env)
    assert not env_t.per_var, "the initial state's typing wants an environment"
    assert not stack_t, "the initial state's typing wants a stack"
    assert cur.conclusion.context.is_empty(), "initial code typed with a context"
    if cur.conclusion.weight != run.transitions:
        raise StepEquationError(
            f"weight {cur.conclusion.weight} differs from {run.transitions} transitions"
        )
    return cur
