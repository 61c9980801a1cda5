"""Rebuilding weighted derivations from complete machine runs.

A run stores no trace; extract and extract_kam read the run's states
from its replayed trace (Run.trace), which the replay checks against the
run's last state and counts.

The final state of a complete run gets the canonical dry typing: every
closure typed with an empty multi at its own size, everything at weight
zero except the closing abstraction, which weighs the final
environment.  Each transition is then undone back to front, reshaping
the target state's derivation into one for the source state by grafting
the rule that matches the transition.  Each node is minted with both
weights: space as its stored judgment weight, time in the node's own
time field, which judgments, equality and JSON ignore.  Every undo
step checks the two step equations

    space(source) = max(size(source), space(target))
    time(source)  = size(source) + time(target)

so the root's weights are the run's space and time by induction, with
no summary arithmetic anywhere.  A broken equation raises
StepEquationError, under python -O too.

All multi type indices are canonical here: the index typing a closure
is that closure's size.  The merges assert this; a merge of two typings
of the same closure then never has an index clash.

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
    size_closure,
    skam_step,
    state_size,
)
from .terms import Abs, Var, print_term
from .types import (
    STAR,
    Arrow,
    ClosureMulti,
    DCArrow,
    EMPTY_CONTEXT,
    MultiType,
    Star,
    TypeContext,
    context_union,
    dc_context_union,
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


class _Builder:
    """Mints derivation nodes with both weights stored, and caches dry
    closure typings per closure object so repeated discards share
    subtrees.  The cache is keyed by id: every caller holds the states,
    hence the closures, for as long as the builder lives."""

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

    # -- canonical dry typings ---------------------------------------

    def dry_closure(self, c: Closure) -> Derivation:
        got = self.dry.get(id(c))
        if got is None:
            ctx, env_d = self.dry_env(c.env)
            none = self.node(
                R_NONE, KIND_TERM, c.code, ctx, ClosureMulti((), 1 + size_context(ctx)), ()
            )
            got = self.node(
                R_CL, KIND_CLOSURE, c, EMPTY_CONTEXT, none.conclusion.assigned, (none, env_d)
            )
            self.dry[id(c)] = got
        return got

    def dry_env(self, e: Env) -> tuple[TypeContext, Derivation]:
        prem = []
        entries = []
        for x, c in e:
            d = self.dry_closure(c)
            prem.append(d)
            entries.append((x, d.conclusion.assigned))
        ctx = TypeContext(tuple(entries))
        return ctx, self.node(R_ENV, KIND_ENV, e, EMPTY_CONTEXT, ctx, prem)


def dry_type_closure(c: Closure) -> Derivation:
    """The weight-zero typing of c with the empty multi at index |c|."""
    return _Builder().dry_closure(c)


def dry_type_env(e: Env) -> tuple[TypeContext, Derivation]:
    """The dry context for e (one empty multi per binding, at the bound
    closure's size) and its weight-zero derivation."""
    return _Builder().dry_env(e)


def type_final_state(s: MachState) -> Derivation:
    """The canonical derivation of a final state; its weight is the
    state's size in both modes."""
    return _type_final(_Builder(), s)


def _type_final(b: _Builder, s: MachState) -> Derivation:
    if type(s.code) is not Abs or s.stack:
        raise NotFinal(
            f"not a final state: code {print_term(s.code)}, stack of {len(s.stack)}"
        )
    ctx, env_d = b.dry_env(s.env)
    lam = b.node(R_LAM_STAR, KIND_TERM, s.code, ctx, STAR, ())
    return b.node(R_ST, KIND_STATE, s, EMPTY_CONTEXT, STAR, (lam, env_d))


# ---------------------------------------------------------------------------
# merging two typings of the same environment

def _env_map(env_deriv: Derivation) -> dict:
    e = env_deriv.conclusion.subject
    return {x: p for (x, _), p in zip(e, env_deriv.premises)}


def _merge_closures(b: _Builder, d1: Derivation, d2: Derivation) -> Derivation:
    c = d1.conclusion.subject
    assert c == d2.conclusion.subject, "merge of typings of different closures"
    m1, e1 = d1.premises
    m2, e2 = d2.premises
    if m1.rule == R_NONE and m2.rule == R_NONE:
        assert m1.conclusion == m2.conclusion, "dry typings of one closure differ"
        term = m1
        env = _merge_envs(b, e1, e2)
    else:
        prem = (m1.premises if m1.rule == R_MANY else ()) + (
            m2.premises if m2.rule == R_MANY else ()
        )
        ctx = context_union(m1.conclusion.context, m2.conclusion.context)
        k = m1.conclusion.assigned.index
        assert k == m2.conclusion.assigned.index == 1 + size_context(ctx), (
            f"non-canonical index merging typings of {print_term(c.code)}: "
            f"{m1.conclusion.assigned.index}, {m2.conclusion.assigned.index}, "
            f"context size {size_context(ctx)}"
        )
        multi = ClosureMulti(
            m1.conclusion.assigned.elems + m2.conclusion.assigned.elems, k
        )
        term = b.node(R_MANY, KIND_TERM, c.code, ctx, multi, prem)
        env = _merge_envs(b, e1, e2)
    return b.node(R_CL, KIND_CLOSURE, c, EMPTY_CONTEXT, term.conclusion.assigned, (term, env))


def _merge_envs(b: _Builder, d1: Derivation, d2: Derivation) -> Derivation:
    e = d1.conclusion.subject
    assert e == d2.conclusion.subject, "merge of typings of different environments"
    prem = tuple(
        _merge_closures(b, p1, p2) for p1, p2 in zip(d1.premises, d2.premises)
    )
    gamma = TypeContext(
        tuple((x, p.conclusion.assigned) for (x, _), p in zip(e, prem))
    )
    return b.node(R_ENV, KIND_ENV, e, EMPTY_CONTEXT, gamma, prem)


def _merge_env_parts(b: _Builder, e: Env, maps: list) -> Derivation:
    """Combine per-variable closure typings (from typings of restrictions
    of e) into one typing of e, premises in e's entry order."""
    merged: dict[str, Derivation] = {}
    for m in maps:
        for x, d in m.items():
            merged[x] = d if x not in merged else _merge_closures(b, merged[x], d)
    dom = {x for x, _ in e}
    assert set(merged) == dom, f"typings cover {sorted(merged)}, environment binds {sorted(dom)}"
    prem = tuple(merged[x] for x, _ in e)
    gamma = TypeContext(tuple((x, merged[x].conclusion.assigned) for x, _ in e))
    return b.node(R_ENV, KIND_ENV, e, EMPTY_CONTEXT, gamma, prem)


# ---------------------------------------------------------------------------
# undoing one transition

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
    return _undo(_Builder(), prev, label, source)


def _undo(b: _Builder, prev: Derivation, label: str, source: MachState) -> Derivation:
    # prev types the state that source fires label into
    return _UNDO[label](b, source, prev.premises[0], prev.premises[1], prev.premises[2:])


def _undo_sub(b, source, term_p, env_p, stack_ps):
    # (x, [x <- c], S) -> (u, e', S): wrap the code typing into a
    # singleton multi for c, rebind it to x, and conclude with TVar
    x = source.code.name
    c = source.env[0][1]
    gamma = term_p.conclusion.context
    a = term_p.conclusion.assigned
    k = 1 + size_context(gamma)
    assert k == size_closure(c), f"non-canonical index {k} for a closure of size {size_closure(c)}"
    multi = ClosureMulti((a,), k)
    many = b.node(R_MANY, KIND_TERM, c.code, gamma, multi, (term_p,))
    cl = b.node(R_CL, KIND_CLOSURE, c, EMPTY_CONTEXT, multi, (many, env_p))
    ctx = TypeContext(((x, multi),))
    env_d = b.node(R_ENV, KIND_ENV, source.env, EMPTY_CONTEXT, ctx, (cl,))
    tvar = b.node(R_VAR, KIND_TERM, source.code, ctx, a, ())
    return b.node(
        R_ST, KIND_STATE, source, EMPTY_CONTEXT, STAR, (tvar, env_d) + tuple(stack_ps)
    )


def _undo_beta_nw(b, source, term_p, env_p, stack_ps):
    # (\x.t, e, c . S) -> (t, [x <- c] . e, S) with x free in t: the
    # binding typed first in the target environment becomes the stack
    # top's typing, and the body typing closes over x
    x = source.code.binder
    ctx_plus = term_p.conclusion.context
    m = ctx_plus.get(x)
    assert m is not None, f"binder {x} missing from the body typing"
    lam = b.node(
        R_LAM1,
        KIND_TERM,
        source.code,
        ctx_plus.minus(x),
        Arrow(m, term_p.conclusion.assigned),
        (term_p,),
    )
    cl_x = env_p.premises[0]
    env_d = b.node(
        R_ENV,
        KIND_ENV,
        source.env,
        EMPTY_CONTEXT,
        env_p.conclusion.assigned.minus(x),
        tuple(env_p.premises[1:]),
    )
    return b.node(
        R_ST, KIND_STATE, source, EMPTY_CONTEXT, STAR,
        (lam, env_d, cl_x) + tuple(stack_ps),
    )


def _undo_beta_w(b, source, term_p, env_p, stack_ps):
    # (\x.t, e, c . S) -> (t, e, S) with x not in fv(t): the discarded
    # closure gets the dry typing, the arrow source the empty multi at
    # the closure's size
    c = source.stack[0]
    cl = b.dry_closure(c)
    k = cl.conclusion.assigned.index
    lam = b.node(
        R_LAM2,
        KIND_TERM,
        source.code,
        term_p.conclusion.context,
        Arrow(ClosureMulti((), k), term_p.conclusion.assigned),
        (term_p,),
    )
    return b.node(
        R_ST, KIND_STATE, source, EMPTY_CONTEXT, STAR,
        (lam, env_p, cl) + tuple(stack_ps),
    )


def _undo_sea_v(b, source, term_p, env_p, stack_ps):
    # (t x, e, S) -> (t, e|_t, e(x) . S): the stack top's typing moves
    # back under x in the environment; the code typing spends the arrow
    x = source.code.arg.name
    c_deriv = stack_ps[0]
    arrow = term_p.conclusion.assigned
    ctx = context_union(
        term_p.conclusion.context, TypeContext(((x, arrow.arg),))
    )
    app = b.node(R_APP2, KIND_TERM, source.code, ctx, arrow.res, (term_p,))
    env_d = _merge_env_parts(b, source.env, [_env_map(env_p), {x: c_deriv}])
    return b.node(
        R_ST, KIND_STATE, source, EMPTY_CONTEXT, STAR,
        (app, env_d) + tuple(stack_ps[1:]),
    )


def _undo_sea_nv(b, source, term_p, env_p, stack_ps):
    # (t u, e, S) -> (t, e|_t, (u, e|_u) . S): the stack top's closure
    # typing splits into the argument multi judgment and a typing of
    # e|_u, which merges back into the environment
    c_deriv = stack_ps[0]
    mu = c_deriv.premises[0]
    env_u = c_deriv.premises[1]
    arrow = term_p.conclusion.assigned
    ctx = context_union(term_p.conclusion.context, mu.conclusion.context)
    app = b.node(R_APP1, KIND_TERM, source.code, ctx, arrow.res, (term_p, mu))
    env_d = _merge_env_parts(b, source.env, [_env_map(env_p), _env_map(env_u)])
    return b.node(
        R_ST, KIND_STATE, source, EMPTY_CONTEXT, STAR,
        (app, env_d) + tuple(stack_ps[1:]),
    )


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
    cur = _type_final(b, states[-1])
    for i in range(len(trace) - 1, -1, -1):
        label = trace[i][0]
        src = states[i]
        prev_w = cur.conclusion.weight
        prev_t = cur.time
        cur = _undo(b, cur, label, src)
        sz = state_size(src)
        if cur.conclusion.weight != max(sz, prev_w):
            raise StepEquationError(
                f"space step equation broken at transition {i + 1} ({label}): "
                f"{cur.conclusion.weight} != max({sz}, {prev_w})"
            )
        if cur.time != sz + prev_t:
            raise StepEquationError(
                f"time step equation broken at transition {i + 1} ({label}): "
                f"{cur.time} != {sz} + {prev_t}"
            )
    term_p = cur.premises[0]
    assert term_p.conclusion.context.is_empty(), "initial code typed with a context"
    assert type(term_p.conclusion.assigned) is Star, "initial code not at ground type"
    return term_p


@dataclass
class _KClosure:
    # one term derivation per future use of the closure's code, plus the
    # typing of its environment
    elems: list
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
                per[x].elems + kc.elems, _kenv_merge(per[x].env, kc.env)
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
            m = MultiType(tuple(d.conclusion.assigned for d in kc.elems))
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
            stack_t = [kc] + stack_t
        else:
            # (t u, e, S) -> (t, e, (u, e) . S): the stack top's uses
            # become the argument premises, its environment typing folds
            # back into e's
            kc = stack_t[0]
            arrow = cur.conclusion.assigned
            assert type(arrow) is DCArrow, "function typing is not an arrow"
            args = kc.elems
            assert arrow.arg == MultiType(
                tuple(d.conclusion.assigned for d in args)
            ), "argument uses disagree with the arrow source"
            ctx = cur.conclusion.context
            for d in args:
                ctx = dc_context_union(ctx, d.conclusion.context)
            w = cur.conclusion.weight + sum(d.conclusion.weight for d in args) + 1
            cur = Derivation(
                R_DC_APP,
                Judgment(KIND_TERM, src.code, ctx, arrow.res, w),
                (cur,) + tuple(args),
            )
            env_t = _kenv_merge(env_t, kc.env)
            stack_t = stack_t[1:]
    assert not env_t.per_var, "the initial state's typing wants an environment"
    assert not stack_t, "the initial state's typing wants a stack"
    assert cur.conclusion.context.is_empty(), "initial code typed with a context"
    if cur.conclusion.weight != run.transitions:
        raise StepEquationError(
            f"weight {cur.conclusion.weight} differs from {run.transitions} transitions"
        )
    return cur
