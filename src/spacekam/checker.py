"""Weighted derivations over terms and machine components, checked by
recomputation.

A derivation node carries its conclusion judgment (subject kind,
subject, context, assigned type, stored weight) and its premise
subtrees.  check_walk validates every node against its rule's shape and
side conditions once, recomputes every weight bottom-up in each mode it
is given, and compares stored against recomputed in the first mode:
stored weights are advisory and never trusted.  check and weight_of are
its views for one mode.  It, reweight, the rule counts and the file
encoder each index one node table of the tree (_table), and two
derivations are equal when their derivation files are.

Modes:

  space  weights compose by max and measure the peak state size of the
         machine run the derivation describes
  time   same rules; a term rule's weight is the sum of its premises
         plus the context and type sizes of its own conclusion, and
         machine rules add instead of taking max, measuring the summed
         state sizes of the run
  kam    the plain, unindexed rules; the weight counts rule uses and
         matches the plain machine's transition count

Rules, premises in stored order:

  TVar       x:[A]^k |- x : A            no premises
  TLamStar   G |- \\x.t : *               no premises, G dry
  TLam1      [body]                      binder typed in the premise
  TLam2      [body]                      binder absent, source []^k
  TMany      [one premise per element]   n >= 1, index forced
  TNone      no premises                 G dry, index forced
  TApp1      [fun, arg multi]            argument not a variable
  TApp2      [fun]                       argument a variable
  TEnv       [one closure per entry, in environment order]
  TCl        [term multi, env]
  TSt        [term, env, stack closures top first]

  DC_TVar, DC_TLamStar, DC_TLam, DC_TApp   plain flavor; DC_TApp takes
             the function premise then one premise per argument element
             directly, with no TMany wrapper
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .hashcons import decode_table, json_index, write_repr
from .kam import Closure, MachState, Rows, Run, _pairs_equal, read_rows, row_at
from .terms import Abs, App, Var, print_term
from .types import (
    Arrow,
    ClosureMulti,
    DCArrow,
    MultiType,
    NotSummable,
    Star,
    TypeContext,
    TypeTable,
    context_from_json,
    context_to_json,
    contexts_union,
    format_context,
    format_type,
    is_dry,
    size_context,
    size_linear,
    types_from_json,
)

R_VAR = "TVar"
R_LAM_STAR = "TLamStar"
R_LAM1 = "TLam1"
R_LAM2 = "TLam2"
R_MANY = "TMany"
R_NONE = "TNone"
R_APP1 = "TApp1"
R_APP2 = "TApp2"
R_ENV = "TEnv"
R_CL = "TCl"
R_ST = "TSt"

R_DC_VAR = "DC_TVar"
R_DC_LAM = "DC_TLam"
R_DC_LAM_STAR = "DC_TLamStar"
R_DC_APP = "DC_TApp"

MACHINE_RULES = frozenset(
    {R_VAR, R_LAM_STAR, R_LAM1, R_LAM2, R_MANY, R_NONE, R_APP1, R_APP2, R_ENV, R_CL, R_ST}
)
DC_RULES = frozenset({R_DC_VAR, R_DC_LAM, R_DC_LAM_STAR, R_DC_APP})

# structural rules: a node weighs the max of its premises in space, their
# sum in time
_JOIN_RULES = frozenset({R_MANY, R_ENV, R_CL, R_ST})

# structural bookkeeping nodes do not count toward derivation size
_SIZE_EXEMPT = frozenset({R_MANY, R_NONE, R_CL, R_ENV})

MODES = ("space", "time", "kam")

KIND_TERM = "term"
KIND_ENV = "env"
KIND_CLOSURE = "closure"
KIND_STATE = "state"


@dataclass(frozen=True, eq=False, repr=False)
class Judgment:
    """A subject of a kind, under a context, at a type and a weight.
    Subjects compare through kam._pairs_equal, and hash leaves an
    environment subject out, so an environment, which is a chain of
    nested cells, is compared, hashed and written by repr without
    recursion, at any depth."""

    subject_kind: str
    subject: object
    context: TypeContext
    assigned: object
    weight: int

    def __eq__(self, other):
        if other.__class__ is not Judgment:
            return NotImplemented
        return (
            self.subject_kind == other.subject_kind
            and self.context == other.context
            and self.assigned == other.assigned
            and self.weight == other.weight
            and _pairs_equal([(self.subject, other.subject)])
        )

    def __hash__(self):  # an environment subject is left out: its names would cost a walk
        s = None if self.subject_kind == KIND_ENV else self.subject
        return hash((self.subject_kind, s, self.context, self.assigned, self.weight))

    def __repr__(self):
        return write_repr(self, _repr_fields)


@dataclass(frozen=True, eq=False, repr=False)
class Derivation:
    """A rule, its conclusion and its premise subtrees.  Two derivations
    are == when their derivation files are, so sharing and time do not
    count; ==, hash, repr and pickle (through the file) work at any
    depth; being immutable, a derivation is its own (deep) copy."""

    rule: str
    conclusion: Judgment
    premises: tuple = ()
    # the time weight, kept by the extractor while it builds a space
    # derivation; not part of the judgment, so ==, repr and JSON skip it
    time: int | None = None

    def __eq__(self, other):
        if other.__class__ is not Derivation:
            return NotImplemented
        return self is other or derivation_to_json(self) == derivation_to_json(other)

    def __hash__(self):
        return hash((self.rule, self.conclusion, len(self.premises)))

    def __repr__(self):
        return write_repr(self, _repr_fields)

    __copy__ = __deepcopy__ = lambda self, memo=None: self

    def __reduce__(self):
        return derivation_from_json, (derivation_to_json(self),)


def _repr_fields(x):
    """The fields a dataclass repr of a derivation writes, per object."""
    if x.__class__ is Derivation:
        return ("rule", "conclusion", "premises")
    if x.__class__ is Judgment:
        return ("subject_kind", "subject", "context", "assigned", "weight")
    return None


@dataclass(frozen=True)
class CheckError:
    path: tuple
    message: str

    def __str__(self):
        where = ".".join(str(i) for i in self.path) if self.path else "root"
        return f"at {where}: {self.message}"


@dataclass
class CheckResult:
    ok: bool
    errors: list
    # the recomputed root weight when ok, else None
    weight: int | None = None


class InvalidDerivation(Exception):
    def __init__(self, errors):
        super().__init__("; ".join(str(e) for e in errors[:3]))
        self.errors = errors


# ---------------------------------------------------------------------------
# weights

def rule_weight(rule, ctx, assigned, premise_weights, mode) -> int:
    """The weight a node's conclusion must carry, from its premises."""
    pw = premise_weights
    if rule in _JOIN_RULES and mode != "kam":
        if mode == "space":
            return max(pw, default=0)
        return sum(pw)
    if mode == "kam":
        if rule == R_DC_VAR:
            return 1
        if rule == R_DC_LAM_STAR:
            return 0
        if rule == R_DC_LAM:
            return pw[0] + 1
        if rule == R_DC_APP:
            return sum(pw) + 1
        raise ValueError(f"rule {rule} has no weight in mode kam")
    if rule not in MACHINE_RULES:
        raise ValueError(f"rule {rule} has no weight in mode {mode}")
    if rule == R_NONE:
        return 0
    # term rules proper
    if mode == "time":
        # uniformly: premises plus the conclusion's own footprint
        return sum(pw) + size_context(ctx) + size_linear(assigned)
    if rule == R_VAR:
        return size_context(ctx) + size_linear(assigned)
    if rule == R_LAM_STAR:
        return size_context(ctx)
    if rule == R_LAM1:
        return pw[0]
    if rule == R_LAM2:
        return max(pw[0], size_context(ctx) + size_linear(assigned))
    if rule == R_APP1:
        return max(pw)
    if rule == R_APP2:
        return pw[0]
    raise ValueError(f"unhandled rule {rule}")


# ---------------------------------------------------------------------------
# per-rule shape and side conditions

def _show(a, cap=None) -> str:
    """A type's or a context's text, cut after cap characters if given.
    A message passes 1,000: the full text of a type read from a file can
    grow exponentially with it."""
    if type(a) is TypeContext:
        return format_context(a, cap) or "."
    return format_type(a, cap)


def _differs(d, err, what, want, found) -> None:
    """Report that d's what is found, where want is what its premises
    give.  Types and contexts are interned, so the rules compare them by
    identity."""
    err(f"{d.rule} {what} {_show(found, 1000)}, expected {_show(want, 1000)}")


# the classes of a linear type, indexed and plain
_LINEAR = (Star, Arrow)
_DC_LINEAR = (Star, DCArrow)
# the source of a plain arrow whose binder goes unused
_UNUSED = MultiType(())


def _term_node(d, err, mode) -> bool:
    c = d.conclusion
    if c.subject_kind != KIND_TERM:
        err(f"rule {d.rule} concludes term judgments, found {c.subject_kind}")
        return False
    if type(c.subject) not in (Var, Abs, App):
        err(f"{d.rule} subject is not a term")
        return False
    want = ClosureMulti if mode != "kam" else MultiType
    for x, m in c.context.entries:
        if type(m) is not want:
            err(f"{d.rule} context image of {x} has the wrong grammar for mode {mode}")
            return False
    fv = c.subject.fv
    dom = c.context.names
    if mode == "kam":
        if not dom <= fv:
            err(
                f"{d.rule} context domain {sorted(dom)} mentions variables not "
                f"free in the subject {sorted(fv)}"
            )
            return False
    elif dom != fv:
        err(f"{d.rule} context domain {sorted(dom)} differs from free variables {sorted(fv)}")
        return False
    return True


def _machine_node(d, err, kind) -> bool:
    """d concludes a kind judgment under the empty context."""
    c = d.conclusion
    if c.subject_kind != kind:
        err(f"rule {d.rule} concludes {kind} judgments, found {c.subject_kind}")
        return False
    if not c.context.is_empty():
        err(f"{d.rule} carries no free context")
        return False
    return True


def _premise_count(d, err, n) -> bool:
    if len(d.premises) != n:
        err(f"rule {d.rule} takes {n} premises, found {len(d.premises)}")
        return False
    return True


def _premise(d, err, i, subject, what, kind=KIND_TERM, linear=None):
    """The conclusion of d's premise i when it is a kind judgment on
    subject, which what names, and assigns a type of a class in linear
    (any type when None); else None, reported."""
    p = d.premises[i].conclusion
    if p.subject_kind != kind or (p.subject is not subject and not _pairs_equal([(p.subject, subject)])):
        err(f"{d.rule} premise {i} must type {what}")
        return None
    if linear is not None and type(p.assigned) not in linear:
        err(f"{d.rule} premise {i} must assign a linear type")
        return None
    return p


def _function(d, err, arrow):
    """The conclusion of d's premise 0 when it types the function of d's
    application at an arrow of class arrow whose target d assigns; else
    None, reported."""
    c = d.conclusion
    p = _premise(d, err, 0, c.subject.fun, "the function")
    if p is None:
        return None
    if type(p.assigned) is not arrow:
        err(f"{d.rule} function premise must assign an arrow")
        return None
    if c.assigned is not p.assigned.res:
        _differs(d, err, "type", p.assigned.res, c.assigned)
        return None
    return p


def _union(d, err, contexts):
    """The union of contexts, or None, reported, when they do not sum."""
    try:
        return contexts_union(contexts)
    except NotSummable as ex:
        err(f"{d.rule} cannot unite the contexts its premises give: {ex}")
        return None


_FORMS = {Var: "a variable", Abs: "an abstraction", App: "an application"}


def _term_rule(d, err, mode, form, n=None) -> bool:
    """d concludes a well-formed term judgment on a subject of form
    (Var, Abs or App), over n premises (any number when None)."""
    if not _term_node(d, err, mode) or (n is not None and not _premise_count(d, err, n)):
        return False
    if type(d.conclusion.subject) is not form:
        err(f"{d.rule} subject must be {_FORMS[form]}")
        return False
    return True


def _check_tvar(d, err, mode):
    if not _term_rule(d, err, mode, Var, 0):
        return
    c = d.conclusion
    if type(c.assigned) not in _LINEAR:
        err("TVar assigns a linear type")
        return
    # dom = fv = {x}: the context is the variable's one binding
    m = c.context.entries[0][1]
    if m.pairs != ((c.assigned, 1),):
        _differs(d, err, "context multi", ClosureMulti((c.assigned,), m.index), m)


def _check_tlamstar(d, err, mode):
    if not _term_rule(d, err, mode, Abs, 0):
        return
    c = d.conclusion
    if type(c.assigned) is not Star:
        err("TLamStar assigns the ground type")
        return
    if not is_dry(c.context):
        err("TLamStar needs a dry context")


def _check_tlam1(d, err, mode):
    if not _term_rule(d, err, mode, Abs, 1):
        return
    c = d.conclusion
    x = c.subject.binder
    p = _premise(d, err, 0, c.subject.body, "the abstraction body", linear=_LINEAR)
    if p is None:
        return
    m = p.context.get(x)
    if m is None:
        err(f"TLam1 needs the binder {x} in the premise context")
        return
    want = Arrow(m, p.assigned)
    if c.assigned is not want:
        _differs(d, err, "type (arrow source: the binder's multi)", want, c.assigned)
        return
    want = p.context.minus(x)
    if c.context is not want:
        _differs(d, err, "context", want, c.context)


def _check_tlam2(d, err, mode):
    if not _term_rule(d, err, mode, Abs, 1):
        return
    c = d.conclusion
    x = c.subject.binder
    p = _premise(d, err, 0, c.subject.body, "the abstraction body", linear=_LINEAR)
    if p is None:
        return
    if type(c.assigned) is not Arrow or c.assigned.arg.pairs:
        err("TLam2 assigns an arrow with an empty source")
        return
    if x in p.context.names:
        err(f"TLam2 requires the binder {x} absent from the premise context")
        return
    want = Arrow(c.assigned.arg, p.assigned)
    if c.assigned is not want:
        _differs(d, err, "type", want, c.assigned)
        return
    if c.context is not p.context:
        _differs(d, err, "context", p.context, c.context)


def _check_tmany(d, err, mode):
    if not _term_node(d, err, mode):
        return
    c = d.conclusion
    if not d.premises:
        err("TMany needs at least one premise")
        return
    for i in range(len(d.premises)):
        if _premise(d, err, i, c.subject, "the same term", linear=_LINEAR) is None:
            return
    union = _union(d, err, [p.conclusion.context for p in d.premises])
    if union is None:
        return
    want = ClosureMulti([p.conclusion.assigned for p in d.premises], 1 + size_context(union))
    if c.assigned is not want:
        _differs(d, err, "type", want, c.assigned)
        return
    if c.context is not union:
        _differs(d, err, "context", union, c.context)


def _check_tnone(d, err, mode):
    if not _term_node(d, err, mode) or not _premise_count(d, err, 0):
        return
    c = d.conclusion
    if not is_dry(c.context):
        err("TNone needs a dry context")
        return
    want = ClosureMulti((), 1 + size_context(c.context))
    if c.assigned is not want:
        _differs(d, err, f"type (index must be 1 + |context| = {want.index})", want, c.assigned)


def _check_tapp1(d, err, mode):
    if not _term_rule(d, err, mode, App, 2):
        return
    c = d.conclusion
    if type(c.subject.arg) is Var:
        err("TApp1 is for non-variable arguments; variables go through TApp2")
        return
    pf = _function(d, err, Arrow)
    if pf is None:
        return
    pa = _premise(d, err, 1, c.subject.arg, "the argument")
    if pa is None:
        return
    if pa.assigned is not pf.assigned.arg:
        _differs(d, err, "argument multi", pf.assigned.arg, pa.assigned)
        return
    union = _union(d, err, [pf.context, pa.context])
    if union is not None and c.context is not union:
        _differs(d, err, "context", union, c.context)


def _check_tapp2(d, err, mode):
    if not _term_node(d, err, mode) or not _premise_count(d, err, 1):
        return
    c = d.conclusion
    if type(c.subject) is not App or type(c.subject.arg) is not Var:
        err("TApp2 subject must be an application with a variable argument")
        return
    p = _function(d, err, Arrow)
    if p is None:
        return
    union = _union(d, err, [p.context, TypeContext(((c.subject.arg.name, p.assigned.arg),))])
    if union is not None and c.context is not union:
        _differs(d, err, "context", union, c.context)


def _check_tenv(d, err, mode):
    if not _machine_node(d, err, KIND_ENV):
        return
    c = d.conclusion
    e = _env_entries(c.subject)
    if e is None:
        err("TEnv subject is not an environment")
        return
    names = [x for x, _ in e]
    if len(set(names)) != len(names):
        err(f"TEnv environment binds a name twice: {names}")
        return
    if not _premise_count(d, err, len(e)):
        return
    for i, (x, cl) in enumerate(e):
        if _premise(d, err, i, cl, f"the closure bound to {x}", KIND_CLOSURE) is None:
            return
    want = TypeContext(tuple(zip(names, [p.conclusion.assigned for p in d.premises])))
    if c.assigned is not want:
        _differs(d, err, "type", want, c.assigned)


def _env_entries(e) -> list | None:
    """e's (name, closure) entries, most recent first, or None when e is
    not a linked environment."""
    out = []
    while type(e) is tuple and len(e) == 3:
        x, c, e = e
        if not isinstance(x, str) or type(c) is not Closure:
            return None
        out.append((x, c))
    return out if e == () else None


def _check_tcl(d, err, mode):
    if not _machine_node(d, err, KIND_CLOSURE):
        return
    c = d.conclusion
    if type(c.subject) is not Closure:
        err("TCl subject is not a closure")
        return
    if type(c.assigned) is not ClosureMulti:
        err("TCl assigns a multi type")
        return
    if not _premise_count(d, err, 2):
        return
    pt = _premise(d, err, 0, c.subject.code, "the closure code")
    if pt is None:
        return
    pe = _premise(d, err, 1, c.subject.env, "the closure environment", KIND_ENV)
    if pe is None:
        return
    if c.assigned is not pt.assigned:
        _differs(d, err, "type", pt.assigned, c.assigned)
        return
    if pe.assigned is not pt.context:
        _differs(d, err, "environment premise type", pt.context, pe.assigned)


def _check_tst(d, err, mode):
    if not _machine_node(d, err, KIND_STATE):
        return
    c = d.conclusion
    s = c.subject
    if type(s) is not MachState:
        err("TSt subject is not a machine state")
        return
    if type(c.assigned) is not Star:
        err("TSt assigns the ground type")
        return
    stack, k = [], s.stack
    while k:  # one premise per stack closure
        stack.append(k[0])
        k = k[1]
    if not _premise_count(d, err, 2 + len(stack)):
        return
    pt = _premise(d, err, 0, s.code, "the state's code")
    if pt is None:
        return
    pe = _premise(d, err, 1, s.env, "the state's environment", KIND_ENV)
    if pe is None:
        return
    if pe.assigned is not pt.context:
        _differs(d, err, "environment premise type", pt.context, pe.assigned)
        return
    # the code's type must spend one arrow per stack closure, top first,
    # and bottom out at the ground type
    a = pt.assigned
    for i, cl in enumerate(stack):
        if type(a) is not Arrow:
            err(f"TSt code type runs out of arrows at stack position {i}")
            return
        p = _premise(d, err, 2 + i, cl, f"stack closure {i}", KIND_CLOSURE)
        if p is None:
            return
        if p.assigned is not a.arg:
            _differs(d, err, f"stack closure {i} type", a.arg, p.assigned)
            return
        a = a.res
    if type(a) is not Star:
        err("TSt code type must end at the ground type once the stack is spent")


def _check_dc_tvar(d, err, mode):
    if not _term_rule(d, err, mode, Var, 0):
        return
    c = d.conclusion
    if type(c.assigned) not in _DC_LINEAR:
        err("DC_TVar assigns a linear type")
        return
    want = TypeContext(((c.subject.name, MultiType((c.assigned,))),))
    if c.context is not want:
        _differs(d, err, "context", want, c.context)


def _check_dc_tlamstar(d, err, mode):
    if not _term_rule(d, err, mode, Abs, 0):
        return
    c = d.conclusion
    if type(c.assigned) is not Star:
        err("DC_TLamStar assigns the ground type")
        return
    if not c.context.is_empty():
        err("DC_TLamStar needs an empty context")


def _check_dc_tlam(d, err, mode):
    if not _term_rule(d, err, mode, Abs, 1):
        return
    c = d.conclusion
    x = c.subject.binder
    p = _premise(d, err, 0, c.subject.body, "the abstraction body", linear=_DC_LINEAR)
    if p is None:
        return
    want = DCArrow(p.context.get(x) or _UNUSED, p.assigned)
    if c.assigned is not want:
        _differs(d, err, "type (arrow source: the binder's multi)", want, c.assigned)
        return
    want = p.context.minus(x)
    if c.context is not want:
        _differs(d, err, "context", want, c.context)


def _check_dc_tapp(d, err, mode):
    if not _term_rule(d, err, mode, App):
        return
    c = d.conclusion
    if not d.premises:
        err("DC_TApp needs the function premise")
        return
    pf = _function(d, err, DCArrow)
    if pf is None:
        return
    for i in range(1, len(d.premises)):
        if _premise(d, err, i, c.subject.arg, "the argument", linear=_DC_LINEAR) is None:
            return
    want = MultiType([p.conclusion.assigned for p in d.premises[1:]])
    if want is not pf.assigned.arg:
        _differs(d, err, "argument multi", pf.assigned.arg, want)
        return
    want = contexts_union([p.conclusion.context for p in d.premises])
    if c.context is not want:
        _differs(d, err, "context", want, c.context)


_RULE_CHECKS = {
    R_VAR: _check_tvar,
    R_LAM_STAR: _check_tlamstar,
    R_LAM1: _check_tlam1,
    R_LAM2: _check_tlam2,
    R_MANY: _check_tmany,
    R_NONE: _check_tnone,
    R_APP1: _check_tapp1,
    R_APP2: _check_tapp2,
    R_ENV: _check_tenv,
    R_CL: _check_tcl,
    R_ST: _check_tst,
    R_DC_VAR: _check_dc_tvar,
    R_DC_LAM_STAR: _check_dc_tlamstar,
    R_DC_LAM: _check_dc_tlam,
    R_DC_APP: _check_dc_tapp,
}


# ---------------------------------------------------------------------------
# tree walks

def _table(d: Derivation):
    """The node table of d: each node object once, after its premises,
    ordered by its first place in a post-order walk (premises in stored
    order); per row, its premises' rows; and per node id, the (parent
    id, premise number) of that first place.  A node may stand at many
    places (decoded files share equal subtrees)."""
    if not isinstance(d, Derivation):
        raise TypeError(f"not a derivation: {d!r}")
    nodes, rows = [], []
    # keyed by id(): nodes compare through their files, and a decoded
    # file shares one node object across places
    first: dict[int, tuple] = {id(d): (None, None)}
    row: dict[int, int] = {}
    stack = [(d, enumerate(d.premises))]
    while stack:
        n, premises = stack[-1]
        for i, p in premises:
            if id(p) not in first:
                if not isinstance(p, Derivation):
                    raise TypeError(f"premise is not a derivation: {p!r}")
                first[id(p)] = (id(n), i)
                stack.append((p, enumerate(p.premises)))
                break
        else:
            stack.pop()
            row[id(n)] = len(nodes)
            nodes.append(n)
            rows.append([row[id(p)] for p in n.premises])
    return nodes, rows, first


def _path_of(first, n) -> tuple:
    """The premise path of n's first place, from _table's records."""
    path = []
    parent, i = first[id(n)]
    while parent is not None:
        path.append(i)
        parent, i = first[parent]
    return tuple(reversed(path))


def _rule_errors(n, mode) -> list:
    """What is wrong with node n's shape and side conditions in mode."""
    if n.rule not in (DC_RULES if mode == "kam" else MACHINE_RULES):
        return [f"rule {n.rule} does not belong to mode {mode}"]
    msgs = []
    try:
        _RULE_CHECKS[n.rule](n, msgs.append, mode)
    except Exception as ex:  # malformed nodes must fail, not crash
        msgs.append(f"malformed node: {ex}")
    return msgs


def _count_rules(nodes, rows) -> dict:
    """Rule uses in a node table, a node counted once per place it
    stands at."""
    places = [0] * len(nodes)
    places[-1] = 1  # the root
    counts: Counter = Counter()
    for r in range(len(nodes) - 1, -1, -1):  # each node before its premises
        k = places[r]
        counts[nodes[r].rule] += k
        for p in rows[r]:
            places[p] += k
    return dict(counts)


def _size(counts) -> int:
    return sum(k for rule, k in counts.items() if rule not in _SIZE_EXEMPT)


@dataclass
class CheckWalk:
    """What check_walk found: check's errors in the first mode; per mode,
    the recomputed root weight (None when the tree fails in that mode)
    and the first failing node's errors; and the rule uses."""

    errors: list
    weights: dict
    failures: dict
    counts: dict

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def size(self) -> int:
        return _size(self.counts)

    def weight(self, mode: str) -> int:
        """mode's root weight; raises InvalidDerivation when there is none."""
        if self.weights[mode] is None:
            raise InvalidDerivation(self.failures[mode])
        return self.weights[mode]


def check_walk(d: Derivation, modes: tuple, full_scan: bool = False) -> CheckWalk:
    """Check d in all of modes at once: space and time share the tree and
    differ only in weights; kam goes alone.  Each node's shape is checked
    once (a failing node is described again per mode, as messages name
    it) and its weight recomputed in every mode.  Stored weights are
    compared in the first mode, not above a failed node.  Reports only
    the first failing node unless full_scan.  A node standing at several
    places is checked once and reported at its first; counts count all."""
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; pick one of {', '.join(MODES)}")
    first = modes[0]
    nodes, rows, places = _table(d)
    weights = [[] for _ in modes]  # per mode, each row's recomputed weight
    fell: set[int] = set()  # rows failing in the first mode, or above one
    groups = []  # per-node error lists, deepest node first
    failures: dict[str, list] = {}
    for r, (n, prem) in enumerate(zip(nodes, rows)):
        c = n.conclusion
        msgs = _rule_errors(n, first)
        fails = {m: msgs if m == first else _rule_errors(n, m) for m in modes} if msgs else {}
        for known, mode in zip(weights, modes):
            pw = [known[p] for p in prem]
            w = None
            if not msgs and None not in pw:
                try:
                    w = rule_weight(n.rule, c.context, c.assigned, pw, mode)
                except (TypeError, ValueError) as ex:
                    fails[mode] = [f"weight not computable: {ex}"]
            known.append(w)
        below = fell and not fell.isdisjoint(prem)
        w = weights[0][r]
        if not msgs and not below:
            if first in fails:
                msgs = fails[first]
            elif not isinstance(c.weight, int) or isinstance(c.weight, bool) or c.weight != w:
                msgs = [f"stored weight {c.weight!r}, recomputed {w}"]
        if msgs or below:
            fell.add(r)
        if msgs or fails:
            path = _path_of(places, n)
            for m, f in fails.items():
                failures.setdefault(m, [CheckError(path, x) for x in f])
            if msgs and (full_scan or not groups):
                groups.append([CheckError(path, x) for x in msgs])
    # report shallow nodes first
    errors = [e for grp in reversed(groups) for e in grp]
    return CheckWalk(errors, {m: w[-1] for m, w in zip(modes, weights)}, failures, _count_rules(nodes, rows))


def check(d: Derivation, mode: str, full_scan: bool = False) -> CheckResult:
    """Validate every node and compare stored weights against recomputed
    ones.  Reports the first failing node only, unless full_scan.  A
    passing result carries the recomputed root weight, which is then
    also the stored one."""
    walk = check_walk(d, (mode,), full_scan)
    return CheckResult(walk.ok, walk.errors, walk.weights[mode] if walk.ok else None)


def weight_of(d: Derivation, mode: str) -> int:
    """The recomputed root weight; stored weights are ignored.  Raises
    InvalidDerivation when the structure itself does not check."""
    return check_walk(d, (mode,)).weight(mode)


def reweight(d: Derivation, mode: str) -> Derivation:
    """The same tree with every stored weight replaced by mode's
    recomputed one.  The structure must be valid enough for the weight
    formulas to make sense; nothing else is checked."""
    rebuilt: list = []  # per row
    nodes, rows, _ = _table(d)
    for n, row in zip(nodes, rows):
        prem = tuple([rebuilt[p] for p in row])
        w = rule_weight(
            n.rule,
            n.conclusion.context,
            n.conclusion.assigned,
            [p.conclusion.weight for p in prem],
            mode,
        )
        rebuilt.append(Derivation(n.rule, replace(n.conclusion, weight=w), prem))
    return rebuilt[-1]


def size_of(d: Derivation) -> int:
    """Nodes counted once per occurrence, skipping the bookkeeping rules
    (TMany, TNone, TCl, TEnv).  On a run derivation this counts the
    machine states."""
    return _size(rule_counts(d))


def rule_counts(d: Derivation) -> dict:
    return _count_rules(*_table(d)[:2])


def counts_correspond(counts: dict, run: Run) -> bool:
    """Rule counts against transition counts for a complete run:

        TApp2 = sea_v   TApp1 = sea_nv   TLam1 = beta_nw
        TLam2 = beta_w  TVar  = sub      TLamStar = 1 (the final state)
    """
    want = {R_APP2: "sea_v", R_APP1: "sea_nv", R_LAM1: "beta_nw", R_LAM2: "beta_w", R_VAR: "sub"}
    each = all(counts.get(r, 0) == run.counts.get(x, 0) for r, x in want.items())
    return run.final_reached and each and counts.get(R_LAM_STAR, 0) == 1


def check_rule_transition_correspondence(d: Derivation, run: Run) -> bool:
    return counts_correspond(rule_counts(d), run)


# ---------------------------------------------------------------------------
# JSON
#
# A derivation file is {"tables": {"types", "terms", "closures",
# "nodes"}}, each entry written once and referring by index only to
# entries before it:
#
#   types     "*" | {"arg": i, "res": j} | {"multi": [[i, n], ...], "k": k}
#             | {"multi": [[i, n], ...]}
#   terms     {"var": x} | {"lam": x, "body": i} | {"app": [i, j]}
#   closures  {"code": term, "env": e} | {"name": x, "closure": c, "rest": e}
#             | {"top": c, "rest": k} | {}
#   nodes     {"rule": r, "judgment": j, "premises": [node, ...]}
#
# The closures table holds closures, env cells, stack cells and the one
# empty chain, {}, so an environment or a stack is the index of its
# first cell and a tail that many share is written once (kam.Rows
# writes the terms and closures tables).  The root is the last node, so
# a file's depth does not grow with its derivation.  A judgment's
# subject is a term, closure or environment index, or a state {"code",
# "env", "stack"} of three indices; its context maps names to type
# indices, and its type is a type index, or a context for environment
# judgments.  A multi lists one [type, count] pair per distinct
# element, in canonical order, with a positive count, and "k" is the
# index of an indexed multi.


class _Tables:
    """The four tables of one derivation file, filled as the encoder
    meets their entries, children before parents: types by a TypeTable,
    terms and closures by one kam.Rows.  A node is looked up by its
    entry's key, so equal nodes share one entry, however the derivation
    shares them."""

    def __init__(self):
        self.types = TypeTable()
        self.rows = Rows()
        self.nodes: list = []
        self.node_at: dict = {}  # node entry key -> entry index

    def to_json(self) -> dict:
        return {
            "types": self.types.entries,
            "terms": self.rows.terms.entries,
            "closures": self.rows.closures,
            "nodes": self.nodes,
        }

    def subject(self, kind, subject) -> tuple:
        """subject's entry and its key."""
        if kind == KIND_TERM:
            i = self.rows.terms.add(subject)
        elif kind == KIND_CLOSURE or kind == KIND_ENV:
            i = self.rows.add(subject)
        elif kind == KIND_STATE:
            entry = self.rows.state(subject.code, subject.env, subject.stack)
            return entry, tuple(entry.values())
        else:
            raise ValueError(f"unknown subject kind {kind!r}")
        return i, i

    def node(self, n: Derivation, premises: list) -> int:
        """Enter n, whose premises are entered already at the entry
        numbers premises, and return n's entry number.  Types and
        contexts are interned, so their objects key the node as their
        entries would."""
        types = self.types
        j, a = n.conclusion, n.conclusion.assigned
        subject, subject_key = self.subject(j.subject_kind, j.subject)
        key = (n.rule, j.subject_kind, subject_key, j.context, a, j.weight, *premises)
        i = self.node_at.get(key)
        if i is None:
            judgment = {
                "subject_kind": j.subject_kind,
                "subject": subject,
                "context": context_to_json(j.context, types),
                "type": context_to_json(a, types) if type(a) is TypeContext else types.add(a),
                "weight": j.weight,
            }
            i = self.node_at[key] = len(self.nodes)
            self.nodes.append({"rule": n.rule, "judgment": judgment, "premises": premises})
        return i


def derivation_to_json(d: Derivation) -> dict:
    """The derivation file of d.  Entries are numbered in the order a
    post-order walk meets them, premises in stored order, so the output
    depends only on d; equal subtrees share their entries."""
    tables, entries = _Tables(), []
    nodes, rows, _ = _table(d)
    for n, prem in zip(nodes, rows):
        entries.append(tables.node(n, [entries[p] for p in prem]))
    return {"tables": tables.to_json()}


class _Decoder:
    """The decoded tables of one file, each in its own table's order."""

    def __init__(self, tables):
        self.types = types_from_json(tables["types"])
        self.terms, self.closures = read_rows(tables["terms"], tables["closures"])
        self.nodes = decode_table(tables["nodes"], "nodes", self._node)
        if not self.nodes:
            raise ValueError("nodes must hold at least the root")

    def term(self, i):
        return self.terms[json_index(i, len(self.terms))]

    def subject(self, kind, obj):
        if kind == KIND_TERM:
            return self.term(obj)
        if kind == KIND_ENV:
            return row_at(self.closures, obj, 3)
        if kind == KIND_CLOSURE:
            return row_at(self.closures, obj, Closure)
        if kind == KIND_STATE:
            if not isinstance(obj, dict) or obj.keys() != {"code", "env", "stack"}:
                raise ValueError("state subject must have code, env and stack")
            c = self.closures
            return MachState(self.term(obj["code"]), row_at(c, obj["env"], 3), row_at(c, obj["stack"], 2))
        raise ValueError(f"unknown subject kind {kind!r}")

    def judgment(self, obj) -> Judgment:
        if not isinstance(obj, dict):
            raise ValueError("judgment must be an object")
        missing = _JUDGMENT_KEYS - obj.keys()
        if missing:
            raise ValueError(f"judgment lacks {sorted(missing)}")
        kind = obj["subject_kind"]
        subject = self.subject(kind, obj["subject"])
        types = self.types
        context = context_from_json(obj["context"], types)
        t = obj["type"]
        assigned = (
            context_from_json(t, types) if kind == KIND_ENV else types[json_index(t, len(types))]
        )
        weight = obj["weight"]
        if type(weight) is not int:
            raise ValueError("weight must be an integer")
        return Judgment(kind, subject, context, assigned, weight)

    def _node(self, e, done) -> Derivation:
        if not isinstance(e, dict):
            raise ValueError("node must be an object")
        missing = _NODE_KEYS - e.keys()
        if missing:
            raise ValueError(f"node lacks {sorted(missing)}")
        rule = e["rule"]
        if not isinstance(rule, str) or rule not in _RULES:
            raise ValueError(f"unknown rule {rule!r}")
        conclusion = self.judgment(e["judgment"])
        if not isinstance(e["premises"], list):
            raise ValueError("premises must be a list")
        i = len(done)
        return Derivation(rule, conclusion, tuple(done[json_index(p, i)] for p in e["premises"]))


_JUDGMENT_KEYS = frozenset({"subject_kind", "subject", "context", "type", "weight"})
_NODE_KEYS = frozenset({"rule", "judgment", "premises"})
_TABLES = frozenset({"types", "terms", "closures", "nodes"})
_RULES = MACHINE_RULES | DC_RULES


def derivation_from_json(obj) -> Derivation:
    """Decode a derivation file into its root, the last node.  Each
    entry is built once and shared by every entry that refers to it.  A
    ValueError names the entry where the file is wrong, as in
    root: tables.nodes[3]: ..."""
    if not isinstance(obj, dict):
        raise ValueError("root: derivation must be an object")
    if "tables" not in obj:
        raise ValueError("root: derivation lacks ['tables']")
    tables = obj["tables"]
    if not isinstance(tables, dict):
        raise ValueError("root: tables must be an object")
    missing = _TABLES - tables.keys()
    if missing:
        raise ValueError(f"root: tables lack {sorted(missing)}")
    try:
        return _Decoder(tables).nodes[-1]
    except ValueError as ex:
        raise ValueError(f"root: tables.{ex}") from None


# ---------------------------------------------------------------------------
# pretty rendering

def _subject_str(kind, subject):
    if kind == KIND_TERM:
        return print_term(subject)
    # closures are written from an explicit stack of text and closures,
    # so nesting depth is not limited by the recursion limit
    if kind == KIND_CLOSURE:
        items = [subject]
    elif kind == KIND_ENV:
        items = _env_items(subject)
    else:
        items = ["(", print_term(subject.code), " | ", *_env_items(subject.env), " | "]
        k, sep = subject.stack, ()
        while k:
            items += (*sep, k[0])
            k, sep = k[1], (" . ",)
        items.append(")")
    out = []
    work = items[::-1]
    while work:
        x = work.pop()
        if type(x) is str:
            out.append(x)
        else:
            work += reversed(["(", print_term(x.code), ", ", *_env_items(x.env), ")"])
    return "".join(out)


def _env_items(e) -> list:
    """e's text as a list of strings and closures still to write."""
    items, sep = ["["], ""
    while e:
        items += (f"{sep}{e[0]} <- ", e[1])
        e, sep = e[2], ", "
    items.append("]")
    return items


def render_derivation(d: Derivation) -> str:
    """An indented one-node-per-line rendering, premises below their
    conclusion."""
    lines = []
    stack = [(d, 0)]
    while stack:
        n, depth = stack.pop()
        c = n.conclusion
        lines.append(
            f"{'  ' * depth}{n.rule} w={c.weight}  {_show(c.context)} |- "
            f"{_subject_str(c.subject_kind, c.subject)} : {_show(c.assigned)}"
        )
        for p in reversed(n.premises):
            stack.append((p, depth + 1))
    return "\n".join(lines)
