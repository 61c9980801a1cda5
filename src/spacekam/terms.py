"""Syntax and weak head reduction for the pure lambda calculus.

Terms are hash-consed on the intern table they share with types
(hashcons), so equal terms are one object: == and hash are identity,
and == stays name-sensitive; alpha_eq compares up to renaming of bound
variables.  Concrete syntax accepts '\\' or 'λ' for binders, '--' line
comments, and identifiers over letters, digits, underscore and prime.

Every term stores its free variables in fv, worked out once, when the
term is first built; a term whose free variables equal a child's
shares that child's frozenset.  fv takes no part in ==, hash or repr.

Long reduction sequences produce deeply nested terms, so every
traversal here (parsing, substitution, printing, alpha equality) and
repr use an explicit stack rather than recursion: no nesting depth
depends on the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .hashcons import TABLE, Interned, dead, enter


class ParseError(ValueError):
    """Malformed input; offset is the byte position of the failure.

    A ValueError, so callers validating embedded term strings (the
    derivation JSON loader for one) catch it without special casing."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte offset {offset}")
        self.message = message
        self.offset = offset


class _Term(Interned):
    __slots__ = ("fv",)


class Var(_Term):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        tk = (cls, name)
        a = TABLE.get(tk, dead)()
        if a is None:
            a = object.__new__(cls)
            _set_name(a, name)
            _set_fv(a, frozenset((name,)))
            a = enter(tk, a)
        return a


class Abs(_Term):
    __slots__ = ("binder", "body")

    def __new__(cls, binder: str, body: "Term"):
        tk = (cls, binder, body)
        a = TABLE.get(tk, dead)()
        if a is None:
            fv = body.fv
            a = object.__new__(cls)
            _set_binder(a, binder)
            _set_body(a, body)
            _set_fv(a, fv - {binder} if binder in fv else fv)
            a = enter(tk, a)
        return a


class App(_Term):
    __slots__ = ("fun", "arg")

    def __new__(cls, fun: "Term", arg: "Term"):
        tk = (cls, fun, arg)
        a = TABLE.get(tk, dead)()
        if a is None:
            f, g = fun.fv, arg.fv
            a = object.__new__(cls)
            _set_fun(a, fun)
            _set_arg(a, arg)
            _set_fv(a, f if g <= f else g if f <= g else f | g)
            a = enter(tk, a)
        return a


# constructors set fields through the slot descriptors, past Frozen's
# __setattr__
_set_fv = _Term.fv.__set__
_set_name = Var.name.__set__
_set_binder, _set_body = Abs.binder.__set__, Abs.body.__set__
_set_fun, _set_arg = App.fun.__set__, App.arg.__set__


Term = Union[Var, Abs, App]


# ---------------------------------------------------------------------------
# parsing

_IDENT = re.compile(r"[A-Za-z0-9_']+")
# one alternative per token kind; skip is whitespace and '--' comments,
# bad any character no other kind takes
_TOKEN = re.compile(
    rf"(?P<skip>[ \t\r\n]+|--[^\n]*)|(?P<lam>[\\λ])|(?P<dot>\.)|(?P<lpar>\()|(?P<rpar>\))"
    rf"|(?P<ident>{_IDENT.pattern})|(?P<bad>.)",
    re.DOTALL,
)
# a character standing for one byte that was not UTF-8, as sys.argv and
# click decode with surrogateescape
_ESCAPED = re.compile("[\udc80-\udcff]")


def is_name(x) -> bool:
    """x is a string the parser reads as one identifier."""
    return isinstance(x, str) and _IDENT.fullmatch(x) is not None


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # (kind, text, codepoint index), then an end token at len(text)
    toks = [(k, m[0], m.start()) for m in _TOKEN.finditer(text) if (k := m.lastgroup) != "skip"]
    toks.append(("end", "", len(text)))
    return toks


def _fail(text: str, toks: list, pos: int, message: str):
    """Raise message at codepoint pos, unless a character no token takes
    stands anywhere in the input: that is the error then.  The offset
    counts the bytes the user typed: one per escaped byte, and the three
    surrogatepass writes for any other lone surrogate."""
    for kind, tok, p in toks:
        if kind == "bad":
            message, pos = f"unexpected character {tok!r}", p
            break
    head = text[:pos]
    offset = len(head.encode("utf-8", "surrogatepass")) - 2 * len(_ESCAPED.findall(head))
    raise ParseError(message, offset)


def parse_term(text: str) -> Term:
    """Parse a term.

    Grammar: a term is an abstraction or an application of one or more
    atoms, where an atom is an identifier or a parenthesized term.  An
    abstraction body extends as far right as possible; an abstraction in
    the last argument position of an application needs no parentheses.
    """
    toks = _tokenize(text)
    # the open groups: the whole input, then one per open parenthesis.
    # The innermost holds its abstractions, on opened above base as
    # (application before the lambda, binder), each body running to the
    # group's end, and app, the application after the last of them (None
    # while empty); the enclosing groups wait on groups as (app, base).
    groups = []
    opened = []
    app = None
    base = 0
    i = 0
    while True:
        kind, tok, pos = toks[i]
        i += 1
        if kind == "ident":
            app = Var(tok) if app is None else App(app, Var(tok))
        elif kind == "lpar":
            groups.append((app, base))
            app, base = None, len(opened)
        elif kind == "lam":
            binder = toks[i]
            if binder[0] != "ident":
                _fail(text, toks, binder[2], "expected a binder after the lambda")
            dot = toks[i + 1]  # the end token comes after an ident
            if dot[0] != "dot":
                _fail(text, toks, dot[2], "expected '.' after the binder")
            opened.append((app, binder[1]))
            app = None
            i += 2
        else:
            # ')', '.' or the end of input closes the group; a bad token fails
            if app is None:
                empty = "expected a term, found end of input"
                _fail(text, toks, pos, f"unexpected {tok!r}" if tok else empty)
            if kind != ("rpar" if groups else "end"):
                _fail(text, toks, pos, "expected ')'" if groups else f"unexpected {tok!r} after the term")
            t = app
            while len(opened) > base:
                before, x = opened.pop()
                t = Abs(x, t) if before is None else App(before, Abs(x, t))
            if not groups:
                return t
            app, base = groups.pop()
            app = t if app is None else App(app, t)


def print_term(t: Term) -> str:
    """Render with '\\' binders; parse_term(print_term(t)) == t."""
    # context: 0 = top or abstraction body, 1 = function position,
    # 2 = argument position
    out = []
    work = [("t", t, 0)]
    while work:
        tag, x, ctx = work.pop()
        if tag == "s":
            out.append(x)
            continue
        if type(x) is Var:
            out.append(x.name)
        elif type(x) is Abs:
            parens = ctx != 0
            if parens:
                out.append("(")
                work.append(("s", ")", 0))
            out.append(f"\\{x.binder}.")
            work.append(("t", x.body, 0))
        else:
            parens = ctx == 2
            if parens:
                out.append("(")
                work.append(("s", ")", 0))
            work.append(("t", x.arg, 2))
            work.append(("s", " ", 0))
            work.append(("t", x.fun, 1))
    return "".join(out)


# ---------------------------------------------------------------------------
# variables and substitution

def free_vars(t: Term) -> frozenset[str]:
    return t.fv


def all_vars(t: Term) -> frozenset[str]:
    """Every name occurring in t, free or binding."""
    names = set()
    work = [t]
    while work:
        x = work.pop()
        if type(x) is Var:
            names.add(x.name)
        elif type(x) is App:
            work.append(x.fun)
            work.append(x.arg)
        else:
            names.add(x.binder)
            work.append(x.body)
    return frozenset(names)


def term_size(t: Term) -> int:
    n = 0
    work = [t]
    while work:
        x = work.pop()
        n += 1
        if type(x) is App:
            work.append(x.fun)
            work.append(x.arg)
        elif type(x) is Abs:
            work.append(x.body)
    return n


_fresh_counter = 0


def _fresh(base: str, avoid: frozenset[str] | set[str]) -> str:
    global _fresh_counter
    while True:
        _fresh_counter += 1
        cand = f"{base}_{_fresh_counter}"
        if cand not in avoid:
            return cand


def subst(t: Term, x: str, u: Term) -> Term:
    """Capture-avoiding t{x := u}; binders clashing with fv(u) are renamed."""
    return _subst_sim(t, {x: u}, u.fv)


def _subst_sim(t: Term, sigma: dict[str, Term], avoid: frozenset[str]) -> Term:
    # simultaneous substitution, post-order rebuild with an explicit stack
    work: list[tuple[str, object, object]] = [("v", t, sigma)]
    out: list[Term] = []
    while work:
        tag, a, b = work.pop()
        if tag == "v":
            node, sg = a, b
            # untouched subtrees are reused, not copied, so binders are
            # only ever renamed under a live capture threat
            if sg.keys().isdisjoint(node.fv):
                out.append(node)
                continue
            if type(node) is Var:
                out.append(sg.get(node.name, node))
            elif type(node) is App:
                work.append(("app", None, None))
                work.append(("v", node.arg, sg))
                work.append(("v", node.fun, sg))
            else:
                y = node.binder
                sg2 = {k: v for k, v in sg.items() if k != y}
                if not sg2:
                    out.append(node)
                    continue
                if y in avoid:
                    # a substituted image could capture y; rename the binder,
                    # steering clear of everything already in the body
                    y2 = _fresh(y, avoid | all_vars(node.body) | set(sg2))
                    sg2[y] = Var(y2)
                    y = y2
                work.append(("abs", y, None))
                work.append(("v", node.body, sg2))
        elif tag == "app":
            arg = out.pop()
            fun = out.pop()
            out.append(App(fun, arg))
        else:
            out.append(Abs(a, out.pop()))
    assert len(out) == 1
    return out[0]


def alpha_eq(t: Term, u: Term) -> bool:
    # simultaneous walk assigning the same level to corresponding binders
    mt: dict[str, list[int]] = {}
    mu: dict[str, list[int]] = {}
    lvl = 0
    work: list[tuple[str, object, object]] = [("t", t, u)]
    while work:
        tag, a, b = work.pop()
        if tag == "x":
            mt[a].pop()
            mu[b].pop()
            continue
        if type(a) is not type(b):
            return False
        if type(a) is Var:
            sa = mt.get(a.name)
            sb = mu.get(b.name)
            ra = sa[-1] if sa else ("free", a.name)
            rb = sb[-1] if sb else ("free", b.name)
            if ra != rb:
                return False
        elif type(a) is App:
            work.append(("t", a.arg, b.arg))
            work.append(("t", a.fun, b.fun))
        else:
            lvl += 1
            mt.setdefault(a.binder, []).append(lvl)
            mu.setdefault(b.binder, []).append(lvl)
            work.append(("x", a.binder, b.binder))
            work.append(("t", a.body, b.body))
    return True


# ---------------------------------------------------------------------------
# weak head reduction

def whnf_step(t: Term) -> Term | None:
    """One step of weak head reduction, or None if t is already normal.

    The head redex of (\\x.b) u r1 .. rh fires: the result is
    b{x := u} r1 .. rh.  Nothing reduces under an abstraction.
    """
    spine = []
    h = t
    while type(h) is App:
        spine.append(h.arg)
        h = h.fun
    if type(h) is not Abs or not spine:
        return None
    reduced = subst(h.body, h.binder, spine[-1])
    for a in reversed(spine[:-1]):
        reduced = App(reduced, a)
    return reduced


@dataclass(frozen=True, slots=True)
class WhnfResult:
    result: Term
    steps: int
    exhausted: bool


def whnf_eval(t: Term, fuel: int) -> WhnfResult:
    """Iterate whnf_step at most fuel times.

    exhausted is True only when the fuel ran out strictly before a
    normal form: a term already normal reports exhausted=False at any
    fuel, including zero.
    """
    steps = 0
    while steps < fuel:
        nxt = whnf_step(t)
        if nxt is None:
            return WhnfResult(t, steps, False)
        t = nxt
        steps += 1
    return WhnfResult(t, steps, whnf_step(t) is not None)
