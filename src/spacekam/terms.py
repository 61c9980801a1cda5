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

from .hashcons import TABLE, Interned, store


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
        return TABLE.get(tk) or store(tk, cls, name=name, fv=frozenset((name,)))


class Abs(_Term):
    __slots__ = ("binder", "body")

    def __new__(cls, binder: str, body: "Term"):
        tk = (cls, binder, body)
        fv = body.fv
        return TABLE.get(tk) or store(
            tk, cls, binder=binder, body=body, fv=fv - {binder} if binder in fv else fv
        )


class App(_Term):
    __slots__ = ("fun", "arg")

    def __new__(cls, fun: "Term", arg: "Term"):
        tk = (cls, fun, arg)
        f, a = fun.fv, arg.fv
        return TABLE.get(tk) or store(
            tk, cls, fun=fun, arg=arg, fv=f if a <= f else a if f <= a else f | a
        )


Term = Union[Var, Abs, App]


# ---------------------------------------------------------------------------
# parsing

_IDENT = re.compile(r"[A-Za-z0-9_']+")
_WS = " \t\r\n"


def is_name(x) -> bool:
    """x is a string the parser reads as one identifier."""
    return isinstance(x, str) and _IDENT.fullmatch(x) is not None


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # token kinds: lam, dot, lpar, rpar, ident; position is a codepoint
    # index, converted to a byte offset only when reporting errors
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _WS:
            i += 1
        elif text.startswith("--", i):
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
        elif ch == "\\" or ch == "λ":
            toks.append(("lam", ch, i))
            i += 1
        elif ch == ".":
            toks.append(("dot", ch, i))
            i += 1
        elif ch == "(":
            toks.append(("lpar", ch, i))
            i += 1
        elif ch == ")":
            toks.append(("rpar", ch, i))
            i += 1
        else:
            m = _IDENT.match(text, i)
            if m is None:
                raise ParseError(f"unexpected character {ch!r}", _byte_offset(text, i))
            toks.append(("ident", m.group(), i))
            i = m.end()
    return toks


# the open constructs of parse_term
_LAM, _APP, _LAST, _PAREN = range(4)


def parse_term(text: str) -> Term:
    """Parse a term.

    Grammar: a term is an abstraction or an application of one or more
    atoms, where an atom is an identifier or a parenthesized term.  An
    abstraction body extends as far right as possible; an abstraction in
    the last argument position of an application needs no parentheses.
    """
    toks = _tokenize(text)
    toks.append(None)  # end of input; pos never passes it
    eof = _byte_offset(text, len(text))
    pos = 0
    # open constructs, innermost last: (_LAM, binder) awaits its body,
    # (_APP, fun) its next atom (fun is None before the first),
    # (_LAST, fun) its final abstraction argument, (_PAREN, None) its ')'
    frames: list = []

    def fail(message, tok):
        raise ParseError(message, eof if tok is None else _byte_offset(text, tok[2]))

    def expect(kind, message):
        nonlocal pos
        tok = toks[pos]
        if tok is None or tok[0] != kind:
            fail(message, tok)
        pos += 1
        return tok[1]

    want_term = True  # else an atom, inside the application on top
    while True:
        tok = toks[pos]
        if want_term:
            if tok is None:
                fail("expected a term, found end of input", None)
            if tok[0] == "lam":
                pos += 1
                frames.append((_LAM, expect("ident", "expected a binder after the lambda")))
                expect("dot", "expected '.' after the binder")
                continue
            frames.append((_APP, None))
        # an atom
        if tok[0] == "lpar":
            pos += 1
            frames.append((_PAREN, None))
            want_term = True
            continue
        if tok[0] != "ident":
            fail(f"unexpected {tok[1]!r}", tok)
        pos += 1
        t = Var(tok[1])
        # t is complete: hand it to the constructs it closes
        while True:
            tok = toks[pos]
            if not frames:
                if tok is not None:
                    fail(f"unexpected {tok[1]!r} after the term", tok)
                return t
            kind, x = frames[-1]
            if kind == _APP:
                if x is not None:
                    t = App(x, t)
                if tok is not None and tok[0] in ("ident", "lpar"):
                    frames[-1] = (_APP, t)
                    want_term = False
                    break
                if tok is not None and tok[0] == "lam":
                    frames[-1] = (_LAST, t)
                    want_term = True
                    break
            elif kind == _PAREN:
                expect("rpar", "expected ')'")
            elif kind == _LAM:
                t = Abs(x, t)
            else:
                t = App(x, t)
            frames.pop()


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
