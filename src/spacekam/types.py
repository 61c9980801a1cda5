"""Multi types, their indexed refinement, and type contexts.

Two grammars share this module.  The indexed one types machine
components: a linear type is the ground type or an arrow whose source
is a multi set of linear types carrying a positive index, the size of
any closure the multi can type.  The plain one types terms against the
Krivine machine: same shape, no index.

Types are hash-consed on the intern table they share with terms
(hashcons): constructing a type first looks it up under its class, its
index and its children, which are interned already, so equal types are
one object and `==` and `hash` are identity.  The table holds its types
weakly; a type dies with the last derivation that uses it.  Each type
stores its structural order key, built once from its children's stored
keys: `(0,)` for the ground type, `(1, k, elem_keys, res_key)` for an
indexed arrow and `(2, elem_keys, res_key)` for a plain one, where a
multi's own key is its `elem_keys`.  Multi sets are tuples sorted
under that key, so the canonical order, and with it every JSON file,
does not depend on the order of creation.  Types are immutable.

A context maps variables to multis and is kept sorted by name.
Contexts are summable when their indices agree on shared variables;
the union then joins the multisets.  Note the difference between a
variable missing from a context and one mapped to an empty multi: only
the latter contributes its index to the context size.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .hashcons import TABLE, Interned, Table, store
from .terms import is_name


class NotSummable(Exception):
    """Context or multi union with disagreeing indices."""


class BadSplit(Exception):
    """The claimed parts do not rebuild the whole multiset."""


_key = operator.attrgetter("key")


class _Type(Interned):
    __slots__ = ("key",)


class Star(_Type):
    """The ground type *; there is one."""

    __slots__ = ()

    def __new__(cls):
        return TABLE.get((cls,)) or store((cls,), cls, key=(0,))


STAR = Star()


def _sorted_elems(elems, allowed, complaint):
    es = tuple(elems)
    if not allowed.issuperset(map(type, es)):
        bad = next(a for a in es if type(a) not in allowed)
        raise TypeError(f"{complaint}: {bad!r}")
    return tuple(sorted(es, key=_key)) if len(es) > 1 else es


class ClosureMulti(_Type):
    """An indexed multi set [A1, ..., An]^k with k > 0, n >= 0."""

    __slots__ = ("elems", "index")

    def __new__(cls, elems=(), index=1):
        index = operator.index(index)  # True and 1.0 would share 1's entry
        if index < 1:
            raise ValueError(f"multi type index must be positive, got {index}")
        es = _sorted_elems(elems, _INDEXED, "indexed multi over a non-indexed element")
        tk = (cls, index, es)
        return TABLE.get(tk) or store(
            tk, cls, elems=es, index=index, key=tuple(a.key for a in es)
        )


class Arrow(_Type):
    __slots__ = ("arg", "res")

    def __new__(cls, arg, res):
        if type(arg) is not ClosureMulti:
            raise TypeError(f"indexed arrow needs an indexed source: {arg!r}")
        if not isinstance(res, (Star, Arrow)):
            raise TypeError(f"indexed arrow needs an indexed target: {res!r}")
        tk = (cls, arg, res)
        return TABLE.get(tk) or store(
            tk, cls, arg=arg, res=res, key=(1, arg.index, arg.key, res.key)
        )


class MultiType(_Type):
    """A plain multi set [A1, ..., An], the de Carvalho flavor."""

    __slots__ = ("elems",)

    def __new__(cls, elems=()):
        es = _sorted_elems(elems, _PLAIN, "plain multi over an indexed element")
        tk = (cls, es)
        return TABLE.get(tk) or store(tk, cls, elems=es, key=tuple(a.key for a in es))


class DCArrow(_Type):
    __slots__ = ("arg", "res")

    def __new__(cls, arg, res):
        if type(arg) is not MultiType:
            raise TypeError(f"plain arrow needs a plain source: {arg!r}")
        if not isinstance(res, (Star, DCArrow)):
            raise TypeError(f"plain arrow needs a plain target: {res!r}")
        tk = (cls, arg, res)
        return TABLE.get(tk) or store(tk, cls, arg=arg, res=res, key=(2, arg.key, res.key))


_INDEXED = frozenset({Star, Arrow})
_PLAIN = frozenset({Star, DCArrow})
_MULTIS = (ClosureMulti, MultiType)


def type_key(a) -> tuple:
    """Total order on types of either grammar, for canonical sorting."""
    if isinstance(a, (Star, Arrow, DCArrow)):
        return a.key
    raise TypeError(f"not a type: {a!r}")


# ---------------------------------------------------------------------------
# contexts

@dataclass(frozen=True)
class TypeContext:
    """Variables to multis, entries sorted by name, names distinct."""

    entries: tuple = ()

    def __post_init__(self):
        ent = self.entries
        ent = tuple(ent.items()) if isinstance(ent, dict) else tuple(ent)
        # one pass: strictly increasing names are sorted and distinct,
        # and most contexts (minus, in-order puts and unions) arrive so
        prev = None
        for x, _ in ent:
            if prev is not None and not prev < x:
                ent = tuple(sorted(ent, key=lambda p: p[0]))
                names = [y for y, _ in ent]
                if len(set(names)) != len(names):
                    raise ValueError(f"duplicate context entries: {names}")
                break
            prev = x
        object.__setattr__(self, "entries", ent)

    def get(self, x: str):
        for y, m in self.entries:
            if y == x:
                return m
        return None

    def domain(self) -> frozenset[str]:
        return frozenset(x for x, _ in self.entries)

    def minus(self, x: str) -> "TypeContext":
        return TypeContext(tuple(p for p in self.entries if p[0] != x))

    def put(self, x: str, m) -> "TypeContext":
        # x must not already be present
        return TypeContext(self.entries + ((x, m),))

    def is_empty(self) -> bool:
        return not self.entries


EMPTY_CONTEXT = TypeContext()


# ---------------------------------------------------------------------------
# sizes

def size_linear(a) -> int:
    """|star| = 0, |M^k -> A| = k + |A|."""
    n = 0
    while type(a) is Arrow:
        n += a.arg.index
        a = a.res
    if type(a) is not Star:
        raise TypeError(f"size is only defined for indexed linear types: {a!r}")
    return n


def size_context(g: TypeContext) -> int:
    """Sum of the indices; the multisets do not contribute."""
    n = 0
    for _, m in g.entries:
        if type(m) is not ClosureMulti:
            raise TypeError(f"size is only defined for indexed contexts: {m!r}")
        n += m.index
    return n


def is_dry(g: TypeContext) -> bool:
    """Every image an empty multi (the indices are unconstrained)."""
    return all(type(m) is ClosureMulti and not m.elems for _, m in g.entries)


# ---------------------------------------------------------------------------
# unions and splits

def summable(g: TypeContext, d: TypeContext) -> bool:
    """Indices agree wherever the domains meet."""
    for x, m in g.entries:
        if type(m) is not ClosureMulti:
            raise TypeError(f"summability is about indexed contexts: {m!r}")
        other = d.get(x)
        if other is not None and other.index != m.index:
            return False
    for _, m in d.entries:
        if type(m) is not ClosureMulti:
            raise TypeError(f"summability is about indexed contexts: {m!r}")
    return True


def contexts_union(contexts: list) -> TypeContext:
    """The union of a list of contexts, all indexed or all plain, in one
    pass: a variable in one part keeps its multi, and the multi of a
    variable in several is built once, from the elements of all its
    parts.  Indexed parts must agree on the index of every shared
    variable."""
    if len(contexts) == 1:
        return contexts[0]
    flavor = None
    first: dict = {}  # each variable's multi in the first part that has it
    more: dict = {}  # the elements of every part, for a variable in several
    for g in contexts:
        for x, m in g.entries:
            if type(m) is not flavor:
                if flavor is not None or type(m) not in _MULTIS:
                    raise TypeError(f"contexts to unite must be all indexed or all plain: {m!r}")
                flavor = type(m)
            a = first.get(x)
            if a is None:
                first[x] = m
                continue
            if flavor is ClosureMulti and a.index != m.index:
                raise NotSummable(f"contexts disagree on the index of {x}: {a.index} vs {m.index}")
            more.setdefault(x, list(a.elems)).extend(m.elems)
    for x, es in more.items():
        m = first[x]
        first[x] = ClosureMulti(es, m.index) if flavor is ClosureMulti else MultiType(es)
    return TypeContext(tuple(first.items()))


def split_multi(whole: ClosureMulti, left: ClosureMulti, right: ClosureMulti) -> tuple:
    """Witness that whole = left + right as multisets at one index.

    The witness tags each element of whole, in canonical order, with the
    part it came from.  Equal elements are interchangeable, so a greedy
    match over the sorted tuples is complete.
    """
    if left.index != whole.index or right.index != whole.index:
        raise BadSplit(
            f"indices disagree: whole {whole.index}, "
            f"left {left.index}, right {right.index}"
        )
    li = ri = 0
    witness = []
    for a in whole.elems:
        if li < len(left.elems) and left.elems[li] == a:
            witness.append("L")
            li += 1
        elif ri < len(right.elems) and right.elems[ri] == a:
            witness.append("R")
            ri += 1
        else:
            raise BadSplit(f"element {format_linear(a)} of the whole is in neither part")
    if li != len(left.elems) or ri != len(right.elems):
        raise BadSplit("parts have elements beyond the whole")
    return tuple(witness)


# ---------------------------------------------------------------------------
# JSON: a table of types, each entry referring to earlier entries by index

def json_index(v, n: int) -> int:
    """v checked as an index into a table of n entries.  JSON booleans
    are not integers here, and a negative index would silently alias
    an entry from the end."""
    if type(v) is not int:
        raise ValueError(f"index must be an integer, found {v!r}")
    if not 0 <= v < n:
        raise ValueError(f"index {v} is outside [0, {n})")
    return v


class TypeTable(Table):
    """Encoder for the type table of a derivation file: "*",
    {"arg": i, "res": j}, {"elems": [i, ...], "k": k} for an indexed
    multi and {"elems": [i, ...]} for a plain one."""

    @staticmethod
    def children(a) -> tuple:
        if type(a) is Arrow or type(a) is DCArrow:
            return (a.arg, a.res)
        if type(a) is ClosureMulti or type(a) is MultiType:
            return a.elems
        return ()

    @staticmethod
    def entry(a, at):
        if type(a) is Star:
            return "*"
        if type(a) is Arrow or type(a) is DCArrow:
            return {"arg": at[a.arg], "res": at[a.res]}
        if type(a) is ClosureMulti:
            return {"elems": [at[c] for c in a.elems], "k": a.index}
        if type(a) is MultiType:
            return {"elems": [at[c] for c in a.elems]}
        raise TypeError(f"not a type: {a!r}")


def context_to_json(g: TypeContext, table: TypeTable) -> dict:
    """g as {name: type index}, its multis entered in table."""
    add = table.add
    return {x: add(m) for x, m in g.entries}


def context_from_json(obj, types: list) -> TypeContext:
    """The context {name: type index} over the decoded type table
    types; each name must be an identifier and each image a multi."""
    if not isinstance(obj, dict):
        raise ValueError(f"not a context: {obj!r}")
    entries = []
    for x, i in obj.items():
        if not is_name(x):
            raise ValueError(f"not a variable name: {x!r}")
        m = types[json_index(i, len(types))]
        if type(m) is not ClosureMulti and type(m) is not MultiType:
            raise ValueError(f"context image of {x} is not a multi type")
        entries.append((x, m))
    return TypeContext(tuple(entries))


def decode_table(entries, name: str, entry) -> list:
    """Decode the table name of a derivation file, position by
    position: entry(e, done) builds one entry from the entries decoded
    before it.  A ValueError names the offending entry as name[i]."""
    if not isinstance(entries, list):
        raise ValueError(f"{name} must be a list")
    out: list = []
    for i, e in enumerate(entries):
        try:
            out.append(entry(e, out))
        except ValueError as ex:
            raise ValueError(f"{name}[{i}]: {ex}") from None
    return out


def types_from_json(entries) -> list:
    """Decode a type table; an entry refers only to entries before it."""
    return decode_table(entries, "types", _type_entry)


def _type_entry(e, done):
    if e == "*":
        return STAR
    if isinstance(e, dict):
        keys = e.keys()
        if keys == {"arg", "res"}:
            n = len(done)
            arg, res = done[json_index(e["arg"], n)], done[json_index(e["res"], n)]
            try:
                if type(arg) is ClosureMulti:
                    return Arrow(arg, res)
                if type(arg) is MultiType:
                    return DCArrow(arg, res)
            except TypeError as ex:  # a target of the other grammar
                raise ValueError(str(ex)) from None
            raise ValueError(f"arrow source must be a multi type: {arg!r}")
        if keys == {"elems"} or keys == {"elems", "k"}:
            if not isinstance(e["elems"], list):
                raise ValueError(f"elems must be a list of indices: {e['elems']!r}")
            n = len(done)
            elems = tuple(done[json_index(j, n)] for j in e["elems"])
            k = e.get("k")
            if "k" in keys and (type(k) is not int or k < 1):
                raise ValueError(f"multi type index must be a positive integer: {k!r}")
            try:
                return MultiType(elems) if k is None else ClosureMulti(elems, k)
            except TypeError as ex:  # elements of the other grammar
                raise ValueError(str(ex)) from None
            except RecursionError:  # sorting compares the elements' nested keys
                raise ValueError("multi elements nested too deep to order") from None
    raise ValueError(f"not a type: {e!r}")


# ---------------------------------------------------------------------------
# pretty forms

def _format(a) -> str:
    # an explicit stack of types and of the text between them, so
    # nesting depth is not limited by the recursion limit
    out, work = [], [a]
    while work:
        x = work.pop()
        if type(x) is str:
            out.append(x)
        elif type(x) is Star:
            out.append("*")
        elif type(x) is Arrow or type(x) is DCArrow:
            work += (x.res, " -> ", x.arg)
        else:
            parts = [","] * (2 * len(x.elems) - 1) if x.elems else []
            parts[::2] = x.elems
            work += (f"]^{x.index}" if type(x) is ClosureMulti else "]", *reversed(parts), "[")
    return "".join(out)


def format_linear(a) -> str:
    if not isinstance(a, (Star, Arrow, DCArrow)):
        raise TypeError(f"not a type: {a!r}")
    return _format(a)


def format_multi(m) -> str:
    if not isinstance(m, (ClosureMulti, MultiType)):
        raise TypeError(f"not a multi type: {m!r}")
    return _format(m)


def format_context(g: TypeContext) -> str:
    return ", ".join(f"{x}:{format_multi(m)}" for x, m in g.entries)
