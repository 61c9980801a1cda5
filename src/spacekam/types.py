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
weakly; a type dies with the last derivation that uses it.  Types are
immutable.

A multi set of either flavor is stored as its multiplicity map: the
tuple of its distinct elements, each paired with its count, so a multi
with n elements of which d are distinct costs O(d) to build, to unite
and to intern, and its file entry lists d pairs.  The pairs are sorted
under the elements' order keys, so the canonical order, and with it
every JSON file, does not depend on the order of creation.

Each type stores its order key, worked out once from its children's
stored keys: 0 for the ground type, so it sorts first, and for an
indexed arrow 2**64 (a plain one 2**65) plus a 64-bit digest of its
source's and target's keys; a multi's key digests its index and its
pairs' keys and counts.  The digest is the hash of a tuple of integers,
which a 64-bit CPython computes the same way in every run (only string
hashing is salted), so keys depend on neither the run nor the order of
creation, and comparing two keys compares two integers.  Distinct types
share a key only on a digest collision; the order then compares them in
full, with an explicit stack (_cmp), so no comparison of types
recurses.

A context maps variables to multis, sorted by name, and is interned
like a type, so `==` is `is`: only a new context, or one given
unsorted, sorts its entries.  Their one sum is contexts_union, which
adds up the multiplicities and raises NotSummable unless the indices
agree on shared variables.
A variable missing from a context differs from one mapped to an empty
multi: only the latter contributes its index to the context size.
"""

from __future__ import annotations

import operator
from functools import cmp_to_key

from .hashcons import TABLE, Interned, Table, dead, decode_table, enter, json_index
from .terms import is_name


class NotSummable(Exception):
    """Context or multi union with disagreeing indices."""


_M64 = (1 << 64) - 1


def _digest(*ints) -> int:
    """A 64-bit digest of a tuple of integers, the same in every run."""
    return hash(ints) & _M64


class _Type(Interned):
    __slots__ = ("key",)

    def __reduce__(self):
        # pickled as its type-table entries, flat at any depth, which
        # decode to the interned type
        table = TypeTable()
        table.add(self)
        return _last_of_table, (table.entries,)


# constructors set fields through the slot descriptors, past Frozen's
# __setattr__
_set_key = _Type.key.__set__


class Star(_Type):
    """The ground type *; there is one."""

    __slots__ = ()

    def __new__(cls):
        a = object.__new__(cls)
        _set_key(a, 0)
        return enter((cls,), a)


STAR = Star()


class _Multi(_Type):
    """A multi set of either flavor.  pairs holds its distinct elements,
    each with its count, in canonical order."""

    __slots__ = ()

    @property
    def elems(self) -> tuple:
        """Every element as often as it occurs, in canonical order.  It is
        built on each read and never stored, for inspection only."""
        return tuple(a for a, n in self.pairs for _ in range(n))


class ClosureMulti(_Multi):
    """An indexed multi set [A1, ..., An]^k with k > 0, n >= 0."""

    __slots__ = ("pairs", "index")

    def __new__(cls, elems=(), index=1):
        index = operator.index(index)  # True and 1.0 would share 1's entry
        if index < 1:
            raise ValueError(f"multi type index must be positive, got {index}")
        return _intern(cls, _pairs(elems, _INDEXED), index)


class _SizedArrow(_Type):
    __slots__ = ("size",)  # |M^k -> A| = k + |A|, set when the arrow is interned


class Arrow(_SizedArrow):
    __slots__ = ("arg", "res")

    def __new__(cls, arg, res):
        if type(arg) is not ClosureMulti:
            raise TypeError(f"indexed arrow needs an indexed source: {arg!r}")
        if not isinstance(res, (Star, Arrow)):
            raise TypeError(f"indexed arrow needs an indexed target: {res!r}")
        tk = (cls, arg, res)
        a = TABLE.get(tk, dead)()
        if a is None:
            a = object.__new__(cls)
            _set_arg(a, arg)
            _set_res(a, res)
            _set_size(a, arg.index + (res.size if type(res) is Arrow else 0))
            _set_key(a, (1 << 64) | _digest(arg.key, res.key))
            a = enter(tk, a)
        return a


class MultiType(_Multi):
    """A plain multi set [A1, ..., An], the de Carvalho flavor."""

    __slots__ = ("pairs",)

    def __new__(cls, elems=()):
        return _intern(cls, _pairs(elems, _PLAIN), None)


class DCArrow(_Type):
    __slots__ = ("arg", "res")

    def __new__(cls, arg, res):
        if type(arg) is not MultiType:
            raise TypeError(f"plain arrow needs a plain source: {arg!r}")
        if not isinstance(res, (Star, DCArrow)):
            raise TypeError(f"plain arrow needs a plain target: {res!r}")
        tk = (cls, arg, res)
        a = TABLE.get(tk, dead)()
        if a is None:
            a = object.__new__(cls)
            _set_dc_arg(a, arg)
            _set_dc_res(a, res)
            _set_key(a, (2 << 64) | _digest(arg.key, res.key))
            a = enter(tk, a)
        return a


_MULTIS = (ClosureMulti, MultiType)
# per flavor of multi, the classes of its elements and the complaint
# about any other
_INDEXED = (frozenset({Star, Arrow}), "indexed multi over a non-indexed element")
_PLAIN = (frozenset({Star, DCArrow}), "plain multi over an indexed element")

# the slot descriptors of the other fields, as _set_key's
_set_arg, _set_res, _set_size = Arrow.arg.__set__, Arrow.res.__set__, Arrow.size.__set__
_set_dc_arg, _set_dc_res = DCArrow.arg.__set__, DCArrow.res.__set__
_set_pairs, _set_index = ClosureMulti.pairs.__set__, ClosureMulti.index.__set__
_set_plain_pairs = MultiType.pairs.__set__


def _intern(cls, pairs: tuple, index):
    """The multi of class cls with canonical pairs pairs, at index for a
    ClosureMulti (None for a MultiType)."""
    tk = (cls, pairs) if index is None else (cls, index, pairs)
    a = TABLE.get(tk, dead)()
    if a is None:
        a = object.__new__(cls)
        if index is None:
            _set_plain_pairs(a, pairs)
            _set_key(a, _digest(2, *_flat(pairs)))
        else:
            _set_pairs(a, pairs)
            _set_index(a, index)
            _set_key(a, _digest(1, index, *_flat(pairs)))
        a = enter(tk, a)
    return a


def _flat(pairs):
    for a, n in pairs:
        yield a.key
        yield n


def _pairs(elems, grammar) -> tuple:
    """The canonical pairs of the elements elems of a multi of grammar
    _INDEXED or _PLAIN."""
    allowed, complaint = grammar
    counts: dict = {}
    for a in elems:
        if type(a) not in allowed:
            raise TypeError(f"{complaint}: {a!r}")
        counts[a] = counts.get(a, 0) + 1
    return _canonical(counts)


def _canonical(counts: dict) -> tuple:
    """The pairs (element, count) of counts in canonical order."""
    ps = tuple(counts.items())
    if len(ps) < 3:  # most multis: nothing to sort, or one swap
        if len(ps) < 2 or ps[0][0].key < ps[1][0].key:
            return ps
        if ps[0][0].key > ps[1][0].key:
            return (ps[1], ps[0])
    es = sorted(counts, key=_KEY)
    for a, b in zip(es, es[1:]):
        if a.key == b.key:  # a digest collision: order in full
            es.sort(key=_IN_FULL)
            break
    return tuple([(a, counts[a]) for a in es])


_KEY = operator.attrgetter("key")


def _cmp(a, b) -> int:
    """-1, 0 or 1 as type a comes before, is, or comes after type b of
    the same grammar.  Keys decide; on equal keys, a digest collision,
    an arrow is compared by its source and then its target, and a multi
    by its index, then its pairs in order (element, then count), then
    their number.  Iterative: nesting depth is not limited by the
    interpreter's recursion limit."""
    work = [(a, b)]
    while work:
        x, y = work.pop()
        if x is y:
            continue
        if type(x) is int:  # an index, a count or a number of pairs
            if x != y:
                return -1 if x < y else 1
            continue
        if x.key != y.key:
            return -1 if x.key < y.key else 1
        if type(x) is Arrow or type(x) is DCArrow:
            work += ((x.res, y.res), (x.arg, y.arg))
            continue
        work.append((len(x.pairs), len(y.pairs)))
        for (p, m), (q, n) in reversed(list(zip(x.pairs, y.pairs))):
            work += ((m, n), (p, q))
        if type(x) is ClosureMulti:
            work.append((x.index, y.index))
    return 0


_IN_FULL = cmp_to_key(_cmp)


# ---------------------------------------------------------------------------
# contexts

class _Context(Interned):
    # set when interned; size is None unless every image is indexed
    __slots__ = ("size", "names")


class TypeContext(_Context):
    """Variables to multis, entries sorted by name, names distinct."""

    __slots__ = ("entries",)

    def __new__(cls, entries=()):
        ent = tuple(entries.items()) if isinstance(entries, dict) else tuple(entries)
        g = TABLE.get((cls, ent), dead)()
        if g is None:  # only a new context, or one given unsorted, sorts
            names = frozenset(dict(ent))
            if len(names) != len(ent):
                raise ValueError(f"duplicate context entries: {sorted(x for x, _ in ent)}")
            ent = tuple(sorted(ent))  # the names differ, so they order the pairs
            g = TABLE.get((cls, ent), dead)()
            if g is None:
                g = object.__new__(cls)
                TypeContext.entries.__set__(g, ent)
                TypeContext.names.__set__(g, names)
                n = 0
                for _, m in ent:
                    n = n + m.index if type(m) is ClosureMulti and n is not None else None
                TypeContext.size.__set__(g, n)
                g = enter((cls, ent), g)
        return g

    def __reduce__(self):
        return TypeContext, (self.entries,)

    def get(self, x: str):
        for y, m in self.entries:
            if y == x:
                return m
        return None

    def minus(self, x: str) -> "TypeContext":
        return TypeContext(tuple(p for p in self.entries if p[0] != x))

    def is_empty(self) -> bool:
        return not self.entries


EMPTY_CONTEXT = TypeContext()


# ---------------------------------------------------------------------------
# sizes

def size_linear(a) -> int:
    """|star| = 0, |M^k -> A| = k + |A|."""
    if type(a) is Arrow:
        return a.size
    if type(a) is not Star:
        raise TypeError(f"size is only defined for indexed linear types: {a!r}")
    return 0


def size_context(g: TypeContext) -> int:
    """Sum of the indices; the multisets do not contribute."""
    if g.size is None:
        m = next(m for _, m in g.entries if type(m) is not ClosureMulti)
        raise TypeError(f"size is only defined for indexed contexts: {m!r}")
    return g.size


def is_dry(g: TypeContext) -> bool:
    """Every image an empty multi (the indices are unconstrained)."""
    return all(type(m) is ClosureMulti and not m.pairs for _, m in g.entries)


# ---------------------------------------------------------------------------
# unions

def contexts_union(contexts: list) -> TypeContext:
    """The union of a list of contexts, all indexed or all plain, in one
    pass: a variable in one part keeps its multi, and the multi of a
    variable in several is built once, by adding up the counts of its
    parts, in time linear in their numbers of distinct elements.
    Indexed parts must agree on the index of every shared variable."""
    if len(contexts) == 1:
        return contexts[0]
    flavor = None
    # each variable's multi in the first part that has elements for it
    # (else in the first part that has it), and its summed counts when
    # several parts have elements for it
    first: dict = {}
    more: dict = {}
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
            if not m.pairs:
                continue
            counts = more.get(x)
            if counts is None:
                if not a.pairs:  # an empty multi is the unit
                    first[x] = m
                    continue
                counts = more[x] = dict(a.pairs)
            for b, n in m.pairs:
                counts[b] = counts.get(b, 0) + n
    for x, counts in more.items():
        first[x] = _intern(flavor, _canonical(counts), getattr(first[x], "index", None))
    return TypeContext(tuple(first.items()))


# ---------------------------------------------------------------------------
# JSON: a table of types, each entry referring to earlier entries by index

class TypeTable(Table):
    """Encoder for the type table of a derivation file: "*",
    {"arg": i, "res": j}, {"multi": [[i, n], ...], "k": k} for an
    indexed multi and {"multi": [[i, n], ...]} for a plain one, one pair
    [element, count] per distinct element, in canonical order."""

    @staticmethod
    def children(a) -> tuple:
        if type(a) is Arrow or type(a) is DCArrow:
            return (a.arg, a.res)
        if type(a) is ClosureMulti or type(a) is MultiType:
            return tuple(b for b, _ in a.pairs)
        return ()

    @staticmethod
    def entry(a, at):
        if type(a) is Star:
            return "*"
        if type(a) is Arrow or type(a) is DCArrow:
            return {"arg": at[a.arg], "res": at[a.res]}
        if type(a) is ClosureMulti:
            return {"multi": [[at[b], n] for b, n in a.pairs], "k": a.index}
        if type(a) is MultiType:
            return {"multi": [[at[b], n] for b, n in a.pairs]}
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


def types_from_json(entries) -> list:
    """Decode a type table; an entry refers only to entries before it."""
    return decode_table(entries, "types", _type_entry)


def _last_of_table(entries):
    """The type a table's last entry describes: a pickled type."""
    return types_from_json(entries)[-1]


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
        if keys == {"multi"} or keys == {"multi", "k"}:
            k = e.get("k")
            if "k" in keys and (type(k) is not int or k < 1):
                raise ValueError(f"multi type index must be a positive integer: {k!r}")
            cls, grammar = (MultiType, _PLAIN) if k is None else (ClosureMulti, _INDEXED)
            return _intern(cls, _canonical(_counts_from_json(e["multi"], done, grammar)), k)
        if "elems" in keys:
            raise ValueError(
                'a multi lists [type, count] pairs under "multi"; '
                'an "elems" list is an older format'
            )
    raise ValueError(f"not a type: {e!r}")


def _counts_from_json(pairs, done, grammar) -> dict:
    """The counts of the [type, count] pairs of an entry for a multi of
    grammar _INDEXED or _PLAIN, over the types decoded so far; each type
    listed once."""
    allowed, complaint = grammar
    if not isinstance(pairs, list):
        raise ValueError(f"multi must be a list of [type, count] pairs: {pairs!r}")
    counts: dict = {}
    listed = set()
    for p in pairs:
        if type(p) is not list or len(p) != 2:
            raise ValueError(f"multi pairs are [type, count] lists, found {p!r}")
        j, n = p
        a = done[json_index(j, len(done))]
        if type(n) is not int or n < 1:
            raise ValueError(f"multi count must be a positive integer: {n!r}")
        if j in listed:
            raise ValueError(f"multi lists type {j} twice")
        listed.add(j)
        if type(a) not in allowed:
            raise ValueError(f"{complaint}: {a!r}")
        counts[a] = counts.get(a, 0) + n
    return counts


# ---------------------------------------------------------------------------
# pretty forms

def format_type(a, cap: int | None = None) -> str:
    """The text of a type or a multi.  With cap, the text stops after
    cap characters and ends in "...": the walk stops there, so its cost
    is bounded by cap, however large the type's full text."""
    # an explicit stack of types, of the text between them and of
    # (type, n) runs, n more elements of a multi each after a comma, so
    # nesting depth is not limited by the recursion limit and a count
    # is never expanded ahead of the text
    out, work, size = [], [a], 0
    while work and (cap is None or size <= cap):
        x = work.pop()
        if type(x) is str:
            out.append(x)
            size += len(x)
        elif type(x) is tuple:
            b, n = x
            if n > 1:
                work.append((b, n - 1))
            work += (b, ",")
        elif type(x) is Star:
            out.append("*")
            size += 1
        elif type(x) is Arrow or type(x) is DCArrow:
            work += (x.res, " -> ", x.arg)
        else:  # a multi: each element as often as it occurs
            work.append(f"]^{x.index}" if type(x) is ClosureMulti else "]")
            if x.pairs:
                (b, n), *rest = x.pairs
                work += reversed(rest)
                if n > 1:
                    work.append((b, n - 1))
                work.append(b)
            work.append("[")
    text = "".join(out)
    return text if cap is None or len(text) <= cap else text[:cap] + "..."


def format_linear(a) -> str:
    if not isinstance(a, (Star, Arrow, DCArrow)):
        raise TypeError(f"not a type: {a!r}")
    return format_type(a)


def format_multi(m) -> str:
    if not isinstance(m, (ClosureMulti, MultiType)):
        raise TypeError(f"not a multi type: {m!r}")
    return format_type(m)


def format_context(g: TypeContext) -> str:
    return ", ".join(f"{x}:{format_multi(m)}" for x, m in g.entries)
