"""Hash-consing for terms, types and type contexts (Filliatre and
Conchon, "Type-Safe Modular Hash-Consing", 2006).

Every value of a subclass of Interned is built through one table keyed
on its class and its fields (strings, integers or interned values), so
equal values are one object and `==` and `hash` are identity.  The table
is a plain dict holding each value through a weak reference: a value
dies with its last user, and one shared callback takes its entry out.
Interned values are Frozen (immutable, their own copies, written by repr
from an explicit stack at any depth), as the machines' closures and
states are without being interned.  Each kind pickles through a flat
form of its own: a term as its printed text, a type as its file
entries, a context as its entries, closures and states as the tables of
one kam.Rows.  Table writes one table of a flat file, decode_table reads
one back, and postorder is the one children-first walk over shared
structure (terms, types, closures, derivations), from its own stack.
"""

import weakref
from _weakref import _remove_dead_weakref
from itertools import filterfalse

TABLE: dict = {}  # (class, *fields) -> a weak reference to the one value built from them
dead = type(None)  # TABLE.get(key, dead)() is that value, or None: dead() is None


class _Ref(weakref.ref):
    __slots__ = ("key",)  # the key of its entry

    def gone(self, table=TABLE, remove=_remove_dead_weakref):  # defaults outlive the globals
        remove(table, self.key)  # only if the entry still holds a dead reference


class Frozen:
    """An immutable value.  A subclass lists its fields in __slots__ in
    the order its constructor takes them; data worked out from them (a
    type's order key, a term's free variables, a closure's size) lives in
    an intermediate class's slots, outside == and repr."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        return write_repr(self, lambda x: type(x).__slots__ if isinstance(x, Frozen) else None)


class Interned(Frozen):
    """A Frozen value built through the intern table: equal values are
    one object, and a value, being immutable, is its own (deep) copy."""

    __slots__ = ("__weakref__",)

    __copy__ = __deepcopy__ = lambda self, memo=None: self


def write_repr(obj, fields) -> str:
    """The text a dataclass repr would give obj, written from an explicit
    stack.  A tuple is written element by element, a value x for which
    fields(x) names fields as its class name and those fields, and any
    other value as its repr."""
    out, work = [], [obj]
    while work:
        x = work.pop()
        if type(x) is str:  # output: string values are written as they are pushed
            out.append(x)
            continue
        names = None if type(x) is tuple else fields(x)
        values = x if names is None else [getattr(x, f) for f in names]
        items = ["(" if names is None else f"{type(x).__name__}("]
        for i, v in enumerate(values):
            if i:
                items.append(", ")
            if names:
                items.append(f"{names[i]}=")
            items.append(v if type(v) is tuple or fields(v) is not None else repr(v))
        items.append(",)" if names is None and len(values) == 1 else ")")
        work += reversed(items)
    return "".join(out)


def enter(key, a):
    """Enter a, just built, under key and return it, or the live value
    another thread entered first: keys hash and compare in C, so
    setdefault is atomic."""
    ref = _Ref(a, _Ref.gone)
    ref.key = key
    while (held := TABLE.setdefault(key, ref)) is not ref:
        if (b := held()) is not None:
            return b
        _remove_dead_weakref(TABLE, key)  # a dead value whose callback has not run
    return a


class Table:
    """The entries of one table of a flat file.  add(a) returns a's
    entry position, entering a and every value in it once, children
    before parents.  Values are interned, so the object itself is the
    key and equal values share one entry.  A subclass gives children(a)
    and entry(a, at), a's entry with its children at positions at[c]."""

    def __init__(self):
        self.entries: list = []
        self._at: dict = {}

    def add(self, a) -> int:
        at = self._at
        if a not in at:  # most adds find a entered already
            for b in postorder((a,), self.children, at.__contains__):
                entry = self.entry(b, at)
                at[b] = len(self.entries)
                self.entries.append(entry)
        return at[a]


def json_index(v, n: int) -> int:
    """v checked as an index into a table of n entries.  JSON booleans
    are not integers here, and a negative index would silently alias
    an entry from the end."""
    if type(v) is not int:
        raise ValueError(f"index must be an integer, found {v!r}")
    if not 0 <= v < n:
        raise ValueError(f"index {v} is outside [0, {n})")
    return v


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


def postorder(roots, children, done):
    """Yield each value reachable from roots through children that is not
    done, once, after every value children(x) lists for it.  The caller
    makes done(x) true for each x as it handles it; a value already done
    is neither yielded nor walked into.  The walk keeps its own stack, so
    depth is not limited by the interpreter's recursion limit; roots and
    children are visited last first."""
    work = list(roots)
    while work:
        x = work[-1]
        if done(x):
            work.pop()
            continue
        n = len(work)
        work += filterfalse(done, children(x))
        if len(work) == n:  # every child is done
            work.pop()
            yield x
