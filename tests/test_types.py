import copy
import functools
import gc
import json
from collections import Counter
import pickle
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import spacekam.types as types_module
from spacekam.hashcons import TABLE
from spacekam.types import (
    EMPTY_CONTEXT,
    STAR,
    Arrow,
    ClosureMulti,
    DCArrow,
    MultiType,
    NotSummable,
    Star,
    TypeContext,
    context_from_json,
    context_to_json,
    contexts_union,
    format_context,
    format_type,
    is_dry,
    TypeTable,
    size_context,
    size_linear,
    types_from_json,
)

M_STAR1 = ClosureMulti((STAR,), 1)
M_EMPTY1 = ClosureMulti((), 1)
ARR = Arrow(M_STAR1, STAR)


# ---------------------------------------------------------------- construction

def test_multiset_order_is_canonical():
    a = ClosureMulti((STAR, ARR), 2)
    b = ClosureMulti((ARR, STAR), 2)
    assert a == b
    assert a.elems == (STAR, ARR)  # ground type sorts first


def test_index_must_be_positive():
    with pytest.raises(ValueError):
        ClosureMulti((), 0)
    with pytest.raises(ValueError):
        ClosureMulti((STAR,), -3)


def test_grammars_do_not_mix():
    with pytest.raises(TypeError):
        ClosureMulti((DCArrow(MultiType(()), STAR),), 1)
    with pytest.raises(TypeError):
        MultiType((ARR,))
    with pytest.raises(TypeError):
        Arrow(MultiType(()), STAR)
    with pytest.raises(TypeError):
        DCArrow(M_EMPTY1, STAR)
    with pytest.raises(TypeError):
        Arrow(M_EMPTY1, MultiType(()))


def test_types_are_immutable():
    with pytest.raises(AttributeError):
        M_STAR1.index = 2
    with pytest.raises(AttributeError):
        ARR.key = (0,)


def test_an_unused_type_leaves_the_intern_table():
    ref = weakref.ref(Arrow(ClosureMulti((STAR,), 97), STAR))
    gc.collect()
    assert ref() is None


def test_context_entries_sorted_and_distinct():
    g = TypeContext((("y", M_EMPTY1), ("x", M_STAR1)))
    assert [x for x, _ in g.entries] == ["x", "y"]
    with pytest.raises(ValueError):
        TypeContext((("x", M_EMPTY1), ("x", M_STAR1)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from("abcde"), max_size=6))
def test_context_sorts_only_what_needs_it_and_rejects_duplicates(names):
    entries = tuple((x, ClosureMulti((), i + 1)) for i, x in enumerate(names))
    if len(set(names)) != len(names):
        with pytest.raises(ValueError, match="duplicate context entries"):
            TypeContext(entries)
        return
    g = TypeContext(entries)
    assert g.entries == tuple(sorted(entries, key=lambda p: p[0]))
    assert TypeContext(dict(entries)) == g
    if list(names) == sorted(names):
        assert g.entries == entries


def test_context_accessors():
    g = TypeContext((("x", M_STAR1),))
    assert g.get("x") == M_STAR1
    assert g.get("q") is None
    assert g.names == frozenset({"x"})
    assert g.minus("x") == EMPTY_CONTEXT
    assert TypeContext(g.entries + (("y", M_EMPTY1),)).names == frozenset({"x", "y"})
    assert EMPTY_CONTEXT.is_empty() and not g.is_empty()


def test_equal_contexts_are_one_object():
    g = TypeContext((("x", M_STAR1), ("y", M_EMPTY1)))
    assert TypeContext({"y": M_EMPTY1, "x": M_STAR1}) is g
    assert TypeContext((("y", M_EMPTY1), ("x", M_STAR1))) is g
    assert TypeContext(g.entries + (("z", M_EMPTY1),)).minus("z") is g
    x_only, y_only = TypeContext((("x", M_STAR1),)), TypeContext((("y", M_EMPTY1),))
    assert contexts_union([y_only, x_only]) is g
    assert copy.copy(g) is g and copy.deepcopy(g) is g
    assert pickle.loads(pickle.dumps(g)) is g
    # a context with a name given twice is never entered: it misses and is refused
    with pytest.raises(ValueError, match="duplicate context entries"):
        TypeContext((("y", M_EMPTY1), ("x", M_STAR1), ("y", M_EMPTY1)))


def test_an_unused_context_leaves_the_intern_table():
    g = TypeContext((("unused", ClosureMulti((), 89)),))
    key = (TypeContext, g.entries)
    assert TABLE[key]() is g
    del g
    gc.collect()
    assert key not in TABLE


# ---------------------------------------------------------------- sizes

def test_size_linear():
    assert size_linear(STAR) == 0
    assert size_linear(ARR) == 1
    assert size_linear(Arrow(ClosureMulti((), 3), STAR)) == 3
    chained = Arrow(M_EMPTY1, Arrow(ClosureMulti((), 2), STAR))
    assert size_linear(chained) == 3


def test_size_linear_rejects_plain_types():
    with pytest.raises(TypeError):
        size_linear(DCArrow(MultiType(()), STAR))


def test_size_context_sums_indices_only():
    g = TypeContext((("x", ClosureMulti((STAR, STAR), 2)), ("y", ClosureMulti((), 5))))
    assert size_context(g) == 7
    assert size_context(EMPTY_CONTEXT) == 0


def test_size_context_rejects_plain_images():
    with pytest.raises(TypeError):
        size_context(TypeContext((("x", MultiType(())),)))


def test_is_dry():
    assert is_dry(EMPTY_CONTEXT)
    assert is_dry(TypeContext((("x", ClosureMulti((), 9)),)))
    assert not is_dry(TypeContext((("x", M_STAR1),)))


# ---------------------------------------------------------------- unions

def multi_union(a, b):
    """The union of two multis, through contexts binding one variable."""
    return contexts_union([TypeContext((("x", a),)), TypeContext((("x", b),))]).get("x")


def test_multi_union_joins_multisets_at_one_index():
    got = multi_union(ClosureMulti((STAR,), 2), ClosureMulti((ARR,), 2))
    assert got == ClosureMulti((STAR, ARR), 2)


def test_multi_union_rejects_disagreeing_indices():
    with pytest.raises(NotSummable, match="contexts disagree on the index of x: 1 vs 2"):
        multi_union(M_STAR1, ClosureMulti((STAR,), 2))


def test_context_union_disjoint_and_shared():
    g = TypeContext((("x", M_STAR1),))
    d = TypeContext((("x", ClosureMulti((ARR,), 1)), ("y", M_EMPTY1)))
    got = contexts_union([g, d])
    assert got.get("x") == ClosureMulti((STAR, ARR), 1)
    assert got.get("y") is M_EMPTY1


def test_context_union_names_the_offending_variable():
    g = TypeContext((("x", M_STAR1),))
    d = TypeContext((("x", ClosureMulti((), 4)),))
    with pytest.raises(NotSummable, match="x"):
        contexts_union([g, d])


def test_contexts_union_builds_each_multi_once_and_names_the_offending_variable():
    g = TypeContext((("x", M_STAR1),))
    d = TypeContext((("x", ClosureMulti((ARR,), 1)), ("y", M_EMPTY1)))
    got = contexts_union([g, d, g])
    assert got.get("x") == ClosureMulti((STAR, ARR, STAR), 1)
    assert got.get("y") == M_EMPTY1
    assert contexts_union([d]) is d
    with pytest.raises(NotSummable, match="x"):
        contexts_union([g, d, TypeContext((("x", ClosureMulti((), 4)),))])


def test_dc_unions_have_no_index_constraint():
    a = MultiType((STAR,))
    b = MultiType((STAR, DCArrow(MultiType(()), STAR)))
    assert multi_union(a, b) == MultiType(
        (STAR, STAR, DCArrow(MultiType(()), STAR))
    )
    g = contexts_union([TypeContext((("x", a),)), TypeContext((("x", b), ("y", a)))])
    assert g.get("x") == multi_union(a, b) and g.get("y") == a


def test_contexts_union_rejects_mixed_flavors():
    plain = TypeContext((("y", MultiType((STAR,))),))
    with pytest.raises(TypeError):
        contexts_union([TypeContext((("x", M_STAR1),)), plain])
    with pytest.raises(TypeError):
        contexts_union([plain, TypeContext((("x", M_STAR1),)), plain])


# ---------------------------------------------------------------- json

def table_roundtrip(a):
    """a entered in a fresh type table, written as JSON text, read back."""
    table = TypeTable()
    i = table.add(a)
    return types_from_json(json.loads(json.dumps(table.entries)))[i]


def test_linear_json_roundtrip():
    for a in (STAR, ARR, Arrow(ClosureMulti((ARR, STAR), 4), Arrow(M_EMPTY1, STAR))):
        assert table_roundtrip(a) is a


def test_dc_json_roundtrip():
    a = DCArrow(MultiType((STAR,)), DCArrow(MultiType(()), STAR))
    assert table_roundtrip(a) is a


def test_multi_json_distinguishes_grammars():
    table = TypeTable()
    assert table.add(M_STAR1) == 1
    assert table.add(MultiType((STAR,))) == 2
    assert table.entries == ["*", {"multi": [[0, 1]], "k": 1}, {"multi": [[0, 1]]}]
    assert types_from_json(table.entries) == [STAR, M_STAR1, MultiType((STAR,))]


def test_type_table_enters_each_type_once_children_first():
    table = TypeTable()
    a = Arrow(ClosureMulti((ARR, STAR), 4), Arrow(M_EMPTY1, STAR))
    i = table.add(a)
    assert table.add(a) == i == len(table.entries) - 1
    assert table.add(ARR) < i and table.add(STAR) < i
    # *, []^1, []^1 -> *, [*]^1, ARR, [*, ARR]^4 and a itself
    assert len(table.entries) == 7
    assert len({json.dumps(e) for e in table.entries}) == len(table.entries)


def test_multi_from_json_rejects_bad_indices():
    for k in (0, -1, True, "2", 1.0, None):
        with pytest.raises(ValueError, match=r"types\[0\]: multi type index"):
            types_from_json([{"multi": [], "k": k}])
    with pytest.raises(ValueError, match=r"types\[0\]: not a type"):
        types_from_json([{"multi": [], "k": 2, "extra": 1}])


@pytest.mark.parametrize(
    "entries, message",
    [
        (["*", {"arg": True, "res": 0}], r"types\[1\]: index must be an integer"),
        (["*", {"multi": [[0, 1], [False, 1]], "k": 1}], r"types\[1\]: index must be an integer"),
        (["*", {"multi": [[0.0, 1]]}], r"types\[1\]: index must be an integer"),
        (["*", {"multi": [["0", 1]]}], r"types\[1\]: index must be an integer"),
        (["*", {"multi": [[-1, 1]]}], r"types\[1\]: index -1 is outside \[0, 1\)"),
        (["*", {"multi": [[1, 1]]}], r"types\[1\]: index 1 is outside"),
        ([{"multi": [[0, 1]]}], r"types\[0\]: index 0 is outside \[0, 0\)"),
        (["*", {"multi": 5, "k": 1}], r"types\[1\]: multi must be a list"),
        (["*", {"arg": 0, "res": 0}], r"types\[1\]: arrow source must be a multi"),
        (["*", {"multi": []}, {"arg": 1, "res": 1}], r"types\[2\]: .*target"),
        (["*", {"multi": []}, {"arg": 1, "res": 0}, {"multi": [[2, 1]], "k": 1}],
         r"types\[3\]: indexed multi over a non-indexed"),
        (["*", {"multi": [], "k": 1}, {"arg": 1, "res": 0}, {"multi": []},
          {"arg": 3, "res": 2}], r"types\[4\]: plain arrow needs a plain target"),
        (["+"], r"types\[0\]: not a type"),
        ({"0": "*"}, "types must be a list"),
        (["*", {"multi": [[0, 0]], "k": 1}], r"types\[1\]: multi count must be a positive integer: 0"),
        (["*", {"multi": [[0, True]]}], r"types\[1\]: multi count must be a positive integer: True"),
        (["*", {"multi": [[0, 1.0]]}], r"types\[1\]: multi count must be a positive integer: 1\.0"),
        (["*", {"multi": [[0, -1]]}], r"types\[1\]: multi count must be a positive integer: -1"),
        (["*", {"multi": [0, 1]}], r"types\[1\]: multi pairs are \[type, count\] lists, found 0"),
        (["*", {"multi": [[0]]}], r"types\[1\]: multi pairs are \[type, count\] lists"),
        (["*", {"multi": [[0, 1], [0, 1]]}], r"types\[1\]: multi lists type 0 twice"),
        (["*", {"elems": [0], "k": 1}], r"types\[1\]: a multi lists \[type, count\] pairs"),
    ],
    ids=["bool", "bool-elem", "float", "string", "negative", "forward", "self",
         "elems-int", "arrow-from-star", "arrow-to-multi", "mixed-multi", "mixed-arrow",
         "unknown", "not-a-list", "count-zero", "count-bool", "count-float", "count-negative",
         "pair-not-a-list", "pair-arity", "listed-twice", "old-elems"],
)
def test_type_table_rejects_bad_entries(entries, message):
    with pytest.raises(ValueError, match=message):
        types_from_json(entries)


def test_context_json_roundtrip():
    g = TypeContext((("x", M_STAR1), ("y", ClosureMulti((), 3))))
    table = TypeTable()
    obj = context_to_json(g, table)
    assert obj == {"x": table.add(M_STAR1), "y": table.add(ClosureMulti((), 3))}
    assert context_from_json(obj, types_from_json(table.entries)) == g
    assert context_from_json({}, []) == EMPTY_CONTEXT


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"x": 0}, "context image of x is not a multi type"),
        ({"x": 2}, r"index 2 is outside \[0, 2\)"),
        ({"x": True}, "index must be an integer"),
        ({"x y": 1}, "not a variable name: 'x y'"),
        ({"": 1}, "not a variable name: ''"),
        ([["x", 1]], "not a context"),
    ],
)
def test_context_from_json_rejects_bad_entries(obj, message):
    with pytest.raises(ValueError, match=message):
        context_from_json(obj, [STAR, M_STAR1])


# ---------------------------------------------------------------- formatting

def test_format_forms():
    assert format_type(Arrow(ClosureMulti((), 3), STAR)) == "[]^3 -> *"
    assert format_type(MultiType((STAR,))) == "[*]"
    g = TypeContext((("x", M_STAR1),))
    assert format_context(g) == "x:[*]^1"
    # with a cap, each image and the whole text stop after cap characters
    g = TypeContext((("x", ClosureMulti((STAR,) * 9, 1)), ("y", M_STAR1), ("z", M_STAR1)))
    assert format_context(g, 8) == "x:[*,*,*..."
    assert format_context(g, 100) == format_context(g) == "x:[*,*,*,*,*,*,*,*,*]^1, y:[*]^1, z:[*]^1"


def test_format_a_20000_deep_arrow_chain():
    a = STAR
    for _ in range(20_000):
        a = Arrow(ClosureMulti((a,), 1), STAR)
    text = format_type(a)
    assert text == "[" * 20_000 + "*" + "]^1 -> *" * 20_000
    assert format_type(ClosureMulti((a, STAR), 2)) == f"[*,{text}]^2"


def test_format_type_writes_counts_lazily_and_stops_at_its_cap():
    a = Arrow(ClosureMulti((), 2), STAR)
    m = ClosureMulti((a, STAR, a, STAR, STAR), 1)
    full = "[*,*,*,[]^2 -> *,[]^2 -> *]^1"
    assert format_type(m) == format_type(m, len(full)) == full
    assert format_type(m, 5) == "[*,*,..."
    # a count of 10**9 is never written out, nor expanded
    huge = types_from_json(["*", {"multi": [[0, 10**9]], "k": 1}])[-1]
    assert format_type(huge, 10) == "[*,*,*,*,*..."


def test_repr_of_a_20000_deep_arrow_chain():
    assert sys.getrecursionlimit() <= 10_000  # the default, not raised for this test
    a = STAR
    for _ in range(20_000):
        a = Arrow(ClosureMulti((a,), 1), STAR)
    assert repr(a) == (
        "Arrow(arg=ClosureMulti(pairs=((" * 20_000 + "Star()" + ", 1),), index=1), res=Star())" * 20_000
    )
    assert pickle.loads(pickle.dumps(ARR)) is ARR


def test_pickle_of_20000_deep_arrow_chains_gives_the_interned_type():
    assert sys.getrecursionlimit() <= 10_000  # the default, not raised for this test
    a, b = STAR, STAR
    for _ in range(20_000):
        a = Arrow(ClosureMulti((a,), 1), STAR)
        b = DCArrow(MultiType((b, STAR)), STAR)
    assert pickle.loads(pickle.dumps(a)) is a
    assert pickle.loads(pickle.dumps(b)) is b
    assert pickle.loads(pickle.dumps([a, b, a])) == [a, b, a]


# ---------------------------------------------------------------- properties

def linears():
    return st.recursive(
        st.just(STAR),
        lambda sub: st.builds(
            Arrow,
            st.builds(ClosureMulti, st.lists(sub, max_size=3).map(tuple),
                      st.integers(1, 4)),
            sub,
        ),
        max_leaves=8,
    )


def multis(k):
    return st.builds(ClosureMulti, st.lists(linears(), max_size=4).map(tuple), st.just(k))


@given(multis(2), multis(2))
@settings(max_examples=150)
def test_multi_union_commutative(a, b):
    assert multi_union(a, b) == multi_union(b, a)


@given(multis(3), multis(3), multis(3))
@settings(max_examples=150)
def test_multi_union_associative(a, b, c):
    assert multi_union(multi_union(a, b), c) == multi_union(a, multi_union(b, c))


@given(multis(2), multis(2))
@settings(max_examples=150)
def test_split_roundtrips_union(a, b):
    # the union's count of each distinct element splits into the parts'
    whole = multi_union(a, b)
    assert Counter(dict(whole.pairs)) == Counter(dict(a.pairs)) + Counter(dict(b.pairs))
    assert len(whole.elems) == len(a.elems) + len(b.elems)


@given(st.lists(st.tuples(st.sampled_from("xyzw"), multis(1)), max_size=4),
       st.lists(st.tuples(st.sampled_from("xyzw"), multis(1)), max_size=4))
@settings(max_examples=150)
def test_context_union_commutative(ga, gb):
    try:
        g = TypeContext(tuple(ga))
        d = TypeContext(tuple(gb))
    except ValueError:
        return  # duplicate names in the raw lists
    assert contexts_union([g, d]) == contexts_union([d, g])
    assert size_context(contexts_union([g, d])) >= max(size_context(g), size_context(d))


@given(st.lists(
    st.dictionaries(st.sampled_from("xyz"), st.one_of(multis(1), multis(2)), max_size=3),
    min_size=1, max_size=3,
))
@settings(max_examples=60)
def test_contexts_union_is_the_folded_union(parts):
    gs = [TypeContext(tuple(entries.items())) for entries in parts]
    # the reference: per variable, the index of its first part and the
    # multiset of the elements of all its parts
    index, elems = {}, {}
    for g in gs:
        for x, m in g.entries:
            if index.setdefault(x, m.index) != m.index:
                with pytest.raises(NotSummable, match=f"index of {x}"):
                    contexts_union(gs)
                return
            elems.setdefault(x, Counter()).update(m.elems)
    got = contexts_union(gs)
    assert got.names == index.keys()
    for x, m in got.entries:
        assert m.index == index[x] and Counter(m.elems) == elems[x]


def dc_linears():
    return st.recursive(
        st.just(STAR),
        lambda sub: st.builds(
            DCArrow, st.builds(MultiType, st.lists(sub, max_size=3).map(tuple)), sub
        ),
        max_leaves=8,
    )


M64 = (1 << 64) - 1


def reference_key(a):
    """The order key as a recursive walk: the ground type's 0 sorts
    first; an arrow's key digests its source multi's key, which digests
    the multi's index and its pairs, and its target's key."""
    if type(a) is Star:
        return 0
    m = a.arg
    flat = [x for b, n in m.pairs for x in (reference_key(b), n)]
    if type(a) is Arrow:
        return (1 << 64) | (hash((hash((1, m.index, *flat)) & M64, reference_key(a.res))) & M64)
    return (2 << 64) | (hash((hash((2, *flat)) & M64, reference_key(a.res))) & M64)


def rebuild(a):
    """A fresh construction of a, multis given in reverse order."""
    if type(a) is Star:
        return Star()
    elems = tuple(rebuild(b) for b in reversed(a.arg.elems))
    if type(a) is Arrow:
        return Arrow(ClosureMulti(elems, a.arg.index), rebuild(a.res))
    return DCArrow(MultiType(elems), rebuild(a.res))


@given(st.one_of(linears(), dc_linears()))
@settings(max_examples=150)
def test_stored_key_is_the_structural_key(a):
    assert a.key == reference_key(a)
    keys = [reference_key(b) for b, _ in a.arg.pairs] if type(a) is not Star else []
    assert keys == sorted(set(keys))  # distinct elements, strictly in key order


@given(st.one_of(linears(), dc_linears()))
@settings(max_examples=150)
def test_equal_types_are_one_object(a):
    assert rebuild(a) is a
    assert table_roundtrip(a) is a
    assert pickle.loads(pickle.dumps(a)) is a


@given(linears(), linears(), st.integers(1, 4))
@settings(max_examples=150)
def test_multi_is_one_object_whatever_the_order(a, b, k):
    assert ClosureMulti((a, b), k) is ClosureMulti((b, a), k)
    assert ClosureMulti((a, b), k) is not ClosureMulti((a, b), k + 1)


@given(st.one_of(linears(), dc_linears()))
@settings(max_examples=150)
def test_key_is_a_digest_of_the_stored_keys_of_the_children(a):
    if type(a) is Star:
        assert a.key == 0
        return
    m, r = a.arg, a.res
    assert a.key == (1 << 64 if type(a) is Arrow else 2 << 64) | types_module._digest(m.key, r.key)
    flat = [x for b, n in m.pairs for x in (b.key, n)]
    index = (m.index,) if type(m) is ClosureMulti else ()
    assert m.key == types_module._digest(1 if index else 2, *index, *flat)
    assert a.key > STAR.key  # the ground type sorts first


@given(st.lists(linears(), max_size=6), st.integers(1, 3))
@settings(max_examples=150)
def test_a_multi_is_the_counter_of_its_elements(es, k):
    m = ClosureMulti(es, k)
    assert dict(m.pairs) == Counter(es) and m.index == k
    assert [b.key for b, _ in m.pairs] == sorted({b.key for b in es})
    assert m.elems == tuple(b for b, n in m.pairs for _ in range(n))
    assert ClosureMulti(reversed(es), k) is m and ClosureMulti(m.elems, k) is m
    plain = MultiType(map(plain_of, es))
    assert dict(plain.pairs) == Counter(map(plain_of, es))


def plain_of(a):
    """The plain type of an indexed one: its indices forgotten."""
    if type(a) is Star:
        return a
    return DCArrow(MultiType(plain_of(b) for b in a.arg.elems), plain_of(a.res))


@given(st.booleans(), st.lists(
    st.tuples(st.lists(linears(), max_size=3), st.integers(1, 2)), min_size=1, max_size=4,
))
@settings(max_examples=150)
def test_contexts_union_adds_counters(plain, parts):
    # the multis of x in each part, against the Counter sum of their
    # elements; indexed parts at different indices do not sum
    if plain:
        parts = [([plain_of(b) for b in es], None) for es, _ in parts]
        gs = [TypeContext((("x", MultiType(es)),)) for es, _ in parts]
    else:
        gs = [TypeContext((("x", ClosureMulti(es, k)),)) for es, k in parts]
    if len({k for _, k in parts}) > 1:
        for order in (gs, gs[::-1]):
            with pytest.raises(NotSummable, match="index of x"):
                contexts_union(order)
        return
    got = contexts_union(gs).get("x")
    assert dict(got.pairs) == sum((Counter(es) for es, _ in parts), Counter())
    assert getattr(got, "index", None) == parts[0][1]
    assert contexts_union(gs[::-1]).get("x") is got  # commutative
    left = functools.reduce(lambda g, d: contexts_union([g, d]), gs)
    right = functools.reduce(lambda d, g: contexts_union([g, d]), reversed(gs))
    assert left.get("x") is got and right.get("x") is got  # associative


def test_copies_of_a_multi_are_the_interned_multi():
    for m in (ClosureMulti((STAR, ARR, STAR), 3), MultiType((STAR, STAR)), M_EMPTY1, MultiType(())):
        assert copy.copy(m) is m
        assert copy.deepcopy(m) is m
        assert pickle.loads(pickle.dumps(m)) is m


def _chain(bottom, depth, index):
    a = bottom
    for _ in range(depth):
        a = Arrow(ClosureMulti((a,), index), STAR)
    return a


def test_copy_and_deepcopy_of_a_20000_deep_arrow_chain_are_the_chain():
    assert sys.getrecursionlimit() <= 10_000
    a = _chain(STAR, 20_000, 1)
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert copy.deepcopy({"t": a})["t"] is a


def test_a_multi_of_two_deep_unequal_chains_needs_no_recursion():
    # two 2,000-deep chains that differ only at the bottom: their keys
    # are integers, so ordering the multi compares two numbers
    assert sys.getrecursionlimit() <= 10_000  # the default, not raised for this test
    a = _chain(STAR, 2_000, 1)
    b = _chain(Arrow(ClosureMulti((), 2), STAR), 2_000, 1)
    m = ClosureMulti((a, b, a), 1)
    assert m is ClosureMulti((b, a, a), 1)
    assert dict(m.pairs) == {a: 2, b: 1}
    assert table_roundtrip(Arrow(m, STAR)).arg is m


def test_a_digest_collision_is_ordered_in_full(monkeypatch):
    # with every digest alike, all arrows share one key, and the order
    # compares structure: an arrow by its source multi (index, then
    # pairs, then their number) and then its target, without recursion
    monkeypatch.setattr(types_module, "_digest", lambda *ints: 7)
    b = Arrow(ClosureMulti((), 11), STAR)
    c = Arrow(ClosureMulti((STAR,), 11), STAR)
    d = Arrow(ClosureMulti((STAR, STAR), 11), STAR)
    a = Arrow(ClosureMulti((), 12), STAR)
    assert a.key == b.key == c.key == d.key
    m = ClosureMulti((a, d, b, c, a), 13)
    assert m.pairs == ((b, 1), (c, 1), (d, 1), (a, 2))
    assert ClosureMulti((c, a, b, a, d), 13) is m
    assert sys.getrecursionlimit() <= 10_000
    x = _chain(STAR, 2_000, 14)
    y = _chain(b, 2_000, 14)
    assert x.key == y.key
    assert ClosureMulti((y, x), 15).pairs == ((x, 1), (y, 1))  # * before any arrow
    assert types_module._cmp(y, x) == 1 and types_module._cmp(x, x) == 0
