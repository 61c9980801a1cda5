import gc
import json
from collections import Counter
import pickle
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from spacekam.types import (
    EMPTY_CONTEXT,
    STAR,
    Arrow,
    BadSplit,
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
    format_linear,
    format_multi,
    is_dry,
    TypeTable,
    size_context,
    size_linear,
    split_multi,
    summable,
    type_key,
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
    assert g.domain() == frozenset({"x"})
    assert g.minus("x") == EMPTY_CONTEXT
    assert g.put("y", M_EMPTY1).domain() == frozenset({"x", "y"})
    assert EMPTY_CONTEXT.is_empty() and not g.is_empty()


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


def test_summable_predicate_matches_union():
    g = TypeContext((("x", M_STAR1),))
    assert summable(g, TypeContext((("x", M_EMPTY1),)))
    assert not summable(g, TypeContext((("x", ClosureMulti((), 2)),)))
    assert summable(g, EMPTY_CONTEXT)


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


# ---------------------------------------------------------------- splits

def test_split_multi_witness():
    whole = ClosureMulti((STAR, STAR, ARR), 2)
    left = ClosureMulti((STAR, ARR), 2)
    right = ClosureMulti((STAR,), 2)
    w = split_multi(whole, left, right)
    assert len(w) == 3 and w.count("L") == 2 and w.count("R") == 1


def test_split_multi_rejects_wrong_parts():
    whole = ClosureMulti((STAR,), 1)
    with pytest.raises(BadSplit):
        split_multi(whole, ClosureMulti((ARR,), 1), M_EMPTY1)
    with pytest.raises(BadSplit):
        split_multi(whole, ClosureMulti((STAR,), 1), ClosureMulti((STAR,), 1))
    with pytest.raises(BadSplit):
        split_multi(whole, ClosureMulti((STAR,), 2), M_EMPTY1)


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
    assert table.entries == ["*", {"elems": [0], "k": 1}, {"elems": [0]}]
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
            types_from_json([{"elems": [], "k": k}])
    with pytest.raises(ValueError, match=r"types\[0\]: not a type"):
        types_from_json([{"elems": [], "k": 2, "extra": 1}])


@pytest.mark.parametrize(
    "entries, message",
    [
        (["*", {"arg": True, "res": 0}], r"types\[1\]: index must be an integer"),
        (["*", {"elems": [0, False], "k": 1}], r"types\[1\]: index must be an integer"),
        (["*", {"elems": [0.0]}], r"types\[1\]: index must be an integer"),
        (["*", {"elems": ["0"]}], r"types\[1\]: index must be an integer"),
        (["*", {"elems": [-1]}], r"types\[1\]: index -1 is outside \[0, 1\)"),
        (["*", {"elems": [1]}], r"types\[1\]: index 1 is outside"),
        ([{"elems": [0]}], r"types\[0\]: index 0 is outside \[0, 0\)"),
        (["*", {"elems": 5, "k": 1}], r"types\[1\]: elems must be a list"),
        (["*", {"arg": 0, "res": 0}], r"types\[1\]: arrow source must be a multi"),
        (["*", {"elems": []}, {"arg": 1, "res": 1}], r"types\[2\]: .*target"),
        (["*", {"elems": []}, {"arg": 1, "res": 0}, {"elems": [2], "k": 1}],
         r"types\[3\]: indexed multi over a non-indexed"),
        (["*", {"elems": [], "k": 1}, {"arg": 1, "res": 0}, {"elems": []},
          {"arg": 3, "res": 2}], r"types\[4\]: plain arrow needs a plain target"),
        (["+"], r"types\[0\]: not a type"),
        ({"0": "*"}, "types must be a list"),
    ],
    ids=["bool", "bool-elem", "float", "string", "negative", "forward", "self",
         "elems-int", "arrow-from-star", "arrow-to-multi", "mixed-multi", "mixed-arrow",
         "unknown", "not-a-list"],
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
    assert format_linear(Arrow(ClosureMulti((), 3), STAR)) == "[]^3 -> *"
    assert format_multi(MultiType((STAR,))) == "[*]"
    g = TypeContext((("x", M_STAR1),))
    assert format_context(g) == "x:[*]^1"


def test_format_a_20000_deep_arrow_chain():
    a = STAR
    for _ in range(20_000):
        a = Arrow(ClosureMulti((a,), 1), STAR)
    text = format_linear(a)
    assert text == "[" * 20_000 + "*" + "]^1 -> *" * 20_000
    assert format_multi(ClosureMulti((a, STAR), 2)) == f"[*,{text}]^2"


def test_repr_of_a_20000_deep_arrow_chain():
    assert sys.getrecursionlimit() <= 10_000  # the default, not raised for this test
    a = STAR
    for _ in range(20_000):
        a = Arrow(ClosureMulti((a,), 1), STAR)
    assert repr(a) == "Arrow(arg=ClosureMulti(elems=(" * 20_000 + "Star()" + ",), index=1), res=Star())" * 20_000
    assert pickle.loads(pickle.dumps(ARR)) is ARR


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
    whole = multi_union(a, b)
    w = split_multi(whole, a, b)
    assert w.count("L") == len(a.elems) and w.count("R") == len(b.elems)


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
    st.dictionaries(st.sampled_from("xyz"), st.sampled_from([1, 2]).flatmap(multis), max_size=3),
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
    assert got.domain() == index.keys()
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


def reference_key(a):
    """The structural order as a recursive walk; it fixes the JSON order."""
    if type(a) is Star:
        return (0,)
    elem_keys = tuple(reference_key(b) for b in a.arg.elems)
    if type(a) is Arrow:
        return (1, a.arg.index, elem_keys, reference_key(a.res))
    return (2, elem_keys, reference_key(a.res))


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
    assert type_key(a) is a.key
    keys = [reference_key(b) for b in a.arg.elems] if type(a) is not Star else []
    assert keys == sorted(keys)


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
def test_key_holds_the_stored_keys_of_the_children(a):
    if type(a) is Star:
        return
    m, r = a.arg, a.res
    assert a.key[-1] is r.key
    assert a.key[-2] is m.key
    assert all(k is b.key for k, b in zip(m.key, m.elems))
