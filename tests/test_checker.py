import copy
import dataclasses
import json
import pickle
import re
import sys

import pytest
from derivation_files import (
    CASES,
    EXAMPLE_SRC,
    IDS,
    MUTATIONS,
    WEIGHT_MUTATIONS,
    m_lamstar_type,
    m_root_type,
    node_at,
    term_file,
)
from machine_steps import env_cells, stack_tuple

import spacekam.checker as checker
from spacekam.checker import (
    KIND_CLOSURE,
    KIND_ENV,
    KIND_STATE,
    KIND_TERM,
    R_CL,
    CheckError,
    Derivation,
    InvalidDerivation,
    Judgment,
    R_APP1,
    R_APP2,
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
    check,
    check_rule_transition_correspondence,
    check_walk,
    counts_correspond,
    derivation_from_json,
    derivation_to_json,
    render_derivation,
    reweight,
    rule_counts,
    size_of,
    weight_of,
)
from spacekam.extractor import expand, extract, extract_kam, type_final_state
from spacekam.harness import random_closed_term
from spacekam.kam import Closure, MachState, Rows, compile, env_pairs, kam_run
from spacekam.space_kam import skam_run
from spacekam.terms import Abs, App, Var, parse_term
from spacekam.types import (
    EMPTY_CONTEXT,
    STAR,
    Arrow,
    ClosureMulti,
    DCArrow,
    MultiType,
    TypeContext,
    format_type,
)


def mutate(d, path, fn):
    """Rebuild d with fn applied to the node at the premise path."""
    if not path:
        return fn(d)
    i = path[0]
    prem = list(d.premises)
    prem[i] = mutate(prem[i], path[1:], fn)
    return dataclasses.replace(d, premises=tuple(prem))


def set_weight(w):
    def fn(n):
        return dataclasses.replace(
            n, conclusion=dataclasses.replace(n.conclusion, weight=w)
        )
    return fn


P_TVAR = (0, 0, 0, 0, 0, 0)
P_TNONE = (0, 0, 0, 0, 1)
P_TMANY = (1,)
P_TLAMSTAR = (1, 0)
P_TLAM1_Y = (0, 0, 0)


# ---------------------------------------------------------------- the oracle

def test_example_space_derivation_checks(example_space_derivation):
    res = check(example_space_derivation, "space")
    assert res.ok, [str(e) for e in res.errors]
    assert weight_of(example_space_derivation, "space") == 4


def test_example_time_derivation_checks(example_time_derivation):
    res = check(example_time_derivation, "time")
    assert res.ok, [str(e) for e in res.errors]
    assert weight_of(example_time_derivation, "time") == 11


def test_example_dc_derivation_checks(example_dc_derivation):
    res = check(example_dc_derivation, "kam")
    assert res.ok, [str(e) for e in res.errors]
    assert weight_of(example_dc_derivation, "kam") == 7


@pytest.mark.parametrize(
    "fixture, mode, want",
    [
        ("example_space_derivation", "space", 4),
        ("example_time_derivation", "time", 11),
        ("example_dc_derivation", "kam", 7),
    ],
)
def test_passing_check_carries_the_recomputed_weight(request, fixture, mode, want):
    d = request.getfixturevalue(fixture)
    res = check(d, mode)
    assert res.ok
    assert res.weight == weight_of(d, mode) == want
    assert check(d, mode, full_scan=True).weight == want


def test_failing_check_carries_no_weight(example_space_derivation, example_dc_derivation):
    bad = mutate(example_space_derivation, P_TVAR, set_weight(2))
    assert check(bad, "space").weight is None
    assert check(bad, "space", full_scan=True).weight is None
    assert weight_of(bad, "space") == 4  # stored weights are not read
    assert check(example_dc_derivation, "space").weight is None
    assert check(example_space_derivation, "kam").weight is None


def test_reweight_swaps_between_modes(example_space_derivation, example_time_derivation):
    assert reweight(example_space_derivation, "time") == example_time_derivation
    assert reweight(example_time_derivation, "space") == example_space_derivation
    assert reweight(example_space_derivation, "space") == example_space_derivation


def test_size_counts_states_not_bookkeeping(example_space_derivation, example_dc_derivation):
    # 8 counted nodes = 7 transitions + the final state
    assert size_of(example_space_derivation) == 8
    assert size_of(example_dc_derivation) == 8


def test_rule_counts(example_space_derivation):
    assert rule_counts(example_space_derivation) == {
        R_APP1: 2, R_APP2: 1, R_LAM1: 2, R_LAM2: 1,
        R_VAR: 1, R_LAM_STAR: 1, R_MANY: 1, R_NONE: 1,
    }


def test_correspondence_with_the_run(example_space_derivation, example_skam, example_term):
    assert check_rule_transition_correspondence(example_space_derivation, example_skam)
    partial = skam_run(compile(example_term), 3)
    assert not check_rule_transition_correspondence(example_space_derivation, partial)


def test_modes_reject_the_other_grammar(example_space_derivation, example_dc_derivation):
    assert not check(example_space_derivation, "kam").ok
    assert not check(example_dc_derivation, "space").ok


def test_unknown_mode_is_an_error(example_space_derivation):
    with pytest.raises(ValueError):
        check(example_space_derivation, "speed")


# ---------------------------------------------------------------- one walk, several modes

def test_one_walk_checks_space_and_time(example_space_derivation, example_skam):
    d = example_space_derivation
    walk = check_walk(d, ("space", "time"))
    assert walk.ok and walk.errors == [] and walk.failures == {}
    assert walk.weights == {"space": 4, "time": 11}
    assert walk.weight("space") == 4 and walk.weight("time") == 11
    assert walk.counts == rule_counts(d)
    assert walk.size == size_of(d) == 8
    assert counts_correspond(walk.counts, example_skam)


def test_one_walk_compares_stored_weights_in_the_first_mode_only(example_time_derivation):
    # time weights stored: wrong for space, right for time
    assert not check_walk(example_time_derivation, ("space", "time")).ok
    walk = check_walk(example_time_derivation, ("time", "space"))
    assert walk.ok and walk.weights == {"time": 11, "space": 4}


def test_one_walk_recomputes_weights_past_a_stored_mismatch(example_space_derivation):
    bad = mutate(example_space_derivation, P_TVAR, set_weight(2))
    walk = check_walk(bad, ("space", "time"))
    assert [e.path for e in walk.errors] == [P_TVAR]
    assert walk.weights == {"space": 4, "time": 11} and walk.failures == {}
    assert check(bad, "space").errors == walk.errors


def test_one_walk_names_the_mode_a_node_fails_in(example_space_derivation):
    bad = mutate(example_space_derivation, (0,), lambda n: dataclasses.replace(n, rule="DC_TVar"))
    walk = check_walk(bad, ("space", "time"))
    assert walk.weights == {"space": None, "time": None}
    assert [str(e) for e in walk.errors] == ["at 0: rule DC_TVar does not belong to mode space"]
    with pytest.raises(InvalidDerivation, match="at 0: rule DC_TVar does not belong to mode time"):
        walk.weight("time")
    assert walk.counts == rule_counts(bad)  # counted over the whole tree all the same


def test_one_walk_rejects_unknown_modes(example_space_derivation):
    with pytest.raises(ValueError, match="unknown mode"):
        check_walk(example_space_derivation, ("space", "bogus"))


def _structure(errors):
    return [(e.path, e.message) for e in errors if not e.message.startswith("stored weight")]


def _break_first_premise(o):
    node_at(o, (0,))["rule"] = "TLam2"
    return (0,)


@pytest.mark.parametrize(
    "mutate_file",
    [m for m in MUTATIONS if m not in WEIGHT_MUTATIONS] + [_break_first_premise],
    ids=lambda m: m.__name__,
)
def test_structural_errors_do_not_depend_on_space_or_time(mutate_file):
    # what lets one walk check both modes: the same nodes fail with the
    # same messages, and only the weights differ
    obj = term_file()
    mutate_file(obj)
    d = derivation_from_json(obj)
    space = [(e.path, e.message) for e in check(d, "space", full_scan=True).errors]
    assert space and space == _structure(check(d, "time", full_scan=True).errors)
    if mutate_file in (m_lamstar_type, m_root_type):
        # a multi where a linear type belongs: the time formula cannot
        # size it, so reweight itself raises
        with pytest.raises(TypeError):
            reweight(d, "time")
        return
    timed = check(reweight(d, "time"), "time", full_scan=True)
    assert [(e.path, e.message) for e in timed.errors] == space


# ---------------------------------------------------------------- mutations

def test_wrong_root_weight_detected(example_space_derivation):
    bad = mutate(example_space_derivation, (), set_weight(5))
    res = check(bad, "space")
    assert not res.ok
    assert res.errors[0].path == ()
    assert "stored weight 5" in res.errors[0].message


def test_wrong_leaf_weight_detected_at_the_leaf(example_space_derivation):
    bad = mutate(example_space_derivation, P_TVAR, set_weight(2))
    res = check(bad, "space")
    assert not res.ok
    assert res.errors[0].path == P_TVAR


def test_index_drives_the_variable_weight(example_space_derivation):
    # raising the index at the TVar leaf changes its recomputed weight
    def bump_index(n):
        c = n.conclusion
        ctx = TypeContext((("x", ClosureMulti((STAR,), 2)),))
        return dataclasses.replace(n, conclusion=dataclasses.replace(c, context=ctx))

    bad = mutate(example_space_derivation, P_TVAR, bump_index)
    res = check(bad, "space")
    assert not res.ok
    assert res.errors[0].path == P_TVAR
    assert "recomputed 2" in res.errors[0].message


def test_forced_index_on_empty_multi(example_space_derivation):
    def shrink(n):
        c = n.conclusion
        return dataclasses.replace(
            n, conclusion=dataclasses.replace(c, assigned=ClosureMulti((), 2))
        )

    bad = mutate(example_space_derivation, P_TNONE, shrink)
    res = check(bad, "space")
    assert not res.ok
    assert res.errors[0].path == P_TNONE
    assert "index must be 1 + |context| = 3" in res.errors[0].message


def test_rule_name_must_match_the_argument_shape(example_space_derivation):
    bad = mutate(
        example_space_derivation, (), lambda n: dataclasses.replace(n, rule=R_APP2)
    )
    res = check(bad, "space")
    assert not res.ok
    assert res.errors[0].path == ()
    assert "TApp2" in res.errors[0].message


def test_swapped_premises_detected(example_space_derivation):
    bad = dataclasses.replace(
        example_space_derivation,
        premises=tuple(reversed(example_space_derivation.premises)),
    )
    res = check(bad, "space")
    assert not res.ok and res.errors[0].path == ()


def test_many_needs_a_premise(example_space_derivation):
    bad = mutate(
        example_space_derivation, P_TMANY, lambda n: dataclasses.replace(n, premises=())
    )
    res = check(bad, "space")
    assert not res.ok
    assert res.errors[0].path == P_TMANY
    assert "at least one premise" in res.errors[0].message


def test_arrow_source_must_match_binder_multi(example_space_derivation):
    def widen(n):
        c = n.conclusion
        arrow = Arrow(ClosureMulti((STAR,), 1), STAR)
        return dataclasses.replace(n, conclusion=dataclasses.replace(c, assigned=arrow))

    bad = mutate(example_space_derivation, P_TLAM1_Y, widen)
    res = check(bad, "space")
    assert not res.ok
    assert res.errors[0].path == P_TLAM1_Y
    assert "arrow source" in res.errors[0].message


def test_boolean_weight_rejected(example_space_derivation):
    bad = mutate(example_space_derivation, P_TVAR, set_weight(True))
    res = check(bad, "space")
    assert not res.ok
    assert "stored weight True" in res.errors[0].message


def test_full_scan_reports_all_independent_errors(example_space_derivation):
    # two broken leaves in disjoint subtrees; ancestors skip their weight
    # comparison once a premise failed, so exactly two errors surface
    bad = mutate(example_space_derivation, P_TVAR, set_weight(2))
    bad = mutate(bad, P_TLAMSTAR, set_weight(3))
    res = check(bad, "space", full_scan=True)
    assert not res.ok and len(res.errors) == 2
    assert res.errors[0].path == P_TLAMSTAR
    assert res.errors[1].path == P_TVAR


def test_default_scan_stops_at_one_node(example_space_derivation):
    bad = mutate(example_space_derivation, P_TVAR, set_weight(2))
    bad = mutate(bad, P_TLAMSTAR, set_weight(3))
    res = check(bad, "space")
    assert not res.ok
    assert {e.path for e in res.errors} in ({P_TVAR}, {P_TLAMSTAR})


def test_weight_of_raises_on_broken_structure(example_space_derivation):
    bad = mutate(
        example_space_derivation, P_TMANY, lambda n: dataclasses.replace(n, premises=())
    )
    with pytest.raises(InvalidDerivation) as exc:
        weight_of(bad, "space")
    assert exc.value.errors


def test_non_derivation_premise_is_a_type_error(example_space_derivation):
    bad = dataclasses.replace(
        example_space_derivation,
        premises=(example_space_derivation.premises[0], 42),
    )
    with pytest.raises(TypeError):
        check(bad, "space")


def test_lamstar_needs_a_dry_context():
    t = parse_term(r"\a.x")
    node = Derivation(
        R_LAM_STAR,
        Judgment("term", t, TypeContext((("x", ClosureMulti((STAR,), 1)),)), STAR, 1),
    )
    res = check(node, "space")
    assert not res.ok
    assert "dry" in res.errors[0].message


def test_error_rendering():
    e = CheckError((0, 1), "boom")
    assert str(e) == "at 0.1: boom"
    assert str(CheckError((), "boom")) == "at root: boom"


def test_judgments_on_subjects_of_different_classes_differ():
    # a term, a closure and a state on the same code: the subjects'
    # classes differ, so the judgments do, both ways round
    x = Var("x")
    js = [
        Judgment(KIND_TERM, x, EMPTY_CONTEXT, STAR, 0),
        Judgment(KIND_TERM, Closure(x, ()), EMPTY_CONTEXT, STAR, 0),
        Judgment(KIND_TERM, MachState(x, (), ()), EMPTY_CONTEXT, STAR, 0),
    ]
    for i, a in enumerate(js):
        for j, b in enumerate(js):
            assert (a == b) == (i == j), (i, j)


# ---------------------------------------------------------------- sharing

def shared_many():
    ident = parse_term(r"\a.a")
    leaf = Derivation(R_LAM_STAR, Judgment("term", ident, EMPTY_CONTEXT, STAR, 0))
    multi = ClosureMulti((STAR, STAR), 1)
    return Derivation(
        R_MANY, Judgment("term", ident, EMPTY_CONTEXT, multi, 0), (leaf, leaf)
    )


def test_shared_premises_check_and_count_per_occurrence():
    d = shared_many()
    assert check(d, "space").ok
    assert size_of(d) == 2
    assert rule_counts(d) == {R_MANY: 1, R_LAM_STAR: 2}


def test_reweight_preserves_sharing():
    d = shared_many()
    r = reweight(d, "time")
    assert r.premises[0] is r.premises[1]
    assert r == d  # all weights were already correct for both modes here


# ---------------------------------------------------------------- machine nodes

def final_state_derivation():
    ident = parse_term(r"\a.a")
    s = MachState(ident, (), ())
    term_p = Derivation(R_LAM_STAR, Judgment("term", ident, EMPTY_CONTEXT, STAR, 0))
    env_p = Derivation(R_ENV, Judgment("env", (), EMPTY_CONTEXT, EMPTY_CONTEXT, 0))
    return Derivation(R_ST, Judgment("state", s, EMPTY_CONTEXT, STAR, 0), (term_p, env_p))


def test_final_identity_state_weighs_nothing():
    d = final_state_derivation()
    assert check(d, "space").ok
    assert weight_of(d, "space") == 0
    assert weight_of(d, "time") == 0


def test_state_judgment_json_roundtrip():
    d = final_state_derivation()
    assert derivation_from_json(derivation_to_json(d)) == d


# ---------------------------------------------------------------- json

def test_derivation_json_roundtrip(example_space_derivation, example_dc_derivation):
    for d in (example_space_derivation, example_dc_derivation):
        assert derivation_from_json(derivation_to_json(d)) == d


def test_a_decoded_derivation_holds_the_interned_contexts(example_space_derivation):
    back = derivation_from_json(json.loads(json.dumps(derivation_to_json(example_space_derivation))))
    pairs, contexts = [(example_space_derivation, back)], 0
    while pairs:
        a, b = pairs.pop()
        p, q = a.conclusion, b.conclusion
        assert q.context is p.context is TypeContext(p.context.entries)
        if type(p.assigned) is TypeContext:
            assert q.assigned is p.assigned
        contexts += bool(p.context.entries)
        pairs.extend(zip(a.premises, b.premises))
    assert contexts > 0


def test_json_rejects_unknown_rule(example_space_derivation):
    obj = derivation_to_json(example_space_derivation)
    node_at(obj, ())["rule"] = "TZap"
    with pytest.raises(ValueError, match="TZap"):
        derivation_from_json(obj)


def test_json_rejects_missing_keys():
    with pytest.raises(ValueError, match="lacks"):
        derivation_from_json({"rule": "TVar"})


def test_json_rejects_an_empty_node_table(example_space_derivation):
    obj = derivation_to_json(example_space_derivation)
    obj["tables"]["nodes"] = []
    with pytest.raises(ValueError, match=r"^root: tables\.nodes must hold at least the root$"):
        derivation_from_json(obj)


def test_json_names_the_missing_node_table_of_an_older_file(example_space_derivation):
    # the layout with three tables, the root node written beside them
    obj = derivation_to_json(example_space_derivation)
    nodes = obj["tables"].pop("nodes")
    obj.update(nodes[-1])
    with pytest.raises(ValueError, match=r"^root: tables lack \['nodes'\]$"):
        derivation_from_json(obj)


def test_json_rejects_boolean_weight(example_space_derivation):
    obj = derivation_to_json(example_space_derivation)
    node_at(obj, ())["judgment"]["weight"] = True
    with pytest.raises(ValueError, match="weight"):
        derivation_from_json(obj)


def test_json_errors_carry_the_node_path(example_space_derivation):
    # a node's decoding error names its entry; check names the path
    obj = derivation_to_json(example_space_derivation)
    n = len(obj["tables"]["nodes"])
    node_at(obj, (1, 0))["judgment"]["subject"] = len(obj["tables"]["terms"])
    with pytest.raises(ValueError, match=rf"^root: tables\.nodes\[{n}\]: index"):
        derivation_from_json(obj)


def test_json_subjects_and_types_are_table_indices(example_space_derivation):
    obj = derivation_to_json(example_space_derivation)
    assert list(obj) == ["tables"]
    tables = obj["tables"]
    assert list(tables) == ["types", "terms", "closures", "nodes"]
    terms, types, nodes = tables["terms"], tables["types"], tables["nodes"]
    root = nodes[-1]
    assert list(root) == ["rule", "judgment", "premises"]

    def term(i):
        e = terms[i]
        if "var" in e:
            return e["var"]
        if "lam" in e:
            return rf"(\{e['lam']}.{term(e['body'])})"
        return f"({term(e['app'][0])} {term(e['app'][1])})"

    assert term(root["judgment"]["subject"]) == r"((\x.((\y.((\z.x) (x y))) x)) (\a.a))"
    assert types[root["judgment"]["type"]] == "*"
    many = types[nodes[root["premises"][1]]["judgment"]["type"]]
    assert many == {"multi": [[types.index("*"), 1]], "k": 1}
    assert tables["closures"] == []  # term judgments only
    # every entry refers only to entries before it
    for i, e in enumerate(terms):
        assert all(j < i for j in ([e["body"]] if "lam" in e else e.get("app", [])))
    for i, e in enumerate(types):
        if e != "*":
            refs = [j for j, _ in e.get("multi", [])] + [e[k] for k in ("arg", "res") if k in e]
            assert all(j < i for j in refs)
    for i, e in enumerate(nodes):
        assert all(j < i for j in e["premises"])


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_json_rejects_bad_indices_and_names(case):
    _, base, edit, message = case
    obj = base()
    derivation_from_json(obj)  # the unedited file decodes
    message = message.format(n=len(obj["tables"]["nodes"]))
    edit(obj)
    with pytest.raises(ValueError) as info:
        derivation_from_json(json.loads(json.dumps(obj)))
    assert re.match(message, str(info.value)), str(info.value)


def test_json_table_entries_are_shared_by_the_decoded_nodes(example_space_derivation):
    d = derivation_from_json(json.loads(json.dumps(derivation_to_json(example_space_derivation))))
    root = d.conclusion.subject
    assert d.premises[0].conclusion.subject is root.fun
    seen = {}
    stack = [root]
    while stack:
        t = stack.pop()
        if type(t) is Var:
            assert seen.setdefault(t.name, t) is t
        else:
            stack.extend((t.body,) if type(t) is Abs else (t.fun, t.arg))
    assert sorted(seen) == ["a", "x", "y"]


def _nodes(d):
    stack = [d]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(n.premises)


def _distinct_entries(obj):
    for table in obj["tables"].values():
        texts = [json.dumps(e, sort_keys=True) for e in table]
        assert len(set(texts)) == len(texts)


def test_json_roundtrip_on_fuzz_terms_in_every_mode():
    complete = 0
    for seed in range(200):
        t = random_closed_term(seed, 25)
        srun = skam_run(compile(t), 2000)
        if not srun.final_reached:
            continue
        complete += 1
        space = extract(srun)
        kam = extract_kam(kam_run(compile(t), 2000))
        for d, mode in ((space, "space"), (reweight(space, "time"), "time"), (kam, "kam")):
            obj = derivation_to_json(d)
            _distinct_entries(obj)
            back = derivation_from_json(json.loads(json.dumps(obj)))
            assert back == d, (seed, mode)
            res = check(back, mode)
            assert res.ok and res.weight == d.conclusion.weight, (seed, mode, res.errors)
    assert complete > 150


def test_json_roundtrip_shares_machine_subjects(example_skam):
    # every state of the run under one node, so closures recur
    states = [example_skam.initial] + [s for _, s in example_skam.trace]
    leaves = tuple(
        Derivation(R_ST, Judgment("state", s, EMPTY_CONTEXT, STAR, 0)) for s in states
    )
    d = Derivation(R_ST, Judgment("state", states[0], EMPTY_CONTEXT, STAR, 0), leaves)
    obj = derivation_to_json(d)
    _distinct_entries(obj)
    back = derivation_from_json(json.loads(json.dumps(obj)))
    assert back == d
    # each entry decodes to one object, whichever nodes refer to it
    closures = {id(c) for n in _nodes(back) for c in stack_tuple(n.conclusion.subject.stack)}
    closures |= {id(c) for n in _nodes(back) for _, c in env_pairs(n.conclusion.subject.env)}
    assert len(closures) <= len(obj["tables"]["closures"])


def test_terms_decoded_from_a_file_are_the_runs_own(example_term, example_skam):
    # terms are interned, so the decoder's terms are the objects the run
    # and the extractor hold, in term, closure and state subjects alike
    states = [example_skam.initial] + [s for _, s in example_skam.trace]
    leaves = tuple(
        Derivation(R_ST, Judgment("state", s, EMPTY_CONTEXT, STAR, 0)) for s in states
    )
    for d in (
        extract(example_skam),
        extract_kam(kam_run(compile(example_term), 100)),
        Derivation(R_ST, Judgment("state", states[0], EMPTY_CONTEXT, STAR, 0), leaves),
    ):
        back = derivation_from_json(json.loads(json.dumps(derivation_to_json(d))))
        for a, b in zip(_nodes(d), _nodes(back)):
            s, t = a.conclusion.subject, b.conclusion.subject
            if a.conclusion.subject_kind == "term":
                assert t is s
            elif a.conclusion.subject_kind == "state":
                assert t.code is s.code
                assert all(c.code is e.code for c, e in zip(stack_tuple(t.stack), stack_tuple(s.stack)))
                assert all(c.code is e.code for (_, c), (_, e) in zip(env_pairs(t.env), env_pairs(s.env)))
    assert derivation_from_json(derivation_to_json(extract(example_skam))).conclusion.subject is example_term


def _chain(depth, bottom_weight=0):
    """A premise chain depth nodes deep: TLam1 over TLam1 ... over TLamStar."""
    ident = parse_term(r"\a.a")
    d = Derivation(R_LAM_STAR, Judgment("term", ident, EMPTY_CONTEXT, STAR, bottom_weight))
    for i in range(depth - 1):
        d = Derivation(R_LAM1, Judgment("term", ident, EMPTY_CONTEXT, STAR, i + 1), (d,))
    return d


def test_json_roundtrip_of_a_deep_chain_needs_no_recursion():
    d = _chain(20_000)
    text = json.dumps(derivation_to_json(d))  # the file nests a few levels deep
    back = derivation_from_json(json.loads(text))
    a, b, n = d, back, 0
    while True:
        assert (a.rule, a.conclusion) == (b.rule, b.conclusion)
        assert len(a.premises) == len(b.premises)
        n += 1
        if not a.premises:
            break
        a, b = a.premises[0], b.premises[0]
    assert n == 20_000


def test_eq_hash_and_repr_of_a_20000_deep_chain_need_no_recursion():
    assert sys.getrecursionlimit() <= 10_000  # the default, not raised for this test
    depth = 20_000
    a, b = _chain(depth), _chain(depth)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != _chain(depth, bottom_weight=1)  # differs only at the bottom
    ident = parse_term(r"\a.a")

    def judgment(w):  # a dataclass repr, the reference text
        return repr(Judgment("term", ident, EMPTY_CONTEXT, STAR, w))

    levels = [
        f"Derivation(rule='TLam1', conclusion={judgment(w)}, premises=("
        for w in range(depth - 1, 0, -1)
    ]
    assert repr(a) == "".join(levels) + repr(_chain(1)) + ",))" * (depth - 1)
    assert repr(_chain(1)) == f"Derivation(rule='TLamStar', conclusion={judgment(0)}, premises=())"


def test_copy_and_pickle_of_a_20000_deep_chain_need_no_recursion(example_skam):
    assert sys.getrecursionlimit() <= 10_000  # the default, not raised for this test
    d = _chain(20_000)
    # immutable, so its own copy, as interned values are
    assert copy.copy(d) is d and copy.deepcopy(d) is d
    assert copy.deepcopy([d, (d,)])[0] is d
    # pickled as its derivation file: an equal tree, without its time
    back = pickle.loads(pickle.dumps(d))
    assert back is not d and back == d
    assert pickle.loads(pickle.dumps(dataclasses.replace(d, time=7))).time is None
    # closure and state subjects come back equal too
    final = type_final_state(example_skam.final)
    assert pickle.loads(pickle.dumps(final)) == final


def test_derivation_eq_ignores_time_and_compares_shared_subtrees_once():
    leaf = _chain(1)
    twin = Derivation(leaf.rule, leaf.conclusion, (), time=7)
    assert twin == leaf and hash(twin) == hash(leaf) and repr(twin) == repr(leaf)
    j = Judgment("term", parse_term(r"\a.a"), EMPTY_CONTEXT, STAR, 0)
    # node i holds node i-1 twice: 2**60 places, 61 pairs to compare
    a, b = leaf, twin
    for _ in range(60):
        a, b = Derivation(R_LAM1, j, (a, a)), Derivation(R_LAM1, j, (b, b))
    assert a == b and a != Derivation(R_LAM1, j, (a, leaf))


def test_derivation_eq_tells_apart_each_part_and_ignores_sharing_and_time(
    example_space_derivation,
):
    d = example_space_derivation
    ident = parse_term(r"\a.a")
    top = Closure(ident, ())

    def at_root(**changes):
        return dataclasses.replace(d, conclusion=dataclasses.replace(d.conclusion, **changes))

    def state(bottom, stack):
        # y is bound to a closure chain 50 deep that ends in the code bottom
        c = Closure(parse_term(bottom), ())
        for _ in range(50):
            c = Closure(Var("x"), ("x", c, ()))
        s = MachState(Var("y"), ("y", c, ()), stack)
        return Derivation(R_ST, Judgment(KIND_STATE, s, EMPTY_CONTEXT, STAR, 3))

    def leaf(kind, subject):
        return Derivation(R_LAM_STAR, Judgment(kind, subject, EMPTY_CONTEXT, STAR, 0))

    # each pair differs in exactly one part; the term and the closure of
    # the subject-kind pair are both the first entry of their tables
    pairs = {
        "rule": (d, dataclasses.replace(d, rule=R_APP2)),
        "subject kind": (leaf("term", ident), leaf(KIND_CLOSURE, top)),
        "term subject": (d, at_root(subject=parse_term(r"(\a.a) (\b.b)"))),
        "deep closure": (state(r"\a.a", (top, ())), state(r"\b.b", (top, ()))),
        "stack": (state(r"\a.a", (top, ())), state(r"\a.a", (top, (top, ())))),
        "context": (d, at_root(context=TypeContext((("x", ClosureMulti((), 1)),)))),
        "type": (d, at_root(assigned=Arrow(ClosureMulti((), 1), STAR))),
        "weight": (d, at_root(weight=d.conclusion.weight + 1)),
        "premise order": (d, dataclasses.replace(d, premises=d.premises[::-1])),
    }
    for part, (a, b) in pairs.items():
        assert a != b and b != a, part
    # equal parts built apart are equal
    assert state(r"\a.a", (top, ())) == state(r"\a.a", (Closure(ident, ()), ()))

    j = Judgment("term", ident, EMPTY_CONTEXT, STAR, 0)

    def unshared(k):
        if k == 0:
            return leaf("term", ident)
        return Derivation(R_LAM1, j, (unshared(k - 1), unshared(k - 1)))

    shared = leaf("term", ident)
    for _ in range(8):
        shared = Derivation(R_LAM1, j, (shared, shared))
    assert shared == unshared(8) and unshared(8) == shared
    assert dataclasses.replace(shared, time=5) == unshared(8)


def test_derivation_eq_compares_each_closure_pair_once_over_the_tree(monkeypatch):
    # the Space KAM's final state on an n-deep let chain holds a chain of
    # n closures, each the subject of a TCl judgment: == writes both
    # files, each numbering a closure or cell once however many
    # judgments hold it, so numbering closures per judgment would cost
    # O(n^2) and the two files O(n)
    n = 800
    body = rf"\z. x{n}"
    for i in range(n, 0, -1):
        body = rf"(\x{i}. {body}) (\w. x{i - 1})"
    run = skam_run(compile(parse_term(rf"(\x0. {body}) (\a.a)")), 10 * n)
    d = type_final_state(run.final)
    back = derivation_from_json(derivation_to_json(d))
    added = 0
    add = Rows.add

    def counting(self, c):
        nonlocal added
        added += 1
        return add(self, c)

    monkeypatch.setattr(Rows, "add", counting)
    assert d is not back and d == back
    assert 2 * n <= added <= 5 * n


def test_a_derivation_20000_deep_round_trips_as_text_and_checks():
    # 10,000 identity redexes inside 10,000 parentheses: a space
    # derivation 20,001 nodes deep, at the default recursion limit
    n = 10_000
    run = skam_run(compile(parse_term(r"(\x.x) (" * n + r"\a.a" + ")" * n)), 100_000)
    d = extract(run)
    back = derivation_from_json(json.loads(json.dumps(derivation_to_json(d))))
    res = check(back, "space")
    assert res.ok and res.weight == run.space == 1
    assert size_of(back) == run.transitions + 1


def test_json_deep_chain_errors_name_the_deep_node():
    obj = derivation_to_json(_chain(20_000))
    node_at(obj, (0,) * 19_999)["judgment"]["weight"] = "0"
    with pytest.raises(ValueError) as info:
        derivation_from_json(obj)
    assert str(info.value) == "root: tables.nodes[20000]: weight must be an integer"


def test_shared_nodes_are_checked_once_and_counted_at_every_place():
    # node i holds node i-1 as both its premises: 201 entries stand for
    # a tree with 2**201 - 1 places, which no walk could visit one by one
    j = {"subject_kind": "term", "subject": 1, "context": {}, "type": 0, "weight": 0}
    nodes = [{"rule": "TLamStar", "judgment": j, "premises": []}]
    nodes += [{"rule": "TApp1", "judgment": j, "premises": [i, i]} for i in range(200)]
    tables = {"types": ["*"], "terms": [{"var": "a"}, {"lam": "a", "body": 0}], "closures": []}
    d = derivation_from_json({"tables": {**tables, "nodes": nodes}})
    assert rule_counts(d) == {"TLamStar": 2**200, "TApp1": 2**200 - 1}
    assert size_of(d) == 2**201 - 1
    # each failing node once, at its first place, shallow first
    res = check(d, "space", full_scan=True)
    assert [e.path for e in res.errors] == [(0,) * k for k in range(200)]
    assert {e.message for e in res.errors} == {"TApp1 subject must be an application"}
    assert check(d, "space").errors == res.errors[-1:]


def test_json_roundtrip_of_hand_built_closures():
    x, y = Var("x"), Var("y")
    inner = Closure(Abs("y", y), ())
    c = Closure(App(x, x), ("x", inner, ()))
    s = MachState(App(x, y), env_cells((("x", c), ("y", inner))), (c, (inner, ())))
    d = Derivation(R_ST, Judgment("state", s, EMPTY_CONTEXT, STAR, 0))
    obj = derivation_to_json(d)
    # x, y, x x, x y, \y.y; the empty chain, the closures (\y.y, []) and
    # (x x, [x <- (\y.y, [])]), the env cells [y <- (\y.y, [])], [x <-
    # (\y.y, [])] and x <- (x x, ..) over the first, and the stack cells
    # (\y.y, []) and (x x, ..) over it
    assert len(obj["tables"]["terms"]) == 5
    closures = obj["tables"]["closures"]
    assert sorted(map(sorted, closures)) == sorted(
        [[]] + [["code", "env"]] * 2 + [["closure", "name", "rest"]] * 3 + [["rest", "top"]] * 2
    )
    subject = obj["tables"]["nodes"][-1]["judgment"]["subject"]
    env, stack = closures[subject["env"]], closures[subject["stack"]]
    assert stack["top"] == env["closure"] and closures[stack["rest"]]["top"] == closures[env["rest"]]["closure"]
    assert closures[closures[env["closure"]]["env"]]["closure"] == closures[env["rest"]]["closure"]
    assert derivation_from_json(obj) == d


def test_json_file_of_a_church_numeral_stays_small():
    church = r"(\f.\x." + "f (" * 256 + "x" + ")" * 256 + r") (\a.a) (\b.b)"
    d = extract(skam_run(compile(parse_term(church)), 10_000))
    blob = json.dumps(derivation_to_json(d))
    assert len(blob) < 1_000_000  # 3.6 MB when every node wrote its terms and types in full


# ---------------------------------------------------------------- rendering

def test_render_derivation(example_space_derivation):
    out = render_derivation(example_space_derivation)
    lines = out.splitlines()
    assert lines[0] == r"TApp1 w=4  . |- (\x.(\y.(\z.x) (x y)) x) (\a.a) : *"
    assert lines[1].startswith("  TLam1 w=4")
    assert any("x:[*]^1 |- x : *" in ln for ln in lines)


def test_render_machine_state():
    out = render_derivation(final_state_derivation())
    assert out.splitlines()[0] == r"TSt w=0  . |- (\a.a | [] | ) : *"


def test_render_closure_env_and_state_subjects():
    c = Closure(Var("x"), ("x", Closure(parse_term(r"\a.a"), ()), ()))
    d = Derivation(R_CL, Judgment(KIND_CLOSURE, c, EMPTY_CONTEXT, ClosureMulti((), 2), 0))
    assert render_derivation(d) == r"TCl w=0  . |- (x, [x <- (\a.a, [])]) : []^2"
    e = env_cells((("y", c), ("z", c)))
    g = TypeContext((("y", ClosureMulti((), 2)), ("z", ClosureMulti((), 2))))
    d = Derivation(R_ENV, Judgment(KIND_ENV, e, EMPTY_CONTEXT, g, 0))
    inner = r"(x, [x <- (\a.a, [])])"
    assert render_derivation(d) == f"TEnv w=0  . |- [y <- {inner}, z <- {inner}] : y:[]^2, z:[]^2"
    s = MachState(parse_term("y z"), e, (c, (c, ())))
    d = Derivation(R_ST, Judgment(KIND_STATE, s, EMPTY_CONTEXT, STAR, 0))
    assert render_derivation(d) == (
        f"TSt w=0  . |- (y z | [y <- {inner}, z <- {inner}] | {inner} . {inner}) : *"
    )


def test_render_a_closure_judgment_nested_20000_deep():
    # closure subjects are written from an explicit stack, at the
    # interpreter's default recursion limit
    c = Closure(parse_term(r"\a.a"), ())
    for _ in range(20_000):
        c = Closure(Var("x"), ("x", c, ()))
    d = Derivation(R_CL, Judgment(KIND_CLOSURE, c, EMPTY_CONTEXT, ClosureMulti((), 20_001), 0))
    assert render_derivation(d) == (
        "TCl w=0  . |- " + "(x, [x <- " * 20_000 + r"(\a.a, [])" + "])" * 20_000 + " : []^20001"
    )


# ---------------------------------------------------------------- every rule condition
#
# One case per condition a rule checks: an edit of one or more nodes of
# a valid derivation, and the node whose rule must then fail.  The bases
# are the README example's space, time and plain derivations, a plain
# derivation with an open abstraction that uses its binder, the typing of
# a final state with a non-empty environment, and an expanded state with
# a non-empty environment and stack.  Subjects a file cannot hold are
# built by hand.  The cases name no message wording.

_OPEN_USE = r"(\x.(\y.y x) (\b.b)) (\a.a)"


def _final_with_env():
    # (\y.x | [x <- (\a.a, [])] | ): TSt over TLamStar and TEnv, whose
    # one premise is the TCl of the identity
    return type_final_state(skam_run(compile(parse_term(r"(\x.\y.x) (\a.a)")), 100).final)


def _state_with_stack():
    # (\z.x | [x <- ..] | (x y, [y <- .., x <- ..])): TSt over TLam2,
    # TEnv and the TCl of the stack closure
    run = skam_run(compile(parse_term(EXAMPLE_SRC)), 100)
    states = [run.initial] + [s for _, s in run.trace]
    d = type_final_state(run.final)
    for i in reversed(range(5, run.transitions)):
        d = expand(d, (run.trace[i][0], states[i]))
    assert d.conclusion.subject.env and d.conclusion.subject.stack
    return d


_BASES = {
    "space": (lambda: extract(skam_run(compile(parse_term(EXAMPLE_SRC)), 100)), "space"),
    "time": (lambda: reweight(_BASES["space"][0](), "time"), "time"),
    "kam": (lambda: extract_kam(kam_run(compile(parse_term(EXAMPLE_SRC)), 100)), "kam"),
    "kam_open": (lambda: extract_kam(kam_run(compile(parse_term(_OPEN_USE)), 100)), "kam"),
    "final": (_final_with_env, "space"),
    "state": (_state_with_stack, "space"),
}


def _at(base, path):
    d = _BASES[base][0]()
    for i in path:
        d = d.premises[i]
    return d


def _set(**fields):
    """Replace fields of a node's conclusion."""
    return lambda n: dataclasses.replace(n, conclusion=dataclasses.replace(n.conclusion, **fields))


def _rule(rule):
    return lambda n: dataclasses.replace(n, rule=rule)


def _premises(pick):
    """Replace a node's premises by pick(n)."""
    return lambda n: dataclasses.replace(n, premises=tuple(pick(n)))


def _leaf(rule, ctx, assigned, weight):
    """A premiseless node of rule on the subject of the node it replaces."""
    return lambda n: Derivation(rule, Judgment("term", n.conclusion.subject, ctx, assigned, weight))


def _ctx(**images):
    return TypeContext(tuple(images.items()))


def _many_over(ctx, assigned, *weights):
    """A TMany on the variable of the TVar node it replaces, over copies
    of that node whose context for x has the index of each weight."""
    def edit(n):
        prem = [_set(context=_ctx(x=ClosureMulti((STAR,), w)), weight=w)(n) for w in weights]
        return Derivation(R_MANY, Judgment("term", n.conclusion.subject, ctx, assigned, 0), tuple(prem))
    return edit


def _stack_of(pick):
    """Replace a state node's stack by pick(stack) and its premises to match."""
    def edit(n):
        s = n.conclusion.subject
        k = pick(s.stack)
        cells = stack_tuple(k)
        own = dict(zip(stack_tuple(s.stack), n.premises[2:]))
        return Derivation(
            n.rule,
            dataclasses.replace(n.conclusion, subject=MachState(s.code, s.env, k)),
            n.premises[:2] + tuple(own[c] for c in cells),
        )
    return edit


M1 = ClosureMulti((STAR,), 1)
E1, E2, E3, E4 = (ClosureMulti((), k) for k in (1, 2, 3, 4))
A1 = Arrow(E1, STAR)
P_APP2, P_L1Y, P_APP1, P_L2 = (0, 0), (0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0)
DC_STAR = MultiType((STAR,))
DC_EMPTY = MultiType(())
DC_A = DCArrow(DC_EMPTY, STAR)
P_DC_VAR, P_DC_LZ = (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0)
IDENT_CLOSURE = Closure(parse_term(r"\a.a"), ())

# (id, base, [(path, edit), ...], path of the node that must fail, its rule)
CONDITIONS = [
    # the checks every term rule makes
    ("term-kind", "space", [(P_TVAR, _set(subject_kind=KIND_CLOSURE))], P_TVAR, R_VAR),
    ("term-subject-is-a-closure", "space", [(P_TLAMSTAR, _set(subject=IDENT_CLOSURE))], P_TLAMSTAR, R_LAM_STAR),
    ("term-context-grammar", "space", [(P_TVAR, _set(context=_ctx(x=DC_STAR)))], P_TVAR, R_VAR),
    ("term-context-grammar-kam", "kam", [(P_DC_VAR, _set(context=_ctx(x=M1)))], P_DC_VAR, R_DC_VAR),
    ("term-domain-within-fv-kam", "kam", [(P_DC_VAR, _set(context=_ctx(x=DC_STAR, y=DC_EMPTY)))], P_DC_VAR, R_DC_VAR),
    ("term-domain-is-fv", "space", [(P_TVAR, _set(context=_ctx(x=M1, y=E1)))], P_TVAR, R_VAR),
    ("term-domain-is-fv-time", "time", [(P_TVAR, _set(context=_ctx(x=M1, y=E1)))], P_TVAR, R_VAR),
    ("term-premise-count", "space", [((0,), _premises(lambda n: ()))], (0,), R_LAM1),
    ("term-premise-kind", "space", [((0,), _premises(lambda n: [_at("final", (1, 0))]))], (0,), R_LAM1),
    ("term-form", "space", [(P_APP2, _rule(R_LAM1))], P_APP2, R_LAM1),
    # TVar
    ("tvar-linear", "space", [(P_TVAR, _set(assigned=M1))], P_TVAR, R_VAR),
    ("tvar-singleton", "space", [(P_TVAR, _set(assigned=A1))], P_TVAR, R_VAR),
    ("tvar-singleton-time", "time", [(P_TVAR, _set(assigned=A1))], P_TVAR, R_VAR),
    # TLamStar
    ("tlamstar-ground", "space", [(P_TLAMSTAR, _set(assigned=A1))], P_TLAMSTAR, R_LAM_STAR),
    ("tlamstar-dry", "final", [((0,), _set(context=_ctx(x=M1)))], (0,), R_LAM_STAR),
    # TLam1
    ("tlam1-body", "space", [((0,), _premises(lambda n: [_at("space", P_L1Y)]))], (0,), R_LAM1),
    ("tlam1-premise-linear", "space", [((0, 0), _leaf(R_NONE, _ctx(x=E1), E2, 0))], (0,), R_LAM1),
    ("tlam1-arrow", "space", [((0,), _set(assigned=STAR))], (0,), R_LAM1),
    ("tlam1-target", "space", [((0,), _set(assigned=Arrow(M1, A1)))], (0,), R_LAM1),
    ("tlam1-binder-used", "space", [(P_L2, _rule(R_LAM1))], P_L2, R_LAM1),
    ("tlam1-arrow-source", "space", [(P_L1Y, _set(assigned=Arrow(M1, STAR)))], P_L1Y, R_LAM1),
    ("tlam1-arrow-source-time", "time", [(P_L1Y, _set(assigned=Arrow(M1, STAR)))], P_L1Y, R_LAM1),
    ("tlam1-context", "space", [(P_L1Y, _set(context=_ctx(x=E1)))], P_L1Y, R_LAM1),
    # TLam2
    ("tlam2-body", "space", [(P_L2, _premises(lambda n: [_at("space", P_TLAMSTAR)]))], P_L2, R_LAM2),
    ("tlam2-empty-source", "space", [(P_L2, _set(assigned=Arrow(M1, STAR)))], P_L2, R_LAM2),
    ("tlam2-empty-source-first", "space", [((0,), _rule(R_LAM2))], (0,), R_LAM2),
    ("tlam2-target", "space", [(P_L2, _set(assigned=Arrow(E3, A1)))], P_L2, R_LAM2),
    ("tlam2-binder-unused", "space", [(P_L1Y, _rule(R_LAM2))], P_L1Y, R_LAM2),
    ("tlam2-context", "space", [(P_L2, _set(context=_ctx(x=ClosureMulti((STAR, STAR), 1))))], P_L2, R_LAM2),
    # TMany
    ("tmany-a-premise", "space", [(P_TMANY, _premises(lambda n: ()))], P_TMANY, R_MANY),
    ("tmany-multi", "space", [(P_TMANY, _set(assigned=STAR))], P_TMANY, R_MANY),
    ("tmany-premise-kind", "space", [(P_TMANY, _premises(lambda n: [_at("final", (1, 0))]))], P_TMANY, R_MANY),
    ("tmany-premise-term", "space", [(P_TMANY, _premises(lambda n: [_at("space", P_TVAR)]))], P_TMANY, R_MANY),
    ("tmany-premise-linear", "space", [(P_TMANY, _premises(lambda n: [_at("final", (1, 0, 0))]))], P_TMANY, R_MANY),
    ("tmany-summable", "space",
     [(P_TVAR, _many_over(_ctx(x=ClosureMulti((STAR, STAR), 1)), ClosureMulti((STAR, STAR), 2), 1, 2))],
     P_TVAR, R_MANY),
    ("tmany-elements", "space", [(P_TMANY, _set(assigned=ClosureMulti((STAR, STAR), 1)))], P_TMANY, R_MANY),
    ("tmany-context", "space", [(P_TVAR, _many_over(_ctx(x=E1), ClosureMulti((STAR,), 2), 1))], P_TVAR, R_MANY),
    ("tmany-index", "space", [(P_TMANY, _set(assigned=ClosureMulti((STAR,), 2)))], P_TMANY, R_MANY),
    ("tmany-index-time", "time", [(P_TMANY, _set(assigned=ClosureMulti((STAR,), 2)))], P_TMANY, R_MANY),
    # TNone
    ("tnone-empty", "space", [(P_TNONE, _set(assigned=ClosureMulti((STAR,), 3)))], P_TNONE, R_NONE),
    ("tnone-dry", "space", [(P_TNONE, _set(context=_ctx(x=M1, y=E1)))], P_TNONE, R_NONE),
    ("tnone-index", "space", [(P_TNONE, _set(assigned=E2))], P_TNONE, R_NONE),
    # TApp1
    ("tapp1-argument-not-a-variable", "space",
     [(P_APP2, _rule(R_APP1)), (P_APP2, _premises(lambda n: n.premises * 2))], P_APP2, R_APP1),
    ("tapp1-function", "space", [((), _premises(lambda n: n.premises[::-1]))], (), R_APP1),
    ("tapp1-argument", "space", [((), _premises(lambda n: n.premises[:1] * 2))], (), R_APP1),
    ("tapp1-function-arrow", "space", [((0,), _leaf(R_LAM_STAR, EMPTY_CONTEXT, STAR, 0))], (), R_APP1),
    ("tapp1-argument-multi", "space", [((1,), _leaf(R_NONE, EMPTY_CONTEXT, E1, 0))], (), R_APP1),
    ("tapp1-target", "space", [((), _set(assigned=A1))], (), R_APP1),
    ("tapp1-summable", "space",
     [(P_TNONE, _set(context=_ctx(x=E2, y=E1), assigned=E4)), (P_L2, _set(assigned=Arrow(E4, STAR), weight=5))],
     P_APP1, R_APP1),
    ("tapp1-context", "space", [(P_APP1, _set(context=_ctx(x=ClosureMulti((STAR, STAR), 1), y=E1)))], P_APP1, R_APP1),
    # TApp2
    ("tapp2-subject", "space", [(P_APP1, _rule(R_APP2)), (P_APP1, _premises(lambda n: n.premises[:1]))], P_APP1, R_APP2),
    ("tapp2-function", "space", [(P_APP2, _premises(lambda n: [_at("space", P_L2)]))], P_APP2, R_APP2),
    ("tapp2-function-arrow", "space", [(P_L1Y, _leaf(R_LAM_STAR, _ctx(x=E1), STAR, 1))], P_APP2, R_APP2),
    ("tapp2-target", "space", [(P_APP2, _set(assigned=A1))], P_APP2, R_APP2),
    ("tapp2-summable", "space",
     [(P_TNONE, _set(context=_ctx(x=E1, y=E2), assigned=E4)), (P_L2, _set(assigned=Arrow(E4, STAR), weight=5)),
      (P_APP1, _set(context=_ctx(x=M1, y=E2), weight=5)), (P_L1Y, _set(assigned=Arrow(E2, STAR), weight=5))],
     P_APP2, R_APP2),
    ("tapp2-context", "space", [(P_APP2, _set(context=_ctx(x=ClosureMulti((STAR, STAR), 1))))], P_APP2, R_APP2),
    # TEnv
    ("tenv-kind", "final", [((1,), _set(subject_kind=KIND_CLOSURE))], (1,), R_ENV),
    ("tenv-subject-not-a-chain", "final", [((1,), _set(subject=("x", 1, ())))], (1,), R_ENV),
    ("tenv-names-once", "final",
     [((1,), _set(subject=("x", IDENT_CLOSURE, ("x", IDENT_CLOSURE, ())))), ((1,), _premises(lambda n: n.premises * 2))],
     (1,), R_ENV),
    ("tenv-no-context", "final", [((1,), _set(context=_ctx(x=E1)))], (1,), R_ENV),
    ("tenv-assigns-a-context", "final", [((1,), _set(assigned=STAR))], (1,), R_ENV),
    ("tenv-domain", "final", [((1,), _set(assigned=_ctx(y=E1)))], (1,), R_ENV),
    ("tenv-premise-count", "final", [((1,), _premises(lambda n: ()))], (1,), R_ENV),
    ("tenv-premise-kind", "final", [((1,), _premises(lambda n: [_at("final", (0,))]))], (1,), R_ENV),
    ("tenv-premise-closure", "final", [((1,), _premises(lambda n: [_at("state", (2,))]))], (1,), R_ENV),
    ("tenv-premise-multi", "final", [((1,), _set(assigned=_ctx(x=E2)))], (1,), R_ENV),
    # TCl
    ("tcl-kind", "final", [((1, 0), _set(subject_kind="term"))], (1, 0), R_CL),
    ("tcl-subject-not-a-closure", "final", [((1, 0), _set(subject=("x", IDENT_CLOSURE, ())))], (1, 0), R_CL),
    ("tcl-no-context", "final", [((1, 0), _set(context=_ctx(x=E1)))], (1, 0), R_CL),
    ("tcl-multi", "final", [((1, 0), _set(assigned=STAR))], (1, 0), R_CL),
    ("tcl-premise-count", "final", [((1, 0), _premises(lambda n: n.premises[:1]))], (1, 0), R_CL),
    ("tcl-code", "final", [((1, 0), _premises(lambda n: [_at("state", (2, 0)), n.premises[1]]))], (1, 0), R_CL),
    ("tcl-code-multi", "final", [((1, 0), _set(assigned=E2))], (1, 0), R_CL),
    ("tcl-environment", "final", [((1, 0), _premises(lambda n: [n.premises[0], _at("final", (1,))]))], (1, 0), R_CL),
    ("tcl-environment-context", "state",
     [((2, 0), _set(context=_ctx(x=E2, y=E1), assigned=E4)), ((2,), _set(assigned=E4))], (2,), R_CL),
    # TSt
    ("tst-kind", "state", [((), _set(subject_kind="term"))], (), R_ST),
    ("tst-subject-not-a-state", "state", [((), _set(subject=IDENT_CLOSURE))], (), R_ST),
    ("tst-no-context", "state", [((), _set(context=_ctx(x=E1)))], (), R_ST),
    ("tst-ground", "state", [((), _set(assigned=A1))], (), R_ST),
    ("tst-premise-count", "state", [((), _premises(lambda n: n.premises[:2]))], (), R_ST),
    ("tst-code", "state", [((), _premises(lambda n: [_at("space", P_TLAMSTAR), *n.premises[1:]]))], (), R_ST),
    ("tst-environment", "state", [((), _premises(lambda n: [n.premises[0], n.premises[2].premises[1], n.premises[2]]))],
     (), R_ST),
    ("tst-environment-context", "final", [((0,), _set(context=_ctx(x=E2), weight=2))], (), R_ST),
    ("tst-arrows-run-out", "state", [((), _stack_of(lambda k: (k[0], k)))], (), R_ST),
    ("tst-stack-closure", "state", [((), _premises(lambda n: [*n.premises[:2], _at("final", (1, 0))]))], (), R_ST),
    ("tst-stack-closure-multi", "state", [((0,), _set(assigned=Arrow(ClosureMulti((), 5), STAR), weight=6))],
     (), R_ST),
    ("tst-ground-at-the-bottom", "state", [((), _stack_of(lambda k: ()))], (), R_ST),
    # DC_TVar
    ("dc_tvar-linear", "kam", [(P_DC_VAR, _set(assigned=DC_STAR))], P_DC_VAR, R_DC_VAR),
    ("dc_tvar-singleton", "kam", [(P_DC_VAR, _set(assigned=DC_A))], P_DC_VAR, R_DC_VAR),
    # DC_TLamStar
    ("dc_tlamstar-ground", "kam", [((1,), _set(assigned=DC_A))], (1,), R_DC_LAM_STAR),
    ("dc_tlamstar-empty-context", "kam", [(P_DC_LZ, _leaf(R_DC_LAM_STAR, _ctx(x=DC_STAR), STAR, 0))],
     P_DC_LZ, R_DC_LAM_STAR),
    # DC_TLam
    ("dc_tlam-body", "kam", [((0,), _premises(lambda n: [_at("kam", (1,))]))], (0,), R_DC_LAM),
    ("dc_tlam-arrow", "kam", [((0,), _set(assigned=STAR))], (0,), R_DC_LAM),
    ("dc_tlam-target", "kam", [((0,), _set(assigned=DCArrow(DC_STAR, DC_A)))], (0,), R_DC_LAM),
    ("dc_tlam-unused-binder-source", "kam", [(P_L1Y, _set(assigned=DCArrow(DC_STAR, STAR)))], P_L1Y, R_DC_LAM),
    ("dc_tlam-unused-binder-context", "kam", [(P_L1Y, _set(context=EMPTY_CONTEXT))], P_L1Y, R_DC_LAM),
    ("dc_tlam-arrow-source", "kam", [((0,), _set(assigned=DCArrow(MultiType((STAR, STAR)), STAR)))], (0,), R_DC_LAM),
    ("dc_tlam-context", "kam_open", [(P_L1Y, _set(context=EMPTY_CONTEXT))], P_L1Y, R_DC_LAM),
    # DC_TApp
    ("dc_tapp-function-premise", "kam", [(P_APP2, _premises(lambda n: ()))], P_APP2, R_DC_APP),
    ("dc_tapp-function", "kam", [((), _premises(lambda n: n.premises[::-1]))], (), R_DC_APP),
    ("dc_tapp-function-arrow", "kam", [((0,), _leaf(R_DC_LAM_STAR, EMPTY_CONTEXT, STAR, 0))], (), R_DC_APP),
    ("dc_tapp-target", "kam", [((), _set(assigned=DC_A))], (), R_DC_APP),
    ("dc_tapp-argument", "kam", [((), _premises(lambda n: n.premises[:1] * 2))], (), R_DC_APP),
    ("dc_tapp-argument-linear", "kam", [((1,), _set(assigned=DC_STAR))], (), R_DC_APP),
    ("dc_tapp-argument-multi", "kam", [((), _premises(lambda n: [*n.premises, n.premises[1]]))], (), R_DC_APP),
    ("dc_tapp-context", "kam", [(P_APP2, _set(context=_ctx(x=MultiType((STAR, STAR)))))], P_APP2, R_DC_APP),
]
# a plain premise assigns a multi only when its own rule fails, and that
# node is then the first to fail
_PREMISE_FAILS_FIRST = {"dc_tapp-argument-linear"}


def _edited(base, edits):
    d, mode = _BASES[base][0](), _BASES[base][1]
    assert check(d, mode).ok
    for path, edit in edits:
        d = mutate(d, path, edit)
    return d, mode


@pytest.mark.parametrize("name, base, edits, where, rule", CONDITIONS, ids=[c[0] for c in CONDITIONS])
def test_each_rule_condition_fails_at_its_node(name, base, edits, where, rule):
    d, mode = _edited(base, edits)
    node = d
    for i in where:
        node = node.premises[i]
    assert node.rule == rule
    res = check(d, mode)
    assert not res.ok
    if name not in _PREMISE_FAILS_FIRST:
        assert res.errors[0].path == where, res.errors
    # the node's own rule check fails, not the weight comparison
    mine = [e.message for e in check(d, mode, full_scan=True).errors if e.path == where]
    assert mine and not mine[0].startswith("stored weight"), (res.errors, mine)


@pytest.mark.parametrize("name, base, edits, where, rule", CONDITIONS, ids=[c[0] for c in CONDITIONS])
def test_each_rule_condition_names_its_rule(name, base, edits, where, rule):
    d, mode = _edited(base, edits)
    mine = [e.message for e in check(d, mode, full_scan=True).errors if e.path == where]
    assert re.search(rf"\b{rule}\b", mine[0]), mine[0]


def test_a_message_names_the_expected_and_the_found_type_each_cut_at_1000_characters():
    # an arrow source read from a file can be as large as the file allows
    d = _BASES["space"][0]()
    big = ClosureMulti([STAR] * 2000, 1)
    bad = mutate(d, P_L1Y, _set(assigned=Arrow(big, STAR)))
    msg = check(bad, "space").errors[0].message
    found, want = format_type(Arrow(big, STAR), 1000), format_type(Arrow(ClosureMulti((), 1), STAR))
    assert msg == f"TLam1 type (arrow source: the binder's multi) {found}, expected {want}"
    assert found.endswith("...") and len(found) == 1003
    g = TypeContext((("x", big),))  # where x:[*]^1 belongs
    msg = check(mutate(d, P_L2, _set(context=g)), "space").errors[0].message
    assert msg == f"TLam2 context {('x:' + format_type(big))[:1000]}..., expected x:[*]^1"
    assert len(msg) < 1100
