import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st
from machine_steps import env_cells

import spacekam as sk
from spacekam.checker import (
    R_APP1,
    R_CL,
    R_DC_LAM_STAR,
    R_ENV,
    R_LAM2,
    R_LAM_STAR,
    R_ST,
    Derivation,
    check,
    check_rule_transition_correspondence,
    check_walk,
    derivation_from_json,
    derivation_to_json,
    reweight,
    rule_weight,
    size_of,
    weight_of,
)
from spacekam.extractor import (
    IncompleteRun,
    NotFinal,
    ShapeMismatch,
    StepEquationError,
    _Cl,
    _Stack,
    _USE,
    _env_weights,
    _join,
    dry_type_closure,
    dry_type_env,
    expand,
    extract,
    extract_kam,
    type_final_state,
)
from spacekam.hashcons import postorder
from spacekam.kam import Closure, MachState, compile, kam_run
from spacekam.space_kam import skam_run, state_size
from spacekam.terms import Var, parse_term, print_term
from spacekam.types import EMPTY_CONTEXT, STAR, ClosureMulti, size_context

IDENT = parse_term(r"\a.a")
I_CL = Closure(IDENT, ())
NESTED = Closure(parse_term("x"), ("x", I_CL, ()))
OMEGA = parse_term(r"(\x.x x) (\x.x x)")


def church(n):
    return r"(\f.\x." + "f (" * n + "x" + ")" * n + ")"


def nested(depth):
    c = I_CL
    for _ in range(depth):
        c = Closure(Var("x"), ("x", c, ()))
    return c


POW2_4 = church(4) + " " + church(2) + r" (\a.a) (\b.b)"


# ---------------------------------------------------------------- dry typings

def test_dry_closure_typing():
    d = dry_type_closure(I_CL)
    assert d.rule == R_CL
    assert d.conclusion.assigned == ClosureMulti((), 1)
    assert check(d, "space").ok
    assert weight_of(d, "space") == 0
    assert weight_of(d, "time") == 0


def test_dry_closure_index_is_the_closure_size():
    assert dry_type_closure(NESTED).conclusion.assigned == ClosureMulti((), 2)


def test_dry_env_typing():
    e = env_cells((("x", I_CL), ("y", NESTED)))
    ctx, d = dry_type_env(e)
    assert ctx.get("x") == ClosureMulti((), 1)
    assert ctx.get("y") == ClosureMulti((), 2)
    assert size_context(ctx) == 3  # the env's size, by construction
    assert check(d, "space").ok
    assert weight_of(d, "space") == 0


def test_dry_typing_of_a_closure_nested_20000_deep():
    # minting keeps its own stack, at the interpreter's default
    # recursion limit
    c = nested(20_000)
    d = dry_type_closure(c)
    assert d.conclusion.assigned == ClosureMulti((), 20_001)
    assert d.conclusion.weight == d.time == 0
    assert check(d, "space").ok
    depth = 0
    while d.premises[1].premises:  # TCl, then TEnv, then the bound TCl
        d = d.premises[1].premises[0]
        depth += 1
    assert depth == 20_000 and d.conclusion.subject is I_CL


# ---------------------------------------------------------------- final states

def test_final_state_typing_weighs_the_state(example_skam):
    d = type_final_state(example_skam.final)
    assert d.rule == R_ST
    assert check(d, "space").ok
    assert d.conclusion.weight == state_size(example_skam.final) == 0


def test_final_state_with_an_environment():
    s = MachState(parse_term(r"\a.x"), ("x", NESTED, ()), ())
    d = type_final_state(s)
    assert check(d, "space").ok
    assert weight_of(d, "space") == state_size(s) == 2
    assert weight_of(d, "time") == 2


def test_final_state_typing_with_a_closure_nested_20000_deep():
    s = MachState(parse_term(r"\a.x"), ("x", nested(20_000), ()), ())
    d = type_final_state(s)
    assert d.conclusion.weight == d.time == state_size(s) == 20_001
    assert weight_of(d, "time") == 20_001


def test_not_final_states_are_rejected():
    with pytest.raises(NotFinal):
        type_final_state(MachState(parse_term("x y"), (), ()))
    with pytest.raises(NotFinal):
        type_final_state(MachState(IDENT, (), (I_CL, ())))


# ---------------------------------------------------------------- expand

def test_backward_replay_reproduces_the_extracted_tree(
    example_skam, example_space_derivation
):
    states = [example_skam.initial] + [s for _, s in example_skam.trace]
    d = type_final_state(states[-1])
    for i in reversed(range(example_skam.transitions)):
        label = example_skam.trace[i][0]
        prev_space = d.conclusion.weight
        prev_time = weight_of(d, "time")
        d = expand(d, (label, states[i]))
        assert d.conclusion.subject == states[i]
        assert check(d, "space").ok
        # one transition back: peak is the wider of here and later,
        # total is here plus later
        assert d.conclusion.weight == max(state_size(states[i]), prev_space)
        assert weight_of(d, "time") == state_size(states[i]) + prev_time
    assert d.conclusion.weight == example_skam.space
    assert weight_of(d, "time") == example_skam.time
    assert d.premises[0] == example_space_derivation


def test_expand_fills_time_weights_of_a_foreign_derivation(example_skam):
    # a derivation read back from JSON carries no time weights; expand
    # works them out, and the source's time is still the sum
    states = [example_skam.initial] + [s for _, s in example_skam.trace]
    d = type_final_state(states[-1])
    for i in reversed(range(example_skam.transitions)):
        foreign = derivation_from_json(derivation_to_json(d))
        assert foreign.time is None
        d = expand(foreign, (example_skam.trace[i][0], states[i]))
        prev_time = weight_of(foreign, "time")
        assert d.time == weight_of(d, "time") == state_size(states[i]) + prev_time
    assert d.time == example_skam.time


@pytest.mark.parametrize("read_back", [False, True], ids=["minted", "from-json"])
@pytest.mark.parametrize("src", [r"(\x.(\y.(\z.x) (x y)) x) (\a.a)", POW2_4])
def test_expand_twice_on_one_derivation_gives_equal_results(src, read_back):
    # the undo rules change the state's environment typing in place, and
    # expand reads that typing anew from prev on each call, so a second
    # expand of the same prev gives an equal derivation, and prev's file
    # stays as it was
    run = skam_run(compile(parse_term(src)), 10_000)
    states = [run.initial] + [s for _, s in run.trace]
    d = type_final_state(states[-1])
    for i in reversed(range(run.transitions)):
        prev = derivation_from_json(derivation_to_json(d)) if read_back else d
        before = derivation_to_json(prev)
        step = (run.trace[i][0], states[i])
        d = expand(prev, step)
        assert expand(prev, step) == d
        assert derivation_to_json(prev) == before
    assert d.conclusion.weight == run.space and d.time == run.time


@pytest.mark.parametrize("src", [r"(\x.(\y.(\z.x) (x y)) x) (\a.a)", POW2_4])
def test_extract_twice_on_one_run_gives_equal_results(src):
    t = compile(parse_term(src))
    run, krun = skam_run(t, 10_000), kam_run(t, 10_000)
    assert extract(run) == extract(run)
    assert extract_kam(krun) == extract_kam(krun)


def test_time_weight_is_not_part_of_the_derivation(example_skam, example_space_derivation):
    d = extract(example_skam)
    assert d.time == weight_of(d, "time") == 11
    assert example_space_derivation.time is None
    assert d == example_space_derivation
    assert hash(d) == hash(example_space_derivation)
    assert repr(d) == repr(example_space_derivation)
    assert "time" not in repr(d) and "11" not in repr(d)
    assert derivation_to_json(d) == derivation_to_json(example_space_derivation)
    assert reweight(d, "time").time is None


def test_expand_rejects_the_wrong_label(example_skam):
    states = [example_skam.initial] + [s for _, s in example_skam.trace]
    d = type_final_state(states[-1])
    with pytest.raises(ShapeMismatch, match="fires sub, not beta_nw"):
        expand(d, ("beta_nw", states[-2]))  # that state fires sub


def test_expand_rejects_the_wrong_target(example_skam):
    d = type_final_state(example_skam.final)
    with pytest.raises(ShapeMismatch, match="target"):
        expand(d, ("sea_nv", example_skam.initial))


def test_expand_rejects_final_sources(example_skam):
    d = type_final_state(example_skam.final)
    with pytest.raises(ShapeMismatch, match="final"):
        expand(d, ("sub", example_skam.final))


def test_expand_wants_a_state_derivation(example_skam, example_space_derivation):
    with pytest.raises(ShapeMismatch, match="state"):
        expand(example_space_derivation, ("sub", example_skam.trace[-1][1]))


# ---------------------------------------------------------------- extract

def test_extract_matches_the_hand_built_tree(example_skam, example_space_derivation):
    assert extract(example_skam) == example_space_derivation


def test_extract_reweights_to_the_hand_built_time_tree(
    example_skam, example_time_derivation
):
    assert reweight(extract(example_skam), "time") == example_time_derivation


C64 = church(64) + r" (\a.a) (\b.b)"


def _nodes(d) -> dict:
    """The node objects of d, by id."""
    kept = {}
    stack = [d]
    while stack:
        n = stack.pop()
        if id(n) not in kept:
            kept[id(n)] = n
            stack.extend(n.premises)
    return kept


@pytest.mark.parametrize("src", [C64, POW2_4], ids=["c_64", "pow2_4"])
def test_extract_mints_only_the_nodes_it_returns(monkeypatch, src):
    # state, environment and closure typings stay unminted bags, and
    # term nodes are hash-consed: every node extract mints stands in the
    # returned tree, and no two of them are copies of one subtree
    from spacekam import extractor

    minted = []

    def counting(*args, **kwargs):
        d = Derivation(*args, **kwargs)
        minted.append(d)
        return d

    run = skam_run(compile(parse_term(src)), 100_000)
    monkeypatch.setattr(extractor, "Derivation", counting)
    d = extract(run)
    kept = _nodes(d)
    assert len(minted) == len(kept)
    assert {id(n) for n in minted} == kept.keys()
    keys = {
        (n.rule, n.conclusion.subject, n.conclusion.context, n.conclusion.assigned,
         tuple(map(id, n.premises)))
        for n in minted
    }
    assert len(keys) == len(minted)
    assert not {n.rule for n in minted} & {R_ST, R_ENV, R_CL}
    assert size_of(d) == run.transitions + 1


@pytest.mark.parametrize("src", [church(16) + r" (\a.a) (\b.b)", POW2_4], ids=["c_16", "pow2_4"])
def test_extractors_build_the_final_state_alone(monkeypatch, src):
    # the extractors walk the replay's bare (label, code, env, stack)
    # tuples: the final state is the one MachState they build
    built = [0]
    init = MachState.__init__

    def counted(self, code, env, stack):
        built[0] += 1
        init(self, code, env, stack)

    t = compile(parse_term(src))
    runs = [(extract, skam_run(t, 100_000)), (extract_kam, kam_run(t, 100_000))]
    monkeypatch.setattr(MachState, "__init__", counted)
    for ex, run in runs:
        built[0] = 0
        ex(run)
        assert run.transitions > 50
        assert built[0] == 1, (ex.__name__, built[0])


def _complete_fuzz_terms(seeds):
    for seed in seeds:
        t = sk.random_closed_term(seed, 25)
        if skam_run(compile(t), 2000).final_reached:
            yield t


@pytest.mark.parametrize(
    "srcs",
    [[C64], [POW2_4], range(100)],
    ids=["c_64", "pow2_4", "fuzz_0_99"],
)
def test_extractors_share_every_equal_subtree(srcs):
    # sharing is maximal: the derivation file, which gives structurally
    # equal subtrees one entry, has one entry per node object
    terms = (
        list(_complete_fuzz_terms(srcs)) if type(srcs) is range
        else [parse_term(src) for src in srcs]
    )
    assert terms
    for t in terms:
        for d in (extract(skam_run(compile(t), 100_000)), extract_kam(kam_run(compile(t), 100_000))):
            assert len(_nodes(d)) == len(derivation_to_json(d)["tables"]["nodes"])


def _unshared(d) -> Derivation:
    """A copy of d with a node of its own at every place."""
    out = []
    work = [(d, False)]
    while work:
        n, ready = work.pop()
        if ready:
            k = len(n.premises)
            premises = tuple(out[len(out) - k:])
            del out[len(out) - k:]
            out.append(Derivation(n.rule, n.conclusion, premises, n.time))
        else:
            work.append((n, True))
            work.extend((p, False) for p in reversed(n.premises))
    return out[0]


def _walk_agrees(d, modes):
    copy = _unshared(d)
    assert len(_nodes(copy)) > len(_nodes(d))
    got, want = check_walk(d, modes, True), check_walk(copy, modes, True)
    assert got.errors == want.errors
    assert got.weights == want.weights
    assert got.counts == want.counts
    assert got.size == want.size


@pytest.mark.parametrize("src", [C64, POW2_4], ids=["c_64", "pow2_4"])
def test_check_walk_on_shared_subtrees_agrees_with_an_unshared_copy(src):
    t = parse_term(src)
    _walk_agrees(extract(skam_run(compile(t), 100_000)), ("space", "time"))
    _walk_agrees(extract_kam(kam_run(compile(t), 100_000)), ("kam",))


def _places(d) -> dict:
    """Per node id, its places in d, as premise paths in the order a
    walk with premises in stored order meets them."""
    places: dict = {}
    work = [(d, ())]
    while work:
        n, path = work.pop()
        places.setdefault(id(n), []).append(path)
        work.extend((p, path + (i,)) for i, p in reversed(list(enumerate(n.premises))))
    return places


def test_a_tampered_weight_on_a_shared_node_is_reported_once_at_its_first_place():
    d = extract(skam_run(compile(parse_term(POW2_4)), 100_000))
    places = _places(d)
    shared = next(n for i, n in _nodes(d).items() if len(places[i]) > 2 and n.premises)
    c = shared.conclusion
    bad = Derivation(
        shared.rule, dataclasses.replace(c, weight=c.weight + 1), shared.premises, shared.time
    )
    # the same DAG with the shared node swapped for the tampered one
    rebuilt = {id(shared): bad}
    for n in postorder((d,), lambda n: n.premises, lambda n: id(n) in rebuilt):
        rebuilt[id(n)] = Derivation(
            n.rule, n.conclusion, tuple(rebuilt[id(p)] for p in n.premises), n.time
        )
    tampered = rebuilt[id(d)]
    result = check(tampered, "space", full_scan=True)
    assert [e.path for e in result.errors] == [places[id(shared)][0]]
    assert "stored weight" in result.errors[0].message
    # an unshared copy holds a tampered node at every place
    copy = check(_unshared(tampered), "space", full_scan=True)
    assert sorted(e.path for e in copy.errors) == sorted(places[id(shared)])


@pytest.mark.parametrize("k", [6, 8])
def test_type_work_scales_with_distinct_nodes_not_transitions(monkeypatch, k):
    # nodes are keyed on their rule's inputs, so a step whose node exists
    # already builds no context: each builder runs at most once per node
    from spacekam import extractor

    calls = {"contexts_union": 0, "TypeContext": 0}
    for name in calls:
        def counting(*args, _f=getattr(extractor, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(extractor, name, counting)
    t = compile(parse_term(church(k) + " " + church(2) + r" (\a.a) (\b.b)"))
    for ex, run in ((extract, skam_run(t, 100_000)), (extract_kam, kam_run(t, 100_000))):
        for name in calls:
            calls[name] = 0
        n = len(_nodes(ex(run)))
        assert run.transitions > 2 * n
        assert max(calls.values()) <= n, (ex.__name__, n, calls)


@given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)), max_size=6))
def test_join_weights_are_the_checkers(weights):
    # TCl, TEnv and TSt join their premises: max in space, sum in time,
    # and the empty join (the TEnv of an empty environment) weighs 0; an
    # environment typing, a stack of closure typings and the joins of
    # one closure's typings weigh as those nodes would
    spaces, times = [w for w, _ in weights], [t for _, t in weights]
    cls = [_Cl(None, _USE, None, None, w, t) for w, t in weights]
    env, stack, joined = dict(enumerate(cls)), None, None
    for cl in reversed(cls):
        stack = _Stack(cl, stack)
        joined = cl if joined is None else _join(cl, joined)
    for rule in (R_CL, R_ENV, R_ST):
        want = (
            rule_weight(rule, EMPTY_CONTEXT, STAR, spaces, "space"),
            rule_weight(rule, EMPTY_CONTEXT, STAR, times, "time"),
        )
        assert _env_weights(env) == want
        if cls:
            assert (stack.space, stack.time) == (joined.space, joined.time) == want
    assert _env_weights({}) == (0, 0)


@pytest.mark.parametrize(
    "seed, budget, src, transitions, rule",
    [
        # one typing of the body \v2.v1 is weakened over dropped closures
        # of sizes 2 and 1: the two TLam2 nodes differ only in that size
        (926, 60, r"(\v0.v0 (v0 (v0 v0) (v0 v0)) v0) (\v1.\v2.v1)", 17, R_LAM2),
        # one typing of \v8.v8 is applied to two typings of v7 (\v9.v9):
        # the two TApp1 nodes differ only in their argument premise
        (1987, 45, r"(\v0.v0 ((\v1.v0) (\v2.v0 v2)) (\v3.v3) (v0 v0) (\v4.\v5.\v6.v6)) "
         r"(\v7.(\v8.v8) (v7 (\v9.v9)))", 46, R_APP1),
    ],
    ids=["tlam2_size", "tapp1_argument"],
)
def test_undo_steps_that_differ_in_one_rule_input(seed, budget, src, transitions, rule):
    # fuzz terms on which a node table that ignored one input of the
    # rule would hand back the wrong node and break a step equation
    t = sk.random_closed_term(seed, budget)
    assert print_term(t) == src
    run = skam_run(compile(t), 1000)
    assert run.transitions == transitions
    over = {}
    for n in _nodes(extract(run)).values():
        if n.rule == rule:
            over.setdefault((n.conclusion.subject, id(n.premises[0])), []).append(n)
    assert max(map(len, over.values())) == 2
    rep = sk.verify(t, 1000)
    assert rep.complete and rep.all_pass, rep.notes
    assert rep.skam["space_weight"] == rep.skam["space"] == run.space
    assert rep.skam["time_weight"] == rep.skam["time"] == run.time


def test_extract_needs_a_complete_run():
    run = skam_run(compile(OMEGA), 30)
    with pytest.raises(IncompleteRun):
        extract(run)


def test_extract_of_an_immediate_normal_form():
    run = skam_run(compile(IDENT), 10)
    d = extract(run)
    assert d.rule == R_LAM_STAR
    assert d.conclusion.weight == 0
    assert size_of(d) == 1


def test_a_broken_step_equation_raises(monkeypatch, example_skam):
    from spacekam import extractor

    sizes = extractor.state_sizes
    monkeypatch.setattr(extractor, "state_sizes", lambda s, fired: (n + 1 for n in sizes(s, fired)))
    with pytest.raises(StepEquationError, match="space step equation broken at transition 7"):
        extract(example_skam)


def test_a_broken_step_equation_raises_under_optimization(example_skam):
    # python -O strips assert statements; the step equations must stay
    code = (
        "import spacekam as sk\n"
        "from spacekam import extractor\n"
        "sizes = extractor.state_sizes\n"
        "extractor.state_sizes = lambda s, fired: (n + 1 for n in sizes(s, fired))\n"
        "run = sk.skam_run(sk.compile(sk.parse_term(r'(\\x.(\\y.(\\z.x) (x y)) x) (\\a.a)')), 100)\n"
        "try:\n"
        "    d = extractor.extract(run)\n"
        "except extractor.StepEquationError as ex:\n"
        "    print('raised:', ex)\n"
        "else:\n"
        "    print('weight:', d.conclusion.weight)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sk.__file__))}
    res = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("raised: space step equation broken"), res.stdout


def test_extract_kam_checks_the_root_weight(monkeypatch, example_kam):
    from spacekam import extractor
    from spacekam.checker import Judgment

    # every minted judgment weighs one more than the rules say
    monkeypatch.setattr(
        extractor, "Judgment", lambda kind, subj, ctx, a, w: Judgment(kind, subj, ctx, a, w + 1)
    )
    with pytest.raises(StepEquationError, match="differs from 7 transitions"):
        extract_kam(example_kam)


def test_extract_kam_matches_the_hand_built_tree(example_kam, example_dc_derivation):
    d = extract_kam(example_kam)
    assert d == example_dc_derivation
    assert check(d, "kam").ok
    assert weight_of(d, "kam") == example_kam.transitions == 7


def test_extract_kam_of_an_immediate_normal_form():
    d = extract_kam(kam_run(compile(IDENT), 10))
    assert d.rule == R_DC_LAM_STAR
    assert d.conclusion.weight == 0


def test_extract_kam_needs_a_complete_run():
    with pytest.raises(IncompleteRun):
        extract_kam(kam_run(compile(OMEGA), 30))


@pytest.mark.parametrize(
    "extractor, machine_run, machine",
    [(extract, kam_run, r"the plain KAM \(kam_fire\)"), (extract_kam, skam_run, r"the Space KAM \(skam_fire\)")],
    ids=["extract of a kam run", "extract_kam of a skam run"],
)
def test_an_extractor_refuses_the_other_machines_run(example_term, extractor, machine_run, machine):
    # the labels of a run index its own machine's undo rules: a run of
    # the other machine is refused before it is replayed, naming the
    # machine it came from
    run = machine_run(compile(example_term), 100)
    assert run.final_reached
    with pytest.raises(ValueError, match=f"this is a run of {machine}, not of"):
        extractor(run)


def _double_use_chain(n):
    """(\\x0. (\\x1. ... (\\xn. xn I (xn I)) (\\w. x(n-1) w) ...) (\\w. x0 w)) (\\w.w):
    each x(i+1) is bound to a closure over x(i), and xn is used twice, so
    the environment typings of the two uses nest n deep and are joined
    at every level."""
    body = rf"x{n} (\a.a) (x{n} (\b.b))"
    for i in range(n, 0, -1):
        body = rf"(\x{i}. {body}) (\w. x{i - 1} w)"
    return parse_term(rf"(\x0. {body}) (\w.w)")


def test_extract_kam_joins_environment_typings_nested_1200_deep():
    # joining two typings of a closure joins its environment's typings
    # level by level: the bags join in O(1) and open without recursion
    assert sys.getrecursionlimit() <= 1_000  # the default, not raised for this test
    t = _double_use_chain(1200)
    run = kam_run(compile(t), 100_000)
    assert run.transitions == 12_013
    d = extract_kam(run)
    assert check(d, "kam").ok
    assert d.conclusion.weight == weight_of(d, "kam") == 12_013
    rep = sk.verify(t, 100_000)
    assert rep.complete and rep.all_pass
    assert len(rep.checks) == 13


# ---------------------------------------------------------------- properties

@given(st.integers(0, 2**30))
@settings(max_examples=80, deadline=None)
def test_extraction_laws_on_random_terms(seed):
    t = sk.random_closed_term(seed, 22)
    srun = skam_run(compile(t), 400)
    if not srun.final_reached:
        return
    d = extract(srun)
    assert check(d, "space").ok
    assert d.conclusion.weight == srun.space
    assert weight_of(d, "time") == srun.time
    assert size_of(d) == srun.transitions + 1
    assert check_rule_transition_correspondence(d, srun)
    td = reweight(d, "time")
    assert check(td, "time").ok

    krun = kam_run(compile(t), 400)
    kd = extract_kam(krun)
    assert check(kd, "kam").ok
    assert kd.conclusion.weight == krun.transitions


def _binder_multi(d, rule, binder):
    """The arrow source of the first node of rule over an abstraction of
    binder, in an iterative walk of d."""
    todo = [d]
    while todo:
        n = todo.pop()
        if n.rule == rule and n.conclusion.subject.binder == binder:
            return n.conclusion.assigned.arg
        todo.extend(n.premises)
    raise LookupError(binder)


def test_a_church_numerals_binder_multi_stores_only_its_distinct_elements():
    # c_1024's binder f is used 1,024 times, at no more than two types
    n = 1024
    t = parse_term(r"(\f.\x." + "f (" * n + "x" + ")" * n + r") (\a.a) (\b.b)")
    for d, rule in (
        (extract(skam_run(compile(t), 10_000)), "TLam1"),
        (extract_kam(kam_run(compile(t), 10_000)), "DC_TLam"),
    ):
        m = _binder_multi(d, rule, "f")
        assert len(m.pairs) <= 2
        assert sum(k for _, k in m.pairs) == len(m.elems) == n
