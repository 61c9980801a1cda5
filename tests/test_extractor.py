import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import spacekam as sk
from spacekam.checker import (
    R_CL,
    R_DC_LAM_STAR,
    R_ENV,
    R_LAM_STAR,
    R_ST,
    Derivation,
    check,
    check_rule_transition_correspondence,
    derivation_from_json,
    derivation_to_json,
    reweight,
    size_of,
    weight_of,
)
from spacekam.extractor import (
    IncompleteRun,
    NotFinal,
    ShapeMismatch,
    StepEquationError,
    dry_type_closure,
    dry_type_env,
    expand,
    extract,
    extract_kam,
    type_final_state,
)
from spacekam.kam import Closure, MachState, compile, kam_run
from spacekam.space_kam import skam_run, state_size
from spacekam.terms import Var, parse_term
from spacekam.types import ClosureMulti, size_context

IDENT = parse_term(r"\a.a")
I_CL = Closure(IDENT, ())
NESTED = Closure(parse_term("x"), (("x", I_CL),))
OMEGA = parse_term(r"(\x.x x) (\x.x x)")


def church(n):
    return r"(\f.\x." + "f (" * n + "x" + ")" * n + ")"


def nested(depth):
    c = I_CL
    for _ in range(depth):
        c = Closure(Var("x"), (("x", c),))
    return c


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
    e = (("x", I_CL), ("y", NESTED))
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
    s = MachState(parse_term(r"\a.x"), (("x", NESTED),), ())
    d = type_final_state(s)
    assert check(d, "space").ok
    assert weight_of(d, "space") == state_size(s) == 2
    assert weight_of(d, "time") == 2


def test_final_state_typing_with_a_closure_nested_20000_deep():
    s = MachState(parse_term(r"\a.x"), (("x", nested(20_000)),), ())
    d = type_final_state(s)
    assert d.conclusion.weight == d.time == state_size(s) == 20_001
    assert weight_of(d, "time") == 20_001


def test_not_final_states_are_rejected():
    with pytest.raises(NotFinal):
        type_final_state(MachState(parse_term("x y"), (), ()))
    with pytest.raises(NotFinal):
        type_final_state(MachState(IDENT, (), (I_CL,)))


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
    with pytest.raises(ShapeMismatch, match="fires"):
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


@pytest.mark.parametrize(
    "src",
    [church(64) + r" (\a.a) (\b.b)", church(4) + " " + church(2) + r" (\a.a) (\b.b)"],
    ids=["c_64", "pow2_4"],
)
def test_extract_mints_only_the_nodes_it_returns(monkeypatch, src):
    # state, environment and closure typings stay unminted bags: every
    # node extract mints stands in the returned tree, once
    from spacekam import extractor

    minted = []

    def counting(*args, **kwargs):
        d = Derivation(*args, **kwargs)
        minted.append(d)
        return d

    run = skam_run(compile(parse_term(src)), 100_000)
    monkeypatch.setattr(extractor, "Derivation", counting)
    d = extract(run)
    kept = {}
    stack = [d]
    while stack:
        n = stack.pop()
        if id(n) not in kept:
            kept[id(n)] = n
            stack.extend(n.premises)
    assert len(minted) == len(kept) == size_of(d) + sum(
        1 for n in kept.values() if n.rule in ("TMany", "TNone")
    )
    assert {id(n) for n in minted} == kept.keys()
    assert not {n.rule for n in minted} & {R_ST, R_ENV, R_CL}


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

    monkeypatch.setattr(extractor, "state_size", lambda s: state_size(s) + 1)
    with pytest.raises(StepEquationError, match="space step equation broken at transition 7"):
        extract(example_skam)


def test_a_broken_step_equation_raises_under_optimization(example_skam):
    # python -O strips assert statements; the step equations must stay
    code = (
        "import spacekam as sk\n"
        "from spacekam import extractor\n"
        "size = extractor.state_size\n"
        "extractor.state_size = lambda s: size(s) + 1\n"
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
