"""Acceptance gate: eight end-to-end criteria, one printed line each.

Each test prints "ACCEPTANCE <n> <name>: PASS" (or FAIL) straight to the
terminal, bypassing capture, so a plain pytest run shows the gate at a
glance."""

import contextlib
import copy
import time

import pytest
from derivation_files import MUTATIONS

import spacekam as sk
from spacekam.checker import (
    check,
    check_rule_transition_correspondence,
    derivation_from_json,
    derivation_to_json,
    reweight,
    size_of,
    weight_of,
)
from spacekam.extractor import expand, extract, extract_kam, type_final_state
from spacekam.kam import compile, decode, env_pairs, kam_run
from spacekam.space_kam import (
    check_env_domain_invariant,
    size_env,
    skam_run,
    state_size,
)
from spacekam.terms import Abs, App, Var, alpha_eq, parse_term, whnf_eval
from spacekam.types import size_context

EXAMPLE_SRC = r"(\x.(\y.(\z.x) (x y)) x) (\a.a)"
OMEGA_SRC = r"(\x.x x) (\x.x x)"


@contextlib.contextmanager
def criterion(capsys, n, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n} {name}: PASS")


def run_states(run):
    return [run.initial] + [s for _, s in run.trace]


@pytest.fixture(scope="module")
def corpus():
    """Both machines on 250 random terms; completing runs only."""
    out = []
    for seed in range(250):
        t = sk.random_closed_term(seed, 25)
        krun = kam_run(compile(t), 2000)
        srun = skam_run(compile(t), 2000)
        if krun.final_reached and srun.final_reached:
            out.append((t, krun, srun))
    assert len(out) > 200
    return out


@pytest.fixture(scope="module")
def replays(corpus):
    """Backward replays: per run, the state derivation at every state,
    rebuilt step by step through the public expansion API."""
    out = []
    for t, krun, srun in corpus:
        if srun.transitions > 100:
            continue
        states = run_states(srun)
        chain = [type_final_state(states[-1])]
        for i in reversed(range(srun.transitions)):
            chain.append(expand(chain[-1], (srun.trace[i][0], states[i])))
        chain.reverse()  # chain[i] now derives states[i]
        out.append((srun, states, chain))
    assert len(out) > 150
    return out


def test_acceptance_1_running_example(capsys):
    with criterion(capsys, 1, "running example measures"):
        t0 = time.perf_counter()
        t = parse_term(EXAMPLE_SRC)
        wh = whnf_eval(t, 10)
        assert wh.steps == 3 and not wh.exhausted

        krun = kam_run(compile(t), 100)
        assert krun.final_reached and krun.transitions == 7
        assert krun.counts == {"sea": 3, "beta": 3, "sub": 1}

        kd = extract_kam(krun)
        assert check(kd, "kam").ok
        assert kd.conclusion.weight == 7

        srun = skam_run(compile(t), 100)
        assert srun.final_reached and srun.transitions == 7
        assert srun.space == 4 and srun.time == 11

        d = extract(srun)
        assert check(d, "space").ok
        assert weight_of(d, "space") == 4 == d.conclusion.weight
        td = reweight(d, "time")
        assert check(td, "time").ok
        assert td.conclusion.weight == 11
        assert size_of(d) == 8
        assert check_rule_transition_correspondence(d, srun)
        assert time.perf_counter() - t0 < 1.0


def test_acceptance_2_space_machine_trace(capsys):
    with criterion(capsys, 2, "space machine trace"):
        run = skam_run(compile(parse_term(EXAMPLE_SRC)), 100)
        labels = [label for label, _ in run.trace]
        assert labels == [
            "sea_nv", "beta_nw", "sea_v", "beta_nw", "sea_nv", "beta_w", "sub",
        ]
        sizes = [state_size(s) for s in run_states(run)]
        assert sizes == [0, 1, 1, 2, 2, 4, 1, 0]
        assert max(sizes) == 4 == run.space
        assert sum(sizes) == 11 == run.time
        assert alpha_eq(decode(run.final), parse_term(r"\a.a"))


def test_acceptance_3_fuzz_campaign(capsys):
    with criterion(capsys, 3, "fuzz 1000 terms"):
        t0 = time.perf_counter()
        summary = sk.fuzz(1000, seed=0, size_budget=25, fuel=2000)
        elapsed = time.perf_counter() - t0
        assert summary["failed"] == 0, summary["failures"][:5]
        assert summary["complete"] + summary["incomplete"] == 1000
        assert summary["complete"] > 900
        assert elapsed < 120.0


def test_acceptance_4_structural_lemmas(capsys, corpus, replays):
    with criterion(capsys, 4, "structural lemmas"):
        # dom(env) = fv(code) in every state of every completing run
        for _, _, srun in corpus:
            for s in run_states(srun):
                assert check_env_domain_invariant(s)

        # inside every state derivation: closure typings carry the
        # closure's size as their index, environment typings carry the
        # environment's size as their context size
        closure_nodes = env_nodes = 0
        for srun, states, chain in replays:
            for d in chain:
                stack = [d]
                while stack:
                    n = stack.pop()
                    stack.extend(n.premises)
                    if n.rule == "TCl":
                        assert n.conclusion.assigned.index == n.conclusion.subject.size
                        closure_nodes += 1
                    elif n.rule == "TEnv":
                        assert size_context(n.conclusion.assigned) == size_env(
                            n.conclusion.subject
                        )
                        env_nodes += 1
        assert closure_nodes > 200 and env_nodes > 200

        # dry typings weigh nothing, in both modes
        seen = 0
        for _, _, srun in corpus[:60]:
            for s in run_states(srun):
                for _, c in env_pairs(s.env):
                    d = sk.dry_type_closure(c)
                    assert d.conclusion.weight == 0
                    assert weight_of(d, "time") == 0
                    seen += 1
        assert seen > 50

        # a final state's canonical typing weighs exactly the state size
        for _, _, srun in corpus[:60]:
            d = type_final_state(srun.final)
            sz = state_size(srun.final)
            assert d.conclusion.weight == sz
            assert weight_of(d, "space") == sz
            assert weight_of(d, "time") == sz


def test_acceptance_5_step_equations(capsys, replays):
    with criterion(capsys, 5, "step equations"):
        space_checked = time_checked = 0
        for srun, states, chain in replays:
            # space: the source weight is the wider of the source state
            # and everything after it
            for i in range(srun.transitions):
                w_src = chain[i].conclusion.weight
                w_tgt = chain[i + 1].conclusion.weight
                assert w_src == max(state_size(states[i]), w_tgt)
                space_checked += 1
            assert chain[0].conclusion.weight == srun.space

            # time: the source weight adds the source state to the rest
            if srun.transitions <= 40:
                tw = [weight_of(d, "time") for d in chain]
                for i in range(srun.transitions):
                    assert tw[i] == state_size(states[i]) + tw[i + 1]
                    time_checked += 1
                assert tw[0] == srun.time

            # the replayed root carries the same term derivation extract finds
            assert chain[0].premises[0] == extract(srun)
        assert space_checked > 500 and time_checked > 200


def test_extract_is_the_term_premise_of_the_expanded_chain(replays):
    # extract keeps state typings as bags and expand mints them; both
    # run the same undo rules, so the trees, their files and every
    # node's time weight agree
    for srun, states, chain in replays:
        d = extract(srun)
        want = chain[0].premises[0]
        assert d == want
        assert derivation_to_json(d) == derivation_to_json(want)
        pairs = [(d, want)]
        while pairs:
            a, b = pairs.pop()
            assert a.time == b.time is not None
            pairs.extend(zip(a.premises, b.premises))


def test_acceptance_6_constant_space_contrast(capsys):
    with criterion(capsys, 6, "constant space on a loop"):
        omega = parse_term(OMEGA_SRC)

        srun = skam_run(compile(omega), 2000)
        assert not srun.final_reached
        assert srun.space == 2
        sizes = [state_size(s) for s in run_states(srun)]
        assert sizes[:3] == [0, 1, 1]
        assert sizes[3:] == ([2, 1, 1] * 667)[: len(sizes) - 3]

        # independent oracle: a direct tuple-based rewrite of the plain
        # machine, sharing nothing with the package implementation
        def mini_sizes(t, steps):
            def csize(c):
                return 1 + sum(csize(cc) for _, cc in c[1])

            def ssize(code, env, stack):
                return sum(csize(c) for _, c in env) + sum(csize(c) for c in stack)

            code, env, stack = t, (), ()
            out = [ssize(code, env, stack)]
            for _ in range(steps):
                if type(code) is App:
                    stack = ((code.arg, env),) + stack
                    code = code.fun
                elif type(code) is Abs:
                    if not stack:
                        break
                    top, stack = stack[0], stack[1:]
                    env = ((code.binder, top),) + env
                    code = code.body
                else:
                    for x, (u, e2) in env:
                        if x == code.name:
                            code, env = u, e2
                            break
                out.append(ssize(code, env, stack))
            return out

        oracle = mini_sizes(omega, 1400)
        krun = kam_run(compile(omega), 1400)
        machine = [state_size(s) for s in run_states(krun)]
        assert machine == oracle

        assert machine[1000] == 77
        assert max(machine[: 1000 + 1]) == 87
        first_over_100 = next(i for i, v in enumerate(machine) if v > 100)
        assert first_over_100 == 1326 and machine[1326] == 101

        # and it keeps growing: the next thousand steps peak higher
        more = mini_sizes(omega, 3000)
        assert max(more[1001:2001]) > max(more[: 1000 + 1])
        assert max(more) > max(more[:2000])


def test_acceptance_7_mutation_rejection(capsys):
    with criterion(capsys, 7, "derivation tampering detected"):
        srun = skam_run(compile(parse_term(EXAMPLE_SRC)), 100)
        good = derivation_to_json(extract(srun))
        assert check(derivation_from_json(good), "space").ok

        assert len(MUTATIONS) >= 10
        for mutate in MUTATIONS:
            obj = copy.deepcopy(good)
            where = mutate(obj)
            res = check(derivation_from_json(obj), "space")
            assert not res.ok, f"{mutate.__name__} slipped through"
            assert res.errors[0].path == where, (
                f"{mutate.__name__}: first error at {res.errors[0].path}, "
                f"mutated {where}: {res.errors[0].message}"
            )


def test_acceptance_8_machine_matches_reduction(capsys, corpus):
    with criterion(capsys, 8, "machine agrees with reduction"):
        for t, krun, srun in corpus:
            wh = whnf_eval(t, krun.counts["beta"])
            assert not wh.exhausted
            assert alpha_eq(decode(krun.final), wh.result)
            assert alpha_eq(decode(srun.final), wh.result)
