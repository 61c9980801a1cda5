"""Complexity guards: the machines' runs, their replays and trace
views, the two extractors, the checker's walk over their derivations
and the rewriting oracle cost time linear in the run, on the families
whose runs grow without their code (2^k as (c_k) (c_2) applied to two
identities), whose code grows with their run ((c_n) applied to two
identities), whose stack, spine and plain environment grow n deep
(wide_app: n arguments waiting on one n-fold abstraction), and whose
closures nest n deep over a plain environment n deep (the let chain).

Both machines' environments and stacks are linked, so a beta binds a
name in one cell, a push or a pop copies no stack, and no step copies
an environment: on wide_app and on the let chain the plain machine's
run, its replay (whose end check pairs each shared cell once) and
extract_kam are linear too, and so is each trace view, whose states
hold the replay's cells as they are.  The let-chain guard covers the
machines, their replays and trace views and extract_kam; the count
guard below holds the plain replay's end check to a constant number of
pairs per binding, with no clock.

The formats a state meets grow with it too, not faster: one writer
(kam.Rows) numbers each term, closure, env cell and stack cell once, so
trace rows cost about the same bytes per transition at every size, and
a state's pickle, a state judgment's file and its == grow linearly on
the let chain, where closures nest n deep over envs that share tails.

Each timing guard times every stage at a size and at the size with four
times the transitions, takes the best of 3, and asserts a ratio of at
most 6:
linear cost gives about 4, quadratic cost 16, so the bound has room on
each side on a noisy machine; a stage over the bound is measured once
more, and fails only if it is over the bound both times.  Each timed
call starts after a collection and runs with the collector off: a full
collection walks every object the process holds, those of other tests
too, so its cost is not the stage's."""

import gc
import json
import pickle
import time

import pytest

import families
from spacekam.checker import KIND_STATE, R_ST, Derivation, Judgment, check_walk, derivation_from_json, derivation_to_json
from spacekam.extractor import extract, extract_kam, type_final_state
from spacekam import kam
from spacekam.kam import compile, kam_run, run_trace_rows
from spacekam.space_kam import skam_run
from spacekam.terms import parse_term, whnf_eval
from spacekam.types import EMPTY_CONTEXT, STAR

FUEL = 1_000_000


def _pow2(k):
    return compile(parse_term(families.pow2(k)))


def _church(n):
    return compile(parse_term(families.church_app(n)))


def _wide_app(n):
    return compile(parse_term(families.wide_app(n)))


def _let_chain(n):
    return compile(parse_term(families.let_chain(n)))


def _stages(t) -> dict:
    """Each stage as a call on the initial state t."""
    krun, srun = kam_run(t, FUEL), skam_run(t, FUEL)
    d, dk = extract(srun), extract_kam(krun)
    return {
        "kam_run": lambda: kam_run(t, FUEL),
        "skam_run": lambda: skam_run(t, FUEL),
        "kam replay": lambda: list(krun.fires()),
        "skam replay": lambda: list(srun.fires()),
        "kam trace": lambda: krun.trace,
        "skam trace": lambda: srun.trace,
        "extract": lambda: extract(srun),
        "extract_kam": lambda: extract_kam(krun),
        "check_walk": lambda: check_walk(d, ("space", "time")),
        "check_walk kam": lambda: check_walk(dk, ("kam",)),
        "whnf_eval": lambda: whnf_eval(t.code, FUEL),
    }


def _seconds(stage) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        stage()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _ratio(stage, stage4) -> float:
    """Best of 3 at the larger size over best of 3 at the smaller.  The
    two sizes alternate, so a drift in the machine's speed moves both
    alike."""
    times = [(_seconds(stage), _seconds(stage4)) for _ in range(3)]
    return min(b for _, b in times) / min(a for a, _ in times)


# every stage but the checker's walk and the oracle: the let chain's
# derivations and its rewriting are not what grows there
ON_THE_LET_CHAIN = (
    "kam_run", "skam_run", "kam replay", "skam replay", "kam trace", "skam trace", "extract_kam"
)


@pytest.mark.parametrize(
    "family, small, large, names",
    [
        (_pow2, 10, 12, None),
        (_church, 512, 2048, None),
        (_wide_app, 1000, 4000, None),
        (_let_chain, 500, 2000, ON_THE_LET_CHAIN),
    ],
    ids=["pow2", "church", "wide_app", "let_chain"],
)
def test_stages_cost_time_linear_in_the_run(family, small, large, names):
    t, t4 = family(small), family(large)
    k, k4 = kam_run(t, FUEL).transitions, kam_run(t4, FUEL).transitions
    assert 3.9 < k4 / k < 4.1  # four times the transitions
    stages, stages4 = _stages(t), _stages(t4)
    ratios = {}
    for name in names or stages:  # None: every stage
        stage, stage4 = stages[name], stages4[name]
        ratio = _ratio(stage, stage4)
        if ratio > 6:
            # load from outside the process can slow every larger run
            # of a measurement; a superlinear stage reads over the bound
            # in a second measurement too
            ratio = min(ratio, _ratio(stage, stage4))
        ratios[name] = round(ratio, 2)
    assert max(ratios.values()) <= 6, ratios


def test_the_plain_replays_end_check_pairs_each_binding_once(monkeypatch):
    # the plain machine's last state on the n-deep let chain binds n + 1
    # names, and each closure in it is over a tail of that env.  The
    # replay builds every cell and closure anew, and its end check pairs
    # each with the run's once: a constant number of pairs per binding,
    # where comparing each closure's env in full would pop n^2 / 2
    real, pops = kam._pairs_equal, []

    class Counted(list):
        def pop(self):
            pops[-1] += 1
            return super().pop()

    def counted(pairs):
        pops.append(0)
        return real(Counted(pairs))

    monkeypatch.setattr(kam, "_pairs_equal", counted)
    per_binding = {}
    for n in (250, 1000):
        run = kam_run(_let_chain(n), FUEL)
        pops.clear()
        list(run.fires())
        (count,) = pops
        per_binding[n] = count / (n + 1)
    assert max(per_binding.values()) <= 4, per_binding


@pytest.mark.parametrize("machine_run", [kam_run, skam_run], ids=["kam", "skam"])
@pytest.mark.parametrize(
    "family, sizes",
    [
        (families.church_app, (256, 512, 1024)),
        (families.let_chain, (500, 1000, 2000)),
        (families.wide_app, (1000, 2000, 4000)),
    ],
    ids=["church", "let_chain", "wide_app"],
)
def test_trace_bytes_per_transition_stay_flat(family, sizes, machine_run):
    # each code, closure and cell is written once, so a row costs about
    # the same bytes at every size: rows that printed each code, or
    # listed each env, in full cost 3x per doubling on c_n and 4x on the
    # let chain
    per = []
    for n in sizes:
        run = machine_run(compile(parse_term(family(n))), FUEL)
        per.append(sum(len(line) + 1 for line in run_trace_rows(run)) / run.transitions)
    assert all(b <= 1.3 * a for a, b in zip(per, per[1:])), per


def test_state_pickles_files_and_their_eq_grow_linearly_on_the_let_chain():
    # at n = 200, 400, 800 and 1600: the pickle of the plain machine's
    # final state, whose closures' envs are tails of its own; the file of
    # a state judgment on that state; the file of the Space KAM's final
    # state's typing (type_final_state); and == of each judgment against
    # its round trip, which compares files.  Each grows at most 2.5x per
    # doubling (bytes exactly, times as best of 3, measured once more
    # before failing); with each env written in full, the bytes grew 4x
    bytes_at, eqs = [], []
    for n in (200, 400, 800, 1600):
        t = _let_chain(n)
        final = kam_run(t, FUEL).final
        state = Derivation(R_ST, Judgment(KIND_STATE, final, EMPTY_CONTEXT, STAR, 0))
        typing = type_final_state(skam_run(t, FUEL).final)
        files = [derivation_to_json(d) for d in (state, typing)]
        bytes_at.append([len(pickle.dumps(final)), *(len(json.dumps(f)) for f in files)])
        backs = [derivation_from_json(json.loads(json.dumps(f))) for f in files]
        eqs.append([lambda d=d, b=b: d == b for d, b in zip((state, typing), backs)])
    for small, large in zip(bytes_at, bytes_at[1:]):
        assert all(b <= 2.5 * a for a, b in zip(small, large)), bytes_at
    for small, large in zip(eqs, eqs[1:]):
        for eq, eq2 in zip(small, large):
            ratio = _ratio(eq, eq2)
            if ratio > 2.5:
                ratio = min(ratio, _ratio(eq, eq2))
            assert ratio <= 2.5, ratio
