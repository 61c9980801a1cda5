"""Complexity guards: the machines' runs, their replays, the two
extractors, the checker's walk over their derivations and the rewriting
oracle cost time linear in the run, on the two families whose runs grow
without their code (2^k as (c_k) (c_2) applied to two identities) and
whose code grows with their run ((c_n) applied to two identities).

Each guard times every stage at a size and at the size with four times
the transitions, takes the best of 3, and asserts a ratio of at most 6:
linear cost gives about 4, quadratic cost 16, so the bound has room on
each side on a noisy machine; a stage over the bound is measured once
more, and fails only if it is over the bound both times.  Each timed
call starts after a collection and runs with the collector off: a full
collection walks every object the process holds, those of other tests
too, so its cost is not the stage's."""

import gc
import time

import pytest

from spacekam.checker import check_walk
from spacekam.extractor import extract, extract_kam
from spacekam.kam import compile, kam_run
from spacekam.space_kam import skam_run
from spacekam.terms import parse_term, whnf_eval

FUEL = 1_000_000


def church(n):
    return r"(\f.\x." + "f (" * n + "x" + ")" * n + ")"


def _pow2(k):
    return compile(parse_term(church(k) + " " + church(2) + r" (\a.a) (\b.b)"))


def _church(n):
    return compile(parse_term(church(n) + r" (\a.a) (\b.b)"))


def _stages(t) -> dict:
    """Each stage as a call on the initial state t."""
    krun, srun = kam_run(t, FUEL), skam_run(t, FUEL)
    d, dk = extract(srun), extract_kam(krun)
    return {
        "kam_run": lambda: kam_run(t, FUEL),
        "skam_run": lambda: skam_run(t, FUEL),
        "kam replay": lambda: list(krun.fires()),
        "skam replay": lambda: list(srun.fires()),
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


@pytest.mark.parametrize(
    "family, small, large",
    [(_pow2, 10, 12), (_church, 512, 2048)],
    ids=["pow2", "church"],
)
def test_stages_cost_time_linear_in_the_run(family, small, large):
    t, t4 = family(small), family(large)
    k, k4 = kam_run(t, FUEL).transitions, kam_run(t4, FUEL).transitions
    assert 3.9 < k4 / k < 4.1  # four times the transitions
    ratios = {}
    for (name, stage), stage4 in zip(_stages(t).items(), _stages(t4).values()):
        ratio = _ratio(stage, stage4)
        if ratio > 6:
            # load from outside the process can slow every larger run
            # of a measurement; a superlinear stage reads over the bound
            # in a second measurement too
            ratio = min(ratio, _ratio(stage, stage4))
        ratios[name] = round(ratio, 2)
    assert max(ratios.values()) <= 6, ratios
