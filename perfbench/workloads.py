"""Workload inputs and their known answers.

Each workload is a list of closed terms plus a fuel.  The inputs depend
only on the workload name, its size and the seed.  The known answers
come from closed forms and from a small de Bruijn reducer in this file,
never from the package under test.

  church_wide   (c_n) (\\a.a) (\\b.b): code size grows with n, space stays 4
  pow2_deep     (c_k) (c_2) (\\a.a) (\\b.b): small code, run length 2^k
  loop_machine  (\\x.x x) (\\x.x x) at a fixed fuel: never finishes
  fuzz_mix      the fuzz campaign: generator seeds seed, seed+1, ...

The seed renames the binders of the first three (the closed forms do not
depend on names, and every name has the same length, so neither do the
JSON sizes) and picks the generator seeds of the fourth.
"""

from __future__ import annotations

import random
import string
import time
from dataclasses import dataclass

import spacekam as sk

WORKLOADS = ("church_wide", "pow2_deep", "loop_machine", "fuzz_mix")

# n, k, fuel, number of terms: chosen so that one round of all user paths
# takes 1.5 to 6 seconds on a 2-core x86 VM running CPython 3.11
SIZES = {"church_wide": 192, "pow2_deep": 8, "loop_machine": 50_000, "fuzz_mix": 1000}
# the benchmark's own test runs every path at these sizes
SMOKE_SIZES = {"church_wide": 16, "pow2_deep": 3, "loop_machine": 1000, "fuzz_mix": 20}

CLOSED_FORM_FUEL = 10**7
FUZZ_BUDGET = 25
FUZZ_FUEL = 2000
# the reference reducer gives up (answer unknown) past this many nodes
REF_MAX_NODES = 400
# Timings are scaled to a machine on which calibration_s() returns
# CAL_REF_S: on a shared host the speed of the CPU drifts by tens of
# percent within minutes, and moves every timing of a run alike.
CAL_REF_S = 0.03


@dataclass(frozen=True)
class Expect:
    """What one term must do.  None means not known in advance."""

    complete: bool | None
    kam_transitions: int | None = None
    skam_transitions: int | None = None
    space: int | None = None
    time: int | None = None
    betas: int | None = None  # weak head beta steps to the normal form
    result: tuple | None = None  # that normal form, de Bruijn


@dataclass
class Workload:
    name: str
    size: int
    fuel: int
    texts: list  # what a user would type; the infer path parses these
    terms: list  # the same terms, parsed or generated
    gen_seeds: list | None  # fuzz_mix: the verify path calls fuzz(1, s, ...)
    ref_terms: list  # de Bruijn twins for the reference reducer


# ---------------------------------------------------------------------------
# inputs

def _names(seed: int, count: int) -> list:
    rng = random.Random(seed)
    out: list = []
    while len(out) < count:
        x = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
        if x not in out:
            out.append(x)
    return out


def _church_text(n: int, f: str, x: str) -> str:
    return f"(\\{f}.\\{x}." + f"{f} (" * n + x + ")" * n + ")"


def _church_db(n: int) -> tuple:
    body: tuple = ("v", 0)
    for _ in range(n):
        body = ("a", ("v", 1), body)
    return ("l", ("l", body))


ID_DB = ("l", ("v", 0))


def _app_db(*parts) -> tuple:
    t = parts[0]
    for p in parts[1:]:
        t = ("a", t, p)
    return t


def pow2_db(k: int) -> tuple:
    """(c_k) (c_2) (\\a.a) (\\b.b) in de Bruijn form."""
    return _app_db(_church_db(k), _church_db(2), ID_DB, ID_DB)


def build(name: str, seed: int, size: int | None = None) -> Workload:
    """Make a workload's inputs.  This is what setup_s times, together
    with importing the package."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; pick one of {', '.join(WORKLOADS)}")
    size = SIZES[name] if size is None else size
    if name == "fuzz_mix":
        gen_seeds = [seed + i for i in range(size)]
        terms = [sk.random_closed_term(s, FUZZ_BUDGET) for s in gen_seeds]
        texts = [sk.print_term(t) for t in terms]
        return Workload(name, size, FUZZ_FUEL, texts, terms, gen_seeds, [to_db(t) for t in terms])
    f, x, g, y, a, b = _names(seed, 6)
    if name == "church_wide":
        text = f"{_church_text(size, f, x)} (\\{a}.{a}) (\\{b}.{b})"
        ref = _app_db(_church_db(size), ID_DB, ID_DB)
        fuel = CLOSED_FORM_FUEL
    elif name == "pow2_deep":
        text = f"{_church_text(size, f, x)} {_church_text(2, g, y)} (\\{a}.{a}) (\\{b}.{b})"
        ref = pow2_db(size)
        fuel = CLOSED_FORM_FUEL
    else:
        text = f"(\\{x}.{x} {x}) (\\{x}.{x} {x})"
        sa = ("l", ("a", ("v", 0), ("v", 0)))
        ref = ("a", sa, sa)
        fuel = size
    return Workload(name, size, fuel, [text], [sk.parse_term(text)], None, [ref])


# ---------------------------------------------------------------------------
# known answers

def expectations(w: Workload) -> list:
    """One Expect per term: closed forms for the first three workloads,
    the reference reducer for the fuzz campaign."""
    n = w.size
    if w.name == "church_wide":
        return [Expect(True, 4 * n + 5, 4 * n + 4, 4, 12 * n - 1, n + 2, ID_DB)]
    if w.name == "pow2_deep":
        p = 2**n
        return [Expect(True, 12 * p - 4, 10 * p - 3, 4 * n, p * (20 * n - 4) + 5, 3 * p, ID_DB)]
    if w.name == "loop_machine":
        return [Expect(False, w.fuel, w.fuel, 2)]
    out = []
    for t in w.ref_terms:
        betas, result = reference_whnf(t, w.fuel)
        if betas is None:
            # unknown, or no normal form within fuel beta steps: then the
            # machines, which need a transition per beta, cannot finish
            out.append(Expect(False if result == "diverges" else None))
        else:
            out.append(Expect(None, betas=betas, result=result))
    return out


def to_db(t, scope=()) -> tuple:
    """A package term in de Bruijn form (closed terms only)."""
    if type(t) is sk.Var:
        return ("v", scope.index(t.name))
    if type(t) is sk.Abs:
        return ("l", to_db(t.body, (t.binder,) + scope))
    return ("a", to_db(t.fun, scope), to_db(t.arg, scope))


def _shift(t, d, cut=0):
    k = t[0]
    if k == "v":
        return ("v", t[1] + d) if t[1] >= cut else t
    if k == "l":
        return ("l", _shift(t[1], d, cut + 1))
    return ("a", _shift(t[1], d, cut), _shift(t[2], d, cut))


def _subst(t, j, s):
    k = t[0]
    if k == "v":
        if t[1] == j:
            return s
        return ("v", t[1] - 1) if t[1] > j else t
    if k == "l":
        return ("l", _subst(t[1], j + 1, _shift(s, 1)))
    return ("a", _subst(t[1], j, s), _subst(t[2], j, s))


def _nodes(t) -> int:
    n, todo = 0, [t]
    while todo:
        u = todo.pop()
        n += 1
        if u[0] == "l":
            todo.append(u[1])
        elif u[0] == "a":
            todo.extend((u[1], u[2]))
    return n


def reference_whnf(t, max_betas: int, max_nodes: int = REF_MAX_NODES):
    """Weak head normal form by head beta steps.

    Returns (betas, result), or (None, "diverges") when max_betas steps
    end on a redex, or (None, "unknown") when a reduct outgrows
    max_nodes."""
    betas = 0
    args: list = []
    while True:
        while t[0] == "a":
            args.append(t[2])
            t = t[1]
        if t[0] != "l" or not args:
            break
        if betas == max_betas:
            return None, "diverges"
        t = _subst(t[1], 0, args.pop())
        betas += 1
        if _nodes(t) + sum(map(_nodes, args)) > max_nodes:
            return None, "unknown"
    for a in reversed(args):
        t = ("a", t, a)
    return betas, t


_CAL_TERM = pow2_db(6)


def calibration_s() -> float:
    """Seconds for a fixed piece of pure-Python work that never touches
    the package: the reference reducer on (c_6) (c_2) I I, six times."""
    t0 = time.perf_counter()
    for _ in range(6):
        reference_whnf(_CAL_TERM, 10**6, 10**6)
    return time.perf_counter() - t0
