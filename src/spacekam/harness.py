"""End-to-end verification: run both machines on a closed term, rebuild
the weighted derivations, and cross-check every measure against what
the machines actually did.

verify runs the checks the theory pins down.  For a complete run:

  wh_beta_count         weak head reduction lands in exactly as many
                        steps as the plain machine's beta transitions
  skam_beta_count       both machines fire the same number of betas
  decode_final          the plain machine's final state reads back to
                        the weak head normal form (up to renaming)
  decode_final_skam     same for the space machine
  space_derivation      the rebuilt derivation checks in space mode
  space_weight          its recomputed weight is the run's space
  time_derivation       the tree checks and its time weights compute
  time_weight           its recomputed time weight is the run's time
  derivation_size       the derivation has one counted node per state
  correspondence        rule uses match transition counts one for one
  kam_derivation        the plain-flavor derivation checks in kam mode
  kam_weight            its weight is the plain machine's step count
  env_domain_invariant  dom(env) = fv(code) in the initial state

Each derivation is walked once, by checker.check_walk, and every
measure comes from that walk.  Space and time share the tree and differ
only in weights, so the space derivation's walk checks the tree once,
compares stored weights in space mode, recomputes the weights of both
modes and counts the rule uses for derivation_size and correspondence.
The plain derivation's walk in kam mode gives decarvalho_weight.  The
reported weights are recomputed, stored ones ignored, so they stand
when only a stored weight is wrong; a tree whose structure fails
weighs None, and notes name the first node that failed.  skam_run
checks the invariant in each state and each closure it builds, so only
the initial state, which the machine did not build, is checked here.

A run that exhausts its fuel reports complete=False, carries the
machine statistics only, and runs no checks.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass, field

from .checker import check_walk, counts_correspond
from .extractor import extract, extract_kam
from .kam import compile as kam_compile
from .kam import decode, kam_run
from .space_kam import check_env_domain_invariant, skam_run
from .terms import Abs, App, Term, Var, alpha_eq, parse_term, print_term, whnf_eval


@dataclass
class VerificationReport:
    term: Term
    wh_steps: int | None
    kam: dict
    skam: dict
    checks: list
    complete: bool
    notes: dict = field(default_factory=dict, compare=False)

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.checks)

    def to_json(self) -> dict:
        out = {
            "term": print_term(self.term),
            "wh_steps": self.wh_steps,
            "kam": self.kam,
            "skam": self.skam,
            "checks": [[name, ok] for name, ok in self.checks],
            "complete": self.complete,
        }
        if self.notes:
            out["notes"] = dict(self.notes)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "VerificationReport":
        return cls(
            term=parse_term(obj["term"]),
            wh_steps=obj["wh_steps"],
            kam=obj["kam"],
            skam=obj["skam"],
            checks=[(name, ok) for name, ok in obj["checks"]],
            complete=obj["complete"],
            notes=obj.get("notes", {}),
        )


def verify(t: Term, fuel: int) -> VerificationReport:
    """Run everything on one closed term.  Raises OpenTerm on open input;
    any check that blows up internally is reported as failed, with the
    error kept in the report's notes."""
    initial = kam_compile(t)
    krun = kam_run(initial, fuel)
    srun = skam_run(initial, fuel)
    complete = krun.final_reached and srun.final_reached

    checks: list = []
    notes: dict = {}

    def computed(name, thunk):
        try:
            return thunk()
        except Exception as ex:
            notes[name] = f"{type(ex).__name__}: {ex}"
            return None

    def attempt(name, thunk):
        checks.append((name, bool(computed(name, thunk))))

    wh_steps = None
    dc_weight = None
    space_weight = None
    time_weight = None
    if complete:
        wh = whnf_eval(t, krun.counts["beta"])
        wh_steps = wh.steps
        attempt(
            "wh_beta_count",
            lambda: wh.steps == krun.counts["beta"] and not wh.exhausted,
        )
        attempt(
            "skam_beta_count",
            lambda: srun.counts["beta_w"] + srun.counts["beta_nw"]
            == krun.counts["beta"],
        )
        attempt("decode_final", lambda: alpha_eq(decode(krun.final), wh.result))
        attempt("decode_final_skam", lambda: alpha_eq(decode(srun.final), wh.result))

        walk = computed("space_derivation", lambda: check_walk(extract(srun), ("space", "time")))
        if walk is not None:
            space_weight = computed("space_weight", lambda: walk.weight("space"))
            time_weight = computed("time_weight", lambda: walk.weight("time"))
        checks.append(("space_derivation", walk is not None and walk.ok))
        checks.append(("space_weight", space_weight == srun.space))
        checks.append(("time_derivation", time_weight is not None))
        checks.append(("time_weight", time_weight == srun.time))
        checks.append(("derivation_size", walk is not None and walk.size == srun.transitions + 1))
        checks.append(("correspondence", walk is not None and counts_correspond(walk.counts, srun)))

        kam_walk = computed("kam_derivation", lambda: check_walk(extract_kam(krun), ("kam",)))
        if kam_walk is not None:
            dc_weight = computed("kam_weight", lambda: kam_walk.weight("kam"))
        checks.append(("kam_derivation", kam_walk is not None and kam_walk.ok))
        checks.append(("kam_weight", dc_weight == krun.transitions))
        attempt("env_domain_invariant", lambda: check_env_domain_invariant(srun.initial))

    return VerificationReport(
        term=t,
        wh_steps=wh_steps,
        kam={
            "transitions": krun.transitions,
            "counts": dict(krun.counts),
            "decarvalho_weight": dc_weight,
        },
        skam={
            "transitions": srun.transitions,
            "counts": dict(srun.counts),
            "space": srun.space,
            "time": srun.time,
            "space_weight": space_weight,
            "time_weight": time_weight,
        },
        checks=checks,
        complete=complete,
        notes=notes,
    )


def _node_kinds(var: bool, abs_: bool, app: bool):
    """The kinds a random node may take when a variable is in scope (var)
    and the budget has room for an abstraction (abs_) and for an
    application (app): the kinds, their cumulative weights as
    random.choices builds them, the total and the last index."""
    weighted = (("var", 0.20), ("abs", 0.35), ("app", 0.45))
    allowed = [kw for kw, ok in zip(weighted, (var, abs_, app)) if ok]
    # with no room for either, the node is the smallest closed term's binder
    kinds, weights = zip(*allowed) if allowed else (("abs",), (1.0,))
    cum = list(itertools.accumulate(weights))
    return kinds, cum, cum[-1], len(cum) - 1


_NODE_KINDS = {ok: _node_kinds(*ok) for ok in itertools.product((False, True), repeat=3)}


def random_closed_term(seed: int, size_budget: int) -> Term:
    """A deterministic random closed term of at most size_budget nodes
    (the smallest closed term has two, so that is the floor).

    At each node: an application with probability .45, an abstraction
    with .35, a variable with .20, dropping what the budget or empty
    scope rules out and renormalizing.  Binders are numbered in
    generation order, so equal seeds give equal terms.  Each node draws
    its kind with one rng.random() call through bisect, the formula
    rng.choices computes, so the terms are the ones choices gave."""
    rng = random.Random(seed)
    draw = rng.random
    fresh = itertools.count()

    def go(budget: int, scope: tuple) -> Term:
        # a closed subterm needs two nodes, so the application split
        # must leave at least that much on each side
        m = 1 if scope else 2
        kinds, cum, total, hi = _NODE_KINDS[bool(scope), budget >= 2, budget >= 1 + 2 * m]
        kind = kinds[bisect_right(cum, draw() * total, 0, hi)]
        if kind == "var":
            return Var(rng.choice(scope))
        if kind == "abs":
            x = f"v{next(fresh)}"
            return Abs(x, go(budget - 1, scope + (x,)))
        left = rng.randint(m, budget - 1 - m)
        return App(go(left, scope), go(budget - 1 - left, scope))

    return go(max(1, size_budget), ())


def fuzz(count: int, seed: int, size_budget: int = 25, fuel: int = 2000) -> dict:
    """verify count random terms at seeds seed, seed+1, ...; deterministic.

    The summary counts complete and incomplete runs and lists up to 20
    failing terms with the names of the checks they failed."""
    complete = incomplete = failed = 0
    failures = []
    for i in range(count):
        s = seed + i
        t = random_closed_term(s, size_budget)
        try:
            rep = verify(t, fuel)
        except Exception as ex:
            failed += 1
            if len(failures) < 20:
                failures.append(
                    {"seed": s, "term": print_term(t), "error": f"{type(ex).__name__}: {ex}"}
                )
            continue
        if rep.complete:
            complete += 1
        else:
            incomplete += 1
        if not rep.all_pass:
            failed += 1
            if len(failures) < 20:
                failures.append(
                    {
                        "seed": s,
                        "term": print_term(t),
                        "failed": [name for name, ok in rep.checks if not ok],
                        "notes": rep.notes,
                    }
                )
    return {
        "count": count,
        "seed": seed,
        "size_budget": size_budget,
        "fuel": fuel,
        "complete": complete,
        "incomplete": incomplete,
        "failed": failed,
        "failures": failures,
    }
