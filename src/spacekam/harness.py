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
  time_derivation       the time reweighting checks in time mode
  time_weight           its recomputed weight is the run's time
  derivation_size       the derivation has one counted node per state
  correspondence        rule uses match transition counts one for one
  kam_derivation        the plain-flavor derivation checks in kam mode
  kam_weight            its weight is the plain machine's step count
  env_domain_invariant  dom(env) = fv(code) everywhere in every state

Each derivation is checked once, and the reported weights come from
those checks: space_weight from the space check of the extracted
derivation, time_weight from the time check of its time reweighting,
and the kam weight (decarvalho_weight) from the kam check of the plain
derivation.  A passing check has recomputed every weight bottom-up and
found it equal to the stored one.  When a check fails, the weight is
recomputed by a separate weight_of pass instead (time on the space
derivation, as reweighting keeps the tree), so a failure still reports
what the derivation weighs.  The invariant is checked over the whole
run at once, visiting each closure object once.

A run that exhausts its fuel reports complete=False, carries the
machine statistics only, and runs no checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .checker import (
    check,
    check_rule_transition_correspondence,
    reweight,
    size_of,
    weight_of,
)
from .extractor import extract, extract_kam
from .kam import compile as kam_compile
from .kam import decode, kam_run
from .space_kam import check_run_env_domain_invariant, skam_run
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

    def attempt(name, thunk):
        try:
            ok = bool(thunk())
        except Exception as ex:
            ok = False
            notes[name] = f"{type(ex).__name__}: {ex}"
        checks.append((name, ok))
        return ok

    def computed(name, thunk):
        try:
            return thunk()
        except Exception as ex:
            notes[name] = f"{type(ex).__name__}: {ex}"
            return None

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

        # weights come from the passing checks; a failing one gets a
        # weight_of pass (see the module docstring)
        pi = computed("space_derivation", lambda: extract(srun))
        spaced = check(pi, "space") if pi is not None else None
        checks.append(("space_derivation", spaced is not None and spaced.ok))
        if spaced is not None and spaced.ok:
            space_weight = spaced.weight
        elif pi is not None:
            space_weight = computed("space_weight", lambda: weight_of(pi, "space"))
            time_weight = computed("time_weight", lambda: weight_of(pi, "time"))
        checks.append(("space_weight", space_weight == srun.space))
        pit = computed("time_derivation", lambda: reweight(pi, "time")) if pi is not None else None
        timed = check(pit, "time") if pit is not None else None
        checks.append(("time_derivation", timed is not None and timed.ok))
        if timed is not None and timed.ok:
            time_weight = timed.weight
        elif spaced is not None and spaced.ok:
            time_weight = computed("time_weight", lambda: weight_of(pi, "time"))
        checks.append(("time_weight", time_weight == srun.time))
        checks.append(("derivation_size", pi is not None and size_of(pi) == srun.transitions + 1))
        checks.append(
            ("correspondence", pi is not None and check_rule_transition_correspondence(pi, srun))
        )

        pik = computed("kam_derivation", lambda: extract_kam(krun))
        kamd = check(pik, "kam") if pik is not None else None
        checks.append(("kam_derivation", kamd is not None and kamd.ok))
        if kamd is not None and kamd.ok:
            dc_weight = kamd.weight
        elif pik is not None:
            dc_weight = computed("kam_weight", lambda: weight_of(pik, "kam"))
        checks.append(("kam_weight", dc_weight is not None and dc_weight == krun.transitions))
        attempt("env_domain_invariant", lambda: check_run_env_domain_invariant(srun.states))

    report = VerificationReport(
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
    return report


def random_closed_term(seed: int, size_budget: int) -> Term:
    """A deterministic random closed term of at most size_budget nodes
    (the smallest closed term has two, so that is the floor).

    At each node: an application with probability .45, an abstraction
    with .35, a variable with .20, dropping what the budget or empty
    scope rules out and renormalizing.  Binders are numbered in
    generation order, so equal seeds give equal terms."""
    rng = random.Random(seed)
    fresh = itertools.count()

    def go(budget: int, scope: tuple) -> Term:
        # a closed subterm needs two nodes, so the application split
        # must leave at least that much on each side
        m = 1 if scope else 2
        options = []
        weights = []
        if scope:
            options.append("var")
            weights.append(0.20)
        if budget >= 2:
            options.append("abs")
            weights.append(0.35)
        if budget >= 1 + 2 * m:
            options.append("app")
            weights.append(0.45)
        if not options:
            # budget 1 and nothing in scope: the smallest closed term
            options, weights = ["abs"], [1.0]
        kind = rng.choices(options, weights=weights)[0]
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
