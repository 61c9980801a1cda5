import ast
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

import spacekam
import spacekam.checker as checker
import spacekam.harness as harness
from spacekam.checker import derivation_to_json, reweight, weight_of
from spacekam.extractor import extract, extract_kam
from spacekam.harness import VerificationReport, fuzz, random_closed_term, verify
from spacekam.kam import OpenTerm, compile, kam_run, run_trace_rows
from spacekam.space_kam import skam_run
from spacekam.terms import parse_term, print_term

CHECK_NAMES = [
    "wh_beta_count",
    "skam_beta_count",
    "decode_final",
    "decode_final_skam",
    "space_derivation",
    "space_weight",
    "time_derivation",
    "time_weight",
    "derivation_size",
    "correspondence",
    "kam_derivation",
    "kam_weight",
    "env_domain_invariant",
]


def test_verify_passes_on_a_term_whose_derivations_share_many_types():
    # generator seed 9180 gives an 864-transition run whose multis repeat
    # large subtypes; re-sorting them by a recursive key took about 20 s
    rep = verify(random_closed_term(9180, 25), 2000)
    assert rep.complete
    assert [name for name, _ in rep.checks] == CHECK_NAMES
    assert rep.all_pass, rep.checks


def test_verify_the_example(example_term):
    rep = verify(example_term, 100)
    assert rep.complete and rep.all_pass
    assert rep.wh_steps == 3
    assert [name for name, _ in rep.checks] == CHECK_NAMES
    assert all(ok for _, ok in rep.checks)
    assert rep.notes == {}
    assert rep.kam == {
        "transitions": 7,
        "counts": {"sea": 3, "beta": 3, "sub": 1},
        "decarvalho_weight": 7,
    }
    assert rep.skam == {
        "transitions": 7,
        "counts": {"sea_v": 1, "sea_nv": 2, "beta_w": 1, "beta_nw": 2, "sub": 1},
        "space": 4,
        "time": 11,
        "space_weight": 4,
        "time_weight": 11,
    }


def test_reported_weights_equal_independent_recomputation():
    complete = 0
    for seed in range(200):
        t = random_closed_term(seed, 25)
        rep = verify(t, 2000)
        assert rep.all_pass, (seed, rep.checks)
        if not rep.complete:
            continue
        complete += 1
        s = compile(t)
        pi = extract(skam_run(s, 2000))
        assert rep.skam["space_weight"] == weight_of(pi, "space")
        assert rep.skam["time_weight"] == weight_of(reweight(pi, "time"), "time")
        assert rep.skam["time_weight"] == weight_of(pi, "time")
        assert rep.kam["decarvalho_weight"] == weight_of(extract_kam(kam_run(s, 2000)), "kam")
    assert complete > 150


def _bump_root_weight(d):
    return dataclasses.replace(
        d, conclusion=dataclasses.replace(d.conclusion, weight=d.conclusion.weight + 1)
    )


def test_tampered_space_weight_fails_and_reports_the_recomputed_one(
    monkeypatch, example_term
):
    monkeypatch.setattr(harness, "extract", lambda run: _bump_root_weight(extract(run)))
    rep = verify(example_term, 100)
    assert [name for name, ok in rep.checks if not ok] == ["space_derivation"]
    assert rep.skam["space_weight"] == 4 and rep.skam["time_weight"] == 11
    assert rep.notes == {}


def test_tampered_kam_weight_fails_and_reports_the_recomputed_one(
    monkeypatch, example_term
):
    monkeypatch.setattr(harness, "extract_kam", lambda run: _bump_root_weight(extract_kam(run)))
    rep = verify(example_term, 100)
    assert [name for name, ok in rep.checks if not ok] == ["kam_derivation"]
    assert rep.kam["decarvalho_weight"] == 7


def _break_first_premise(d):
    # the root's function premise types \x... with a non-empty arrow
    # source, so TLam2 rejects it whatever the mode
    bad = dataclasses.replace(d.premises[0], rule="TLam2")
    return dataclasses.replace(d, premises=(bad,) + d.premises[1:])


def test_broken_structure_fails_every_space_and_time_check(monkeypatch, example_term):
    monkeypatch.setattr(harness, "extract", lambda run: _break_first_premise(extract(run)))
    rep = verify(example_term, 100)
    assert [name for name, ok in rep.checks if not ok] == [
        "space_derivation",
        "space_weight",
        "time_derivation",
        "time_weight",
        "correspondence",
    ]
    assert rep.skam["space_weight"] is None and rep.skam["time_weight"] is None
    assert rep.to_json()["skam"]["space_weight"] is None
    why = "InvalidDerivation: at 0: TLam2 assigns an arrow with an empty source"
    assert rep.notes == {"space_weight": why, "time_weight": why}
    assert rep.kam["decarvalho_weight"] == 7


def test_a_walk_that_raises_fails_the_derivation_check(monkeypatch, example_term):
    monkeypatch.setattr(
        harness, "extract", lambda run: dataclasses.replace(extract(run), premises=(42,))
    )
    rep = verify(example_term, 100)
    assert [name for name, ok in rep.checks if not ok] == [
        "space_derivation",
        "space_weight",
        "time_derivation",
        "time_weight",
        "derivation_size",
        "correspondence",
    ]
    assert rep.notes == {"space_derivation": "TypeError: premise is not a derivation: 42"}


@pytest.mark.parametrize(
    "fault",
    [None, _break_first_premise, _bump_root_weight],
    ids=["passing", "broken-structure", "tampered-weight"],
)
def test_verify_walks_each_derivation_once(monkeypatch, example_term, fault):
    walked = []
    real_table = checker._table

    def counting_table(d):
        walked.append(d.rule)
        return real_table(d)

    monkeypatch.setattr(checker, "_table", counting_table)
    if fault is not None:
        monkeypatch.setattr(harness, "extract", lambda run: fault(extract(run)))
    rep = verify(example_term, 100)
    assert rep.all_pass == (fault is None)
    # the space derivation's root, then the plain one's
    assert walked == ["TApp1", "DC_TApp"]


def test_verify_incomplete_run_reports_stats_only():
    rep = verify(parse_term(r"(\x.x x) (\x.x x)"), 40)
    assert not rep.complete
    assert rep.checks == []
    assert rep.all_pass  # vacuously: nothing failed, nothing was checked
    assert rep.wh_steps is None
    assert rep.kam["decarvalho_weight"] is None
    assert rep.skam["space"] == 2
    assert rep.skam["space_weight"] is None


def test_verify_rejects_open_terms():
    with pytest.raises(OpenTerm):
        verify(parse_term("x y"), 10)


def test_report_json_roundtrip(example_term):
    for rep in (verify(example_term, 100), verify(parse_term(r"(\x.x x) (\x.x x)"), 20)):
        assert VerificationReport.from_json(rep.to_json()) == rep


def test_repr_of_a_report_holding_a_20000_deep_term():
    assert sys.getrecursionlimit() <= 10_000  # the default, not raised for this test
    t = parse_term("".join(rf"\x{i}." for i in range(20_000)) + "x0")
    rep = VerificationReport(t, None, {}, {}, [], False)
    term = "".join(f"Abs(binder='x{i}', body=" for i in range(20_000)) + "Var(name='x0')" + ")" * 20_000
    assert repr(rep) == (
        f"VerificationReport(term={term}, wh_steps=None, kam={{}}, skam={{}}, "
        "checks=[], complete=False, notes={})"
    )


def test_all_pass_property(example_term):
    rep = VerificationReport(example_term, None, {}, {}, [("a", True)], True)
    assert rep.all_pass
    rep.checks.append(("b", False))
    assert not rep.all_pass


# ---------------------------------------------------------------- generation

def test_random_terms_are_deterministic():
    assert random_closed_term(7, 25) == random_closed_term(7, 25)


def test_random_terms_vary_with_the_seed():
    terms = {random_closed_term(s, 25) for s in range(20)}
    assert len(terms) > 10


def test_random_term_minimal_budget():
    t = random_closed_term(3, 1)
    assert t == parse_term(r"\v0.v0")


def test_random_terms_stay_the_same():
    # the fuzz campaign and the bench's fuzz_mix workload depend on these
    # exact terms: a generator change must draw the same ones
    h = hashlib.sha256()
    sweep = [(s, 25) for s in range(1000)]
    sweep += [(s, b) for b in (1, 2, 3, 5, 60) for s in range(200)]
    for s, b in sweep:
        h.update(print_term(random_closed_term(s, b)).encode() + b"\n")
    assert h.hexdigest() == "4efa819b3ab26275ef3c77bcb1af04a0108d0294bc47454a4d0b2349251e5774"


def _church(n):
    return r"(\f.\x." + "f (" * n + "x" + ")" * n + ")"


# fuzz seeds 0-199, c_16 and pow2_3: the inputs of the two digests below
def _digest_terms():
    terms = [random_closed_term(s, 25) for s in range(200)]
    terms += [parse_term(_church(16) + r" (\a.a) (\b.b)")]
    terms += [parse_term(_church(3) + " " + _church(2) + r" (\a.a) (\b.b)")]
    return terms


def test_outputs_stay_the_same():
    # verify's report and both derivation files, byte for byte: a change
    # that claims to keep every output must keep this digest
    h = hashlib.sha256()
    for t in _digest_terms():
        h.update(json.dumps(verify(t, 2000).to_json()).encode() + b"\n")
        for run, derive in ((skam_run(compile(t), 2000), extract), (kam_run(compile(t), 2000), extract_kam)):
            if run.final_reached:
                h.update(json.dumps(derivation_to_json(derive(run))).encode() + b"\n")
    assert h.hexdigest() == "cf6b955c3d78f82f8f4547775f9ecd8909ab81c6ab22ee665b5f8c36d681f46b"


def test_trace_rows_stay_the_same():
    # both machines' trace rows, table entries included, byte for byte
    h = hashlib.sha256()
    for t in _digest_terms():
        for run in (skam_run(compile(t), 2000), kam_run(compile(t), 2000)):
            for row in run_trace_rows(run):
                h.update(row.encode() + b"\n")
    assert h.hexdigest() == "a62799cc36b88ec0f83c8897bc6c83ec567817f7db098a67a6c727dd8c153ead"


# ---------------------------------------------------------------- fuzz

def test_fuzz_summary_shape_and_determinism():
    a = fuzz(30, seed=5, size_budget=20, fuel=500)
    b = fuzz(30, seed=5, size_budget=20, fuel=500)
    assert a == b
    assert a["count"] == 30 and a["seed"] == 5
    assert a["size_budget"] == 20 and a["fuel"] == 500
    assert a["complete"] + a["incomplete"] == 30
    assert a["failed"] == 0 and a["failures"] == []


def test_fuzz_counts_internal_errors_as_failures(monkeypatch):
    real = verify

    def flaky(t, fuel):
        if t == random_closed_term(11, 15):
            raise RuntimeError("boom")
        return real(t, fuel)

    monkeypatch.setattr(harness, "verify", flaky)
    out = fuzz(3, seed=10, size_budget=15, fuel=500)
    assert out["failed"] == 1
    assert out["failures"][0]["seed"] == 11
    assert "boom" in out["failures"][0]["error"]


# ---------------------------------------------------------------- benchmark

def test_the_benchmark_uses_only_names_the_package_has():
    # perfbench imports the package as sk and reads runs and derivations;
    # a name it uses on a path its own tests do not reach would fail only
    # when the benchmark runs, so every name it uses must stay
    called = set()
    for path in sorted((Path(__file__).parent.parent / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sk":
                called.add(node.attr)
    assert len(called) > 20
    assert sorted(n for n in called if not hasattr(spacekam, n)) == []
    for cls, names in ((spacekam.Run, ("trace", "final", "initial")), (spacekam.Derivation, ("conclusion",))):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert [n for n in names if n not in fields and not hasattr(cls, n)] == []
