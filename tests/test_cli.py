import json
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner
from derivation_files import CASES, IDS

import spacekam
from spacekam.cli import main

EXAMPLE_SRC = r"(\x.(\y.(\z.x) (x y)) x) (\a.a)"

OMEGA = r"(\x.x x) (\x.x x)"


@pytest.fixture
def runner():
    return CliRunner()


# ---------------------------------------------------------------- eval

def test_eval(runner):
    res = runner.invoke(main, ["eval", EXAMPLE_SRC])
    assert res.exit_code == 0
    assert res.output.splitlines() == [r"\a.a", "steps: 3"]


def test_eval_json(runner):
    res = runner.invoke(main, ["eval", EXAMPLE_SRC, "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"result": r"\a.a", "steps": 3, "exhausted": False}


def test_eval_fuel_exhaustion(runner):
    res = runner.invoke(main, ["eval", OMEGA, "--fuel", "5"])
    assert res.exit_code == 1
    assert "exhausted after 5" in res.stderr


def test_eval_parse_error_is_usage_error(runner):
    res = runner.invoke(main, ["eval", "(x"])
    assert res.exit_code == 2
    assert "offset" in res.stderr or "expected" in res.stderr or "parse" in res.stderr.lower()


def test_term_source_must_be_unambiguous(runner, tmp_path):
    f = tmp_path / "t.lam"
    f.write_text(EXAMPLE_SRC)
    res = runner.invoke(main, ["eval", EXAMPLE_SRC, "--file", str(f)])
    assert res.exit_code == 2
    res = runner.invoke(main, ["eval"])
    assert res.exit_code == 2


def test_term_from_file_and_stdin(runner, tmp_path):
    f = tmp_path / "t.lam"
    f.write_text("-- the running example\n" + EXAMPLE_SRC + "\n")
    res = runner.invoke(main, ["eval", "--file", str(f)])
    assert res.exit_code == 0 and res.output.splitlines()[0] == r"\a.a"
    res = runner.invoke(main, ["eval", "-f", "-"], input=r"\x.x")
    assert res.exit_code == 0 and res.output.splitlines()[0] == r"\x.x"


def test_unreadable_input_file_is_usage_error(runner, tmp_path):
    binary = tmp_path / "t.bin"
    binary.write_bytes(b"\xff\xfe\x00")
    missing = str(tmp_path / "missing")
    for args in (
        ["eval", "--file", missing],
        ["infer", "--file", str(tmp_path)],
        ["eval", "--file", str(binary)],
        ["check", missing],
        ["check", str(tmp_path)],
        ["check", str(binary)],
    ):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, args
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "cannot read" in res.stderr


@pytest.mark.parametrize("command", ["eval", "kam", "skam", "infer", "verify"])
def test_term_nested_too_deep_to_parse_is_usage_error(runner, tmp_path, command):
    # the parser recurses per parenthesis, several frames each
    depth = sys.getrecursionlimit()
    f = tmp_path / "deep.txt"
    f.write_text("(" * depth + r"\a.a" + ")" * depth)
    res = runner.invoke(main, [command, "-f", str(f)])
    assert res.exit_code == 2, res.exception
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert res.stderr.splitlines()[-1] == "Error: term nested too deep to parse"


# ---------------------------------------------------------------- machines

def test_kam_summary(runner):
    res = runner.invoke(main, ["kam", EXAMPLE_SRC])
    assert res.exit_code == 0
    assert res.output.splitlines() == [
        "transitions: 7 (sea 3, beta 3, sub 1)",
        "complete: true",
    ]


def test_kam_json(runner):
    res = runner.invoke(main, ["kam", EXAMPLE_SRC, "--json"])
    assert json.loads(res.output) == {
        "transitions": 7,
        "counts": {"sea": 3, "beta": 3, "sub": 1},
        "complete": True,
    }


def test_kam_open_term_is_usage_error(runner):
    res = runner.invoke(main, ["kam", "x y"])
    assert res.exit_code == 2


def test_kam_incomplete_exits_nonzero(runner):
    res = runner.invoke(main, ["kam", OMEGA, "--fuel", "30", "--json"])
    assert res.exit_code == 1
    assert json.loads(res.output)["complete"] is False


def test_skam_summary_json(runner):
    res = runner.invoke(main, ["skam", EXAMPLE_SRC, "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {
        "transitions": 7,
        "counts": {"sea_v": 1, "sea_nv": 2, "beta_w": 1, "beta_nw": 2, "sub": 1},
        "space": 4,
        "time": 11,
        "complete": True,
    }


def test_skam_text_output(runner):
    res = runner.invoke(main, ["skam", EXAMPLE_SRC])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert "transitions: 7 (sea_v 1, sea_nv 2, beta_w 1, beta_nw 2, sub 1)" in lines
    assert "space: 4" in lines and "time: 11" in lines


def test_skam_trace_to_stdout(runner):
    res = runner.invoke(main, ["skam", EXAMPLE_SRC, "--trace", "-", "--json"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    rows = [json.loads(ln) for ln in lines[:-1]]
    assert [r["label"] for r in rows] == [
        "sea_nv", "beta_nw", "sea_v", "beta_nw", "sea_nv", "beta_w", "sub",
    ]
    assert [r["size"] for r in rows] == [1, 1, 2, 2, 4, 1, 0]
    assert json.loads(lines[-1])["space"] == 4


def test_kam_trace_to_file(runner, tmp_path):
    out = tmp_path / "trace.jsonl"
    res = runner.invoke(main, ["kam", EXAMPLE_SRC, "--trace", str(out)])
    assert res.exit_code == 0
    rows = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert len(rows) == 7 and rows[0]["step"] == 1


@pytest.mark.parametrize("command", [["kam", "--trace"], ["skam", "--trace"], ["infer", "-o"]])
@pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
def test_unwritable_output_is_a_usage_error(runner, tmp_path, command, where):
    path = tmp_path / "no" / "such" / "out" if where == "missing_dir" else tmp_path
    res = runner.invoke(main, [command[0], EXAMPLE_SRC, command[1], str(path)])
    assert res.exit_code == 2
    assert f"cannot write {path}" in res.stderr
    assert "Traceback" not in res.output


def test_fuel_env_variable_and_flag_precedence(runner):
    res = runner.invoke(main, ["kam", EXAMPLE_SRC], env={"SPACEKAM_FUEL": "3"})
    assert res.exit_code == 1
    res = runner.invoke(
        main, ["kam", EXAMPLE_SRC, "--fuel", "100"], env={"SPACEKAM_FUEL": "3"}
    )
    assert res.exit_code == 0


# ---------------------------------------------------------------- infer / check

def test_infer_space_derivation(runner):
    res = runner.invoke(main, ["infer", EXAMPLE_SRC])
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert list(obj) == ["tables", "rule", "judgment", "premises"]
    assert obj["rule"] == "TApp1"
    assert obj["judgment"]["weight"] == 4
    assert obj["tables"]["types"][obj["judgment"]["type"]] == "*"


def test_infer_time_and_kam_weights(runner):
    res = runner.invoke(main, ["infer", EXAMPLE_SRC, "--mode", "time"])
    assert json.loads(res.output)["judgment"]["weight"] == 11
    res = runner.invoke(main, ["infer", EXAMPLE_SRC, "--mode", "kam"])
    obj = json.loads(res.output)
    assert obj["rule"] == "DC_TApp" and obj["judgment"]["weight"] == 7


def test_infer_pretty(runner):
    res = runner.invoke(main, ["infer", EXAMPLE_SRC, "--pretty"])
    assert res.exit_code == 0
    assert res.output.splitlines()[0].startswith("TApp1 w=4")


def test_infer_incomplete_run(runner):
    res = runner.invoke(main, ["infer", OMEGA, "--fuel", "50"])
    assert res.exit_code == 1
    assert res.stderr.strip() != ""


def test_infer_to_file_then_check(runner, tmp_path):
    out = tmp_path / "d.json"
    res = runner.invoke(main, ["infer", EXAMPLE_SRC, "-o", str(out)])
    assert res.exit_code == 0
    assert res.output.strip() == "weight: 4"

    res = runner.invoke(main, ["check", str(out)])
    assert res.exit_code == 0
    assert res.output.strip() == "ok: weight 4"

    res = runner.invoke(main, ["check", str(out), "--mode", "time"])
    assert res.exit_code == 1  # space weights are wrong for time mode


def test_check_time_mode(runner, tmp_path):
    out = tmp_path / "d.json"
    runner.invoke(main, ["infer", EXAMPLE_SRC, "--mode", "time", "-o", str(out)])
    res = runner.invoke(main, ["check", str(out), "--mode", "time"])
    assert res.exit_code == 0
    assert res.output.strip() == "ok: weight 11"


def test_check_reports_tampered_weights(runner, tmp_path):
    res = runner.invoke(main, ["infer", EXAMPLE_SRC])
    obj = json.loads(res.output)
    obj["judgment"]["weight"] = 9
    out = tmp_path / "bad.json"
    out.write_text(json.dumps(obj))
    res = runner.invoke(main, ["check", str(out), "--full-scan"])
    assert res.exit_code == 1
    assert "stored weight 9" in res.output
    assert res.output.startswith("at root:")


def test_check_from_stdin(runner):
    infer = CliRunner().invoke(main, ["infer", EXAMPLE_SRC])
    res = runner.invoke(main, ["check", "-"], input=infer.output)
    assert res.exit_code == 0


def test_infer_derivation_too_deep_for_json_is_usage_error():
    # c_200's derivation nests about 400 premises deep, 800 JSON levels;
    # under a recursion limit of 700 the term still parses (about 600
    # frames) but the JSON encoder runs out
    term = r"(\f.\x." + "f (" * 200 + "x" + ")" * 200 + r") (\a.a) (\b.b)"
    code = (
        "import sys\n"
        "from spacekam.cli import main\n"
        "sys.setrecursionlimit(700)\n"
        "main(sys.argv[1:])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spacekam.__file__))}
    res = subprocess.run(
        [sys.executable, "-c", code, "infer", term], capture_output=True, text=True, env=env
    )
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines()[-1] == "Error: derivation nested too deep to write as JSON"


def test_check_rejects_non_json(runner, tmp_path):
    f = tmp_path / "junk"
    f.write_text("not json at all")
    res = runner.invoke(main, ["check", str(f)])
    assert res.exit_code == 2
    assert "not JSON" in res.stderr


def test_check_rejects_json_nested_too_deep(runner, tmp_path):
    # a premise chain twice as deep as the recursion limit, four times
    # as many JSON levels: too deep for the JSON reader to load
    depth = 2 * sys.getrecursionlimit()
    leaf = json.dumps(_leaf())
    f = tmp_path / "deep.json"
    f.write_text('{"rule": "TLamStar", "premises": [' * depth + leaf + "]}" * depth)
    res = runner.invoke(main, ["check", str(f)])
    assert res.exit_code == 2, res.exception
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert res.stderr.splitlines()[-1] == "Error: JSON nested too deep to read"


IDENTITY_TABLES = {
    "types": ["*"],
    "terms": [{"var": "a"}, {"lam": "a", "body": 0}],
    "closures": [],
}
# types 1..3: []^1, [] and the plain arrow [] -> *
MIXED_TYPES = ["*", {"elems": [], "k": 1}, {"elems": []}, {"arg": 2, "res": 0}]


def _leaf(types=None, **judgment):
    j = {"subject_kind": "term", "subject": 1, "context": {}, "type": 0, "weight": 0}
    tables = {**IDENTITY_TABLES, "types": types or IDENTITY_TABLES["types"]}
    return {"tables": tables, "rule": "TLamStar", "judgment": {**j, **judgment}, "premises": []}


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"tables": IDENTITY_TABLES, "rule": "TVar"},
         r"root: derivation lacks \['judgment', 'premises'\]"),
        ({**_leaf(), "rule": []}, r"root: unknown rule \[\]"),
        (_leaf(types=MIXED_TYPES + [{"arg": 1, "res": 3}], type=4),
         r"root: tables\.types\[4\]: indexed arrow needs an indexed target"),
        (_leaf(types=MIXED_TYPES + [{"elems": [3], "k": 1}], context={"x": 4}),
         r"root: tables\.types\[4\]: indexed multi over a non-indexed element"),
        (_leaf(types=["*", {"elems": 5, "k": 1}]),
         r"root: tables\.types\[1\]: elems must be a list"),
        (_leaf(subject_kind="state", subject={"code": 1, "env": [], "stack": 5}),
         r"root: state stack must be a list"),
        (_leaf(subject_kind="state", subject={"code": 5, "env": [], "stack": []}),
         r"root: index 5 is outside \[0, 2\)"),
    ],
    ids=["no-judgment", "rule-list", "mixed-arrow", "mixed-context",
         "elems-int", "stack-int", "code-int"],
)
def test_check_rejects_malformed_derivations(runner, tmp_path, obj, message):
    f = tmp_path / "shape.json"
    f.write_text(json.dumps(_leaf()))
    assert runner.invoke(main, ["check", str(f)]).exit_code == 0
    f.write_text(json.dumps(obj))
    res = runner.invoke(main, ["check", str(f)])
    assert res.exit_code == 2, res.exception
    last = res.stderr.splitlines()[-1]
    assert last.startswith("Error: root")
    assert re.match(message, last.removeprefix("Error: ")), last


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_check_rejects_bad_indices_and_names(runner, tmp_path, case):
    _, base, edit, message = case
    obj = base()
    edit(obj)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj), encoding="utf-8")
    res = runner.invoke(main, ["check", str(f)])
    assert res.exit_code == 2, res.exception
    last = res.stderr.splitlines()[-1]
    assert re.match(message, last.removeprefix("Error: ")), last


def test_check_names_the_missing_tables_of_an_old_file(runner, tmp_path):
    # the layout before tables: subjects as term strings, types inline
    old = {
        "rule": "TLamStar",
        "judgment": {"subject_kind": "term", "subject": r"\a.a", "context": {},
                     "type": "*", "weight": 0},
        "premises": [],
    }
    f = tmp_path / "old.json"
    f.write_text(json.dumps(old))
    res = runner.invoke(main, ["check", str(f)])
    assert res.exit_code == 2
    assert res.stderr.splitlines()[-1] == "Error: root: derivation lacks ['tables']"


# ---------------------------------------------------------------- verify / fuzz

def test_verify(runner):
    res = runner.invoke(main, ["verify", EXAMPLE_SRC])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert "complete: true" in lines
    assert sum(1 for ln in lines if ln.startswith("pass  ")) == 13
    assert not any(ln.startswith("FAIL") for ln in lines)


def test_verify_json(runner):
    res = runner.invoke(main, ["verify", EXAMPLE_SRC, "--json"])
    obj = json.loads(res.output)
    assert obj["complete"] is True
    assert obj["skam"]["space"] == 4 and obj["skam"]["time"] == 11
    assert all(ok for _, ok in obj["checks"])


def test_verify_incomplete_states_it(runner):
    res = runner.invoke(main, ["verify", OMEGA, "--fuel", "30"])
    assert res.exit_code == 0  # nothing checked, nothing failed
    assert "complete: false" in res.output


def test_fuzz(runner):
    res = runner.invoke(main, ["fuzz", "--count", "5", "--seed", "3"])
    assert res.exit_code == 0
    assert res.output.startswith("count 5")


def test_fuzz_json(runner):
    res = runner.invoke(main, ["fuzz", "--count", "5", "--seed", "3", "--json"])
    obj = json.loads(res.output)
    assert obj["count"] == 5 and obj["failed"] == 0
