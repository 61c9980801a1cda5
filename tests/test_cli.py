import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner
from derivation_files import CASES, IDS, node_at
from families import church_app, let_chain, pow2, wide_app
from machine_steps import read_trace

import spacekam as sk
import spacekam.harness as harness
from spacekam.cli import main
from spacekam.extractor import extract

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
        ["check", missing],
        ["check", str(tmp_path)],
        ["check", str(binary)],  # a derivation file must be UTF-8
    ):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, args
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "cannot read" in res.stderr
    # a term file is read as argv is, each byte that is not UTF-8 one
    # character, so the parser names the first
    res = runner.invoke(main, ["eval", "--file", str(binary)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "unexpected character '\\udcff' at byte offset 0" in res.stderr


@pytest.mark.parametrize("command", ["eval", "kam", "skam", "infer", "verify"])
def test_term_nested_too_deep_to_parse_is_usage_error(runner, tmp_path, command):
    # no nesting is too deep: the parser keeps its own stack, so 20,000
    # parentheses, twenty times the default recursion limit, parse and run
    depth = 20_000
    f = tmp_path / "deep.txt"
    f.write_text("(" * depth + r"\a.a" + ")" * depth)
    res = runner.invoke(main, [command, "-f", str(f)])
    assert res.exit_code == 0, res.exception
    first = {
        "eval": r"\a.a",
        "kam": "transitions: 0 (sea 0, beta 0, sub 0)",
        "skam": "transitions: 0 (sea_v 0, sea_nv 0, beta_w 0, beta_nw 0, sub 0)",
        "infer": '{"tables": {"types": ["*"], "terms": [{"var": "a"}, {"lam": "a", "body": 0}], '
                 '"closures": [], "nodes": [{"rule": "TLamStar", "judgment": {"subject_kind": '
                 '"term", "subject": 1, "context": {}, "type": 0, "weight": 0}, "premises": []}]}}',
        "verify": r"term: \a.a",
    }
    assert res.output.splitlines()[0] == first[command]


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
    states = [r for r in rows if "step" in r]
    assert [r["label"] for r in states] == [
        "sea_nv", "beta_nw", "sea_v", "beta_nw", "sea_nv", "beta_w", "sub",
    ]
    assert [r["size"] for r in states] == [1, 1, 2, 2, 4, 1, 0]
    assert [r["terms"] for r in rows if "terms" in r] == list(range(10))
    assert [r["closures"] for r in rows if "closures" in r] == list(range(7))
    assert json.loads(lines[-1])["space"] == 4


def test_kam_trace_to_file(runner, tmp_path):
    out = tmp_path / "trace.jsonl"
    res = runner.invoke(main, ["kam", EXAMPLE_SRC, "--trace", str(out)])
    assert res.exit_code == 0
    rows = [json.loads(ln) for ln in out.read_text().splitlines()]
    states = [r for r in rows if "step" in r]
    assert len(states) == 7 and states[0]["step"] == 1
    assert [r["terms"] for r in rows if "terms" in r] == list(range(10))
    assert [r["closures"] for r in rows if "closures" in r] == list(range(10))


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
    assert list(obj) == ["tables"]
    root = obj["tables"]["nodes"][-1]
    assert root["rule"] == "TApp1"
    assert root["judgment"]["weight"] == 4
    assert obj["tables"]["types"][root["judgment"]["type"]] == "*"


def test_infer_time_and_kam_weights(runner):
    res = runner.invoke(main, ["infer", EXAMPLE_SRC, "--mode", "time"])
    assert json.loads(res.output)["tables"]["nodes"][-1]["judgment"]["weight"] == 11
    res = runner.invoke(main, ["infer", EXAMPLE_SRC, "--mode", "kam"])
    root = json.loads(res.output)["tables"]["nodes"][-1]
    assert root["rule"] == "DC_TApp" and root["judgment"]["weight"] == 7


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
    node_at(obj, ())["judgment"]["weight"] = 9
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


def _spacekam(*args, stdin=None, address_space=None, timeout=None):
    """Run the command line in a child process, at the interpreter's
    default recursion limit; address_space, in bytes, limits the
    child's alone (RLIMIT_AS, set in the child before it starts), and
    timeout, in seconds, its run (subprocess.TimeoutExpired past it)."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sk.__file__))}
    limit = None
    if address_space is not None:
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "spacekam.cli", *args],
        stdin=stdin, capture_output=True, text=True, env=env, preexec_fn=limit, timeout=timeout,
    )


@pytest.mark.parametrize("machine", ["skam", "kam"])
def test_a_long_run_keeps_memory_flat_through_the_command_line(machine):
    # a run stores no trace and builds no state per transition, so
    # 3,000,000 transitions of the loop fit in 150 MB of address space
    # on either machine (the Space KAM in space 2, the plain one with a
    # renaming chain that grows with the square root of the
    # transitions; a run loop that kept each state it fired ran out of
    # memory there); the runs end on fuel, which exits 1
    res = _spacekam(machine, "--fuel", "3000000", OMEGA, address_space=150_000 * 1024)
    assert res.returncode == 1, res.stderr
    assert res.stdout.splitlines()[-1:] == ["complete: false"], res.stderr[-300:]


def test_a_deep_stack_infers_and_checks_in_bounded_memory_through_the_command_line(tmp_path):
    # wide_app at n = 8,000: all 8,000 arguments wait on the stack at
    # once, over 16,001 Space KAM transitions; the machines link their
    # stacks, so a push or a pop copies nothing, and infer's replay holds
    # memory linear in the run, within 400 MB of address space (a replay
    # that kept a copy of each stack would hold n^2, 64 million, stack
    # entries, which do not fit)
    src, out = tmp_path / "wide.lam", tmp_path / "wide.json"
    src.write_text(wide_app(8000))
    res = _spacekam("infer", "--fuel", "100000", "-o", str(out), "-f", str(src), address_space=400_000 * 1024)
    assert res.returncode == 0, res.stderr[-300:]
    assert res.stdout.strip() == "weight: 8000"
    res = _spacekam("check", str(out), address_space=400_000 * 1024)
    assert res.returncode == 0, res.stderr[-300:]
    assert res.stdout.strip() == "ok: weight 8000"


def test_infer_derivation_too_deep_for_json_is_usage_error(tmp_path):
    # no derivation is too deep for its file: c_4096's derivation nests
    # about 8,000 premises deep, eight times the default recursion
    # limit, and its file stays flat and round-trips through infer -o
    # and check
    src, out = tmp_path / "c4096.lam", tmp_path / "c4096.json"
    src.write_text(church_app(4096))
    res = _spacekam("infer", "-f", str(src), "--fuel", "100000", "-o", str(out))
    assert res.returncode == 0, res.stderr
    weight = res.stdout.strip().removeprefix("weight: ")
    res = _spacekam("check", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == f"ok: weight {weight}"


def test_a_byte_that_is_not_utf8_in_a_comment_of_argv_is_read_past():
    res = _spacekam("eval", b"(\\a.a) (\\b.b) -- \xff")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == r"\b.b"


@pytest.mark.parametrize("command", ["eval", "kam", "skam", "verify", "infer"])
def test_a_parse_error_after_a_byte_that_is_not_utf8_exits_2(command):
    # the offset counts the bytes typed: the 0xff byte is one
    res = _spacekam(command, b"x -- \xff\n )")
    assert res.returncode == 2
    assert "unexpected ')' after the term at byte offset 8" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "term, message",
    [(r"(\x.x", "expected ')' at byte offset 5"),
     ("x )", "unexpected ')' after the term at byte offset 2"),
     (r"\x x", "expected '.' after the binder at byte offset 3")],
    ids=["unclosed", "stray-paren", "no-dot"],
)
def test_a_malformed_term_exits_2_with_its_message_and_no_traceback(term, message):
    res = _spacekam("eval", term)
    assert res.returncode == 2
    assert res.stderr.splitlines()[-1] == f"Error: {message}"
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("where", ["file", "stdin"])
def test_a_byte_that_is_not_utf8_in_a_term_file_reads_as_in_argv(tmp_path, where):
    good, bad = tmp_path / "t.lam", tmp_path / "bad.lam"
    good.write_bytes(b"(\\a.a) (\\b.b) -- \xff")
    bad.write_bytes(b"x -- \xff\n )")

    def run(path):
        if where == "file":
            return _spacekam("eval", "-f", str(path))
        with open(path, "rb") as stdin:
            return _spacekam("eval", "-f", "-", stdin=stdin)

    res = run(good)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == r"\b.b"
    res = run(bad)
    assert res.returncode == 2
    assert "unexpected ')' after the term at byte offset 8" in res.stderr  # as inline
    assert "Traceback" not in res.stderr


def test_trace_rows_write_each_entry_once_through_the_command_line(tmp_path):
    # each term, closure and cell is written once, as an entry of its
    # own, and named by number after, so the plain loop's trace grows
    # linearly with the transitions: 20,000 of them stay under 4 MB (124
    # MB when every row wrote its closures in full); the fuel runs out,
    # which exits 1
    loop = tmp_path / "loop.jsonl"
    res = _spacekam("kam", "--trace", str(loop), "--fuel", "20000", OMEGA)
    assert res.returncode == 1, res.stderr
    assert res.stdout.splitlines()[-1] == "complete: false"
    assert 0 < loop.stat().st_size < 4_000_000
    # the skam trace of the README example reads back into the replayed
    # states, with their sizes
    example = tmp_path / "example.jsonl"
    res = _spacekam("skam", "--trace", str(example), EXAMPLE_SRC)
    assert res.returncode == 0, res.stderr
    run = sk.skam_run(sk.compile(sk.parse_term(EXAMPLE_SRC)), 100)
    _, _, states = read_trace(example.read_text().splitlines())
    assert [s for _, s in states] == [s for _, s in run.trace] and len(states) == 7
    assert all(row["size"] == sk.state_size(s) for row, s in states)


def test_the_trace_of_a_3000_deep_let_chain_through_the_command_line(tmp_path):
    # the plain machine's env is a chain of cells, 3,001 deep at the end
    # of the 3,000-deep let chain, and each closure's env a tail of it:
    # the trace writes each cell once and stays under 10 MB (about 400
    # MB when each row listed its envs in full), and reads back to the
    # run's last state, at the default recursion limit
    src, out = tmp_path / "chain3000.lam", tmp_path / "chain3000.jsonl"
    src.write_text(let_chain(3000))
    res = _spacekam("kam", "--trace", str(out), "-f", str(src))
    assert res.returncode == 0, res.stderr
    assert out.stat().st_size < 10_000_000
    run = sk.kam_run(sk.compile(sk.parse_term(let_chain(3000))), 100_000)
    _, _, states = read_trace(out.read_text().splitlines())
    assert len(states) == run.transitions and states[-1][1] == run.last


def test_a_3000_deep_let_chain_verifies_through_the_command_line(tmp_path):
    # the plain machine's env is a chain of cells, 3,001 deep at the end
    # of the run, which verify walks without recursion, at the default
    # recursion limit
    src = tmp_path / "chain3000.lam"
    src.write_text(let_chain(3000))
    res = _spacekam("verify", "-f", str(src))
    assert res.returncode == 0, res.stderr[-300:]
    lines = res.stdout.splitlines()
    assert "complete: true" in lines
    assert sum(1 for ln in lines if ln.startswith("pass  ")) == 13


def test_a_600_deep_let_chain_verifies_and_round_trips(tmp_path):
    # closures nest 600 deep: extraction, verify and the derivation
    # file need no recursion per level, at the default recursion limit
    src, out = tmp_path / "chain.lam", tmp_path / "chain.json"
    src.write_text(let_chain(600))
    res = _spacekam("verify", "-f", str(src))
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert "complete: true" in lines
    assert sum(1 for ln in lines if ln.startswith("pass  ")) == 13
    assert not any(ln.startswith("FAIL") for ln in lines)
    res = _spacekam("infer", "-f", str(src), "-o", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "weight: 601"
    res = _spacekam("check", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "ok: weight 601"


def test_a_1200_deep_double_use_chain_infers_and_checks_in_kam_mode(tmp_path):
    # xn is used twice, so extract_kam joins two environment typings
    # nested 1,200 deep: at the default recursion limit, with no
    # recursion per level
    body = r"x1200 (\a.a) (x1200 (\b.b))"
    for i in range(1200, 0, -1):
        body = rf"(\x{i}. {body}) (\w. x{i - 1} w)"
    src, out = tmp_path / "dchain.lam", tmp_path / "dchain.json"
    src.write_text(rf"(\x0. {body}) (\w.w)")
    res = _spacekam("infer", "--mode", "kam", "--fuel", "100000", "-f", str(src), "-o", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "weight: 12013"
    res = _spacekam("check", "--mode", "kam", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "ok: weight 12013"


def test_pow2_12_derivations_share_their_subtrees_through_the_command_line(tmp_path, monkeypatch):
    # the extractors hash-cons term nodes, so the 47,103 places of
    # pow2_12's space derivation are 375 node objects: verify passes
    # every check on the shared DAG, each mode's file checks and holds
    # fewer than 1,000 node entries, and decodes to a derivation equal
    # to the extracted one, though not the same object
    from spacekam import extractor

    src = tmp_path / "pow2_12.lam"
    src.write_text(pow2(12))
    res = _spacekam("verify", "--fuel", "200000", "-f", str(src))
    assert res.returncode == 0, res.stderr[-300:]
    assert sum(1 for ln in res.stdout.splitlines() if ln.startswith("pass  ")) == 13
    # nodes are keyed on their rule's inputs, so each extraction unites
    # contexts fewer than 1,000 times for its 40,957 and 49,148
    # transitions; the extractors walk the replay's bare tuples, so the
    # final state is the one state each builds
    calls = {"contexts_union": 0, "MachState": 0}
    union, init = extractor.contexts_union, sk.MachState.__init__

    def counted_union(contexts):
        calls["contexts_union"] += 1
        return union(contexts)

    def counted_init(self, code, env, stack):
        calls["MachState"] += 1
        init(self, code, env, stack)

    t = sk.compile(sk.parse_term(pow2(12)))
    runs = {"space": sk.skam_run(t, 200_000), "kam": sk.kam_run(t, 200_000)}
    monkeypatch.setattr(extractor, "contexts_union", counted_union)
    monkeypatch.setattr(sk.MachState, "__init__", counted_init)
    derived = {}
    for mode, ex in (("space", sk.extract), ("kam", sk.extract_kam)):
        calls.update(contexts_union=0, MachState=0)
        derived[mode] = ex(runs[mode])
        assert calls["contexts_union"] < 1000 and calls["MachState"] == 1, (mode, calls)
    monkeypatch.undo()
    derived["time"] = sk.reweight(derived["space"], "time")
    for mode, want in derived.items():
        out = tmp_path / f"pow2_12.{mode}.json"
        res = _spacekam("infer", "--mode", mode, "--fuel", "200000", "-o", str(out), "-f", str(src))
        assert res.returncode == 0, res.stderr[-300:]
        res = _spacekam("check", "--mode", mode, str(out))
        assert res.returncode == 0, res.stderr[-300:]
        assert res.stdout.strip() == f"ok: weight {sk.weight_of(want, mode)}"
        obj = json.loads(out.read_text())
        assert len(obj["tables"]["nodes"]) < 1000, mode
        back = sk.derivation_from_json(obj)
        assert back == want and back is not want, mode


def test_importing_the_package_leaves_the_recursion_limit_alone():
    code = (
        "import sys\n"
        "before = sys.getrecursionlimit()\n"
        "import spacekam\n"
        "print(before, sys.getrecursionlimit())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sk.__file__))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    before, after = res.stdout.split()
    assert before == after


def test_check_rejects_non_json(runner, tmp_path):
    f = tmp_path / "junk"
    f.write_text("not json at all")
    res = runner.invoke(main, ["check", str(f)])
    assert res.exit_code == 2
    assert "not JSON" in res.stderr


def test_check_rejects_json_nested_too_deep(runner, tmp_path):
    # a file from outside may nest at will: here a premise chain in
    # the nested layout, twice as deep as the recursion limit, four
    # times as many JSON levels, too deep for the JSON reader to load
    depth = 2 * sys.getrecursionlimit()
    leaf = json.dumps(_leaf())
    f = tmp_path / "deep.json"
    f.write_text('{"rule": "TLamStar", "premises": [' * depth + leaf + "]}" * depth)
    res = runner.invoke(main, ["check", str(f)])
    assert res.exit_code == 2, res.exception
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert res.stderr.splitlines()[-1] == "Error: JSON nested too deep to read"


def test_check_accepts_a_multi_of_types_too_deep_for_nested_keys(runner, tmp_path):
    # one multi over two 2,000-deep arrow chains that differ only at the
    # bottom, []^1 -> ... -> * and []^1 -> ... -> ([]^2 -> *): ordering
    # the multi compares the two chains' flat keys, so the file decodes
    # and checks at the default recursion limit
    depth = 2_000
    types = ["*", {"multi": [], "k": 1}, {"multi": [], "k": 2}, {"arg": 2, "res": 0}]
    for bottom in (0, 3):
        types.append({"arg": 1, "res": bottom})
        for _ in range(depth - 1):
            types.append({"arg": 1, "res": len(types) - 1})
    types.append({"multi": [[len(types) - 1, 1], [3 + depth, 1]], "k": 1})
    f = tmp_path / "deep-types.json"
    f.write_text(json.dumps(_leaf(types=types)))
    res = runner.invoke(main, ["check", str(f)])
    assert res.exit_code == 0, res.output
    assert res.output == "ok: weight 0\n"


def test_check_rejects_an_integer_literal_too_long_to_read(runner, tmp_path):
    # a premise index of 5,000 digits: over the interpreter's digit limit
    # for reading integers, where it has one, and out of range otherwise
    obj = _leaf()
    obj["tables"]["nodes"][0]["premises"] = ["INDEX"]
    f = tmp_path / "long.json"
    f.write_text(json.dumps(obj).replace('"INDEX"', "1" * 5000))
    res = runner.invoke(main, ["check", str(f)])
    assert res.exit_code == 2, res.exception
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert res.stderr.splitlines()[-1].startswith(("Error: not JSON", "Error: root"))


def _tvar_file(multi_types):
    """The file of one TVar node on a, whose context multi for a is the
    last of multi_types (appended to the type table after *)."""
    types = ["*", *multi_types]
    j = {"subject_kind": "term", "subject": 0, "context": {"a": len(types) - 1},
         "type": 0, "weight": 0}
    return _leaf(types=types, node={"rule": "TVar", "judgment": j, "premises": []})


def _twice_nested(depth):
    """Multi types nested depth levels deep, each holding an arrow from
    the level below twice: the text doubles with each level."""
    types = [{"multi": [[0, 2]], "k": 1}]
    for _ in range(depth - 1):
        types.append({"arg": len(types), "res": 0})
        types.append({"multi": [[len(types), 2]], "k": 1})
    return types


@pytest.mark.parametrize(
    "multi_types",
    [_twice_nested(16), _twice_nested(20), [{"multi": [[0, 10**6]], "k": 1}]],
    ids=["nested-16", "nested-20", "count-1e6"],
)
def test_check_messages_write_types_up_to_a_bound(runner, tmp_path, multi_types):
    # written in full, the context multi is 0.7 MB at nesting depth 16,
    # 11.5 MB at depth 20 and 2 MB at count 10**6; a message cuts each
    # type at 1,000 characters
    f = tmp_path / "big.json"
    f.write_text(json.dumps(_tvar_file(multi_types)))
    res = runner.invoke(main, ["check", str(f)])
    assert res.exit_code == 1, res.exception
    assert "TVar context multi [" in res.output and "..." in res.output
    assert len(res.output) < 2100


IDENTITY_TABLES = {
    "types": ["*"],
    "terms": [{"var": "a"}, {"lam": "a", "body": 0}],
    "closures": [],
}
# types 1..3: []^1, [] and the plain arrow [] -> *
MIXED_TYPES = ["*", {"multi": [], "k": 1}, {"multi": []}, {"arg": 2, "res": 0}]


def _leaf(types=None, node=None, closures=(), **judgment):
    """The file of one TLamStar node, with the judgment fields given,
    or with node in its place, over the closures table given."""
    j = {"subject_kind": "term", "subject": 1, "context": {}, "type": 0, "weight": 0}
    node = node or {"rule": "TLamStar", "judgment": {**j, **judgment}, "premises": []}
    types = types or IDENTITY_TABLES["types"]
    return {"tables": {**IDENTITY_TABLES, "types": types, "closures": list(closures), "nodes": [node]}}


# the empty chain and the closure (\a.a, [])
IDENTITY_CLOSURE = [{}, {"code": 1, "env": 0}]


@pytest.mark.parametrize(
    "obj, message",
    [
        (_leaf(node={"rule": "TVar"}),
         r"root: tables\.nodes\[0\]: node lacks \['judgment', 'premises'\]"),
        (_leaf(node={**_leaf()["tables"]["nodes"][0], "rule": []}),
         r"root: tables\.nodes\[0\]: unknown rule \[\]"),
        (_leaf(types=MIXED_TYPES + [{"arg": 1, "res": 3}], type=4),
         r"root: tables\.types\[4\]: indexed arrow needs an indexed target"),
        (_leaf(types=MIXED_TYPES + [{"multi": [[3, 1]], "k": 1}], context={"x": 4}),
         r"root: tables\.types\[4\]: indexed multi over a non-indexed element"),
        (_leaf(types=["*", {"multi": 5, "k": 1}]),
         r"root: tables\.types\[1\]: multi must be a list of \[type, count\] pairs"),
        (_leaf(closures=[{}], subject_kind="state", subject={"code": 1, "env": 0, "stack": 5}),
         r"root: tables\.nodes\[0\]: index 5 is outside \[0, 1\)"),
        (_leaf(closures=[{}], subject_kind="state", subject={"code": 5, "env": 0, "stack": 0}),
         r"root: tables\.nodes\[0\]: index 5 is outside \[0, 2\)"),
        (_leaf(closures=[*IDENTITY_CLOSURE, {"name": "a", "closure": 1, "rest": 3}]),
         r"root: tables\.closures\[2\]: index 3 is outside \[0, 2\)"),
        (_leaf(closures=[*IDENTITY_CLOSURE, {"name": "a b", "closure": 1, "rest": 0}]),
         r"root: tables\.closures\[2\]: not a variable name: 'a b'"),
    ],
    ids=["no-judgment", "rule-list", "mixed-arrow", "mixed-context",
         "elems-int", "stack-int", "code-int", "cell-forward", "cell-name"],
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


def _doubling_arrows(types, depth):
    """Append depth levels of plain arrows to types, each arrow's source
    holding the arrow below it and its target that arrow, so the full
    text doubles per level; the last arrow's index."""
    types += [{"multi": []}, {"arg": len(types), "res": 0}]
    for _ in range(depth):
        a = len(types) - 1
        types += [{"multi": [[a, 1]]}, {"arg": a + 1, "res": a}]
    return len(types) - 1


def _deep_type_file(case, depth):
    """A file whose first failure has a type depth levels deep to name."""
    types = ["*"]
    a = _doubling_arrows(types, depth)
    if case == "source":  # an arrow source that is not a multi
        return _leaf(types=types + [{"arg": a, "res": 0}])
    if case == "target":  # an indexed arrow over a plain target
        return _leaf(types=types + [{"multi": [], "k": 1}, {"arg": len(types), "res": a}])
    if case == "element":  # an indexed multi over a plain element
        return _leaf(types=types + [{"multi": [[a, 1]], "k": 1}])
    # a TMany over a TVar whose context image is a plain multi: the
    # TMany's rule check sizes the premise's context
    types += [{"multi": [[a, 1]]}, {"multi": [[0, 1]], "k": 1}]
    j = {"subject_kind": "term", "subject": 0, "type": 0, "weight": 0}
    return {"tables": {**IDENTITY_TABLES, "types": types, "nodes": [
        {"rule": "TVar", "judgment": {**j, "context": {"a": len(types) - 2}}, "premises": []},
        {"rule": "TMany", "judgment": {**j, "context": {"a": len(types) - 1}, "type": len(types) - 1},
         "premises": [0]},
    ]}}


@pytest.mark.parametrize(
    "case, flags, code, message",
    [
        ("source", [], 2, "arrow source must be a multi type: [[[["),
        ("target", [], 2, "indexed arrow needs an indexed target: [[[["),
        ("element", [], 2, "indexed multi over a non-indexed element: [[[["),
        ("tvar", ["--full-scan"], 1, "malformed node: size is only defined for indexed contexts: [[[["),
    ],
    ids=["arrow-source", "arrow-target", "multi-element", "tvar-under-tmany"],
)
def test_a_deep_type_in_a_type_error_is_cut(tmp_path, case, flags, code, message):
    # at depth 40 each of these types has a full text of about 10**13
    # characters; the message cuts it at 1,000
    f = tmp_path / "deep.json"
    f.write_text(json.dumps(_deep_type_file(case, 40)))
    res = _spacekam("check", str(f), *flags, timeout=10)
    assert res.returncode == code, res.stderr[-300:]
    assert message in res.stdout + res.stderr
    assert "..." in res.stdout + res.stderr
    assert len(res.stdout) + len(res.stderr) < 10_000


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_check_rejects_bad_indices_and_names(runner, tmp_path, case):
    _, base, edit, message = case
    obj = base()
    message = message.format(n=len(obj["tables"]["nodes"]))
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


def test_a_fuzz_campaign_through_the_command_line_writes_nothing_to_stderr():
    # interned values die during and at the end of the campaign: their
    # entries' callbacks must write nothing to stderr
    res = _spacekam("fuzz", "--count", "200", "--seed", "0")
    assert res.returncode == 0 and res.stderr == ""
    assert res.stdout.startswith("count 200 ")


def test_fuzz_json(runner):
    res = runner.invoke(main, ["fuzz", "--count", "5", "--seed", "3", "--json"])
    obj = json.loads(res.output)
    assert obj["count"] == 5 and obj["failed"] == 0


# ---------------------------------------------------------------- failure output

def _break_first_premise(d):
    # the root's function premise types \x... with a non-empty arrow
    # source, so TLam2 rejects it whatever the mode
    bad = dataclasses.replace(d.premises[0], rule="TLam2")
    return dataclasses.replace(d, premises=(bad,) + d.premises[1:])


def test_verify_prints_each_failed_check_with_its_note_and_exits_1(runner, monkeypatch):
    monkeypatch.setattr(harness, "extract", lambda run: _break_first_premise(extract(run)))
    res = runner.invoke(main, ["verify", EXAMPLE_SRC])
    assert res.exit_code == 1, res.output
    lines = res.output.splitlines()
    assert "pass  kam_derivation" in lines
    why = "      InvalidDerivation: at 0: TLam2 assigns an arrow with an empty source"
    for name in ("space_weight", "time_weight"):
        i = lines.index(f"FAIL  {name}")
        assert lines[i + 1] == why
    i = lines.index("FAIL  space_derivation")
    assert not lines[i + 1].startswith("      ")  # a failed check with no note


def test_fuzz_prints_each_failing_seed_and_exits_1(runner, monkeypatch):
    real = harness.verify

    def flaky(t, fuel):
        if t == sk.random_closed_term(10, 25):
            raise RuntimeError("boom")
        return real(t, fuel)

    monkeypatch.setattr(harness, "verify", flaky)
    monkeypatch.setattr(harness, "extract", lambda run: _break_first_premise(extract(run)))
    # seed 9 is (\v0.v0) (..), whose function premise TLam2 rejects
    res = runner.invoke(main, ["fuzz", "--count", "2", "--seed", "9"])
    assert res.exit_code == 1, res.output
    lines = res.output.splitlines()
    assert lines[0] == "count 2  complete 1  incomplete 0  failed 2"
    assert lines[1] == f"seed 9: {sk.print_term(sk.random_closed_term(9, 25))}"
    assert lines[2].startswith("  failed: space_derivation, space_weight, ")
    assert "  space_weight: InvalidDerivation: at 0: TLam2 assigns an arrow with an empty source" in lines
    assert lines[-2:] == [f"seed 10: {sk.print_term(sk.random_closed_term(10, 25))}", "  error: RuntimeError: boom"]
