import gc
import os
import subprocess
import sys

import spacekam
from spacekam.hashcons import TABLE, _Ref, postorder
from spacekam.terms import Abs, App, Var
from spacekam.types import STAR, Arrow, ClosureMulti


def _walk(roots, graph, done=None):
    """The values postorder yields over a dict of children lists, each
    marked done as it comes out."""
    done = set() if done is None else done
    out = []
    for x in postorder(roots, lambda x: graph.get(x, ()), done.__contains__):
        out.append(x)
        done.add(x)
    return out


def test_a_20000_deep_chain_comes_out_children_first():
    assert sys.getrecursionlimit() <= 10_000
    n = 20_000
    graph = {i: (i + 1,) for i in range(n)}
    assert _walk((0,), graph) == list(range(n, -1, -1))


def test_a_diamond_yields_its_shared_child_once():
    graph = {"a": ("b", "c"), "b": ("d",), "c": ("d",)}
    out = _walk(("a",), graph)
    assert sorted(out) == ["a", "b", "c", "d"]
    for x, kids in graph.items():
        assert all(out.index(k) < out.index(x) for k in kids)


def test_values_done_before_or_during_the_walk_are_not_yielded():
    graph = {"a": ("b", "c"), "b": ("d",), "c": ()}
    assert _walk(("a", "d"), graph, done={"d"}) == ["c", "b", "a"]
    done, out = set(), []
    for x in postorder(("a",), lambda x: graph.get(x, ()), done.__contains__):
        out.append(x)
        done.update((x, "b"))  # handling c handles b too
    assert out == ["c", "a"]


# ---------------------------------------------------------------- the intern table

def test_the_key_of_a_dead_value_leaves_the_table():
    # keys that hold no interned value, so they keep nothing alive
    keys = [(ClosureMulti, 89, ((STAR, 1),)), (Var, "gone")]
    values = [ClosureMulti((STAR,), 89), Var("gone")]
    assert [TABLE[k]() for k in keys] == values
    del values
    gc.collect()
    assert not any(k in TABLE for k in keys)


def test_a_late_callback_leaves_a_live_entry_in_place():
    key = (Abs, "late", Var("late"))
    assert key not in TABLE
    t = Abs("late", Var("late"))
    old = TABLE[key]
    del t  # old is dead, and its callback has taken its entry out
    assert old() is None and key not in TABLE
    t = Abs("late", Var("late"))
    old.gone()  # as if its callback ran only now, after the key was entered again
    assert TABLE[key]() is t


def test_a_dead_entry_whose_callback_has_not_run_is_replaced():
    key = (App, Var("stale"), Var("stale"))
    t = App(Var("stale"), Var("stale"))
    ref = _Ref(t, None)  # no callback: its entry stays after t dies
    ref.key = key
    TABLE[key] = ref
    del t
    assert ref() is None and TABLE[key] is ref
    t = App(Var("stale"), Var("stale"))
    assert TABLE[key]() is t and App(Var("stale"), Var("stale")) is t


def test_values_dying_at_and_before_interpreter_exit_write_nothing_to_stderr():
    # the callback finds the table and the remover through its defaults,
    # so values still alive when the interpreter exits die quietly too
    code = (
        "from spacekam import STAR, Abs, App, Arrow, ClosureMulti, Var\n"
        "kept = []\n"
        "for i in range(10_000):\n"
        "    t = App(Abs(f'x{i}', Var('y')), Var(f'z{i}'))\n"
        "    a = Arrow(ClosureMulti((STAR,) * (i % 5), i + 1), STAR)\n"
        "    if i % 2:\n"
        "        kept.append((t, a))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spacekam.__file__))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0 and res.stderr == ""
