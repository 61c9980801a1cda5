import sys

from spacekam.hashcons import postorder


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
