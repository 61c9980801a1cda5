"""No function in the core modules calls itself by name.

Terms, closures, types and derivations nest as deep as a run makes
them, and every walk over them keeps an explicit stack: a function that
recursed once per level would fail on deep inputs at the interpreter's
default recursion limit.  This guard reads the sources, so a new
self-call fails here before any deep input finds it.
"""

import ast
import importlib

import pytest

MODULES = ("terms", "kam", "space_kam", "types", "checker", "extractor", "hashcons")


def _self_calls(tree: ast.AST) -> list:
    """(function name, line) for each call of a function by its own name
    inside its body: f(...) in def f, or self.f(...) / cls.f(...) in a
    method f."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                found.append((fn.name, node.lineno))
            elif (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                found.append((fn.name, node.lineno))
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_function_calls_itself(name):
    mod = importlib.import_module(f"spacekam.{name}")
    with open(mod.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read(), mod.__file__)
    assert _self_calls(tree) == []


def test_the_guard_sees_self_calls():
    tree = ast.parse(
        "def f(n):\n"
        "    return f(n - 1) if n else 0\n"
        "class C:\n"
        "    def g(self, n):\n"
        "        return self.g(n - 1)\n"
        "    def h(self, d):\n"
        "        return d.h()\n"  # another object's h: not a self-call
    )
    assert _self_calls(tree) == [("f", 2), ("g", 5)]
