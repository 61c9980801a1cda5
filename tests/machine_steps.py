"""One transition on a machine state, for tests that step by hand; the
linked environments and stacks of hand-built states, from and to
sequences; and trace rows read back by hand."""

import json

from spacekam.kam import Closure, MachState
from spacekam.terms import term_entry


def step(fire, s: MachState):
    """fire (kam_fire or skam_fire) on s's fields, as (label, next
    state), or None when s is final.  A state holds its env and stack
    as the linked cells the fire functions take and return."""
    nxt = fire(s.code, s.env, s.stack)
    if nxt is None:
        return None
    label, code, env, stack = nxt
    return label, MachState(code, env, stack)


def env_cells(pairs):
    """(name, closure) pairs, most recent binding first, as a linked
    environment."""
    e = ()
    for x, c in reversed(pairs):
        e = (x, c, e)
    return e


def stack_cells(closures):
    """Closures, top first, as a linked stack."""
    k = ()
    for c in reversed(closures):
        k = (c, k)
    return k


def stack_tuple(k) -> tuple:
    """A linked stack's closures, top first."""
    out = []
    while k:
        out.append(k[0])
        k = k[1]
    return tuple(out)


def read_trace(lines):
    """The JSON lines of run_trace_rows, read back by hand: each table
    entry must come in index order and name only entries before it.
    Returns the decoded terms and closures tables and one (row, state)
    pair per state row; a closures entry decodes to a closure, an env
    cell, a stack cell or the empty chain ()."""
    tables = {"terms": [], "closures": []}
    terms, closures = tables["terms"], tables["closures"]
    states = []

    def at(table, i):
        assert type(i) is int and 0 <= i < len(table)  # written before its first use
        return table[i]

    for line in lines:
        row = json.loads(line)
        name = next((t for t in tables if t in row), None)
        if name is None:
            env, stack = at(closures, row["env"]), at(closures, row["stack"])
            states.append((row, MachState(at(terms, row["code"]), env, stack)))
            continue
        assert row[name] == len(tables[name])  # each index once, in order
        e = {k: v for k, v in row.items() if k != name}
        if name == "terms":
            terms.append(term_entry(e, terms))
        elif e.keys() == {"code", "env"}:
            closures.append(Closure(at(terms, e["code"]), at(closures, e["env"])))
        elif e.keys() == {"name", "closure", "rest"}:
            closures.append((e["name"], at(closures, e["closure"]), at(closures, e["rest"])))
        elif e.keys() == {"top", "rest"}:
            closures.append((at(closures, e["top"]), at(closures, e["rest"])))
        else:
            assert e == {}
            closures.append(())
    return terms, closures, states
