"""Malformed derivation files for the decoder and the CLI: each case
edits one well-formed file and names the start of the error it must
raise.  A table entry is shared by every entry that refers to it, so an
edit appends entries and repoints, never rewrites a shared entry in
place: an edit to a node's subject or type appends a table entry, and
an edit to a node copies the node and the nodes above it to the end of
the node table (node_at)."""

import copy

import spacekam as sk
from spacekam.checker import R_CL, R_ENV, R_ST, Derivation, Judgment
from spacekam.types import EMPTY_CONTEXT, STAR

EXAMPLE_SRC = r"(\x.(\y.(\z.x) (x y)) x) (\a.a)"


def term_file() -> dict:
    """The space derivation of the README example: term judgments only."""
    run = sk.skam_run(sk.compile(sk.parse_term(EXAMPLE_SRC)), 100)
    return sk.derivation_to_json(sk.extract(run))


def state_file() -> dict:
    """State, environment and closure judgments over a state of the same
    run with a non-empty environment and stack.  Only decoding is
    tested: the rules are not meant to check."""
    run = sk.skam_run(sk.compile(sk.parse_term(EXAMPLE_SRC)), 100)
    s = run.trace[4][1]  # (\z.x | [x <- \a.a] | (x y, [y <- .., x <- ..]))
    assert s.env and s.stack and s.stack[0].env
    env = Derivation(R_ENV, Judgment("env", s.env, EMPTY_CONTEXT, EMPTY_CONTEXT, 0))
    cl = Derivation(R_CL, Judgment("closure", s.stack[0], EMPTY_CONTEXT, STAR, 0))
    return sk.derivation_to_json(
        Derivation(R_ST, Judgment("state", s, EMPTY_CONTEXT, STAR, 0), (env, cl))
    )


def _add(o, table, entry):
    o["tables"][table].append(entry)
    return len(o["tables"][table]) - 1


def node_at(o, path):
    """The node at premise path, copied to the end of the node table
    together with the nodes above it.  The copies form a new root, the
    last node, so an edit to the returned node reaches this one
    occurrence only.  The node comes first among the copies: its index
    is the number of nodes before the call."""
    nodes = o["tables"]["nodes"]
    chain = [len(nodes) - 1]
    for i in path:
        chain.append(nodes[chain[-1]]["premises"][i])
    first = len(nodes)
    for depth in range(len(path), -1, -1):
        n = copy.deepcopy(nodes[chain[depth]])
        if depth < len(path):
            n["premises"][path[depth]] = len(nodes) - 1
        nodes.append(n)
    return nodes[first]


def _set(path, key, value):
    """Set a judgment field of the node at path."""
    def edit(o):
        v = value(o) if callable(value) else value
        node_at(o, path)["judgment"][key] = v
    return edit


def _last(table, edit):
    def go(o):
        edit(o["tables"][table][-1], len(o["tables"][table]) - 1)
    return go


def _drop(key):
    def edit(o):
        del o[key]
    return edit


def _drop_table(key):
    def edit(o):
        del o["tables"][key]
    return edit


def _n(table):
    return lambda o: len(o["tables"][table])


# (id, base file, edit, regex the error message must match from its start;
# {n} stands for the index of the edited node, node_at's first copy)
CASES = [
    ("no-tables", term_file, _drop("tables"),
     r"root: derivation lacks \['tables'\]"),
    ("tables-lack-closures", term_file, _drop_table("closures"),
     r"root: tables lack \['closures'\]"),
    ("subject-bool", term_file, _set((), "subject", True),
     r"root: tables\.nodes\[{n}\]: index must be an integer, found True"),
    ("subject-negative", term_file, _set((), "subject", -1),
     r"root: tables\.nodes\[{n}\]: index -1 is outside \[0, \d+\)"),
    ("subject-past-end", term_file, _set((1, 0), "subject", _n("terms")),
     r"root: tables\.nodes\[{n}\]: index \d+ is outside \[0, \d+\)"),
    ("subject-string", term_file, _set((1, 0), "subject", r"\a.a"),
     r"root: tables\.nodes\[{n}\]: index must be an integer, found '\\\\a\.a'"),
    ("type-float", term_file, _set((0,), "type", 0.0),
     r"root: tables\.nodes\[{n}\]: index must be an integer, found 0\.0"),
    ("type-past-end", term_file, _set((0,), "type", _n("types")),
     r"root: tables\.nodes\[{n}\]: index \d+ is outside"),
    ("context-index-bool", term_file,
     _set((0, 0, 0, 0, 0, 0), "context", {"x": False}),
     r"root: tables\.nodes\[{n}\]: index must be an integer, found False"),
    ("context-name", term_file,
     _set((0, 0, 0, 0, 0, 0), "context", lambda o: {"x y": 1}),
     r"root: tables\.nodes\[{n}\]: not a variable name: 'x y'"),
    ("context-image-linear", term_file,
     _set((0, 0, 0, 0, 0, 0), "context", lambda o: {"x": o["tables"]["types"].index("*")}),
     r"root: tables\.nodes\[{n}\]: context image of x is not a multi type"),
    ("term-forward", term_file,
     lambda o: _add(o, "terms", {"app": [0, len(o["tables"]["terms"])]}),
     r"root: tables\.terms\[(\d+)\]: index \1 is outside \[0, \1\)"),
    ("term-negative", term_file,
     lambda o: _add(o, "terms", {"lam": "x", "body": -1}),
     r"root: tables\.terms\[\d+\]: index -1 is outside"),
    ("term-var-name", term_file, lambda o: _add(o, "terms", {"var": "x.y"}),
     r"root: tables\.terms\[\d+\]: not a variable name: 'x\.y'"),
    ("term-lam-name", term_file, lambda o: _add(o, "terms", {"lam": "", "body": 0}),
     r"root: tables\.terms\[\d+\]: not a variable name: ''"),
    ("term-var-int", term_file, lambda o: _add(o, "terms", {"var": 3}),
     r"root: tables\.terms\[\d+\]: not a variable name: 3"),
    ("term-app-arity", term_file, lambda o: _add(o, "terms", {"app": [0, 0, 0]}),
     r"root: tables\.terms\[\d+\]: not a term"),
    ("term-string", term_file, lambda o: _add(o, "terms", "x"),
     r"root: tables\.terms\[\d+\]: not a term"),
    ("type-forward", term_file,
     lambda o: _add(o, "types", {"multi": [[len(o["tables"]["types"]), 1]], "k": 1}),
     r"root: tables\.types\[(\d+)\]: index \1 is outside \[0, \1\)"),
    ("type-k-bool", term_file, lambda o: _add(o, "types", {"multi": [], "k": True}),
     r"root: tables\.types\[\d+\]: multi type index must be a positive integer"),
    ("type-count-zero", term_file, lambda o: _add(o, "types", {"multi": [[0, 0]], "k": 1}),
     r"root: tables\.types\[\d+\]: multi count must be a positive integer: 0$"),
    ("type-count-bool", term_file, lambda o: _add(o, "types", {"multi": [[0, True]], "k": 1}),
     r"root: tables\.types\[\d+\]: multi count must be a positive integer: True$"),
    ("type-count-negative", term_file, lambda o: _add(o, "types", {"multi": [[0, -2]]}),
     r"root: tables\.types\[\d+\]: multi count must be a positive integer: -2$"),
    ("type-pair-arity", term_file, lambda o: _add(o, "types", {"multi": [[0, 1, 1]], "k": 1}),
     r"root: tables\.types\[\d+\]: multi pairs are \[type, count\] lists, found \[0, 1, 1\]$"),
    ("type-pair-twice", term_file, lambda o: _add(o, "types", {"multi": [[0, 1], [0, 2]], "k": 1}),
     r"root: tables\.types\[\d+\]: multi lists type 0 twice$"),
    ("type-old-elems", term_file, lambda o: _add(o, "types", {"elems": [0], "k": 1}),
     r"root: tables\.types\[\d+\]: a multi lists \[type, count\] pairs under \"multi\"; "
     r"an \"elems\" list is an older format$"),
    ("closure-code", state_file,
     _last("closures", lambda e, i: e.update(code=-1)),
     r"root: tables\.closures\[\d+\]: index -1 is outside"),
    ("closure-self", state_file,
     _last("closures", lambda e, i: e["env"][0].__setitem__(1, i)),
     r"root: tables\.closures\[(\d+)\]: index \1 is outside \[0, \1\)"),
    ("closure-env-name", state_file,
     _last("closures", lambda e, i: e["env"][0].__setitem__(0, "λ")),
     r"root: tables\.closures\[\d+\]: not a variable name: 'λ'"),
    ("closure-keys", state_file,
     _last("closures", lambda e, i: e.update(stack=[])),
     r"root: tables\.closures\[\d+\]: closure must have code and env"),
    ("state-stack-bool", state_file,
     lambda o: node_at(o, ())["judgment"]["subject"].update(stack=[True]),
     r"root: tables\.nodes\[{n}\]: index must be an integer, found True"),
    ("state-env-past-end", state_file,
     lambda o: node_at(o, ())["judgment"]["subject"].update(env=[["x", len(o["tables"]["closures"])]]),
     r"root: tables\.nodes\[{n}\]: index \d+ is outside"),
    ("env-subject-name", state_file,
     lambda o: node_at(o, (0,))["judgment"]["subject"][0].__setitem__(0, "1 2"),
     r"root: tables\.nodes\[{n}\]: not a variable name: '1 2'"),
    ("closure-subject-negative", state_file, _set((1,), "subject", -1),
     r"root: tables\.nodes\[{n}\]: index -1 is outside"),
]

IDS = [c[0] for c in CASES]


# The mutations of acceptance 7: each edits the term file of the README
# example at one node and returns that node's premise path, where check
# must report its first error.  A table entry is shared by every entry
# that refers to it, so a mutation appends new entries (node_at for the
# node itself) and repoints only its own node.

P_TVAR = (0, 0, 0, 0, 0, 0)
P_TNONE = (0, 0, 0, 0, 1)
P_TMANY = (1,)
P_TLAMSTAR = (1, 0)
P_TLAM1_Y = (0, 0, 0)


def _type_at(o, i):
    return o["tables"]["types"][i]


def m_root_weight(o):
    node_at(o, ())["judgment"]["weight"] = 5
    return ()


def m_leaf_weight(o):
    node_at(o, P_TVAR)["judgment"]["weight"] = 2
    return P_TVAR


def m_leaf_subject(o):
    node_at(o, P_TVAR)["judgment"]["subject"] = _add(o, "terms", {"var": "y"})
    return P_TVAR


def m_context_key(o):
    j = node_at(o, P_TVAR)["judgment"]
    j["context"] = {"w": j["context"]["x"]}
    return P_TVAR


def m_none_index(o):
    j = node_at(o, P_TNONE)["judgment"]
    j["type"] = _add(o, "types", {**_type_at(o, j["type"]), "k": 2})
    return P_TNONE


def m_root_rule(o):
    node_at(o, ())["rule"] = "TApp2"
    return ()


def m_unknown_rule_weight(o):
    node_at(o, P_TLAMSTAR)["judgment"]["weight"] = 3
    return P_TLAMSTAR


def m_drop_many_premise(o):
    node_at(o, P_TMANY)["premises"] = []
    return P_TMANY


def m_lamstar_type(o):
    node_at(o, P_TLAMSTAR)["judgment"]["type"] = _add(o, "types", {"multi": [], "k": 1})
    return P_TLAMSTAR


def m_swap_root_premises(o):
    root = node_at(o, ())
    root["premises"] = root["premises"][::-1]
    return ()


def m_arrow_source(o):
    j = node_at(o, P_TLAM1_Y)["judgment"]
    arrow = _type_at(o, j["type"])
    arg = _add(o, "types", {**_type_at(o, arrow["arg"]), "k": 2})
    j["type"] = _add(o, "types", {"arg": arg, "res": arrow["res"]})
    return P_TLAM1_Y


def m_root_type(o):
    node_at(o, ())["judgment"]["type"] = _add(o, "types", {"multi": [], "k": 1})
    return ()


def m_many_index(o):
    j = node_at(o, P_TMANY)["judgment"]
    j["type"] = _add(o, "types", {**_type_at(o, j["type"]), "k": 2})
    return P_TMANY


def m_many_count(o):
    # one more copy of the first element of the TMany multi than its
    # premises give
    j = node_at(o, P_TMANY)["judgment"]
    t = _type_at(o, j["type"])
    pairs = [[i, n + (k == 0)] for k, (i, n) in enumerate(t["multi"])]
    j["type"] = _add(o, "types", {**t, "multi": pairs})
    return P_TMANY


MUTATIONS = [
    m_root_weight, m_leaf_weight, m_leaf_subject, m_context_key,
    m_none_index, m_root_rule, m_unknown_rule_weight,
    m_drop_many_premise, m_lamstar_type, m_swap_root_premises,
    m_arrow_source, m_root_type, m_many_index, m_many_count,
]
# the mutations that leave the tree's structure intact
WEIGHT_MUTATIONS = [m_root_weight, m_leaf_weight, m_unknown_rule_weight]
