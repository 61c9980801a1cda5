"""A mutation campaign over derivation files, with the machines as the
oracle.

Hypothesis draws a derivation file in one of the three modes, from a
fuzz seed's complete run, and applies one or two random edits to its
JSON: an integer moved, a string (a value or a key) replaced, or list
entries swapped, deleted or duplicated.  Whatever the edits make of the
file:

- derivation_from_json decodes it or raises ValueError;
- check returns a result and never raises;
- spacekam check exits 2, 1 or 0 as the decoder and check decide, with
  no traceback;
- when the check passes and the root types a closed term at * with an
  empty context, its weight is that term's run: skam_run's space or
  time, or kam_run's transitions.

Every edit kind of derivation_files is an example of its own."""

import json
import traceback
from functools import cache, partial

from click.testing import CliRunner
from derivation_files import CASES, MUTATIONS, state_file, term_file
from hypothesis import HealthCheck, example, given, settings, strategies as st

import spacekam as sk
from spacekam.checker import DC_RULES, KIND_TERM, MACHINE_RULES, check, derivation_from_json
from spacekam.cli import main
from spacekam.types import Star

FUEL = 2000
SEEDS = range(40)
MODES = ("space", "time", "kam")
KINDS = ("int", "str", "swap", "delete", "duplicate")
# an edit picks one of the four tables, then a place there, so the small
# tables of terms and closures are edited as often as the large one of
# nodes
REGIONS = ("types", "terms", "closures", "nodes")
# strings an edit may write besides those of the file itself
JUNK = ("term", "env", "closure", "state", "*", "x y", "", "multi", "k")

_RUNNER = CliRunner()
_BASES = {"term_file": term_file, "state_file": state_file}


def _derivation(mode, t):
    """The derivation infer writes for t in mode, or None when a run
    does not end within FUEL."""
    s = sk.compile(t)
    if mode == "kam":
        run = sk.kam_run(s, FUEL)
        return sk.extract_kam(run) if run.final_reached else None
    run = sk.skam_run(s, FUEL)
    if not run.final_reached:
        return None
    d = sk.extract(run)
    return sk.reweight(d, "time") if mode == "time" else d


@cache
def _text(mode, base):
    """The file of a fuzz seed's term in mode, or of a base file of
    derivation_files by name, as JSON text."""
    if base in _BASES:
        return json.dumps(_BASES[base]())
    d = _derivation(mode, sk.random_closed_term(base, 25))
    return None if d is None else json.dumps(sk.derivation_to_json(d))


FILES = [(mode, seed) for seed in SEEDS for mode in MODES if _text(mode, seed) is not None]


def _places(o):
    """Every int and str place of o as (container, key), every dict key
    as (dict, key, None), and every list, found without recursion."""
    ints, strs, lists = [], [], []
    work = [o]
    while work:
        x = work.pop()
        if type(x) is list:
            lists.append(x)
            items = enumerate(x)
        else:
            items = x.items()
            strs.extend((x, k, None) for k in x)
        for k, v in items:
            if type(v) is int:
                ints.append((x, k))
            elif type(v) is str:
                strs.append((x, k))
            elif type(v) in (list, dict):
                work.append(v)
    return ints, strs, lists


def _edit(region, kind, i, v, o):
    """Apply the edit kind to the i-th place of its sort (modulo their
    number) in the table region of o, or in the whole file when that
    table is empty or gone, with v choosing the change."""
    tables = o.get("tables")
    if type(tables) is dict and type(tables.get(region)) is list and tables[region]:
        o = tables[region]
    ints, strs, lists = _places(o)
    if kind == "int":
        if not ints:
            return
        x, k = ints[i % len(ints)]
        # by v, or with v 0 down to a smaller value: an index to an
        # earlier entry, which still decodes
        x[k] = x[k] + v if v else (i // len(ints)) % x[k] if x[k] > 0 else -1
    elif kind == "str":
        if not strs:
            return
        pool = sorted({s for x, k, *key in strs for s in ([k] if key else [x[k]])} | set(JUNK)
                      | MACHINE_RULES | DC_RULES)
        place = strs[i % len(strs)]
        new = pool[(i // len(strs) + v) % len(pool)]
        if len(place) == 3:  # a key
            x, k, _ = place
            x[new] = x.pop(k)
        else:
            x, k = place
            x[k] = new
    else:
        lists = [x for x in lists if len(x) >= (2 if kind == "swap" else 1)]
        if not lists:
            return
        x = lists[i % len(lists)]
        j = (i // len(lists)) % len(x)
        if kind == "swap":
            k = (j + 1 + v % (len(x) - 1)) % len(x)
            x[j], x[k] = x[k], x[j]
        elif kind == "delete":
            del x[j]
        else:
            x.insert(j, json.loads(json.dumps(x[j])))


EDITS = st.builds(
    partial,
    st.just(_edit),
    st.sampled_from(REGIONS),
    st.sampled_from(KINDS),
    st.integers(0, 2**16),
    st.integers(-3, 3),
)


def _oracle(mode, d):
    """The machine's measure of the root's term when the root types a
    closed term at * with an empty context, else None."""
    c = d.conclusion
    if c.subject_kind != KIND_TERM or type(c.assigned) is not Star or not c.context.is_empty():
        return None
    if c.subject.fv:
        return None
    run = (sk.kam_run if mode == "kam" else sk.skam_run)(sk.compile(c.subject), 100_000)
    assert run.final_reached
    return {"space": run.space, "time": run.time, "kam": run.transitions}[mode]


def _every_kind(test):
    """One example per edit of derivation_files, on its own base file."""
    for _, base, edit, _ in CASES:
        test = example(("space", base.__name__), [edit])(test)
    for m in MUTATIONS:
        test = example(("space", "term_file"), [m])(test)
    return test


@settings(max_examples=5000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FILES), st.lists(EDITS, min_size=1, max_size=2))
@_every_kind
def test_edited_files_decode_check_and_weigh_as_the_machines_measure(file, edits):
    mode, base = file
    obj = json.loads(_text(mode, base))
    for edit in edits:
        edit(obj)
    text = json.dumps(obj)
    cli = _RUNNER.invoke(main, ["check", "--mode", mode, "-"], input=text)
    assert cli.exception is None or isinstance(cli.exception, SystemExit), "".join(
        traceback.format_exception(cli.exception)
    )
    try:
        d = derivation_from_json(obj)
    except ValueError:
        assert cli.exit_code == 2, cli.output
        return
    res = check(d, mode)
    assert cli.exit_code == (0 if res.ok else 1), cli.output
    if res.ok:
        want = _oracle(mode, d)
        assert want is None or res.weight == want, (res.weight, want)
