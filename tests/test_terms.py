import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import families
import spacekam as sk
from spacekam.harness import random_closed_term
from spacekam.terms import (
    Abs,
    App,
    ParseError,
    Var,
    all_vars,
    alpha_eq,
    is_name,
    parse_term,
    print_term,
    subst,
    term_size,
    whnf_eval,
    whnf_step,
)


# ---------------------------------------------------------------- parsing

def test_parse_var():
    assert parse_term("x") == Var("x")


def test_parse_application_left_assoc():
    t = parse_term("x y z")
    assert t == App(App(Var("x"), Var("y")), Var("z"))


def test_parse_abstraction_body_extends_right():
    t = parse_term(r"\x.x y")
    assert t == Abs("x", App(Var("x"), Var("y")))


def test_parse_lambda_unicode_and_backslash_agree():
    assert parse_term("λx.x") == parse_term(r"\x.x")


def test_parse_nested_parens():
    t = parse_term(r"((\x.x)) ((y))")
    assert t == App(Abs("x", Var("x")), Var("y"))


def test_parse_identifier_charset():
    t = parse_term(r"\x'.x' f_1")
    assert t == Abs("x'", App(Var("x'"), Var("f_1")))


def test_identifiers_may_start_with_a_digit():
    t = parse_term(r"\2x.2x")
    assert t == Abs("2x", Var("2x"))
    assert print_term(t) == r"\2x.2x"
    assert is_name("2x")


def test_parse_comments_to_eol():
    src = "x y -- applied pair\n z"
    assert parse_term(src) == App(App(Var("x"), Var("y")), Var("z"))


def test_parse_trailing_lambda_argument():
    # a trailing unparenthesized abstraction parses as the last argument
    t = parse_term(r"x \y.y")
    assert t == App(Var("x"), Abs("y", Var("y")))


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as exc:
        parse_term("x )")
    assert exc.value.offset == 2


def test_parse_error_empty_input():
    with pytest.raises(ParseError):
        parse_term("   -- nothing here")


def test_parse_error_missing_dot():
    with pytest.raises(ParseError):
        parse_term(r"\x x")


def test_parse_error_unclosed_paren():
    with pytest.raises(ParseError):
        parse_term("(x y")


def test_parse_error_bad_character():
    with pytest.raises(ParseError) as exc:
        parse_term("x + y")
    assert exc.value.offset == 2


@pytest.mark.parametrize(
    "text, message, offset",
    [
        # offsets count bytes: 'λ' and 'é' take 2 each
        ("x + y", "unexpected character '+'", 2),
        ("λx.x $", "unexpected character '$'", 6),
        ("é", "unexpected character 'é'", 0),
        ("-- é\n x +", "unexpected character '+'", 9),
        # a character no token takes is the error wherever it stands
        (") +", "unexpected character '+'", 2),
        ("x ) +", "unexpected character '+'", 4),
        ("λé.x", "unexpected character 'é'", 2),
        ("(é.x", "unexpected character 'é'", 1),
        ("\\", "expected a binder after the lambda", 1),
        ("λ.x", "expected a binder after the lambda", 2),
        ("\\(x", "expected a binder after the lambda", 1),
        ("\\x x", "expected '.' after the binder", 3),
        ("λx", "expected '.' after the binder", 3),
        ("\\x\\y", "expected '.' after the binder", 2),
        ("λx -- é\n y", "expected '.' after the binder", 11),
        ("", "expected a term, found end of input", 0),
        ("   -- nothing here", "expected a term, found end of input", 18),
        ("\\x.", "expected a term, found end of input", 3),
        ("(", "expected a term, found end of input", 1),
        ("λx.-- é\n", "expected a term, found end of input", 10),
        (".", "unexpected '.'", 0),
        ("x (.", "unexpected '.'", 3),
        ("()", "unexpected ')'", 1),
        ("λx.)", "unexpected ')'", 4),
        ("x )", "unexpected ')' after the term", 2),
        ("x .", "unexpected '.' after the term", 2),
        ("λx.x )", "unexpected ')' after the term", 6),
        ("x -- é\n )", "unexpected ')' after the term", 9),
        ("(x) y)", "unexpected ')' after the term", 5),
        ("(x y", "expected ')'", 4),
        ("(x .", "expected ')'", 3),
        ("(λx.x", "expected ')'", 6),
        ("((x)", "expected ')'", 4),
    ],
)
def test_parse_error_message_and_byte_offset(text, message, offset):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert (exc.value.message, exc.value.offset) == (message, offset)
    assert str(exc.value) == f"{message} at byte offset {offset}"


@pytest.mark.parametrize(
    "text, message, offset",
    [
        # each escaped byte (surrogateescape, as sys.argv decodes) is one
        # byte typed; another lone surrogate counts as 3
        ("x -- \udcff\n )", "unexpected ')' after the term", 8),
        ("x -- \udc80\udcff\n )", "unexpected ')' after the term", 9),
        ("x -- \ud800\n )", "unexpected ')' after the term", 10),
        ("x -- \udfff\udcff\n )", "unexpected ')' after the term", 11),
        ("x \ud800", "unexpected character '\\ud800'", 2),
    ],
)
def test_parse_error_offsets_count_the_bytes_typed(text, message, offset):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert (exc.value.message, exc.value.offset) == (message, offset)


def test_parse_a_20000_deep_lambda_chain_and_print_it_back():
    # twenty times the default recursion limit
    text = "".join(rf"\x{i}." for i in range(20_000)) + "x0"
    t = parse_term(text)
    assert print_term(t) == text
    assert term_size(t) == 20_001 and not t.fv


def test_parse_20000_nested_applications_share_one_var_per_name():
    text = "f (" * 19_999 + "f x" + ")" * 19_999
    t = parse_term(text)
    assert print_term(t) == text and parse_term(print_term(t)) is t
    fs = set()
    while type(t) is App:
        fs.add(id(t.fun))
        t = t.arg
    assert t == Var("x") and len(fs) == 1


def test_parse_errors_inside_20000_parentheses():
    with pytest.raises(ParseError) as exc:
        parse_term("(" * 20_000 + "x")
    assert (exc.value.message, exc.value.offset) == ("expected ')'", 20_001)
    with pytest.raises(ParseError) as exc:
        parse_term("(" * 20_000 + ")")
    assert (exc.value.message, exc.value.offset) == ("unexpected ')'", 20_000)


# ---------------------------------------------------------------- interning and depth

def test_equal_terms_are_one_object_also_through_copy_and_pickle():
    s = r"(\x.(\y.(\z.x) (x y)) x) (\a.a)"
    t = parse_term(s)
    assert parse_term(s) is t and Abs("a", Var("a")) is t.arg
    assert parse_term(r"\a.b") is not parse_term(r"\b.b")  # == is name-sensitive
    for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert other is t


def test_threads_racing_to_build_equal_terms_get_one_object():
    # the table is shared by every thread; a constructor that finds no
    # entry enters its term through setdefault, which keeps the entry of
    # a thread that came first
    def build(out):
        t = Var("race_x")
        for i in range(300):
            t = App(Abs(f"race_{i}", t), Var(f"race_{i}"))
        out.append(t)

    out = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads) and len(out) == 8
    assert all(t is out[0] for t in out)


def _depth(t):
    deepest, work = 0, [(t, 1)]
    while work:
        x, d = work.pop()
        deepest = max(deepest, d)
        work += [(c, d + 1) for c in (getattr(x, f, None) for f in ("body", "fun", "arg")) if c]
    return deepest


def test_eq_and_hash_of_a_fuzz_read_back_931_deep():
    assert sys.getrecursionlimit() <= 10_000  # the default, not raised for this test
    t = sk.decode(sk.skam_run(sk.compile(sk.random_closed_term(50, 25)), 2000).last)
    assert _depth(t) == 931
    back = parse_term(print_term(t))
    assert back == t and hash(back) == hash(t)


def test_eq_hash_repr_of_a_20000_deep_term():
    assert sys.getrecursionlimit() <= 10_000
    t = parse_term("f (" * 19_999 + "f x" + ")" * 19_999)
    u = Var("x")
    for _ in range(20_000):
        u = App(Var("f"), u)
    assert t == u and hash(t) == hash(u) and _depth(t) == 20_001
    assert t != App(Var("f"), u)
    assert repr(t) == "App(fun=Var(name='f'), arg=" * 20_000 + "Var(name='x')" + ")" * 20_000


def test_copy_and_deepcopy_of_a_20000_deep_term_are_the_term():
    assert sys.getrecursionlimit() <= 10_000
    t = parse_term("f (" * 19_999 + "f x" + ")" * 19_999)
    assert copy.copy(t) is t and copy.deepcopy(t) is t
    d = copy.deepcopy([t, (t,)])
    assert d[0] is t and d[1][0] is t


def test_pickle_of_20000_deep_terms_gives_the_interned_term():
    assert sys.getrecursionlimit() <= 10_000
    for t in (
        parse_term("f (" * 19_999 + "f x" + ")" * 19_999),
        parse_term("".join(rf"\x{i}." for i in range(20_000)) + "x0"),
    ):
        assert pickle.loads(pickle.dumps(t)) is t


# ---------------------------------------------------------------- printing

def test_print_atoms_unparenthesized():
    assert print_term(parse_term("x y z")) == "x y z"


def test_print_abs_in_function_position_parenthesized():
    assert print_term(App(Abs("x", Var("x")), Var("y"))) == r"(\x.x) y"


def test_print_app_in_argument_position_parenthesized():
    assert print_term(App(Var("f"), App(Var("x"), Var("y")))) == "f (x y)"


def test_print_body_not_parenthesized():
    assert print_term(Abs("x", App(Var("x"), Var("x")))) == r"\x.x x"


def test_print_roundtrip_example():
    src = r"(\x.(\y.(\z.x) (x y)) x) (\a.a)"
    t = parse_term(src)
    assert print_term(t) == src
    assert parse_term(print_term(t)) == t


# ---------------------------------------------------------------- variables

def test_free_vars():
    t = parse_term(r"\x.x y (\y.y z)")
    assert t.fv == {"y", "z"}


def test_free_vars_closed():
    assert parse_term(r"\x.\y.x").fv == set()


def test_stored_fv_takes_no_part_in_equality_hash_or_repr():
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(parse_term(r"\x.x y")) == (
        "Abs(binder='x', body=App(fun=Var(name='x'), arg=Var(name='y')))"
    )
    # terms are interned, so == and hash are identity and cannot read
    # fv; writing fv onto a shared term would change it for every user
    t = parse_term(r"\x.x y")
    assert t.fv == {"y"} and t.body.fv == {"x", "y"}
    assert t == Abs("x", App(Var("x"), Var("y"))) and hash(t) == object.__hash__(t)
    with pytest.raises(AttributeError):
        t.fv = frozenset()
    assert t.fv == {"y"}


def test_all_vars_includes_binders():
    t = parse_term(r"\x.y")
    assert all_vars(t) == {"x", "y"}


def test_term_size():
    assert term_size(parse_term("x")) == 1
    assert term_size(parse_term(r"\x.x x")) == 4


# ---------------------------------------------------------------- substitution

def test_subst_simple():
    t = subst(parse_term("x y"), "x", parse_term(r"\z.z"))
    assert t == parse_term(r"(\z.z) y")


def test_subst_shadowed_binder_untouched():
    t = subst(parse_term(r"\x.x"), "x", Var("y"))
    assert t == parse_term(r"\x.x")


def test_subst_capture_avoided():
    # substituting y under \y must rename the binder
    t = subst(parse_term(r"\y.x y"), "x", Var("y"))
    assert isinstance(t, Abs)
    assert t.binder != "y"
    assert t.body == App(Var("y"), Var(t.binder))


def test_subst_no_occurrence_identity():
    t = parse_term(r"\a.a b")
    assert subst(t, "zz", Var("q")) == t


# ---------------------------------------------------------------- whnf

def test_whnf_step_head_redex():
    t = parse_term(r"(\x.x x) (\y.y)")
    s = whnf_step(t)
    assert s == parse_term(r"(\y.y) (\y.y)")


def test_whnf_step_under_application_spine():
    t = parse_term(r"(\x.x) (\y.y) z")
    s = whnf_step(t)
    assert s == parse_term(r"(\y.y) z")


def test_whnf_step_none_on_normal_forms():
    assert whnf_step(parse_term(r"\x.x")) is None
    assert whnf_step(parse_term("x y")) is None  # head is free, no redex


def test_whnf_eval_example_three_steps(example_term):
    r = whnf_eval(example_term, 10)
    assert r.steps == 3
    assert not r.exhausted
    assert alpha_eq(r.result, parse_term(r"\a.a"))


def test_whnf_eval_exact_fuel_not_exhausted(example_term):
    r = whnf_eval(example_term, 3)
    assert r.steps == 3 and not r.exhausted


def test_whnf_eval_exhausted_on_omega():
    r = whnf_eval(parse_term(r"(\x.x x) (\x.x x)"), 25)
    assert r.steps == 25 and r.exhausted


def _whnf_steps(t, fuel):
    """t, then each term iterated whnf_step reaches, for at most fuel
    steps."""
    seq = [t]
    while len(seq) <= fuel and (nxt := whnf_step(seq[-1])) is not None:
        seq.append(nxt)
    return seq


def test_whnf_eval_is_iterated_whnf_step():
    # the oracle keeps the spine and rebuilds the term once; iterating
    # whnf_step rebuilds it at every step.  Both give the one interned
    # result (is), the same steps and the same exhausted, at fuel 0, at
    # the exact step count and one less (for a run that does not end
    # within 1,000 steps, at 1,000 and 999; every other run here ends
    # within 1,000)
    terms = [random_closed_term(seed, 25) for seed in range(1000)]
    terms += [parse_term(src) for src in (
        families.church_app(512), families.pow2(8), families.wide_app(1000), families.let_chain(500))]
    for t in terms:
        seq = _whnf_steps(t, 1000)
        k = len(seq) - 1
        normal = whnf_step(seq[k]) is None
        for fuel in {0, max(k - 1, 0), k}:
            r = whnf_eval(t, fuel)
            assert r.result is seq[fuel], (print_term(t), fuel)
            assert (r.steps, r.exhausted) == (fuel, fuel < k or not normal), (print_term(t), fuel)


# ---------------------------------------------------------------- alpha

def test_alpha_eq_basic():
    assert alpha_eq(parse_term(r"\x.x"), parse_term(r"\y.y"))
    assert not alpha_eq(parse_term(r"\x.x"), parse_term(r"\x.\y.x"))


def test_alpha_eq_free_vars_by_name():
    assert alpha_eq(parse_term(r"\x.x y"), parse_term(r"\z.z y"))
    assert not alpha_eq(parse_term(r"\x.x y"), parse_term(r"\x.x z"))


def test_alpha_eq_shadowing():
    assert alpha_eq(parse_term(r"\x.\x.x"), parse_term(r"\a.\b.b"))
    assert not alpha_eq(parse_term(r"\x.\x.x"), parse_term(r"\a.\b.a"))


def test_alpha_eq_of_one_shared_subterm_reads_its_free_variables_levels():
    # terms are hash-consed: the inner x of \x.\y.x and of \y.\x.x is
    # one Var, bound at level 1 on one side and at level 2 on the other
    t, u = parse_term(r"\x.\y.x"), parse_term(r"\y.\x.x")
    assert t.body.body is u.body.body
    assert not alpha_eq(t, u) and not alpha_eq(u, t)
    # x y is one App: bound on one side and free on the other, or bound
    # alike, or free on both
    assert not alpha_eq(parse_term(r"\x.x y"), parse_term(r"\y.x y"))
    assert alpha_eq(parse_term(r"\x.\y.\z.x y"), parse_term(r"\x.\y.\w.x y"))
    assert alpha_eq(parse_term(r"\a.x y"), parse_term(r"\b.x y"))


def test_alpha_eq_of_identical_terms_20000_deep():
    assert sys.getrecursionlimit() <= 10_000
    binders = "".join(rf"\x{i}." for i in range(20_000)) + "x0"
    spine = "f (" * 19_999 + "f x" + ")" * 19_999
    for text in (binders, spine):
        t, u = parse_term(text), parse_term(text)
        assert t is u and alpha_eq(t, u)
    renamed = parse_term("".join(rf"\y{i}." for i in range(20_000)) + "y0")
    assert alpha_eq(parse_term(binders), renamed)


# ---------------------------------------------------------------- properties

names = st.sampled_from(["a", "b", "c", "f", "x", "y", "z"])


def terms(depth=4):
    base = st.builds(Var, names)
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.builds(Abs, names, sub),
            st.builds(App, sub, sub),
        ),
        max_leaves=25,
    )


@given(terms())
@settings(max_examples=200)
def test_print_parse_roundtrip(t):
    assert parse_term(print_term(t)) == t


def reference_free_vars(t):
    """fv(t) by a walk that carries the names bound above each node."""
    free = set()
    work = [(t, frozenset())]
    while work:
        x, bound = work.pop()
        if type(x) is Var:
            if x.name not in bound:
                free.add(x.name)
        elif type(x) is App:
            work += [(x.fun, bound), (x.arg, bound)]
        else:
            work.append((x.body, bound | {x.binder}))
    return free


@given(terms(), names, terms())
@settings(max_examples=200)
def test_stored_fv_matches_the_reference_walk(t, x, u):
    built = [t, parse_term(print_term(t)), subst(t, x, u)]
    built += [r for r in (whnf_step(t), whnf_step(App(t, u))) if r is not None]
    for root in built:
        work = [root]
        while work:
            node = work.pop()
            assert node.fv == reference_free_vars(node)
            if type(node) is App:
                work += [node.fun, node.arg]
            elif type(node) is Abs:
                work.append(node.body)


@given(terms(), names, terms())
@settings(max_examples=200)
def test_subst_free_vars_law(t, x, u):
    got = subst(t, x, u).fv
    fv = t.fv
    expected = (fv - {x}) | (u.fv if x in fv else set())
    assert got == expected


@given(terms(), names, terms())
@settings(max_examples=200)
def test_subst_identity_when_not_free(t, x, u):
    if x not in t.fv:
        assert subst(t, x, u) == t


@given(terms(), terms())
@settings(max_examples=200)
def test_alpha_eq_symmetric(t, u):
    assert alpha_eq(t, u) == alpha_eq(u, t)


@given(terms())
@settings(max_examples=200)
def test_alpha_eq_reflexive(t):
    assert alpha_eq(t, t)


@given(st.integers(0, 2**30))
@settings(max_examples=100)
def test_random_closed_term_is_closed_and_bounded(seed):
    t = sk.random_closed_term(seed, 25)
    assert t.fv == set()
    assert term_size(t) <= 25
