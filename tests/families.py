"""The term families the scaling tests grow, as source text of closed
terms: c_n applied to two identities grows the code with the run, 2^k
as (c_k) (c_2) applied to two identities grows the run alone, wide_app
grows the machines' stack and the rewriting spine, and the let chain
nests closures."""


def church(n):
    """The Church numeral c_n."""
    return r"(\f.\x." + "f (" * n + "x" + ")" * n + ")"


def church_app(n):
    """(c_n) (\\a.a) (\\b.b)."""
    return church(n) + r" (\a.a) (\b.b)"


def pow2(k):
    """(c_k) (c_2) (\\a.a) (\\b.b), which computes 2^k."""
    return church(k) + " " + church(2) + r" (\a.a) (\b.b)"


def wide_app(n):
    """(\\x0.\\x1. ... \\x(n-1). x0) applied to n copies of \\a.a: the n
    arguments wait on the stack, or on the spine, all at once."""
    return "(" + "".join(rf"\x{i}." for i in range(n)) + "x0)" + r" (\a.a)" * n


def let_chain(n):
    """(\\x0. (\\x1. ... (\\xn. \\z. xn) (\\w. x(n-1)) ...) (\\w. x0)) (\\a.a):
    each x(i+1) is bound to a closure over x(i), so closures nest n deep."""
    body = rf"\z. x{n}"
    for i in range(n, 0, -1):
        body = rf"(\x{i}. {body}) (\w. x{i - 1})"
    return rf"(\x0. {body}) (\a.a)"
