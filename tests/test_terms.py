import copy
import gc
import pickle
import random
import weakref

import pytest

from ctrskit import terms
from ctrskit.mctxt import HOLE, MFun
from ctrskit.terms import (
    Fun,
    PositionError,
    Subst,
    Symbol,
    Var,
    apply_subst,
    compose,
    function_positions,
    ground_terms,
    is_constructor_term,
    is_ground,
    is_linear,
    match,
    render_term,
    replace_at,
    subterm_at,
    term_size,
    vars_of,
)

from conftest import A, B, F, G, SIG5, X, Y, Z, random_position, random_subst, random_term

a = Fun(A)
b = Fun(B)


def f(l, r):
    return Fun(F, (l, r))


def g(t):
    return Fun(G, (t,))


def test_fun_arity_enforced():
    with pytest.raises(ValueError):
        Fun(G, (a, b))
    with pytest.raises(ValueError):
        Fun(A, (a,))


def test_vars_of():
    assert vars_of(X) == {X}
    assert vars_of(f(X, a)) == {X}
    assert vars_of(f(X, X)) == {X}
    assert vars_of(f(X, g(Y))) == {X, Y}


def test_is_linear():
    assert is_linear(f(Y, Z))
    assert not is_linear(f(X, X))
    assert is_linear(a)


def test_subterm_at():
    t = f(g(a), b)
    assert subterm_at(t, (1, 1)) == a
    assert subterm_at(t, ()) == t
    with pytest.raises(PositionError):
        subterm_at(g(X), (2,))
    with pytest.raises(PositionError):
        subterm_at(g(X), (1, 1))  # traverses the variable


def test_replace_at():
    assert replace_at(f(a, b), (1,), g(a)) == f(g(a), b)
    assert replace_at(f(a, b), (), a) == a
    with pytest.raises(PositionError):
        replace_at(g(a), (2,), a)


def test_function_positions():
    assert function_positions(f(X, a)) == [(), (2,)]
    assert function_positions(X) == []
    assert function_positions(g(g(X))) == [(), (1,)]


def test_apply_subst():
    assert apply_subst(f(X, Y), Subst({X: a})) == f(a, Y)
    ground = f(g(a), b)
    assert apply_subst(ground, Subst({X: a})) == ground
    assert apply_subst(X, Subst()) == X


def test_apply_subst_is_simultaneous():
    # z is replaced everywhere in one pass, not chased through y's image
    zero = Fun(Symbol("0", 0))
    s0 = Fun(Symbol("s", 1), (zero,))
    pair = Symbol("pair", 2)
    add = Symbol("add", 2)
    t = Fun(pair, (Z, Fun(add, (Y, Z))))
    sigma = Subst({X: zero, Y: zero, Z: s0})
    assert apply_subst(t, sigma) == Fun(pair, (s0, Fun(add, (zero, s0))))


def test_match():
    assert match(g(X), g(a)) == Subst({X: a})
    assert match(f(X, X), f(a, b)) is None
    assert match(f(X, X), f(a, a)) == Subst({X: a})
    assert match(a, b) is None
    assert match(a, X) is None


def test_compose():
    s1 = Subst({X: Y})
    s2 = Subst({Y: a})
    assert compose(s1, s2) == Subst({X: a, Y: a})
    ident = Subst()
    assert compose(ident, s2) == s2
    assert compose(s2, ident) == s2


def test_subst_drops_identity_bindings():
    assert Subst({X: X}) == Subst()
    assert not Subst({X: X})
    assert hash(Subst({X: a})) == hash(Subst({X: a}))


def test_is_ground_and_constructor():
    zero = Fun(Symbol("0", 0))
    s0 = Fun(Symbol("s", 1), (zero,))
    assert is_ground(s0)
    assert not is_ground(f(X, a))
    fib = Symbol("fib", 1)
    add = Symbol("add", 2)
    pair = Symbol("pair", 2)
    assert is_constructor_term(Fun(pair, (Y, Z)), {fib, add})
    assert not is_constructor_term(Fun(fib, (X,)), {fib, add})
    assert is_constructor_term(X, {fib, add})


def test_subterm_replace_roundtrips():
    rng = random.Random(101)
    for _ in range(300):
        t = random_term(rng, 4)
        p = random_position(rng, t)
        u = random_term(rng, 3)
        assert subterm_at(replace_at(t, p, u), p) == u
        assert replace_at(t, p, subterm_at(t, p)) == t


def test_apply_subst_distributes_over_fun():
    rng = random.Random(102)
    for _ in range(300):
        t = random_term(rng, 4)
        s = random_subst(rng)
        if isinstance(t, Fun):
            assert apply_subst(t, s) == Fun(t.symbol, tuple(apply_subst(x, s) for x in t.args))


def test_match_soundness_on_random_instances():
    rng = random.Random(103)
    hits = 0
    for _ in range(300):
        pattern = random_term(rng, 3)
        subject = apply_subst(pattern, random_subst(rng))
        s = match(pattern, subject)
        if s is not None:
            hits += 1
            assert apply_subst(pattern, s) == subject
            assert s.domain <= vars_of(pattern)
    assert hits > 200  # instances of linear patterns always match


def test_compose_contract_on_random_triples():
    rng = random.Random(104)
    for _ in range(300):
        t = random_term(rng, 4)
        s1 = random_subst(rng)
        s2 = random_subst(rng)
        assert apply_subst(t, compose(s1, s2)) == apply_subst(apply_subst(t, s1), s2)


def test_render_term():
    assert render_term(f(X, a)) == "f(x, a)"
    assert render_term(a) == "a"
    assert render_term(Var("x", 3)) == "x#3"


def test_ground_terms_enumeration():
    terms = ground_terms(SIG5, 3)
    assert all(is_ground(t) for t in terms)
    assert all(term_size(t) <= 3 for t in terms)
    assert len(terms) == len(set(terms))
    # counts per size must satisfy the obvious recurrence for this signature:
    # two constants, one unary symbol, two binary symbols
    n = {0: 0, 1: 2}
    n[2] = n[1]
    n[3] = n[2] + 2 * n[1] * n[1]
    assert len(terms) == n[1] + n[2] + n[3]


def test_ground_terms_fib_signature_count(fib):
    # independent recurrence: c(k) = [k == 1] + 2*c(k-1) + 2*sum c(i)c(k-1-i)
    c = {0: 0, 1: 1}
    for k in range(2, 7):
        c[k] = 2 * c[k - 1] + 2 * sum(c[i] * c[k - 1 - i] for i in range(1, k - 1))
    total = sum(c[k] for k in range(1, 7))
    assert len(ground_terms(fib.symbols, 6)) == total


def test_equal_terms_hash_alike_by_identity():
    rng = random.Random(5)
    for _ in range(100):
        t = random_term(rng, 4)
        if isinstance(t, Fun):
            assert Fun(t.symbol, t.args) is t
            assert hash(t) == hash(Fun(t.symbol, t.args)) == object.__hash__(t)


def tower(n):
    t = Fun(Symbol("0", 0))
    for _ in range(n):
        t = Fun(Symbol("s", 1), (t,))
    return t


def test_equal_terms_are_one_object():
    assert Fun(G, [a]) is Fun(G, (a,)) and Symbol("g", 1) is G and Var("x") is X
    assert Var("x", 0) is Var("x", 0) and Var("x", 0) is not X
    # built bottom-up and hashed by identity, so neither the build, nor ==,
    # nor the hash recurses on a term far deeper than the recursion limit
    t, u = tower(100000), tower(100000)
    assert t is u and t == u and hash(t) == hash(u)


def test_copies_and_pickles_are_the_interned_term():
    t = f(g(X), Fun(B))
    for x in (t, F, X, Var("y", 3)):
        assert pickle.loads(pickle.dumps(x)) is x
        assert copy.deepcopy(x) is x and copy.copy(x) is x
    with pytest.raises(AttributeError):
        t.args = ()


def test_fun_and_mfun_share_the_arity_check():
    with pytest.raises(ValueError) as by_fun:
        Fun(G, (a, b))
    with pytest.raises(ValueError) as by_mfun:
        MFun(G, (HOLE, HOLE))
    assert str(by_fun.value) == str(by_mfun.value) == (
        "symbol 'g' has arity 1, got 2 argument(s)"
    )


def test_the_tables_hold_no_term_alive():
    tables = (terms._SYMBOLS, terms._VARS, terms._FUNS)
    gc.collect()
    before = [len(table) for table in tables]
    t = Fun(Symbol("probe", 2), (Var("probe", 7), Fun(Symbol("leaf", 0))))
    assert [len(table) for table in tables] == [n + k for n, k in zip(before, (2, 1, 2))]
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None
    assert [len(table) for table in tables] == before
