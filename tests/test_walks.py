"""The iterative term walks against the recursive ones they replaced.

`nested_term_key` and `variant_walk` are the recursive definitions kept as
oracles: the flat preorder `term_key` must order terms exactly as the nested
key did, and the stack loop behind `is_term_variant` and `is_variant` must
give the verdict the recursive walk gave.  The depth test runs every
converted walk on a term far deeper than Python's recursion limit.
"""

import subprocess
import sys
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from ctrskit.ctrs import Condition, Rule, rule_terms
from ctrskit.terms import Fun, Subst, Var, apply_subst, positions, replace_at, term_key
from ctrskit.unify import is_term_variant, is_variant

from conftest import SIG5, X, Y, Z


def nested_term_key(t):
    if isinstance(t, Var):
        return (0, t.name, -1 if t.index is None else t.index)
    return (1, t.symbol.name, t.symbol.arity, tuple(nested_term_key(a) for a in t.args))


class NotVariant(Exception):
    pass


def variant_walk(a, b, fwd, bwd):
    if isinstance(a, Var) and isinstance(b, Var):
        if fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
            raise NotVariant
        return
    if isinstance(a, Fun) and isinstance(b, Fun) and a.symbol == b.symbol:
        for xa, xb in zip(a.args, b.args):
            variant_walk(xa, xb, fwd, bwd)
        return
    raise NotVariant


def reference_is_variant(pairs):
    fwd, bwd = {}, {}
    try:
        for a, b in pairs:
            variant_walk(a, b, fwd, bwd)
        return True
    except NotVariant:
        return False


# variables with and without an index, as parsing and renaming make them
VARS = (X, Y, Z, Var("x", 0), Var("x", 2), Var("y", 0))


def terms(max_leaves=8):
    leaves = st.sampled_from(VARS + tuple(Fun(s) for s in SIG5 if s.arity == 0))
    inner = [s for s in SIG5 if s.arity > 0]
    return st.recursive(
        leaves,
        lambda kids: st.sampled_from(inner).flatmap(
            lambda s: st.tuples(*[kids] * s.arity).map(lambda args: Fun(s, args))
        ),
        max_leaves=max_leaves,
    )


# a renaming of VARS: a permutation (injective) or any map (maybe not)
renamings = st.one_of(
    st.permutations(VARS),
    st.lists(st.sampled_from(VARS), min_size=len(VARS), max_size=len(VARS)),
).map(lambda image: Subst(dict(zip(VARS, image))))

# None, or a replacement term and where to put it
perturbations = st.none() | st.tuples(st.integers(min_value=0), terms(4))


def perturb(t, change):
    if change is None:
        return t
    seed, u = change
    ps = positions(t)
    return replace_at(t, ps[seed % len(ps)], u)


rules = st.builds(
    lambda lhs, rhs, conds: Rule(lhs, rhs, tuple(conds)),
    terms().filter(lambda t: isinstance(t, Fun)),
    terms(),
    st.lists(st.builds(Condition, terms(), terms()), max_size=2),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(terms(), max_size=12))
def test_flat_term_key_orders_as_the_nested_key(ts):
    assert sorted(ts, key=term_key) == sorted(ts, key=nested_term_key)
    for s, t in combinations(ts, 2):
        flat, nested = (term_key(s), term_key(t)), (nested_term_key(s), nested_term_key(t))
        assert (flat[0] < flat[1]) == (nested[0] < nested[1])
        assert (flat[0] == flat[1]) == (nested[0] == nested[1]) == (s == t)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(terms(), renamings, perturbations)
def test_term_variant_agrees_with_the_recursive_walk(t, ren, change):
    u = perturb(apply_subst(t, ren), change)
    assert is_term_variant(t, u) == reference_is_variant([(t, u)])
    assert is_term_variant(u, t) == reference_is_variant([(u, t)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rules, renamings, perturbations, st.integers(min_value=0), st.booleans())
def test_rule_variant_agrees_with_the_recursive_walk(rule, ren, change, where, drop):
    sides = [apply_subst(t, ren) for t in rule_terms(rule)]
    i = where % len(sides)
    sides[i] = perturb(sides[i], change)
    if isinstance(sides[0], Var):
        sides[0] = rule.lhs
    conds = [Condition(l, r) for l, r in zip(sides[2::2], sides[3::2])]
    other = Rule(sides[0], sides[1], tuple(conds[:-1] if drop else conds))
    expected = len(rule.conds) == len(other.conds) and reference_is_variant(
        zip(rule_terms(rule), rule_terms(other))
    )
    assert is_variant(rule, other) == expected


def test_walks_reach_below_the_recursion_limit():
    # a fresh interpreter, so the test runner's own frames do not count;
    # deep terms are built bottom-up and never compared with ==
    script = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "from ctrskit.terms import (Fun, Symbol, Var, function_positions,\n"
        "    is_constructor_term, is_ground, iter_vars, positions, term_key,\n"
        "    term_size, vars_of)\n"
        "from ctrskit.unify import is_term_variant, mgu\n"
        "N = 5000\n"
        "S = Symbol('s', 1)\n"
        "x, y = Var('x'), Var('y', 3)\n"
        "def tower(leaf):\n"
        "    t = leaf\n"
        "    for _ in range(N):\n"
        "        t = Fun(S, (t,))\n"
        "    return t\n"
        "t = tower(x)\n"
        "assert list(iter_vars(t)) == [x] and vars_of(t) == {x}\n"
        "assert not is_ground(t) and is_ground(tower(Fun(Symbol('0', 0))))\n"
        "assert is_constructor_term(t, {Symbol('f', 1)})\n"
        "assert not is_constructor_term(t, {S})\n"
        "assert term_size(t) == N + 1\n"
        "ps = positions(t)\n"
        "assert len(ps) == N + 1 and ps[-1] == (1,) * N\n"
        "del ps\n"
        "ps = function_positions(t)\n"
        "assert len(ps) == N and ps[-1] == (1,) * (N - 1)\n"
        "del ps\n"
        "assert term_key(t) == ((1, 's', 1),) * N + ((0, 'x', -1),)\n"
        "assert is_term_variant(t, tower(y)) and is_term_variant(tower(y), t)\n"
        "assert not is_term_variant(t, tower(Fun(Symbol('0', 0))))\n"
        "assert mgu(x, t) is None\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *sys.path], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
