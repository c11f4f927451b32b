"""The iterative term and context walks against the recursive ones they replaced.

`nested_term_key` and `variant_walk` are the recursive definitions kept as
oracles: the flat preorder `term_key` must order terms exactly as the nested
key did, and the stack loop behind `is_term_variant` and `is_variant` must
give the verdict the recursive walk gave.  The `rec_*` functions are the
recursive renderers, `replace_at` and context walks that `terms.fold` and
the stack loops replaced; each converted walk must give the same result, of
the same type, or raise the same exception with the same text.
`rec_apply_subst` and `rec_skeleton` are the recursive substitution and IF1
skeleton that `terms.fold` replaced: the fold must give equal terms and the
same hole numbering, and substitution must hand back every subterm it leaves
unchanged as the same object.  `rec_compositions` is the recursion that
`itertools.combinations` replaced behind `ground_terms`.  `eager_mgu` is the
unification loop that composed a binding into an idempotent substitution
each time it made one; `mgu`, which keeps triangular bindings and resolves
them once, must return the same substitution with its bindings in the same
order.  The depth test runs every converted walk on a term and a context far
deeper than Python's recursion limit.
"""

import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, count

from hypothesis import given, settings
from hypothesis import strategies as st

from ctrskit.analysis import _skeleton, conditional_overlaps
from ctrskit.ctrs import Condition, Ctrs, Rule, rule_terms
from ctrskit.mctxt import (
    HOLE,
    Hole,
    HoleCountError,
    MFun,
    MVar,
    NotAPrefixError,
    decompose,
    fill,
    fill_ctx,
    hole_count,
    leq,
    meet,
    of_term,
)
from ctrskit.terms import (
    Fun,
    PositionError,
    Subst,
    Var,
    _compositions,
    apply_subst,
    compose,
    is_linear,
    iter_vars,
    positioned_subterms,
    positions,
    render_term,
    replace_at,
    subterm_at,
    term_key,
    vars_of,
)
from ctrskit.unify import is_term_variant, is_variant, mgu

from conftest import SIG5, X, Y, Z, random_context, random_prefix, random_subst, random_term
from test_analysis import SIG as ANALYSIS_SIG
from test_analysis import rules as analysis_rules


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


def rec_render_term(t):
    if isinstance(t, Var):
        return str(t)
    if not t.args:
        return t.symbol.name
    return f"{t.symbol.name}({', '.join(rec_render_term(a) for a in t.args)})"


def rec_str(c):
    # MFun.__str__, which rendered its arguments through str
    if not isinstance(c, MFun):
        return str(c)
    if not c.args:
        return c.symbol.name
    return f"{c.symbol.name}({', '.join(rec_str(a) for a in c.args)})"


def rec_replace_at(t, p, u):
    if not p:
        return u
    if isinstance(t, Var):
        raise PositionError(f"position {list(p)} traverses variable {t}")
    i = p[0]
    if not 1 <= i <= len(t.args):
        raise PositionError(f"index {i} exceeds arity of {t.symbol.name}")
    args = list(t.args)
    args[i - 1] = rec_replace_at(args[i - 1], p[1:], u)
    return Fun(t.symbol, tuple(args))


def rec_hole_count(c):
    if isinstance(c, Hole):
        return 1
    if isinstance(c, MVar):
        return 0
    return sum(rec_hole_count(a) for a in c.args)


def rec_of_term(t):
    if isinstance(t, Var):
        return MVar(t)
    return MFun(t.symbol, tuple(rec_of_term(a) for a in t.args))


def rec_fill_walk(c, it):
    if isinstance(c, Hole):
        return next(it)
    if isinstance(c, MVar):
        return c.var
    return Fun(c.symbol, tuple(rec_fill_walk(a, it) for a in c.args))


def rec_fill(c, ts):
    ts = tuple(ts)
    n = rec_hole_count(c)
    if len(ts) != n:
        raise HoleCountError(f"context has {n} hole(s), got {len(ts)} term(s)")
    return rec_fill_walk(c, iter(ts))


def rec_fill_ctx_walk(c, it):
    if isinstance(c, Hole):
        return next(it)
    if isinstance(c, MVar):
        return c
    return MFun(c.symbol, tuple(rec_fill_ctx_walk(a, it) for a in c.args))


def rec_fill_ctx(c, cs):
    cs = tuple(cs)
    n = rec_hole_count(c)
    if len(cs) != n:
        raise HoleCountError(f"context has {n} hole(s), got {len(cs)} context(s)")
    return rec_fill_ctx_walk(c, iter(cs))


def rec_leq(c, d):
    if isinstance(c, Hole):
        return True
    if isinstance(c, MVar):
        return c == d
    return (
        isinstance(d, MFun)
        and d.symbol == c.symbol
        and all(rec_leq(ca, da) for ca, da in zip(c.args, d.args))
    )


def rec_meet(c, d):
    if isinstance(c, Hole) or isinstance(d, Hole):
        return HOLE
    if isinstance(c, MVar):
        return c if c == d else HOLE
    if isinstance(d, MFun) and d.symbol == c.symbol:
        return MFun(c.symbol, tuple(rec_meet(ca, da) for ca, da in zip(c.args, d.args)))
    return HOLE


def rec_decompose(c, e):
    out = []

    def walk(ci, ei):
        if isinstance(ei, Hole):
            out.append(ci)
            return
        if isinstance(ei, MVar):
            if ci == ei:
                return
            raise NotAPrefixError(f"{ei} is not a prefix of {ci}")
        if isinstance(ci, MFun) and ci.symbol == ei.symbol:
            for ca, ea in zip(ci.args, ei.args):
                walk(ca, ea)
            return
        raise NotAPrefixError(f"{ei} is not a prefix of {ci}")

    walk(c, e)
    return out


def outcome(f, *args):
    """A result with its type, or an exception's type and text."""
    try:
        result = f(*args)
    except (PositionError, HoleCountError, NotAPrefixError) as e:
        return "raised", type(e), str(e)
    return "returned", type(result), result


def assert_same(new, old, *args):
    assert outcome(new, *args) == outcome(old, *args), (new.__name__, args)


def mutate(rng, c, p=0.2):
    """c with some subcontexts swapped for random ones, maybe in several places."""
    if rng.random() < p:
        return random_context(rng, 2, variables=VARS)
    if isinstance(c, MFun) and c.args:
        return MFun(c.symbol, tuple(mutate(rng, a, p) for a in c.args))
    return c


def fillers(rng, n, make):
    # mostly as many fillers as holes, sometimes one fewer or one more
    k = max(0, n + rng.choice((-1, 0, 0, 0, 1)))
    return [make() for _ in range(k)]


def test_term_walks_agree_with_the_recursive_ones():
    rng = random.Random(1300)
    for _ in range(1000):
        t = random_term(rng, 4, variables=VARS)
        assert_same(render_term, rec_render_term, t)
        assert_same(str, rec_render_term, t)
        assert_same(of_term, rec_of_term, t)
        u = random_term(rng, 2, variables=VARS)
        p = rng.choice(positions(t))
        assert_same(replace_at, rec_replace_at, t, p, u)
        # a few indices past p: off the arity, or through a variable
        bad = p + tuple(rng.choice((0, 1, 2, 3)) for _ in range(rng.randint(1, 2)))
        assert_same(replace_at, rec_replace_at, t, bad, u)


def test_context_walks_agree_with_the_recursive_ones():
    rng = random.Random(1310)
    for _ in range(1000):
        c = random_context(rng, 4, variables=VARS)
        assert_same(str, rec_str, c)
        assert_same(hole_count, rec_hole_count, c)
        n = rec_hole_count(c)
        ts = fillers(rng, n, lambda: random_term(rng, 2, variables=VARS))
        assert_same(fill, rec_fill, c, ts)
        cs = fillers(rng, n, lambda: random_context(rng, 2, variables=VARS))
        assert_same(fill_ctx, rec_fill_ctx, c, cs)
        for e in (random_prefix(rng, c), mutate(rng, random_prefix(rng, c)),
                  random_context(rng, 3, variables=VARS)):
            assert_same(decompose, rec_decompose, c, e)
            assert_same(leq, rec_leq, e, c)
            assert_same(leq, rec_leq, c, e)
            assert_same(meet, rec_meet, c, e)
            assert_same(meet, rec_meet, e, c)


def rec_compositions(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in rec_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_agree_with_the_recursive_ones():
    # from total 0: plain combinations would cut 0 into the one part (0,)
    for total in range(16):
        for parts in range(1, 7):
            assert list(_compositions(total, parts)) == list(rec_compositions(total, parts))


def rec_apply_subst(t, s):
    if isinstance(t, Var):
        return s.get(t)
    if not s:
        return t
    return Fun(t.symbol, tuple(rec_apply_subst(a, s) for a in t.args))


def rec_skeleton(t, system, holes):
    if isinstance(t, Var):
        return Var("_sk", next(holes))
    u = Fun(t.symbol, tuple(rec_skeleton(a, system, holes) for a in t.args))
    for rule in system.rules_by_symbol.get(t.symbol, ()):
        if mgu(rule.lhs, u) is not None:
            return Var("_sk", next(holes))
    return u


def assert_same_subst(t, s):
    assert_same(apply_subst, rec_apply_subst, t, s)
    # a subterm with no variable that s binds comes back as it is
    new = apply_subst(t, s)
    for p, u in positioned_subterms(t):
        if vars_of(u).isdisjoint(s.domain):
            assert subterm_at(new, p) is u, (str(t), s, p)


def assert_same_skeletons(ts, system):
    # one hole counter per side for the whole list, as `infeasible` draws
    # them for an overlap's conditions: the numbering must match throughout
    new, old = count(-1, -1), count(-1, -1)
    got = [_skeleton(t, system, new) for t in ts]
    expected = [rec_skeleton(t, system, old) for t in ts]
    assert got == expected, [str(t) for t in ts]
    assert next(new) == next(old)


def random_rule(rng):
    lhs = random_term(rng, 2, variables=VARS)
    while isinstance(lhs, Var):
        lhs = random_term(rng, 2, variables=VARS)
    conds = [Condition(random_term(rng, 2, variables=VARS), random_term(rng, 1, variables=VARS))
             for _ in range(rng.randint(0, 2))]
    return Rule(lhs, random_term(rng, 2, variables=VARS), tuple(conds))


def test_substitution_walks_agree_with_the_recursive_ones():
    rng = random.Random(1400)
    shared = 0
    for _ in range(1000):
        t = random_term(rng, 4, variables=VARS)
        s = random_subst(rng, variables=rng.sample(VARS, rng.randint(0, 3)))
        assert_same_subst(t, s)
        shared += apply_subst(t, s) is t
        system = Ctrs.from_rules([random_rule(rng) for _ in range(rng.randint(1, 3))], SIG5)
        assert_same_skeletons([t, random_term(rng, 3, variables=VARS), t], system)
    # substitutions that bind no variable of t are common, not a corner case
    assert 100 < shared < 900


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(analysis_rules, min_size=1, max_size=5))
def test_substitution_walks_agree_with_the_recursive_ones_on_random_systems(rule_list):
    system = Ctrs.from_rules(rule_list, ANALYSIS_SIG)
    for rule in system.rules:
        assert_same_skeletons(rule_terms(rule), system)
    for o in conditional_overlaps(system):
        for t in rule_terms(o.rule1) + rule_terms(o.rule2):
            assert_same_subst(t, o.mgu)
        assert_same_skeletons([c.lhs for c in o.combined_conditions()], system)


def test_walks_reach_below_the_recursion_limit():
    # a fresh interpreter, so the test runner's own frames do not count;
    # deep terms and contexts are built bottom-up and never compared with ==
    script = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import itertools\n"
        "from ctrskit.analysis import _skeleton\n"
        "from ctrskit.ctrs import Ctrs, Rule\n"
        "from ctrskit.mctxt import (HOLE, MFun, MVar, NotAPrefixError, decompose,\n"
        "    fill, fill_ctx, hole_count, leq, meet, of_term)\n"
        "from ctrskit.terms import (Fun, Subst, Symbol, Var, apply_subst, compose,\n"
        "    function_positions, is_constructor_term, is_ground, iter_vars,\n"
        "    positions, render_term, replace_at, term_key, term_size, vars_of)\n"
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
        "assert mgu(t, tower(Fun(Symbol('a', 0)))) == Subst({x: Fun(Symbol('a', 0))})\n"
        "# a chain of N bindings: x_1 is bound first, to x_2, and so on, and\n"
        "# every x_i resolves to x_{N+1}\n"
        "xs = [Var('x', i) for i in range(N + 2)]\n"
        "h = Symbol('h', N)\n"
        "chain = mgu(Fun(h, xs[N:0:-1]), Fun(h, xs[N + 1:1:-1]))\n"
        "assert list(chain.items()) == [(v, xs[N + 1]) for v in xs[1:N + 1]]\n"
        "# x_i bound to f(x_{i-1}, x_{i-1}): as a tree the image of x_N has 2^N\n"
        "# leaves, but each binding is resolved once, from the ones below it\n"
        "f = Symbol('f', 2)\n"
        "shared = mgu(Fun(h, xs[1:N + 1]), Fun(h, [Fun(f, (v, v)) for v in xs[:N]]))\n"
        "image = xs[0]\n"
        "for v in xs[1:N + 1]:\n"
        "    image = Fun(f, (image, image))\n"
        "    assert shared.get(v) is image\n"
        "assert len(shared) == N\n"
        "def text(leaf, n=N):\n"
        "    return 's(' * n + leaf + ')' * n\n"
        "assert render_term(t) == str(t) == text('x')\n"
        "assert render_term(replace_at(t, (1,) * N, y)) == text('y#3')\n"
        "assert render_term(apply_subst(t, Subst({x: y}))) == text('y#3')\n"
        "assert apply_subst(t, Subst({y: x})) is t\n"
        "a = Fun(Symbol('a', 0))\n"
        "sigma = compose(Subst({y: t}), Subst({x: a}))\n"
        "assert render_term(sigma.get(y)) == text('a') and sigma.get(x) == a\n"
        "# no lhs is rooted at s, so only the variable becomes a hole\n"
        "system = Ctrs.from_rules([Rule(Fun(Symbol('f', 1), (x,)), x)])\n"
        "holes = itertools.count(-1, -1)\n"
        "assert render_term(_skeleton(t, system, holes)) == text('_sk#-1')\n"
        "assert next(holes) == -2\n"
        "c = of_term(t)\n"
        "assert str(c) == text('x') and hole_count(c) == 0\n"
        "h = HOLE\n"
        "for _ in range(N):\n"
        "    h = MFun(S, (h,))\n"
        "assert str(h) == text('\u25a1') and hole_count(h) == 1\n"
        "assert render_term(fill(h, [y])) == text('y#3')\n"
        "assert str(fill_ctx(h, [MVar(x)])) == text('x')\n"
        "assert str(fill_ctx(h, [h])) == text('\u25a1', 2 * N)\n"
        "assert leq(h, c) and not leq(c, h)\n"
        "assert decompose(c, h) == [MVar(x)]\n"
        "assert str(meet(c, h)) == str(meet(h, c)) == str(h)\n"
        "assert str(meet(c, c)) == text('x') and hole_count(meet(c, c)) == 0\n"
        "try:\n"
        "    decompose(h, c)\n"
        "except NotAPrefixError as e:\n"
        "    assert str(e) == 'x is not a prefix of \u25a1'\n"
        "else:\n"
        "    raise AssertionError('decompose took c for a prefix of h')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *sys.path], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]


def eager_mgu(s, t, seen=None):
    # every popped pair is rewritten by the substitution built so far, and
    # every binding is composed into it at once; `seen` counts the bindings
    # that rewrite an earlier one, which triangular bindings leave to the end
    sigma = Subst()
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a = apply_subst(a, sigma)
        b = apply_subst(b, sigma)
        if a == b:
            continue
        if isinstance(b, Var) and not isinstance(a, Var):
            a, b = b, a
        if isinstance(a, Var):
            if a in iter_vars(b):
                return None
            if seen is not None:
                seen["rewrites"] += any(a in iter_vars(u) for _, u in sigma.items())
            sigma = compose(sigma, Subst({a: b}))
        elif a.symbol == b.symbol:
            stack.extend(zip(a.args, b.args))
        else:
            return None
    return sigma


# a term with some subterms swapped for variables of VARS, so that two such
# abstractions of one term share variables, repeat them, and often unify
abstraction_choices = st.lists(
    st.tuples(st.integers(min_value=0), st.sampled_from(VARS)), max_size=6
)


def abstract(t, choices):
    for seed, v in choices:
        ps = positions(t)
        t = replace_at(t, ps[seed % len(ps)], v)
    return t


def spine(ts):
    # f(t1, f(t2, ... f(tn-1, tn))): one pair of spines unifies their
    # arguments pairwise, so small arguments over few variables bind many of
    # them, each binding often holding a variable bound before or after it
    f = next(s for s in SIG5 if s.arity == 2)
    out = ts[-1]
    for t in reversed(ts[:-1]):
        out = Fun(f, (t, out))
    return out


unification_pairs = st.one_of(
    st.tuples(terms(12), terms(12)),
    st.lists(st.tuples(*[st.sampled_from(VARS) | terms(2)] * 2), min_size=3, max_size=8).map(
        lambda pairs: (spine([l for l, _ in pairs]), spine([r for _, r in pairs]))
    ),
    st.builds(
        lambda c, left, right: (abstract(c, left), abstract(c, right)),
        terms(16), abstraction_choices, abstraction_choices,
    ),
    st.builds(lambda t, ren: (t, apply_subst(t, ren)), terms(12), renamings),
)


def test_mgu_agrees_with_the_eager_oracle():
    seen = Counter()

    @settings(max_examples=1500, deadline=None, derandomize=True, database=None)
    @given(unification_pairs)
    def check(pair):
        for s, t in (pair, pair[::-1]):
            got, want = mgu(s, t), eager_mgu(s, t, seen)
            if want is None:
                assert got is None, (str(s), str(t))
                seen["none"] += 1
                continue
            assert got == want, (str(s), str(t))
            # equal substitutions may still differ in binding order; pin that too
            assert list(got.items()) == list(want.items()), (str(s), str(t))
            seen["unified"] += 1
            seen["several"] += len(got) >= 3
            seen["shared"] += not vars_of(s).isdisjoint(vars_of(t))
            seen["repeated"] += not (is_linear(s) and is_linear(t))

    check()
    # each kind of pair occurs often enough for agreement to mean something
    assert seen["unified"] > 1500 and seen["none"] > 600, seen
    assert seen["shared"] > 800 and seen["repeated"] > 600, seen
    assert seen["several"] > 100 and seen["rewrites"] > 250, seen
