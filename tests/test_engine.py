import itertools
import random
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ctrskit.ctrs import Condition, Ctrs, Rule
from ctrskit.engine import (
    Bounds,
    EparStep,
    KIND_BELOW,
    KIND_ROOT,
    ReachSet,
    Rewriter,
    cstep_n,
    cstep_star,
    epar_check,
    epar_successors,
    root_steps,
    solve_conditions,
    trivial_step,
    verify_epar_step,
)
from ctrskit.mctxt import HOLE, MFun, fill, hole_count
from ctrskit.terms import Fun, Subst, Symbol, Var, apply_subst, ground_terms, term_key

from ctrskit.cops import parse as parse_text

from conftest import (
    A,
    B,
    G,
    X,
    Y,
    corpus_path,
    load_corpus,
    naive_level_pairs,
    naive_reach,
    naive_step,
    random_context,
)

BOUNDS = Bounds(max_level=8, max_depth=8, max_terms=4096)

a = Fun(A)
b = Fun(B)


def g(t):
    return Fun(G, (t,))


@pytest.fixture(scope="module")
def fib_universe(fib):
    return ground_terms(fib.symbols, 3)


def test_root_steps_level_zero_is_empty(fib, fb):
    assert root_steps(fb.fib(fb.zero), 0, fib, BOUNDS) == frozenset()
    assert cstep_n(fb.fib(fb.zero), 0, fib, BOUNDS) == frozenset()


def test_root_steps_unconditional(fib, fb):
    assert root_steps(fb.fib(fb.zero), 1, fib, BOUNDS) == {fb.pair(fb.zero, fb.num(1))}


def test_root_steps_conditional_against_oracle(fib, fb, fib_universe):
    expected = {fb.pair(fb.num(1), fb.add(fb.zero, fb.num(1)))}
    got = root_steps(fb.fib(fb.num(1)), 2, fib, BOUNDS)
    assert got == expected
    oracle = naive_level_pairs(fib, fib_universe, 2, 8)
    assert {rhs for lhs, rhs in oracle if lhs == fb.fib(fb.num(1))} == expected
    # one level lower the condition is unsolvable
    assert root_steps(fb.fib(fb.num(1)), 1, fib, BOUNDS) == frozenset()


def test_solve_conditions(fib, fb):
    cond = fib.rules[1].conds[0]
    x = Var("x")
    y, z = Var("y"), Var("z")
    base = Subst({x: fb.zero})
    assert solve_conditions([], base, 1, fib, BOUNDS) == {base}
    sols = solve_conditions([cond], base, 1, fib, BOUNDS)
    assert sols == {Subst({x: fb.zero, y: fb.zero, z: fb.num(1)})}
    assert solve_conditions([cond], base, 0, fib, BOUNDS) == frozenset()


def test_solve_conditions_rejects_non_ground_goal(fib):
    # the goal fib(x) holds a variable, whose instances the engine does not
    # enumerate: the goal is left unsolved, and that cut truncates
    cond = fib.rules[1].conds[0]
    assert Rewriter(fib, BOUNDS).solve_conditions((cond,), Subst(), 1, frozenset()) == (
        frozenset(), True
    )
    assert solve_conditions([cond], Subst(), 1, fib, BOUNDS) == frozenset()


def test_root_steps_of_an_unsolvable_rule_are_truncated():
    # the condition lhs mentions y which nothing has bound yet
    bad = Ctrs.from_rules((Rule(g(X), X, (Condition(g(Y), a),)),))
    assert Rewriter(bad, BOUNDS).root_steps(g(a), 1) == (frozenset(), True)
    assert root_steps(g(a), 1, bad, BOUNDS) == frozenset()
    # level 0 solves no condition, so nothing is cut
    assert Rewriter(bad, BOUNDS).root_steps(g(a), 0) == (frozenset(), False)


def test_cstep_n_rewrites_at_every_function_position(fib, fb, fib_universe):
    t = fb.pair(fb.fib(fb.zero), fb.fib(fb.zero))
    fib0_reduct = fb.pair(fb.zero, fb.num(1))
    expected = {fb.pair(fib0_reduct, fb.fib(fb.zero)), fb.pair(fb.fib(fb.zero), fib0_reduct)}
    assert cstep_n(t, 1, fib, BOUNDS) == expected
    oracle = naive_level_pairs(fib, fib_universe, 1, 8)
    assert naive_step(t, oracle) == expected


def test_cstep_n_on_normal_forms(fib, fb):
    assert cstep_n(fb.num(2), 3, fib, BOUNDS) == frozenset()


def test_cstep_star(fib, fb):
    t = fb.fib(fb.num(1))
    reach = cstep_star(t, 2, fib, BOUNDS)
    assert t in reach
    assert fb.pair(fb.num(1), fb.add(fb.zero, fb.num(1))) in reach
    assert not reach.truncated
    assert cstep_star(t, 0, fib, BOUNDS).terms == {t}


def test_cstep_star_respects_depth_and_flags_truncation(fib, fb):
    t = fb.add(fb.num(3), fb.zero)
    shallow = cstep_star(t, 1, fib, Bounds(8, 1, 4096))
    assert shallow.truncated
    assert shallow.terms == {t, fb.s(fb.add(fb.num(2), fb.zero))}
    full = cstep_star(t, 1, fib, BOUNDS)
    assert fb.num(3) in full
    assert not full.truncated


def test_cstep_star_max_terms_truncation(fib, fb):
    t = fb.add(fb.num(3), fb.zero)
    capped = cstep_star(t, 1, fib, Bounds(8, 8, 2))
    assert capped.truncated
    assert len(capped.terms) <= 2


def test_engine_against_oracle_exhaustively(fib, fib_universe):
    # sizes <= 4 keep every binding inside the oracle's substitution universe,
    # so engine and oracle must agree exactly at levels 1 and 2
    for level in (1, 2):
        oracle_pairs = naive_level_pairs(fib, fib_universe, level, 8)
        for t in ground_terms(fib.symbols, 4):
            assert cstep_n(t, level, fib, BOUNDS) == naive_step(t, oracle_pairs), (
                str(t),
                level,
            )


def test_oracle_reachability_is_contained_in_engine(fib, fib_universe):
    oracle_pairs = naive_level_pairs(fib, fib_universe, 3, 8)
    for t in ground_terms(fib.symbols, 3):
        naive = naive_reach(t, oracle_pairs, 6)
        reach = cstep_star(t, 3, fib, Bounds(8, 6, 100000))
        assert naive <= reach.terms


def test_epar_level_zero_is_identity(fib, fb):
    t = fb.pair(fb.fib(fb.zero), fb.zero)
    succ = epar_successors(t, 0, fib, BOUNDS)
    assert succ.terms == {t}
    assert succ.witness(t) == trivial_step(t)


def test_epar_parallel_roots(fib, fb):
    t = fb.pair(fb.fib(fb.zero), fb.fib(fb.zero))
    both = fb.pair(fb.pair(fb.zero, fb.num(1)), fb.pair(fb.zero, fb.num(1)))
    succ = epar_successors(t, 1, fib, BOUNDS)
    assert both in succ
    step = succ.witness(both)
    assert step.kinds == (KIND_ROOT, KIND_ROOT)
    assert hole_count(step.ctx) == 2
    assert step.endpoints() == (t, both)


def test_epar_check(fib, fb):
    t = fb.fib(fb.zero)
    u = fb.pair(fb.zero, fb.num(1))
    assert epar_check(t, t, 1, fib, BOUNDS) == trivial_step(t)
    step = epar_check(t, u, 1, fib, BOUNDS)
    assert step is not None and step.ctx == HOLE and step.kinds == (KIND_ROOT,)
    assert epar_check(t, fb.fib(fb.num(1)), 1, fib, BOUNDS) is None


def test_epar_includes_below_level_sequences(fib, fb):
    # two sequential steps at level 1 are a single hole of a level-2 step
    t = fb.add(fb.num(1), fb.num(1))
    u = fb.num(2)
    step = epar_check(t, u, 2, fib, BOUNDS)
    assert step is not None
    assert KIND_BELOW in step.kinds


def test_every_cstep_is_an_epar_step(fib):
    for t in ground_terms(fib.symbols, 4):
        for level in (1, 2):
            succ = epar_successors(t, level, fib, BOUNDS)
            for u in cstep_n(t, level, fib, BOUNDS):
                assert u in succ


def test_every_epar_successor_is_reachable(fib):
    wide = Bounds(8, 24, 100000)
    for t in ground_terms(fib.symbols, 4):
        for level in (1, 2):
            reach = cstep_star(t, level, fib, wide)
            assert not reach.truncated
            for u, _ in epar_successors(t, level, fib, BOUNDS).pairs:
                assert u in reach


def test_level_monotonicity(fib):
    for t in ground_terms(fib.symbols, 4):
        for level in (0, 1, 2):
            assert root_steps(t, level, fib, BOUNDS) <= root_steps(t, level + 1, fib, BOUNDS)


def test_epar_closed_under_contexts(fib, fb):
    rng = random.Random(31)
    seeds = [t for t in ground_terms(fib.symbols, 3)]
    for _ in range(150):
        ctx = random_context(rng, 3, symbols=tuple(fib.symbols), variables=())
        holes = hole_count(ctx)
        sources = [rng.choice(seeds) for _ in range(holes)]
        level = rng.choice((1, 2))
        targets = []
        for s in sources:
            succ = epar_successors(s, level, fib, BOUNDS)
            targets.append(rng.choice([u for u, _ in succ.pairs]))
        filled_s = fill(ctx, sources)
        filled_t = fill(ctx, targets)
        assert epar_check(filled_s, filled_t, level, fib, Bounds(8, 8, 100000)) is not None


def test_epar_witnesses_replay(fib):
    for t in ground_terms(fib.symbols, 4):
        for level in (1, 2):
            for u, step in epar_successors(t, level, fib, BOUNDS).pairs:
                assert step.endpoints() == (t, u)
                assert verify_epar_step(step, level, fib, BOUNDS)


def test_tampered_epar_witnesses_fail_to_replay(fib, fb):
    # a real two-hole root witness of pair(fib(0), fib(0)) at level 1, then
    # one tampered copy per way a replay can reject it
    fib0, nf = fb.fib(fb.zero), fb.pair(fb.zero, fb.s(fb.zero))
    step = epar_check(fb.pair(fib0, fib0), fb.pair(nf, nf), 1, fib, BOUNDS)
    assert step.kinds == (KIND_ROOT, KIND_ROOT)
    assert verify_epar_step(step, 1, fib, BOUNDS)
    tampered = {
        "unequal lengths": replace(step, kinds=step.kinds[:1]),
        "unknown kind": replace(step, kinds=("sideways", KIND_ROOT)),
        "root target no root reduct": replace(step, targets=(fib0, nf)),
        "below target out of reach": replace(step, kinds=(KIND_BELOW, KIND_ROOT)),
        "hole count": replace(step, ctx=HOLE),
    }
    for name, bad in tampered.items():
        assert not verify_epar_step(bad, 1, fib, BOUNDS), name


def test_condition_with_variable_rhs_collects_every_reduct():
    # c == y binds y to each bounded reduct of c, and the extra rhs variable
    # of the rule picks all of them up
    spec = parse_text("(VAR x y)(RULES c -> a  c -> b  f(x) -> y | c == y)")
    d = Fun(Symbol("d", 0))
    system = Ctrs(spec.ctrs.symbols | {d.symbol}, spec.ctrs.rules)
    subject = Fun({s.name: s for s in system.symbols}["f"], (d,))
    by_name = {s.name: s for s in system.symbols}
    expected = {Fun(by_name["c"]), Fun(by_name["a"]), Fun(by_name["b"])}
    assert root_steps(subject, 2, system, BOUNDS) == expected
    sols = solve_conditions(system.rules[2].conds, Subst(), 1, system, BOUNDS)
    assert len(sols) == 3


def test_conditions_chain_left_to_right():
    # the binding made by the first condition feeds the second one's goal
    spec = parse_text(
        "(VAR x y z)(RULES g(a) -> b  h(b) -> c  f(x) -> z | g(x) == y, h(y) == z)"
    )
    system = spec.ctrs
    by_name = {s.name: s for s in system.symbols}
    subject = Fun(by_name["f"], (Fun(by_name["a"]),))
    got = root_steps(subject, 2, system, BOUNDS)
    h_ga = Fun(by_name["h"], (Fun(by_name["g"], (Fun(by_name["a"]),)),))
    h_b = Fun(by_name["h"], (Fun(by_name["b"]),))
    assert got == {h_ga, h_b, Fun(by_name["c"])}


def test_fib_computes_fibonacci_pairs(fib, fb):
    # fib(n) reduces to the pair of the n-th and (n+1)-st numbers, and on
    # this level-confluent system that normal form is unique
    bounds = Bounds(8, 32, 100000)
    reach = cstep_star(fb.fib(fb.num(3)), 4, fib, bounds)
    assert not reach.truncated
    normal_forms = {t for t in reach.terms if not cstep_n(t, 4, fib, bounds)}
    assert normal_forms == {fb.pair(fb.num(2), fb.num(3))}


def test_results_survive_cache_reset(fib, fb):
    from ctrskit.engine import clear_caches

    t = fb.fib(fb.num(1))
    before = cstep_star(t, 2, fib, BOUNDS).terms
    clear_caches()
    assert cstep_star(t, 2, fib, BOUNDS).terms == before


def test_search_results_monotone_in_bounds(fib, fb):
    t = fb.fib(fb.num(2))
    small = cstep_star(t, 3, fib, Bounds(8, 2, 16))
    big = cstep_star(t, 3, fib, Bounds(8, 8, 10000))
    assert small.terms <= big.terms
    epar_small = epar_successors(t, 2, fib, Bounds(8, 2, 16))
    epar_big = epar_successors(t, 2, fib, Bounds(8, 8, 10000))
    assert epar_small.terms <= epar_big.terms


def test_open_subject_with_non_ground_condition_goal_is_truncated():
    # f(x) -> a <= x == c: on the open subject f(y) the condition goal is y,
    # which bounded rewriting cannot enumerate, so the step is cut
    spec = load_corpus("if2.ctrs")
    f = {s.name: s for s in spec.ctrs.symbols}["f"]
    subject = Fun(f, (Var("y"),))
    rw = Rewriter(spec.ctrs, BOUNDS)
    assert rw.root_steps(subject, 3) == (frozenset(), True)
    assert rw.cstep_star(subject, 3) == ReachSet(frozenset({subject}), True)
    # a ground subject solves the goal x == c
    by_name = {s.name: s for s in spec.ctrs.symbols}
    c_subject = Fun(f, (Fun(by_name["c"]),))
    assert rw.root_steps(c_subject, 3) == ({Fun(by_name["a"])}, False)


def test_rigid_subject_variables_are_not_narrowed():
    # h(x) -> x <= a == g(x), together with a -> g(c): on the open subject
    # h(y) the condition goal `a` is ground and reaches g(c), but matching
    # g(y) against it would bind the subject variable y, i.e. rewrite an
    # instance of h(y) rather than h(y) itself; the engine must refuse
    g1 = Symbol("g", 1)
    a0 = Symbol("a", 0)
    c0 = Symbol("c", 0)
    h1 = Symbol("h", 1)
    sys_ = Ctrs.from_rules(
        (
            Rule(Fun(a0), Fun(g1, (Fun(c0),))),
            Rule(Fun(h1, (X,)), X, (Condition(Fun(a0), Fun(g1, (X,))),)),
        )
    )
    open_subject = Fun(h1, (Var("y"),))
    assert root_steps(open_subject, 2, sys_, BOUNDS) == frozenset()
    closed_subject = Fun(h1, (Fun(c0),))
    assert root_steps(closed_subject, 2, sys_, BOUNDS) == {Fun(c0)}


def test_rule_variables_do_not_capture_subject_variables():
    # the rule's y is not the subject's y: f(y) must step like f(z), whose
    # variable no rule mentions, instead of refusing y as a rigid binding
    spec = parse_text("(VAR x y z)(RULES f(x) -> y | a == y  a -> b)")
    sym = {s.name: s for s in spec.ctrs.symbols}
    a, b = Fun(sym["a"]), Fun(sym["b"])
    for subject in (Fun(sym["f"], (Var("y"),)), Fun(sym["f"], (Var("z"),))):
        assert root_steps(subject, 2, spec.ctrs, BOUNDS) == {a, b}
        assert cstep_star(subject, 2, spec.ctrs, BOUNDS).terms == {subject, a, b}
    # only a clash outside the lhs renames: a type-4 rule keeps its y on f(x)
    # and yields a fresh y#1, not the subject's y, on f(y)
    spec = parse_text("(VAR x y)(RULES f(x) -> y)")
    f = next(iter(spec.ctrs.symbols))
    x, y = Var("x"), Var("y")
    assert root_steps(Fun(f, (x,)), 1, spec.ctrs, BOUNDS) == {y}
    assert root_steps(Fun(f, (y,)), 1, spec.ctrs, BOUNDS) == {Var("y", 1)}


def test_rewriter_agrees_with_the_module_functions(fib, fib_universe):
    rw = Rewriter(fib, BOUNDS)
    for t in fib_universe:
        for level in range(4):
            assert rw.root_steps(t, level)[0] == root_steps(t, level, fib, BOUNDS)
            assert rw.cstep_n(t, level)[0] == cstep_n(t, level, fib, BOUNDS)
            assert rw.cstep_star(t, level) == cstep_star(t, level, fib, BOUNDS)
            assert rw.epar_successors(t, level) == epar_successors(t, level, fib, BOUNDS)


def test_rewriters_keep_their_own_memo(fib, fb):
    from ctrskit.engine import clear_caches

    t = fb.fib(fb.num(2))
    one, two = Rewriter(fib, BOUNDS), Rewriter(fib, BOUNDS)
    first = one.cstep_star(t, 2)
    assert one.cstep_star(t, 2) is first
    assert two.cstep_star(t, 2) is not first
    assert two.cstep_star(t, 2) == first
    shared = cstep_star(t, 2, fib, BOUNDS)
    assert shared is not first
    assert cstep_star(t, 2, fib, BOUNDS) is shared
    clear_caches()
    fresh = cstep_star(t, 2, fib, BOUNDS)
    assert fresh is not shared and fresh == shared


# the acceptance suite's criterion-2 bounds: one-step and parallel, reach
CHAIN, SATURATE = Bounds(8, 8, 100000), Bounds(8, 128, 200000)


def test_registry_rewriters_share_untruncated_answers_up_the_bounds(fib, fb):
    from ctrskit.engine import clear_caches

    t = fb.fib(fb.num(2))
    for first in (CHAIN, SATURATE):
        # whichever of the two the registry builds first, the larger bounds
        # take the smaller's untruncated answer as their own
        clear_caches()
        cstep_star(fb.zero, 1, fib, first)
        chain = cstep_star(t, 3, fib, CHAIN)
        assert not chain.truncated
        assert cstep_star(t, 3, fib, SATURATE) is chain
    # t steps at level 3, but no step fits in depth 0, so that search is cut
    # and the larger bounds search on their own
    clear_caches()
    shallow = cstep_star(t, 3, fib, Bounds(8, 0, 100000))
    assert shallow.truncated
    full = cstep_star(t, 3, fib, SATURATE)
    assert not full.truncated and shallow.terms < full.terms
    # the links go with the Rewriters that clear_caches drops
    clear_caches()
    again = cstep_star(t, 3, fib, SATURATE)
    assert again is not chain and again == chain
    clear_caches()


def test_unsolvable_rule_is_checked_only_when_it_matches():
    # rule 1 cannot be solved left to right, but only g-rooted terms reach
    # it, and only those searches are cut
    h = Symbol("h", 1)
    bad = Ctrs.from_rules((Rule(g(X), X, (Condition(g(Y), a),)), Rule(a, b)), (h,))
    rw = Rewriter(bad, BOUNDS)
    assert rw.root_steps(a, 1) == ({b}, False)
    assert rw.cstep_n(Fun(h, (a,)), 1) == ({Fun(h, (b,))}, False)
    ha, hb = Fun(h, (a,)), Fun(h, (b,))
    assert rw.cstep_star(ha, 2) == ReachSet(frozenset({ha, hb}), False)
    assert rw.cstep_n(g(a), 1) == ({g(b)}, True)
    assert rw.root_steps(g(b), 1) == (frozenset(), True)
    assert rw.cstep_star(g(a), 1) == ReachSet(frozenset({g(a), g(b)}), True)


def test_deep_terms_rewrite_below_the_recursion_limit():
    # a fresh interpreter, so the test runner's own frames do not count;
    # s^600(0) rewrites because interned terms compare and hash without
    # recursing, while the engine's recursion over arguments stays below the limit
    script = (
        "import sys\n"
        "sys.path[:0] = sys.argv[2:]\n"
        "from conftest import FibTerms\n"
        "from ctrskit.cops import parse\n"
        "from ctrskit.engine import Bounds, cstep_star\n"
        "fib = parse(open(sys.argv[1]).read()).ctrs\n"
        "fb = FibTerms(fib)\n"
        "for k in (250, 600):\n"
        "    t = fb.add(fb.num(k), fb.num(3))\n"
        "    reach = cstep_star(t, 3, fib, Bounds(8, 16, 100000))\n"
        "    assert t in reach and len(reach) == 17\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(corpus_path("fib.ctrs")), *sys.path],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]


# The searches before they sorted only where the term cap can bite and built
# witnesses only when read, kept as an oracle: cstep_star sorts the frontier
# and the successors in every round, and epar_successors sorts every reduct
# set and builds each witness as it first reaches a term.  Its
# epar_successors returns (pairs, truncated).


class OrderedEagerRewriter(Rewriter):
    def cstep_star(self, t, n):
        if n <= 0:
            return ReachSet(frozenset({t}), False)
        key = (t, n)
        found = self._reach.get(key)
        if found is not None:
            return found
        bounds = self.bounds
        visited = {t}
        frontier = [t]
        truncated = False
        capped = False
        for _ in range(bounds.max_depth):
            new = []
            for u in sorted(frontier, key=term_key):
                succ, flag = self.cstep_n(u, n)
                truncated |= flag
                for v in sorted(succ, key=term_key):
                    if v in visited:
                        continue
                    if len(visited) >= bounds.max_terms:
                        capped = True
                        break
                    visited.add(v)
                    new.append(v)
                if capped:
                    break
            frontier = new
            if capped or not frontier:
                break
        if capped:
            truncated = True
        elif frontier:
            for u in frontier:
                succ, flag = self.cstep_n(u, n)
                if flag or succ - visited:
                    truncated = True
                    break
        found = self._reach[key] = ReachSet(frozenset(visited), truncated)
        return found

    def epar_successors(self, t, n):
        if n <= 0:
            return ((t, trivial_step(t)),), False
        key = (t, n)
        cached = self._epar.get(key)
        if cached is not None:
            return cached
        found = {t: trivial_step(t)}
        truncated = False
        capped = False
        max_terms = self.bounds.max_terms

        def add(u, step):
            nonlocal capped
            if u in found:
                return
            if len(found) >= max_terms:
                capped = True
                return
            found[u] = step

        roots, flag = self.root_steps(t, n)
        truncated |= flag
        for u in sorted(roots, key=term_key):
            add(u, EparStep(HOLE, (t,), (u,), (KIND_ROOT,)))
        below = self.cstep_star(t, n - 1)
        truncated |= below.truncated
        for u in sorted(below.terms, key=term_key):
            add(u, EparStep(HOLE, (t,), (u,), (KIND_BELOW,)))
        if isinstance(t, Fun) and t.args and not capped:
            arg_sets = [self.epar_successors(a, n) for a in t.args]
            truncated |= any(flag for _, flag in arg_sets)
            for combo in itertools.product(*(pairs for pairs, _ in arg_sets)):
                u = Fun(t.symbol, tuple(term for term, _ in combo))
                steps = [step for _, step in combo]
                add(
                    u,
                    EparStep(
                        MFun(t.symbol, tuple(s.ctx for s in steps)),
                        tuple(src for s in steps for src in s.sources),
                        tuple(tgt for s in steps for tgt in s.targets),
                        tuple(k for s in steps for k in s.kinds),
                    ),
                )
                if capped:
                    break
        truncated |= capped
        pairs = tuple(sorted(found.items(), key=lambda it: term_key(it[0])))
        result = self._epar[key] = (pairs, truncated)
        return result


def witness_fields(pairs):
    return [(u, w.ctx, w.sources, w.targets, w.kinds) for u, w in pairs]


@pytest.fixture(scope="module")
def fib_universe_6(fib):
    # up to six nodes some level-3 reach sets hold 22 terms, so every cap
    # below bites somewhere
    return ground_terms(fib.symbols, 6)


def assert_matches_oracle(system, bounds, universe):
    """Compare a fresh Rewriter with the oracle on every term and level 0-3;
    the number of reach sets the cap cut."""
    rw, oracle = Rewriter(system, bounds), OrderedEagerRewriter(system, bounds)
    capped = 0
    for t in universe:
        for level in range(4):
            reach = rw.cstep_star(t, level)
            assert reach == oracle.cstep_star(t, level), (str(t), level)
            succ = rw.epar_successors(t, level)
            pairs, truncated = oracle.epar_successors(t, level)
            assert succ.truncated == truncated, (str(t), level)
            assert succ.ordered == tuple(u for u, _ in pairs)
            assert witness_fields(succ.pairs) == witness_fields(pairs), (str(t), level)
            assert [succ.witness(u) for u, _ in pairs] == [w for _, w in pairs]
            capped += len(reach) == bounds.max_terms and reach.truncated
    return capped


CAPS = (BOUNDS.max_terms, 1, 2, 3, 5, 8, 13)


@pytest.mark.parametrize("max_terms", CAPS)
def test_searches_match_the_ordered_eager_oracle(fib, fib_universe_6, max_terms):
    capped = assert_matches_oracle(fib, Bounds(8, 8, max_terms), fib_universe_6)
    # below the default the cap cuts some searches, so order decides what is kept
    assert (capped > 0) == (max_terms < BOUNDS.max_terms)


def test_searches_match_the_ordered_eager_oracle_where_root_steps_fill_the_cap():
    # in fib every root reduct at level n is also reached one level below,
    # so root steps never fill the cap first; here c has eight root reducts,
    # and d_i steps on only where c does
    ds = [Fun(Symbol(f"d{i}", 0)) for i in range(1, 9)]
    c, e = Fun(Symbol("c", 0)), Fun(Symbol("e", 0))
    h, p = Symbol("h", 1), Symbol("p", 2)
    rules = [Rule(c, d) for d in ds] + [Rule(d, e, (Condition(c, d),)) for d in ds]
    rules.append(Rule(Fun(h, (X,)), X))
    system = Ctrs.from_rules(rules, (h, p))
    for max_terms in CAPS:
        assert_matches_oracle(system, Bounds(8, 8, max_terms), ground_terms(system.symbols, 3))


def test_depth_cut_searches_match_the_ordered_eager_oracle(fib, fib_universe_6):
    # at max_terms 0 the start term alone exceeds the cap, yet a search whose
    # rounds find nothing new was cut short by no bound
    for bounds in (Bounds(8, 1, 4096), Bounds(8, 2, 4096), Bounds(8, 2, 5),
                   Bounds(8, 1, 0), Bounds(8, 8, 0)):
        assert_matches_oracle(fib, bounds, fib_universe_6)


def test_witnesses_are_built_on_first_use(fib, fb, monkeypatch):
    import ctrskit.engine as engine

    built = []
    monkeypatch.setattr(engine, "of_term", lambda t: built.append(t) or HOLE)
    rw = Rewriter(fib, BOUNDS)
    t = fb.pair(fb.fib(fb.zero), fb.zero)
    succ = rw.epar_successors(t, 2)
    assert t in succ and len(succ.terms) == len(succ) > 1
    assert built == []
    assert succ.witness(t).ctx is HOLE and built == [t]


def test_order_is_built_on_first_read(fib, fb, monkeypatch):
    import ctrskit.engine as engine

    rw = Rewriter(fib, BOUNDS)
    t = fb.pair(fb.fib(fb.zero), fb.zero)
    succ = rw.epar_successors(t, 2)
    assert len(succ) > 1 and "ordered" not in succ.__dict__
    assert succ.pairs and succ.__dict__["ordered"] == tuple(sorted(succ.terms, key=term_key))

    def no_key(u):
        raise AssertionError("a set of one term is its own order")

    monkeypatch.setattr(engine, "term_key", no_key)
    assert rw.epar_successors(t, 0).ordered == (t,)
    # a normal form at level 2 reaches only itself
    assert Rewriter(fib, BOUNDS).epar_successors(fb.zero, 2).ordered == (fb.zero,)


class Counting(Rewriter):
    """A Rewriter that records every root_steps call."""

    def __init__(self, system, bounds):
        super().__init__(system, bounds)
        self.calls = []

    def root_steps(self, t, n):
        self.calls.append((t, n))
        return super().root_steps(t, n)


def _answer(rewriter, query, subject, level):
    """cstep_star's or epar_successors' answer as (terms or pairs, truncated)."""
    result = getattr(rewriter, query)(subject, level)
    if isinstance(result, ReachSet):
        return result.terms, result.truncated
    if isinstance(result, tuple):
        return result
    return result.pairs, result.truncated


def assert_answers_match_the_oracle(system, subject, bounds, levels):
    for level in levels:
        rw, oracle = Rewriter(system, bounds), OrderedEagerRewriter(system, bounds)
        for query in ("cstep_star", "epar_successors"):
            got = _answer(rw, query, subject, level)
            assert got == _answer(oracle, query, subject, level), (bounds, level, query)


def unsolvable_fan(prefix):
    """c steps to eight terms that each match a rule whose condition lhs uses
    an unbound y, and to z, whose three reducts can fill the cap.  In
    term_key order the eight come first, so a walk in that order expands
    them before z."""
    ks = [Symbol(f"{prefix}{i}", 1) for i in range(1, 9)]
    c, z = Symbol("c", 0), Symbol("z", 0)
    rules = [Rule(Fun(k, (X,)), X, (Condition(Fun(k, (Y,)), a),)) for k in ks]
    rules += [Rule(Fun(c), Fun(k, (a,))) for k in reversed(ks)]
    rules += [Rule(Fun(c), Fun(z))] + [Rule(Fun(z), Fun(Symbol(f"z{i}", 0))) for i in range(3)]
    return Ctrs.from_rules(rules), Fun(c)


def test_engine_error_matches_the_oracle_with_and_without_a_biting_cap():
    # the eight rules are cut, not refused; the unordered pass meets them in
    # hash order, which differs per prefix, so an answer that depended on
    # that order would show on some prefix
    for prefix in ("k", "m", "q"):
        system, subject = unsolvable_fan(prefix)
        expanded = set()
        for max_terms in (BOUNDS.max_terms, *range(1, 13)):
            bounds = Bounds(8, 8, max_terms)
            for level in (1, 2):
                assert_answers_match_the_oracle(system, subject, bounds, (level,))
                probe = Counting(system, bounds)
                reach = probe.cstep_star(subject, level)
                assert reach.truncated, (prefix, max_terms, level)
                if any(t.symbol.name.startswith(prefix) for t, _ in probe.calls):
                    expanded.add(max_terms)
                    # c, the eight and z's family: only the cap can leave one out
                    assert len(reach) == min(max_terms, 13)
        # from 10 terms on the eight all get in and are expanded, and at the
        # default, where the cap does not bite, their cut alone truncates
        assert expanded == {BOUNDS.max_terms, 10, 11, 12}


def test_a_nested_engine_error_is_searched_once_per_level():
    # h_i(x) -> x | h_(i+1)(x) == z nests one condition search per level
    # down to a rule whose condition goal holds an unbound variable; the cut
    # there truncates every level above it, and no level repeats the search
    # below it, which would take 2^depth searches
    depth = 12
    hs = [Symbol(f"h{i}", 1) for i in range(depth + 1)]
    rules = [
        Rule(Fun(hs[i], (X,)), X, (Condition(Fun(hs[i + 1], (X,)), Var("z")),))
        for i in range(depth)
    ]
    rules.append(Rule(Fun(hs[depth], (X,)), X, (Condition(Fun(hs[depth], (Y,)), a),)))
    system = Ctrs.from_rules(rules)
    subject = Fun(hs[0], (a,))
    rw = Counting(system, BOUNDS)
    reach = rw.cstep_star(subject, depth + 1)
    assert reach == ReachSet(frozenset({subject, a}), True)
    assert reach == OrderedEagerRewriter(system, BOUNDS).cstep_star(subject, depth + 1)
    assert len(rw.calls) <= 3 * (depth + 1)


def test_depth_end_reads_the_flag_of_a_nested_search():
    # h(a) steps to a once f(a, a) == b holds, which takes a step one level
    # down; at depth 0 the condition search takes none, and that cut shows
    spec = parse_text("(VAR x)(RULES h(x) -> a | f(x, x) == b  f(a, a) -> b)")
    sym = {s.name: s for s in spec.ctrs.symbols}
    a_, ha = Fun(sym["a"]), Fun(sym["h"], (Fun(sym["a"]),))
    for depth, reach in ((0, ReachSet(frozenset({ha}), True)),
                         (1, ReachSet(frozenset({ha, a_}), False))):
        bounds = Bounds(8, depth, BOUNDS.max_terms)
        rw = Rewriter(spec.ctrs, bounds)
        assert rw.cstep_star(ha, 2) == reach
        assert rw.epar_successors(ha, 2).truncated is reach.truncated
        assert_answers_match_the_oracle(spec.ctrs, ha, bounds, (1, 2))


def test_depth_end_engine_error_matches_the_oracle():
    # when depth runs out, a live frontier term truncates whatever the
    # order the frontier was found in: with prefix zz, z comes first in
    # term_key order, and with prefix k the eight cut terms do
    for prefix in ("k", "zz"):
        system, subject = unsolvable_fan(prefix)
        for max_depth in (0, 1, 2):
            for max_terms in (BOUNDS.max_terms, *range(1, 13)):
                bounds = Bounds(8, max_depth, max_terms)
                assert_answers_match_the_oracle(system, subject, bounds, (1, 2))
                if max_depth == 1 and max_terms >= 10:
                    reach = Rewriter(system, bounds).cstep_star(subject, 1)
                    assert (len(reach), reach.truncated) == (10, True), (prefix, max_terms)


def test_depth_end_engine_error_follows_the_order_terms_were_found():
    # c steps to p1 and p2, which step to bb and aa: the frontier is found
    # as bb, aa, but aa comes first in term_key order, and only aa's rule
    # has a condition goal that holds a variable.  Depth cuts the first two
    # searches; the third ends at the normal form e, and aa's cut truncates it
    c, e = Fun(Symbol("c", 0)), Fun(Symbol("e", 0))
    p1, p2, aa, bb = (Fun(Symbol(name, 0)) for name in ("p1", "p2", "aa", "bb"))
    rules = [Rule(c, p1), Rule(c, p2), Rule(p1, bb), Rule(p2, aa), Rule(bb, e)]
    rules.append(Rule(aa, e, (Condition(Fun(Symbol("f", 1), (Y,)), e),)))
    system = Ctrs.from_rules(rules)
    answers = []
    for max_depth in (1, 2, 3):
        bounds = Bounds(8, max_depth, BOUNDS.max_terms)
        assert_answers_match_the_oracle(system, c, bounds, (1, 2))
        answers.append(Rewriter(system, bounds).cstep_star(c, 1))
    assert answers == [
        ReachSet(frozenset({c, p1, p2}), True),
        ReachSet(frozenset({c, p1, p2, aa, bb}), True),
        ReachSet(frozenset({c, p1, p2, aa, bb, e}), True),
    ]


def test_a_nested_engine_error_reached_from_two_terms_is_searched_once_per_level():
    # g_i steps to h_i(a) and h_i(b), whose conditions both search from
    # g_(i+1), one level down, to a rule whose condition goal holds an
    # unbound variable; each search is kept by (term, level), so the second
    # condition reuses the first's, instead of doubling the work per level.
    # The cut does not end the search, so each level expands five terms:
    # g_i, h_i(a), h_i(b), a and b, each once
    depth = 10
    gs = [Symbol(f"g{i}", 0) for i in range(depth + 1)]
    hs = [Symbol(f"h{i}", 1) for i in range(depth)]
    b = Fun(B)
    rules = []
    for g, h, below in zip(gs, hs, gs[1:]):
        rules += [Rule(Fun(g), Fun(h, (a,))), Rule(Fun(g), Fun(h, (b,)))]
        rules.append(Rule(Fun(h, (X,)), X, (Condition(Fun(below), Var("z")),)))
    rules.append(Rule(Fun(gs[depth]), a, (Condition(Fun(hs[0], (Y,)), a),)))
    system = Ctrs.from_rules(rules)
    subject = Fun(gs[0])
    assert_answers_match_the_oracle(system, subject, BOUNDS, (depth + 1,))
    rw = Counting(system, BOUNDS)
    reach = rw.cstep_star(subject, depth + 1)
    assert reach == ReachSet(frozenset({subject, Fun(hs[0], (a,)), Fun(hs[0], (b,)), a, b}), True)
    assert len(rw.calls) == len(set(rw.calls)) <= 5 * (depth + 1)
    assert [t for t, _ in rw.calls if t.symbol in gs] == [Fun(g) for g in gs]


# Systems whose conditions are solved only after a nested step.  A chain
# h0(x) -> r0 | h1(x) == d0, h1(x) -> r1 | h2(x) == d1, ... ends in a goal
# such as f(x, x) that one of the base rules rewrites, so each link needs a
# step one level below it, and a search at depth d runs each condition
# search at depth d too.  A few random rules ride along.
HS = tuple(Symbol(f"h{i}", 1) for i in range(3))
NF, NG = Symbol("f", 2), Symbol("g", 1)
NA, NB, NC = (Fun(Symbol(name, 0)) for name in "abc")
NEST_SIG = (*HS, NF, NG, NA.symbol, NB.symbol, NC.symbol)


def nf(s, t):
    return Fun(NF, (s, t))


def ng(t):
    return Fun(NG, (t,))


BASE_RULES = (
    Rule(nf(NA, NA), NB),
    Rule(nf(X, X), NC),
    Rule(nf(NA, X), ng(X)),
    Rule(ng(NA), NB),
    Rule(ng(X), NA, (Condition(nf(X, X), NB),)),
    Rule(NB, NC),
)
NEST_GOALS = (nf(X, X), nf(X, NA), ng(X))
NEST_SEEDS = tuple(Fun(HS[0], (t,)) for t in (NA, NB, ng(NA))) + (nf(NA, NA), ng(NB))


def nest_terms():
    return st.recursive(
        st.sampled_from((X, Y, NA, NB, NC)),
        lambda kids: st.one_of(
            st.builds(ng, kids),
            st.builds(nf, kids, kids),
            st.builds(lambda i, t: Fun(HS[i], (t,)), st.integers(0, 2), kids),
        ),
        max_leaves=4,
    )


nest_rules = st.builds(
    lambda lhs, rhs, conds: Rule(lhs, rhs, tuple(conds)),
    nest_terms().filter(lambda t: isinstance(t, Fun)),
    nest_terms(),
    st.lists(st.builds(Condition, nest_terms(), nest_terms()), max_size=1),
)


# a failing nested-systems property reports its first failing draw: one run
# takes seconds, and shrinking reran one property for minutes
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


@st.composite
def nested_systems(draw):
    length = draw(st.integers(1, len(HS)))
    rules = []
    for i in range(length):
        goal = Fun(HS[i + 1], (X,)) if i + 1 < length else draw(st.sampled_from(NEST_GOALS))
        target = draw(st.sampled_from((NA, NB, NC, Y)))
        rhs = draw(st.sampled_from((NA, NB, NC, X, ng(X)) + ((Y,) if target is Y else ())))
        rules.append(Rule(Fun(HS[i], (X,)), rhs, (Condition(goal, target),)))
    rules += draw(st.lists(st.sampled_from(BASE_RULES), min_size=1, max_size=3, unique=True))
    rules += draw(st.lists(nest_rules, max_size=2))
    return Ctrs.from_rules(draw(st.permutations(rules)), NEST_SIG), length


class Probe(Rewriter):
    """A Rewriter that counts the condition solutions that needed a step,
    and notes whether max_terms may have cut one of its searches."""

    nested = 0
    capped = False

    def solve_conditions(self, conds, sigma, n, frozen):
        sols, truncated = super().solve_conditions(conds, sigma, n, frozen)
        for s in sols:
            self.nested += any(apply_subst(c.lhs, s) != apply_subst(c.rhs, s) for c in conds)
        return sols, truncated

    def cstep_star(self, t, n):
        return self._note_cap(super().cstep_star(t, n))

    def epar_successors(self, t, n):
        return self._note_cap(super().epar_successors(t, n))

    def _note_cap(self, result):
        self.capped |= result.truncated and len(result) >= self.bounds.max_terms
        return result


def test_untruncated_searches_are_complete_and_results_grow_on_nested_conditions():
    # a search that says it was not truncated finds what larger max_depth,
    # max_terms or both find.  Results grow with the bounds and the level
    # wherever the cap cut no search: a biting cap keeps a prefix of a
    # breadth-first walk, and a larger relation can fill it with other terms
    tally = {"untruncated": 0, "nested": 0, "grown": 0}

    @settings(max_examples=120, deadline=None, derandomize=True, database=None,
              phases=NO_SHRINK)
    @given(nested_systems())
    def check(drawn):
        system, length = drawn
        probes: dict[Bounds, Probe] = {}

        def probe(bounds):
            return probes.get(bounds) or probes.setdefault(bounds, Probe(system, bounds))

        def terms_of(query, found):
            return {u for u, _ in found} if query == "epar_successors" else found

        for subject in NEST_SEEDS:
            for level in range(1, length + 2):
                for depth, cap in itertools.product((0, 1, 2), (4, 48)):
                    small = Bounds(8, depth, cap)
                    fresh = Probe(system, small)
                    for query in ("cstep_star", "epar_successors", "root_steps"):
                        got = found, truncated = _answer(fresh, query, subject, level)
                        assert got == _answer(probe(small), query, subject, level)
                        terms = terms_of(query, found)
                        where = (query, str(subject), level, small)
                        if query == "cstep_star" and not truncated:
                            tally["untruncated"] += 1
                            tally["nested"] += fresh.nested > 0
                        for bigger in (Bounds(8, depth, 480), Bounds(8, depth + 2, cap),
                                       Bounds(8, depth + 2, 480)):
                            big = _answer(probe(bigger), query, subject, level)
                            if not truncated:
                                assert big == got, (*where, bigger)
                            if not (probe(small).capped or probe(bigger).capped):
                                assert terms <= terms_of(query, big[0]), (*where, bigger)
                                tally["grown"] += 1
                        above = _answer(probe(small), query, subject, level + 1)[0]
                        if not probe(small).capped:
                            assert terms <= terms_of(query, above), where
                            tally["grown"] += 1

    check()
    # the floors keep the test from passing vacuously: the first is the
    # number of untruncated searches that solved a condition after a step
    assert tally["nested"] >= 300 and tally["grown"] >= 60000, tally


# the pairs of bounds of the grid above, whose bounds compare, and one pair
# whose bounds do not
INCOMPARABLE = (Bounds(8, 0, 48), Bounds(8, 2, 4))
NEST_GRID = tuple(Bounds(8, d, c) for d, c in itertools.product((0, 1, 2), (4, 48)))
LINKED_PAIRS = tuple(
    (small, bigger)
    for small in NEST_GRID
    for bigger in (Bounds(8, small.max_depth, 480), Bounds(8, small.max_depth + 2, small.max_terms),
                   Bounds(8, small.max_depth + 2, 480))
) + (INCOMPARABLE,)
MEMO_TABLES = ("_roots", "_steps", "_reach", "_epar")


def _shared(rewriter, others):
    """How many of rewriter's memo entries are the very objects of another's."""
    return sum(
        entry is getattr(other, table).get(key)
        for table in MEMO_TABLES
        for key, entry in getattr(rewriter, table).items()
        for other in others
    )


def test_registry_rewriters_borrow_only_exact_answers_on_nested_conditions():
    # the registry links the Rewriters of one system whose bounds compare,
    # whichever it builds first.  A linked Rewriter answers as a fresh one
    # under its bounds does: the same terms, flag, order and witnesses (an
    # EparSet's pairs hold its order and witnesses), also when the larger
    # bounds are asked first.  Rewriters whose bounds do not compare share
    # no entry, nor does a Rewriter a caller builds
    from ctrskit import engine

    borrowed = {"built smaller first": 0, "built larger first": 0, "asked larger first": 0}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              phases=NO_SHRINK)
    @given(nested_systems())
    def check(drawn):
        system, length = drawn
        fresh: dict[Bounds, Rewriter] = {}
        for pair in LINKED_PAIRS:
            runs = {"built smaller first": (pair, pair), "built larger first": (pair[::-1], pair),
                    "asked larger first": (pair, pair[::-1])}
            for run, (built, asked) in runs.items():
                engine.clear_caches()
                linked = {bounds: engine._rewriter(system, bounds) for bounds in built}
                for bounds in built:
                    fresh.setdefault(bounds, Rewriter(system, bounds))
                for subject in NEST_SEEDS:
                    for level in range(1, length + 2):
                        for query in ("cstep_star", "root_steps", "epar_successors"):
                            for bounds in asked:
                                own = _answer(fresh[bounds], query, subject, level)
                                got = _answer(linked[bounds], query, subject, level)
                                assert got == own, (query, str(subject), level, run, bounds)
                shared = _shared(linked[pair[0]], [linked[pair[1]]])
                assert shared == 0 or pair != INCOMPARABLE, run
                borrowed[run] += shared
                assert _shared(fresh[pair[0]], linked.values()) == 0
                assert _shared(fresh[pair[1]], linked.values()) == 0

    try:
        check()
    finally:
        engine.clear_caches()
    # the floors keep the test from passing vacuously: asked smaller first,
    # the larger bounds take about 51000 entries, whichever was built first
    assert min(borrowed["built smaller first"], borrowed["built larger first"]) >= 40000, borrowed
