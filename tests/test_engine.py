import random
import subprocess
import sys

import pytest

from ctrskit.ctrs import Condition, Ctrs, Rule
from ctrskit.engine import (
    Bounds,
    EngineError,
    KIND_BELOW,
    KIND_ROOT,
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
from ctrskit.mctxt import HOLE, fill, hole_count
from ctrskit.terms import Fun, Subst, Symbol, Var, ground_terms

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
    cond = fib.rules[1].conds[0]
    with pytest.raises(EngineError):
        solve_conditions([cond], Subst(), 1, fib, BOUNDS)


def test_root_steps_engine_error_for_unsolvable_rule():
    # the condition lhs mentions y which nothing has bound yet
    bad = Ctrs.from_rules((Rule(g(X), X, (Condition(g(Y), a),)),))
    with pytest.raises(EngineError, match="rule 1"):
        root_steps(g(a), 1, bad, BOUNDS)


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


def test_open_subject_with_non_ground_condition_goal_errors():
    # f(x) -> a <= x == c: on the open subject f(y) the condition goal is y,
    # which bounded rewriting cannot enumerate
    spec = load_corpus("if2.ctrs")
    f = {s.name: s for s in spec.ctrs.symbols}["f"]
    with pytest.raises(EngineError):
        root_steps(Fun(f, (Var("y"),)), 3, spec.ctrs, BOUNDS)


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


def test_unsolvable_rule_is_checked_only_when_it_matches():
    # rule 1 cannot be solved left to right, but only g-rooted terms reach it
    h = Symbol("h", 1)
    bad = Ctrs.from_rules((Rule(g(X), X, (Condition(g(Y), a),)), Rule(a, b)), (h,))
    assert root_steps(a, 1, bad, BOUNDS) == {b}
    assert cstep_n(Fun(h, (a,)), 1, bad, BOUNDS) == {Fun(h, (b,))}
    assert cstep_star(Fun(h, (a,)), 2, bad, BOUNDS).terms == {Fun(h, (a,)), Fun(h, (b,))}
    with pytest.raises(EngineError, match="rule 1"):
        cstep_n(g(a), 1, bad, BOUNDS)
    with pytest.raises(EngineError, match="rule 1"):
        root_steps(g(b), 1, bad, BOUNDS)


def test_deep_terms_rewrite_below_the_recursion_limit():
    # a fresh interpreter, so the test runner's own frames do not count
    script = (
        "import sys\n"
        "sys.path[:0] = sys.argv[2:]\n"
        "from conftest import FibTerms\n"
        "from ctrskit.cops import parse\n"
        "from ctrskit.engine import Bounds, cstep_star\n"
        "fib = parse(open(sys.argv[1]).read()).ctrs\n"
        "fb = FibTerms(fib)\n"
        "t = fb.add(fb.num(250), fb.num(3))\n"
        "reach = cstep_star(t, 3, fib, Bounds(8, 16, 100000))\n"
        "assert t in reach and len(reach) == 17\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(corpus_path("fib.ctrs")), *sys.path],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
