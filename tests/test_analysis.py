import dataclasses
import itertools
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from ctrskit.analysis import (
    DISP_EQUAL_RHS,
    DISP_IF1,
    DISP_IF2,
    DISP_ROOT_VARIANT,
    DISP_UNKNOWN,
    DiamondOutcome,
    DiamondPeak,
    Feasibility,
    Overlap,
    OverlapDisposition,
    Verdict,
    _skeleton,
    check_almost_orthogonal,
    check_level_confluence,
    conditional_overlaps,
    diamond_fuzz,
    dispose_overlaps,
    infeasible,
)
from ctrskit.cops import parse
from ctrskit.ctrs import Condition, Ctrs, Rule
from ctrskit.engine import Bounds, epar_successors
from ctrskit.terms import (
    Fun,
    Subst,
    Symbol,
    Var,
    apply_subst,
    function_positions,
    ground_terms,
    is_ground,
    iter_vars,
    match,
    subterm_at,
    subterms,
    vars_of,
)
from ctrskit.unify import (
    RenamingScope,
    is_variant,
    mgu,
    rename_apart,
    rename_rule,
    rename_term_apart,
)

from conftest import CORPUS, ground_search_satisfiable, load_corpus

BOUNDS = Bounds(max_level=8, max_depth=8, max_terms=4096)


def parse_rules(text):
    return parse(text).ctrs


def overlap_vars(o):
    out = set(vars_of(o.rule1.lhs)) | vars_of(o.rule1.rhs)
    for c in o.rule1.conds + o.rule2.conds:
        out |= vars_of(c.lhs) | vars_of(c.rhs)
    out |= vars_of(o.rule2.lhs) | vars_of(o.rule2.rhs)
    return out


def test_fib_overlaps_are_only_self_variants(fib):
    overlaps = conditional_overlaps(fib)
    assert [(o.rule1_index, o.rule2_index, o.pos) for o in overlaps] == [
        (i, i, ()) for i in range(4)
    ]
    for o in overlaps:
        assert is_variant(o.rule1, o.rule2)


def test_overlap_invariants(fib):
    for name in ("fib.ctrs", "overlap.ctrs", "if2.ctrs"):
        for o in conditional_overlaps(load_corpus(name).ctrs):
            r1_vars = set(vars_of(o.rule1.lhs)) | vars_of(o.rule1.rhs)
            r2_vars = set(vars_of(o.rule2.lhs)) | vars_of(o.rule2.rhs)
            assert r1_vars.isdisjoint(r2_vars)
            from ctrskit.terms import subterm_at

            assert apply_subst(subterm_at(o.rule1.lhs, o.pos), o.mgu) == apply_subst(
                o.rule2.lhs, o.mgu
            )


def test_root_overlap_of_distinct_rules():
    system = parse_rules("(VAR x)(RULES f(x) -> a  f(b) -> b)")
    overlaps = conditional_overlaps(system)
    keyed = {(o.rule1_index, o.rule2_index): o for o in overlaps}
    assert set(keyed) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    cross = keyed[(0, 1)]
    assert cross.pos == ()
    # the unifier sends the first rule's x, as written, to b
    assert list(cross.mgu.items()) == [(Var("x"), Fun(Symbol("b", 0)))]


def test_overlap_below_root():
    system = parse_rules("(VAR x)(RULES f(g(x)) -> x  g(a) -> b)")
    overlaps = conditional_overlaps(system)
    below = [o for o in overlaps if o.pos != ()]
    assert len(below) == 1
    assert (below[0].rule1_index, below[0].rule2_index, below[0].pos) == (0, 1, (1,))
    # everything else is a rule against its own variant at the root
    for o in overlaps:
        if o.pos == ():
            assert o.rule1_index == o.rule2_index


def test_overlap_enumeration_stable_under_renaming(fib):
    renamed_rules = []
    scope = RenamingScope(0)
    for rule in fib.rules:
        image, scope = rename_apart(rule, scope)
        renamed_rules.append(image)
    renamed = Ctrs(fib.symbols, tuple(renamed_rules))
    a = conditional_overlaps(fib)
    b = conditional_overlaps(renamed)
    assert [(o.rule1_index, o.rule2_index, o.pos) for o in a] == [
        (o.rule1_index, o.rule2_index, o.pos) for o in b
    ]
    for oa, ob in zip(a, b):
        assert is_variant(oa.rule1, ob.rule1) and is_variant(oa.rule2, ob.rule2)


def test_infeasible_if2():
    system = load_corpus("if2.ctrs").ctrs
    cross = [
        o for o in conditional_overlaps(system) if o.rule1_index != o.rule2_index
    ]
    assert cross
    for o in cross:
        feas = infeasible(o, system)
        assert feas.infeasible and feas.reason == "IF2"
        assert len(feas.conditions) == 2


def test_infeasible_if1():
    # condition a == b with irreducible a: no reduct of a looks like b
    system = parse_rules(
        "(VAR x)(RULES f(x) -> x | a == b  f(c) -> c | a == b)"
    )
    overlaps = [
        o for o in conditional_overlaps(system) if o.rule1_index != o.rule2_index
    ]
    assert overlaps
    feas = infeasible(overlaps[0], system)
    assert feas.infeasible and feas.reason == "IF1"
    assert len(feas.conditions) == 1


def test_if1_respects_reducible_skeletons():
    # here a rewrites to b, so the skeleton of a must widen to a fresh hole
    # and the condition stays possibly-satisfiable
    system = parse_rules("(VAR x)(RULES f(x) -> x | a == b  a -> b)")
    overlaps = [
        o
        for o in conditional_overlaps(system)
        if (o.rule1_index, o.rule2_index) == (0, 0)
    ]
    feas = infeasible(overlaps[0], system)
    assert not feas.infeasible


def test_feasible_overlap_stays_unknown():
    system = parse_rules("(VAR x)(RULES f(x) -> a  f(b) -> b)")
    cross = [
        o for o in conditional_overlaps(system) if o.rule1_index != o.rule2_index
    ]
    for o in cross:
        assert not infeasible(o, system).infeasible


def test_verdict_and_feasibility_store_only_their_evidence():
    # each yes/no is read off the evidence stored beside it
    assert [f.name for f in dataclasses.fields(Verdict)] == ["ctrs_type", "properties", "overlaps"]
    assert [f.name for f in dataclasses.fields(Feasibility)] == ["reason", "conditions"]
    verdict = check_level_confluence(load_corpus("type4.ctrs").ctrs)
    assert verdict.failing == ("type-3",) and not verdict.level_confluent
    assert not Feasibility.unknown().infeasible
    cond = Condition(Fun(Symbol("a", 0)), Fun(Symbol("b", 0)))
    assert Feasibility.by_if1(cond) == Feasibility("IF1", (cond,))
    assert Feasibility.by_if2(cond, cond).infeasible


def test_check_almost_orthogonal(fib):
    assert check_almost_orthogonal(fib).holds
    overlapping = parse_rules("(VAR x)(RULES f(x) -> a  f(b) -> b)")
    report = check_almost_orthogonal(overlapping)
    assert not report.holds
    assert any("overlap" in w.detail for w in report.witnesses)
    via_if2 = load_corpus("if2.ctrs").ctrs
    assert check_almost_orthogonal(via_if2).holds


def test_check_almost_orthogonal_equal_rhs():
    system = parse_rules("(VAR x y)(RULES f(x, b) -> g(x)  f(a, y) -> g(a))")
    report = check_almost_orthogonal(system)
    assert report.holds
    dispositions = {
        (od.overlap.rule1_index, od.overlap.rule2_index): od.disposition
        for od in dispose_overlaps(system)
    }
    assert dispositions[(0, 1)] == DISP_EQUAL_RHS
    assert dispositions[(1, 0)] == DISP_EQUAL_RHS
    assert dispositions[(0, 0)] == DISP_ROOT_VARIANT


def test_verdict_fib(fib):
    verdict = check_level_confluence(fib)
    assert verdict.level_confluent
    assert verdict.ctrs_type == 3
    assert all(p.holds for p in verdict.properties)
    assert [od.disposition for od in verdict.overlaps] == [DISP_ROOT_VARIANT] * 4


def test_verdict_not_applicable_cases():
    expectations = {
        "non_left_linear.ctrs": "left-linear",
        "non_properly_oriented.ctrs": "properly-oriented",
        "non_right_stable.ctrs": "right-stable",
        "type4.ctrs": "type-3",
        "overlap.ctrs": "almost-orthogonal",
    }
    for name, failing in expectations.items():
        verdict = check_level_confluence(load_corpus(name).ctrs)
        assert not verdict.level_confluent, name
        assert failing in verdict.failing, name


def test_verdict_if2(fib):
    verdict = check_level_confluence(load_corpus("if2.ctrs").ctrs)
    assert verdict.level_confluent
    dispositions = [od.disposition for od in verdict.overlaps]
    assert dispositions.count(DISP_IF2) == 2
    assert dispositions.count(DISP_ROOT_VARIANT) == 2


def test_verdict_runs_no_search(monkeypatch):
    # the criterion is syntactic: it makes no Rewriter and fetches none of
    # the shims' shared ones, so there is no bound for it to read
    import ctrskit.engine as engine

    def refuse(*args, **kwargs):
        raise AssertionError("the verdict started a rewriting search")

    expected = {"fib.ctrs": True, "if2.ctrs": True}
    monkeypatch.setattr(engine.Rewriter, "__init__", refuse)
    monkeypatch.setattr(engine, "_rewriter", refuse)
    for path in sorted(CORPUS.glob("*.ctrs")):
        verdict = check_level_confluence(load_corpus(path.name).ctrs)
        assert verdict.level_confluent == expected.get(path.name, False), path.name


def test_infeasible_never_contradicts_ground_search():
    # bounded ground instantiation must find no solution for any overlap the
    # analyzer calls infeasible
    for name in ("fib.ctrs", "if2.ctrs", "overlap.ctrs"):
        system = load_corpus(name).ctrs
        for od in dispose_overlaps(system):
            if od.disposition not in (DISP_IF1, DISP_IF2):
                continue
            assert not ground_search_satisfiable(od.overlap, system, size=4, depth=5)


def test_dispositions_stay_within_the_documented_enum():
    allowed = {DISP_ROOT_VARIANT, DISP_EQUAL_RHS, DISP_IF1, DISP_IF2, DISP_UNKNOWN}
    for name in (
        "fib.ctrs",
        "if2.ctrs",
        "non_left_linear.ctrs",
        "non_properly_oriented.ctrs",
        "non_right_stable.ctrs",
        "overlap.ctrs",
        "type4.ctrs",
    ):
        for od in dispose_overlaps(load_corpus(name).ctrs):
            assert od.disposition in allowed
            if od.disposition in (DISP_IF1, DISP_IF2):
                assert od.feasibility is not None and od.feasibility.infeasible
                assert od.feasibility.conditions


def test_diamond_level_zero_never_fails(fib, fb):
    seeds = ground_terms(fib.symbols, 4)
    outcome = diamond_fuzz(fib, seeds, 0, 2, BOUNDS)
    assert outcome.counterexample is None


def test_diamond_fib_small(fib):
    seeds = ground_terms(fib.symbols, 4)
    outcome = diamond_fuzz(fib, seeds, 1, 2, Bounds(8, 6, 100000))
    assert outcome.counterexample is None
    assert outcome.peaks_checked > 0


def test_diamond_counterexample_on_overlapping_system(fb):
    spec = load_corpus("overlap.ctrs")
    system = spec.ctrs
    by_name = {s.name: s for s in system.symbols}
    f_b = Fun(by_name["f"], (Fun(by_name["b"]),))
    outcome = diamond_fuzz(system, [f_b], 1, 1, Bounds(8, 6, 4096))
    assert outcome.counterexample == DiamondPeak(
        f_b, Fun(by_name["a"]), Fun(by_name["b"])
    )
    assert not outcome.truncated


def test_level_confluent_verdict_implies_no_diamond_counterexample():
    for name in ("fib.ctrs", "if2.ctrs"):
        system = load_corpus(name).ctrs
        verdict = check_level_confluence(system)
        assert verdict.level_confluent
        seeds = ground_terms(system.symbols, 4)
        outcome = diamond_fuzz(system, seeds, 1, 1, Bounds(8, 6, 100000))
        assert outcome.counterexample is None


def oracle_diamond_fuzz(system, seeds, m, n, bounds, epar):
    """diamond_fuzz with one join query per (t, u) pair, kept as an oracle."""
    truncated, peaks = False, 0
    for seed in seeds:
        lefts, rights = epar(seed, m, system, bounds), epar(seed, n, system, bounds)
        truncated |= lefts.truncated or rights.truncated
        for t in lefts.ordered:
            join_t = None
            for u in rights.ordered:
                peaks += 1
                if t == u:
                    continue
                if join_t is None:
                    join_t = epar(t, n, system, bounds)
                    truncated |= join_t.truncated
                join_u = epar(u, m, system, bounds)
                truncated |= join_u.truncated
                if join_t.terms.isdisjoint(join_u.terms):
                    return DiamondOutcome(DiamondPeak(seed, t, u), truncated, peaks)
    return DiamondOutcome(None, truncated, peaks)


def test_diamond_fuzz_asks_for_joins_in_the_oracle_order(fib, monkeypatch):
    import ctrskit.analysis as analysis
    import ctrskit.engine as engine

    calls = []
    fetched = []

    def recorded(t, level, system, bounds):
        calls.append((t, level))
        return epar_successors(t, level, system, bounds)

    class Recording:
        """The registry Rewriter that diamond_fuzz fetches, noting each ask."""

        def __init__(self, system, bounds):
            fetched.append((system, bounds))
            self.rewriter = engine._rewriter(system, bounds)

        def epar_successors(self, t, level):
            calls.append((t, level))
            return self.rewriter.epar_successors(t, level)

    def run(fuzz, *args):
        calls.clear()
        fetched.clear()
        return fuzz(*args), list(dict.fromkeys(calls))

    monkeypatch.setattr(analysis, "_rewriter", Recording)
    # k(b, b) sorts after its reducts g(b) and h(b), whose rules 1 and 2
    # have condition goals g(y) and h(y) that hold a variable: the engine
    # leaves them unsolved, so a level-1 step from g(b) or h(b) is cut
    unsolvable = parse_rules(
        "(VAR x y)(RULES g(x) -> x | g(y) == b  h(x) -> x | h(y) == b  "
        "k(x, x) -> g(b)  k(x, x) -> h(b))"
    )
    cut = set()
    for system, bounds in ((fib, Bounds(8, 6, 4096)), (fib, Bounds(8, 6, 3)),
                           (load_corpus("overlap.ctrs").ctrs, BOUNDS), (unsolvable, BOUNDS)):
        seeds = ground_terms(system.symbols, 3)
        for m, n in itertools.product((0, 1, 2), repeat=2):
            # one seed at a time too, as the calls of earlier seeds hide order
            for some in [seeds] + [[seed] for seed in seeds]:
                args = (system, some, m, n, bounds)
                expected = run(lambda *a: oracle_diamond_fuzz(*a, recorded), *args)
                assert run(diamond_fuzz, *args) == expected
                # one registry lookup per call, not one per join
                assert fetched == [(system, bounds)]
                if system is unsolvable:
                    # the peak g(b) <- k(b, b) -> h(b) does not join under
                    # the cut, so the outcome must say a bound may hide its join
                    outcome = expected[0]
                    assert outcome.counterexample is None or outcome.truncated
                    if outcome.truncated:
                        cut.add((m, n))
    # every level pair that steps at all meets the cut
    assert cut == set(itertools.product((0, 1, 2), repeat=2)) - {(0, 0)}


# The unindexed enumeration and IF1 test, kept as an oracle for the indexed
# ones: every ordered rule pair, the first rule as written and the second
# renamed from the first natural index above every index the system's
# variables carry, and unified at every function position; every lhs tried
# at every skeleton node, and hole numbering that starts above every `_sk`
# variable of the whole system.


def index_above(system):
    sides = [t for r in system.rules for t in (r.lhs, r.rhs)]
    sides += [t for r in system.rules for c in r.conds for t in (c.lhs, c.rhs)]
    indices = [v.index for t in sides for v in iter_vars(t) if v.index is not None]
    return max([i + 1 for i in indices if i >= 0], default=0)


def oracle_overlaps(system):
    k = index_above(system)
    out = []
    for i, r1 in enumerate(system.rules):
        for j, second in enumerate(system.rules):
            r2, _ = rename_apart(second, RenamingScope(k))
            for pos in function_positions(r1.lhs):
                unifier = mgu(subterm_at(r1.lhs, pos), r2.lhs)
                if unifier is not None:
                    out.append(Overlap(r1, r2, i, j, pos, unifier))
    return out


def oracle_skeleton_start(system, conds):
    top = 0
    seen = []
    for rule in system.rules:
        seen.extend((rule.lhs, rule.rhs))
        seen.extend(side for c in rule.conds for side in (c.lhs, c.rhs))
    seen.extend(side for c in conds for side in (c.lhs, c.rhs))
    for t in seen:
        for v in iter_vars(t):
            if v.name == "_sk" and v.index is not None:
                top = max(top, v.index + 1)
    return top


def oracle_skeleton(t, lhss, counter):
    def fresh():
        counter[0] += 1
        return Var("_sk", counter[0] - 1)

    if isinstance(t, Var):
        return fresh()
    u = Fun(t.symbol, tuple(oracle_skeleton(a, lhss, counter) for a in t.args))
    scope = RenamingScope(counter[0])
    for lhs in lhss:
        renamed, scope = rename_term_apart(lhs, scope)
        if mgu(renamed, u) is not None:
            return fresh()
    return u


def oracle_normal_form(t, system):
    if not is_ground(t):
        return False
    return all(match(r.lhs, sub) is None for sub in subterms(t) for r in system.rules)


def oracle_infeasible(overlap, system):
    conds = overlap.combined_conditions()
    if not conds:
        return Feasibility.unknown()
    lhss = [r.lhs for r in system.rules]
    counter = [oracle_skeleton_start(system, conds)]
    for cond in conds:
        if mgu(oracle_skeleton(cond.lhs, lhss, counter), cond.rhs) is None:
            return Feasibility.by_if1(cond)
    for a, b in itertools.combinations(conds, 2):
        if a.lhs != b.lhs or a.rhs == b.rhs:
            continue
        if oracle_normal_form(a.rhs, system) and oracle_normal_form(b.rhs, system):
            return Feasibility.by_if2(a, b)
    return Feasibility.unknown()


def oracle_dispositions(system):
    out = []
    for o in oracle_overlaps(system):
        if o.pos == () and is_variant(o.rule1, o.rule2):
            out.append(OverlapDisposition(o, DISP_ROOT_VARIANT))
        elif o.pos == () and apply_subst(o.rule1.rhs, o.mgu) == apply_subst(o.rule2.rhs, o.mgu):
            out.append(OverlapDisposition(o, DISP_EQUAL_RHS))
        else:
            feas = oracle_infeasible(o, system)
            disp = DISP_UNKNOWN
            if feas.infeasible:
                disp = DISP_IF1 if feas.reason == "IF1" else DISP_IF2
            out.append(OverlapDisposition(o, disp, feas))
    return out


def assert_matches_oracle(system):
    got = dispose_overlaps(system)
    want = oracle_dispositions(system)
    assert got == want
    # every unifier unifies the overlapped sides
    for od in got:
        o = od.overlap
        assert apply_subst(subterm_at(o.rule1.lhs, o.pos), o.mgu) == apply_subst(o.rule2.lhs, o.mgu)
    # equal substitutions may still differ in binding order; pin that too
    assert [list(od.overlap.mgu.items()) for od in got] == [
        list(od.overlap.mgu.items()) for od in want
    ]
    return got


def test_indexed_enumeration_matches_oracle_on_the_corpus():
    paths = sorted(CORPUS.glob("*.ctrs"))
    assert paths
    for path in paths:
        assert_matches_oracle(parse(path.read_text(encoding="utf-8")).ctrs)


HAND_BUILT = {
    # one symbol at several depths of one lhs
    "nested": "(VAR x)(RULES g(g(g(x))) -> x  g(a) -> b | a == b  g(g(b)) -> a)",
    # a non-left-linear lhs, overlapped at the root and below it
    "non-left-linear": (
        "(VAR x y)(RULES f(x, x) -> a  f(g(y), y) -> b | g(y) == a  g(b) -> a)"
    ),
    # constants as whole lhss and as arguments
    "constants": "(VAR x)(RULES a -> b  g(a) -> b | b == a  f(a, a) -> a  f(x, b) -> x)",
    # g occurs below the root of the first lhs only; f is never below a root
    "below-only": (
        "(VAR x y)(RULES f(g(x), a) -> x | g(x) == b  g(b) -> a | b == a  "
        "f(y, a) -> y | g(y) == a)"
    ),
    # a chained unifier at the root of rules 1 and 2: x is bound to z, then
    # y to g(x), which mgu must resolve to g(z) for the sides to meet; rule 3
    # overlaps rule 1 below the root
    "chained": "(VAR x y z)(RULES f(g(x), x) -> a  f(y, z) -> b  g(a) -> b)",
}


def test_indexed_enumeration_matches_oracle_on_hand_built_systems():
    found = {}
    for name, text in HAND_BUILT.items():
        found[name] = assert_matches_oracle(parse_rules(text))
    # each system really overlaps below the root, and IF1 and IF2 both occur
    for name, dispositions in found.items():
        assert any(od.overlap.pos != () for od in dispositions), name
    seen = {od.disposition for ods in found.values() for od in ods}
    assert {DISP_ROOT_VARIANT, DISP_IF1, DISP_UNKNOWN} <= seen


def test_enumeration_renames_each_rule_once(monkeypatch):
    # one second-role variant of every rule, whatever overlaps, and first
    # rules as written; a rule always overlaps its own variant at the root,
    # so none goes unused
    import ctrskit.analysis as analysis

    calls = []

    def counted(rule, ren):
        calls.append(rule)
        return rename_rule(rule, ren)

    monkeypatch.setattr(analysis, "rename_rule", counted)
    systems = [load_corpus(path.name).ctrs for path in sorted(CORPUS.glob("*.ctrs"))]
    systems += [parse_rules(text) for text in HAND_BUILT.values()]
    for system in systems:
        calls.clear()
        overlaps = conditional_overlaps(system)
        assert Counter(calls) == Counter(system.rules)
        assert {(o.rule1_index, o.rule2_index) for o in overlaps if o.pos == ()} >= {
            (i, i) for i in range(len(system.rules))
        }


SIG = (Symbol("f", 2), Symbol("g", 1), Symbol("a", 0), Symbol("b", 0))
VARS = (Var("x"), Var("y"), Var("_sk", 0), Var("_sk", 3))


def terms(max_leaves=6):
    leaves = st.sampled_from(VARS + tuple(Fun(s) for s in SIG if s.arity == 0))
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(lambda t: Fun(SIG[1], (t,)), kids),
            st.builds(lambda s, t: Fun(SIG[0], (s, t)), kids, kids),
        ),
        max_leaves=max_leaves,
    )


rules = st.builds(
    lambda lhs, rhs, conds: Rule(lhs, rhs, tuple(conds)),
    terms().filter(lambda t: isinstance(t, Fun)),
    terms(),
    st.lists(st.builds(Condition, terms(), terms()), max_size=2),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(rules, min_size=1, max_size=5))
def test_indexed_enumeration_matches_oracle_on_random_systems(rule_list):
    assert_matches_oracle(Ctrs.from_rules(rule_list, SIG))


def test_skeleton_holes_only_avoid_the_overlap_conditions():
    q, g_, s_, p, pair = (
        Symbol("q", 1), Symbol("g", 1), Symbol("s", 1), Symbol("p", 1), Symbol("pair", 2),
    )
    zero, a, b, k = (Fun(Symbol(name, 0)) for name in ("0", "a", "b", "k"))
    x = Var("x")

    def sk(n):
        return Var("_sk", n)

    system = Ctrs.from_rules(
        (
            Rule(Fun(q, (sk(0),)), a, (Condition(Fun(g_, (sk(0),)), zero),)),
            Rule(Fun(q, (x,)), b),
            # renamed, the condition reads pair(k, k) == pair(s(_sk#0), _sk#0);
            # k is reducible, so both its holes must avoid _sk#0, or the
            # occurs check fails and the overlap is wrongly IF1
            Rule(
                Fun(p, (a,)),
                a,
                (Condition(Fun(pair, (k, k)), Fun(pair, (Fun(s_, (sk(4),)), sk(4)))),),
            ),
            Rule(Fun(p, (x,)), b),
            Rule(k, b),
            # an lhs variable above every condition's, which only the old
            # whole-system scan saw
            Rule(Fun(s_, (Fun(s_, (sk(9),)),)), Fun(s_, (sk(9),))),
        )
    )
    got = assert_matches_oracle(system)
    by_pair = {(od.overlap.rule1_index, od.overlap.rule2_index): od for od in got}
    assert by_pair[(0, 1)].disposition == DISP_IF1
    assert by_pair[(2, 3)].disposition == DISP_UNKNOWN
    # the numberings really differ, so the equal dispositions are not vacuous:
    # every hole is negative, and the oracle's holes start above zero
    conds = by_pair[(2, 3)].overlap.combined_conditions()
    holes = [
        v for c in conds for v in iter_vars(_skeleton(c.lhs, system, itertools.count(-1, -1)))
    ]
    assert holes and all(v.index < 0 for v in holes)
    assert oracle_skeleton_start(system, conds) > 0


def test_infeasibility_never_contradicts_a_ground_search_on_random_systems():
    # IF2 assumes level-wise commutation, which a random system that fails
    # the criterion can break, so it is held to the search only where the
    # verdict is LEVEL_CONFLUENT
    checked = {DISP_IF1: 0, DISP_IF2: 0}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(rules, min_size=1, max_size=5))
    def check(rule_list):
        system = Ctrs.from_rules(rule_list, SIG)
        verdict = check_level_confluence(system)
        for od in verdict.overlaps:
            if od.disposition not in checked:
                continue
            if od.disposition == DISP_IF2 and not verdict.level_confluent:
                continue
            conds = od.overlap.combined_conditions()
            if len({v for c in conds for v in vars_of(c.lhs) | vars_of(c.rhs)}) > 3:
                continue
            satisfiable = ground_search_satisfiable(od.overlap, system, size=3, depth=4)
            assert not satisfiable, (rule_list, od.overlap.pos, od.disposition)
            checked[od.disposition] += 1

    check()
    assert checked[DISP_IF1] >= 50


def test_level_confluent_systems_close_every_diamond_peak():
    # the paper's theorem on random systems: whenever the criterion applies,
    # every peak of parallel steps at levels m and n joins, unless a bound
    # cut the search short.  The floors keep the test from passing
    # vacuously; under one in ten random systems gets the verdict, and at 300
    # examples the count moved between 23 and 33 with edits to this body, so
    # 600 keep it clear of the floor
    tally = {"systems": 0, "runs": 0}

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(st.lists(rules, min_size=1, max_size=5))
    def check(rule_list):
        system = Ctrs.from_rules(rule_list, SIG)
        if not check_level_confluence(system).level_confluent:
            return
        seeds = ground_terms(system.symbols, 3)
        outcomes = [diamond_fuzz(system, seeds, m, n, Bounds(8, 4, 300))
                    for m, n in ((1, 1), (1, 2), (2, 2))]
        for outcome in outcomes:
            assert outcome.counterexample is None or outcome.truncated, rule_list
        tally["systems"] += 1
        tally["runs"] += len(outcomes)

    check()
    assert tally["systems"] >= 30 and tally["runs"] >= 90


# a pair shaped like a gen_cops `if1` or `if2` block, rooted at SIG's g and
# over one variable of VARS, plus the fresh symbols its shape needs: the root
# overlaps between its two rules are infeasible by IF1 or by IF2
C, D, S, ZERO = Symbol("c", 0), Symbol("d", 0), Symbol("s", 1), Symbol("0", 0)


def infeasible_pair(shape, v):
    lhs, a, b = Fun(SIG[1], (v,)), Fun(SIG[2]), Fun(SIG[3])
    if shape == "if1":
        return [Rule(lhs, a, (Condition(Fun(S, (v,)), Fun(ZERO)),)), Rule(lhs, b)]
    return [Rule(lhs, a, (Condition(v, Fun(C)),)), Rule(lhs, b, (Condition(v, Fun(D)),))]


def test_level_confluent_systems_with_an_infeasible_pair_hold_up():
    # the verdicts that rest on IF1 or IF2: on every level-confluent system,
    # no IF1 or IF2 overlap has a ground solution, and every diamond peak
    # joins unless a bound cut the search short.  The ground search stops at
    # depth 3: at 4, the IF1 overlaps of `g(y) -> a | s(y) == 0` beside the
    # growing `b -> f(f(b, a), f(b, a))` took 37 s
    tally = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(rules, max_size=4),
        st.sampled_from(("if1", "if2")),
        st.sampled_from(VARS),
        st.integers(0, 4),
    )
    def check(rule_list, shape, v, at):
        rule_list = rule_list[:at] + infeasible_pair(shape, v) + rule_list[at:]
        system = Ctrs.from_rules(rule_list, SIG)
        verdict = check_level_confluence(system)
        if not verdict.level_confluent:
            return
        infeasible_overlaps = [
            od for od in verdict.overlaps if od.disposition in (DISP_IF1, DISP_IF2)
        ]
        for od in infeasible_overlaps:
            satisfiable = ground_search_satisfiable(od.overlap, system, size=3, depth=3)
            assert not satisfiable, (rule_list, od.overlap.pos, od.disposition)
        seeds = ground_terms(system.symbols, 3)
        for m, n in ((1, 1), (1, 2), (2, 2)):
            outcome = diamond_fuzz(system, seeds, m, n, Bounds(8, 4, 300))
            assert outcome.counterexample is None or outcome.truncated, rule_list
        tally["systems"] += 1
        tally.update({od.disposition for od in infeasible_overlaps})

    check()
    # 40 level-confluent systems, 25 with an IF1 and 15 with an IF2 overlap
    # when this was written; the draws follow the source of `check`
    assert tally["systems"] >= 20 and tally[DISP_IF1] >= 12 and tally[DISP_IF2] >= 8, tally


# injective images for the variables of VARS, indexed ones and ones that
# swap the names x and y included
RENAME_POOL = (Var("x"), Var("y"), Var("u"), Var("_sk", 1), Var("_sk", 0), Var("v", 5))


def verdict_shape(verdict, pi):
    """The verdict with every rule index sent through pi, as multisets where
    the order follows the rules."""
    def at(i):
        return None if i is None else pi[i]

    return (
        verdict.level_confluent,
        verdict.ctrs_type,
        [(p.name, p.holds, Counter(at(w.rule_index) for w in p.witnesses))
         for p in verdict.properties],
        Counter(
            (pi[od.overlap.rule1_index], pi[od.overlap.rule2_index], od.overlap.pos,
             od.disposition)
            for od in verdict.overlaps
        ),
    )


def assert_verdict_invariant(rule_list, data):
    """Permuting the rules and renaming the variables injectively changes
    only which index a rule has: verdict, class, each property's holds, the
    witnesses' rules and every overlap's rules, position and disposition are
    the same up to that permutation.  Returns the verdict on `rule_list` and
    whether the drawn permutation moved a rule."""
    perm = data.draw(st.permutations(range(len(rule_list))))
    images = data.draw(st.permutations(RENAME_POOL))
    ren = Subst(dict(zip(VARS, images)))
    changed = Ctrs.from_rules([rename_rule(rule_list[k], ren) for k in perm], SIG)
    identity = list(range(len(rule_list)))
    pi = {old: new for new, old in enumerate(perm)}
    before = check_level_confluence(Ctrs.from_rules(rule_list, SIG))
    after = check_level_confluence(changed)
    assert verdict_shape(before, pi) == verdict_shape(after, identity), (rule_list, perm, ren)
    return before, perm != identity


def test_verdict_is_invariant_under_rule_order_and_variable_names():
    tally = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(rules, min_size=1, max_size=5), st.data())
    def check(rule_list, data):
        verdict, moved = assert_verdict_invariant(rule_list, data)
        tally["moved"] += moved
        tally.update(od.disposition for od in verdict.overlaps)

    check()
    # 73 permutations that moved a rule, 307 IF1 and 514 unknown overlaps
    # when this was written; the draws follow the source of `check`, so an
    # edit to it moves them
    assert tally["moved"] >= 20 and tally[DISP_IF1] >= 80 and tally[DISP_UNKNOWN] >= 120, tally


def test_verdicts_with_an_infeasible_pair_are_invariant_under_rule_order_and_variable_names():
    # the metamorphic check above, on the systems of the infeasible-pair test
    # above it, so that overlaps disposed of by IF2 are permuted and renamed
    # too; it runs no rewriting search
    tally = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(rules, max_size=4),
        st.sampled_from(("if1", "if2")),
        st.sampled_from(VARS),
        st.integers(0, 4),
        st.data(),
    )
    def check(rule_list, shape, v, at, data):
        rule_list = rule_list[:at] + infeasible_pair(shape, v) + rule_list[at:]
        verdict, moved = assert_verdict_invariant(rule_list, data)
        tally["moved"] += moved
        tally["level-confluent"] += verdict.level_confluent
        tally.update(od.disposition for od in verdict.overlaps)

    check()
    # 99 permutations that moved a rule, 638 IF1 and 78 IF2 overlaps, and 43
    # level-confluent systems when this was written, in about 1 s; the draws
    # follow the source of `check`
    assert tally["moved"] >= 50 and tally[DISP_IF1] >= 300 and tally[DISP_IF2] >= 40, tally
    assert tally["level-confluent"] >= 20, tally
