import dataclasses
import os
import pickle
import re
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctrskit.ctrs as ctrs_module
from ctrskit.cops import parse
from ctrskit.ctrs import (
    Condition,
    Ctrs,
    PropertyReport,
    Rule,
    Witness,
    check_left_linear,
    check_properly_oriented,
    check_right_stable,
    check_type3,
    classify_type,
    extra_vars,
    is_ground_normal_form_ru,
    loose_conditions,
    loose_rhs_vars,
    rule_type,
    rule_variables,
    rule_vars,
    underlying_trs,
)
from ctrskit.engine import Bounds, Rewriter
from ctrskit.terms import Fun, Var, ground_terms, match, subterms, vars_of
from ctrskit.unify import RenamingScope, rename_apart

from conftest import A, B, F, G, X, Y, Z, corpus_path, load_corpus

a = Fun(A)
b = Fun(B)
X1 = Var("x", 1)


def g(t):
    return Fun(G, (t,))


def system(*rules):
    return Ctrs.from_rules(rules)


def test_rule_lhs_must_not_be_variable():
    with pytest.raises(ValueError):
        Rule(X, a)


def test_report_holds_exactly_when_it_has_no_witness():
    assert [f.name for f in dataclasses.fields(PropertyReport)] == ["name", "witnesses"]
    assert PropertyReport("left-linear", ()).holds
    assert PropertyReport("left-linear").holds
    failing = PropertyReport("left-linear", [Witness(0, "dup")])
    assert not failing.holds and failing.witnesses == (Witness(0, "dup"),)
    # read off the witnesses, so no record can disagree with them
    with pytest.raises(AttributeError):
        failing.holds = True


def test_classify_type():
    assert classify_type(system(Rule(g(X), X))) == 1
    assert classify_type(system(Rule(g(X), Y))) == 4
    assert classify_type(system(Rule(g(X), X, (Condition(g(Y), b),)))) == 2
    assert classify_type(system(Rule(g(X), Y, (Condition(g(X), Y),)))) == 3
    assert classify_type(Ctrs(frozenset(), ()))== 1


def test_rule_variables_extra_vars_and_rule_type():
    # lhs, rhs, then each condition's sides, each variable at its first occurrence
    rule = Rule(Fun(F, (Y, X)), Y, (Condition(g(Z), Fun(F, (X, Z))), Condition(X1, Y)))
    assert rule_variables(rule) == (Y, X, Z, X1)
    assert extra_vars(rule) == {Z, X1}
    assert rule_type(rule) == 2
    bound_y = (Condition(g(X), Y),)
    rules = (Rule(g(X), X), Rule(g(X), Y, bound_y), Rule(g(X), Fun(F, (Y, Z)), bound_y))
    assert [rule_type(r) for r in rules] == [1, 3, 4]
    assert rule_variables(Rule(a, b)) == () and extra_vars(Rule(a, b)) == frozenset()


def test_loose_rhs_vars_decide_type_4_and_the_type_3_witness():
    z = Var("z")
    rule = Rule(g(X), Fun(F, (Y, z)), (Condition(g(X), Y),))
    assert loose_rhs_vars(rule) == {z}
    assert loose_rhs_vars(Rule(g(X), Y, (Condition(g(X), Y),))) == frozenset()
    assert classify_type(system(rule)) == 4
    assert [w.detail for w in check_type3(system(rule)).witnesses] == [
        "right-hand side variable(s) z bound by neither the lhs nor any condition"
    ]
    # a variable set is listed sorted by rendered name
    assert [w.detail for w in check_type3(system(Rule(g(X), Fun(F, (Y, X1))))).witnesses] == [
        "right-hand side variable(s) x#1, y bound by neither the lhs nor any condition"
    ]


def test_classify_type_fib(fib):
    # rule 2 binds its extra rhs variables in the condition
    assert classify_type(fib) == 3


def test_underlying_trs(fib):
    pairs = underlying_trs(fib)
    assert pairs == [(r.lhs, r.rhs) for r in fib.rules]
    assert all(len(pair) == 2 for pair in pairs)
    assert underlying_trs(Ctrs(frozenset(), ())) == []


def test_is_ground_normal_form_ru(fib, fb):
    assert is_ground_normal_form_ru(fb.s(fb.zero), fib)
    assert not is_ground_normal_form_ru(fb.fib(fb.zero), fib)
    assert not is_ground_normal_form_ru(X, fib)
    # reducible strictly below the root
    assert not is_ground_normal_form_ru(fb.s(fb.fib(fb.zero)), fib)


def test_is_ground_normal_form_ru_agrees_with_every_rule(fib):
    for t in ground_terms(fib.symbols, 4):
        irreducible = all(
            match(r.lhs, sub) is None for sub in subterms(t) for r in fib.rules
        )
        assert is_ground_normal_form_ru(t, fib) == irreducible, t


def test_rules_by_symbol_is_one_cached_index_in_system_order():
    rules = (Rule(g(X), a), Rule(Fun(F, (X, Y)), X), Rule(g(a), b), Rule(a, b))
    sys_ = system(*rules)
    index = sys_.rules_by_symbol
    assert sys_.rules_by_symbol is index
    assert dict(index) == {
        G: (rules[0], rules[2]),
        F: (rules[1],),
        A: (rules[3],),
    }
    with pytest.raises(TypeError):
        index[B] = ()
    # the engine shares the system's index instead of building its own
    assert Rewriter(sys_, Bounds())._rules is index


def test_rules_by_symbol_leaves_equality_hash_and_pickles_alone():
    text = corpus_path("fib.ctrs").read_text(encoding="utf-8")
    indexed, bare = parse(text).ctrs, parse(text).ctrs
    indexed.rules_by_symbol
    assert "rules_by_symbol" in vars(indexed) and "rules_by_symbol" not in vars(bare)
    assert indexed == bare and hash(indexed) == hash(bare)
    child = (
        "import pickle, sys\n"
        "from ctrskit.cops import parse\n"
        "system = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = parse(open(sys.argv[1]).read()).ctrs\n"
        "assert 'rules_by_symbol' not in vars(system)\n"
        "assert system == fresh and hash(system) == hash(fresh)\n"
        "assert dict(system.rules_by_symbol) == dict(fresh.rules_by_symbol)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, str(corpus_path("fib.ctrs"))],
        input=pickle.dumps(indexed),
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED="54321"),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]


def test_check_left_linear(fib):
    assert check_left_linear(fib).holds
    bad = check_left_linear(system(Rule(Fun(F, (X, X)), X)))
    assert not bad.holds
    assert bad.witnesses[0].rule_index == 0
    # the repeated variables are listed sorted by name, not by occurrence
    twice = Fun(F, (Y, X1))
    report = check_left_linear(system(Rule(Fun(F, (twice, twice)), Y)))
    assert [w.detail for w in report.witnesses] == [
        "variable(s) x#1, y repeated in left-hand side f(f(y, x#1), f(y, x#1))"
    ]
    assert check_left_linear(Ctrs(frozenset(), ())).holds


def test_check_properly_oriented(fib):
    assert check_properly_oriented(fib).holds
    bad = system(Rule(g(X), Y, (Condition(g(Y), a),)))
    report = check_properly_oriented(bad)
    assert not report.holds and report.witnesses[0].rule_index == 0
    # rules without extra rhs variables are exempt, whatever their conditions
    exempt = system(Rule(g(X), X, (Condition(g(Y), a),)))
    assert check_properly_oriented(exempt).holds
    unconditional = system(Rule(g(X), X), Rule(Fun(F, (X, Y)), Y))
    assert check_properly_oriented(unconditional).holds


def test_check_properly_oriented_uses_earlier_condition_rhss():
    # y is loose in condition 1's lhs but bound once condition order is right
    bad = system(Rule(g(X), Y, (Condition(g(Y), a), Condition(g(X), Y))))
    assert not check_properly_oriented(bad).holds
    good = system(Rule(g(X), Y, (Condition(g(X), Y), Condition(g(Y), a))))
    assert check_properly_oriented(good).holds


def test_binding_rule_witnesses_name_the_conditions_the_engine_cuts():
    bad = system(Rule(g(X), Y, (Condition(g(Y), a), Condition(Fun(F, (X, Y)), Y))))
    assert [(i, str(c), loose) for i, c, loose in loose_conditions(bad.rules[0])] == [
        (0, "g(y) == a", {Y}),
        (1, "f(x, y) == y", {Y}),
    ]
    assert [w.detail for w in check_properly_oriented(bad).witnesses] == [
        "condition 1 left-hand side g(y) uses variable(s) y not bound by the rule lhs "
        "or earlier condition rhss",
        "condition 2 left-hand side f(x, y) uses variable(s) y not bound by the rule lhs "
        "or earlier condition rhss",
    ]
    # the loose y leaves condition 1's goal g(y) unsolved: no step, and a cut
    assert Rewriter(bad, Bounds()).root_steps(g(a), 1) == (frozenset(), True)
    # a variable set is listed sorted by rendered name
    two = system(Rule(g(X), Z, (Condition(Fun(F, (Y, X1)), Z),)))
    assert [w.detail for w in check_properly_oriented(two).witnesses] == [
        "condition 1 left-hand side f(y, x#1) uses variable(s) x#1, y not bound by "
        "the rule lhs or earlier condition rhss"
    ]
    assert Rewriter(two, Bounds()).root_steps(g(a), 1) == (frozenset(), True)
    # ordered so that nothing is loose, the same conditions are solved, and
    # fail, with no cut
    good = system(Rule(g(X), Y, (Condition(Fun(F, (X, X)), Y), Condition(g(Y), a))))
    assert list(loose_conditions(good.rules[0])) == []
    assert Rewriter(good, Bounds()).root_steps(g(a), 1) == (frozenset(), False)


def test_pickled_systems_and_terms_rehash_in_another_process(fib):
    # symbols and terms hash by address, which differs between processes, so
    # a system's cached hash must not travel with its pickle, and a term must
    # load as the interned one
    t = fib.rules[0].lhs
    child = (
        "import pickle, sys\n"
        "from ctrskit.cops import parse\n"
        "system, t = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = parse(open(sys.argv[1]).read()).ctrs\n"
        "assert system in {fresh} and t in {fresh.rules[0].lhs}\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, str(corpus_path("fib.ctrs"))],
        input=pickle.dumps((fib, t)),
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED="12345"),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]


def test_check_right_stable(fib):
    assert check_right_stable(fib).holds
    shares = system(Rule(g(X), X, (Condition(g(X), X),)))
    report = check_right_stable(shares)
    assert not report.holds and report.witnesses[0].rule_index == 0
    nonlinear_rhs = system(Rule(g(X), Y, (Condition(X, Fun(F, (Y, Y))),)))
    assert [w.detail for w in check_right_stable(nonlinear_rhs).witnesses] == [
        "condition 1 right-hand side f(y, y) is neither a linear constructor term "
        "nor a ground normal form of the condition-erased system"
    ]
    # f is a constructor here, so sharing is the only fault
    shares_two = system(Rule(g(Fun(F, (Y, X1))), Y, (Condition(g(Y), Fun(F, (X1, Y))),)))
    assert [w.detail for w in check_right_stable(shares_two).witnesses] == [
        "condition 1 right-hand side f(x#1, y) shares variable(s) x#1, y with "
        "earlier parts of the rule"
    ]


def test_right_stable_accepts_ground_normal_form_rhs():
    ok = system(Rule(g(X), X, (Condition(X, a),)), Rule(a, b))
    # a is the lhs of a rule, hence not a normal form of the erased system,
    # but it is also not a constructor term; b would be fine
    assert not check_right_stable(ok).holds
    ok2 = system(Rule(g(X), X, (Condition(X, b),)), Rule(a, b))
    assert check_right_stable(ok2).holds


def test_checkers_invariant_under_renaming(fib):
    for name in ("fib.ctrs", "non_properly_oriented.ctrs", "non_right_stable.ctrs"):
        original = load_corpus(name).ctrs
        scope = RenamingScope()
        renamed_rules = []
        for rule in original.rules:
            image, scope = rename_apart(rule, scope)
            renamed_rules.append(image)
        renamed = Ctrs(original.symbols, tuple(renamed_rules))
        for check in (check_left_linear, check_properly_oriented, check_right_stable):
            assert check(original).holds == check(renamed).holds
        assert classify_type(original) == classify_type(renamed)


def test_ground_nf_shrinks_when_rules_are_added(fib, fb):
    # adding a rule can only remove ground normal forms, never add one
    from ctrskit.terms import ground_terms

    extended = Ctrs.from_rules(
        fib.rules + (Rule(fb.pair(X, Y), X),), extra_symbols=fib.symbols
    )
    for t in ground_terms(fib.symbols, 4):
        if is_ground_normal_form_ru(t, extended):
            assert is_ground_normal_form_ru(t, fib)


def test_defined_and_constructor_split(fib):
    defined = {s.name for s in fib.defined_symbols}
    constructors = {s.name for s in fib.constructor_symbols}
    assert defined == {"fib", "add"}
    assert constructors == {"0", "s", "pair"}


def test_signature_validation():
    orphan = Fun(B)
    with pytest.raises(ValueError):
        Ctrs(frozenset({A}), (Rule(Fun(G, (orphan,)), orphan),))


def test_undeclared_symbol_error_names_the_first_in_rule_order():
    # lhs, rhs, then each condition's lhs and rhs, each term root first
    rules = (
        (Rule(g(X), Fun(F, (X, b)), (Condition(g(b), a),)), "f"),
        (Rule(g(X), X, (Condition(g(Fun(F, (X, b))), a), Condition(X, b))), "f"),
        (Rule(g(X), X, (Condition(g(X), X), Condition(X, b))), "b"),
    )
    for rule, first in rules:
        with pytest.raises(ValueError, match=f"^symbol '{first}' not in"):
            Ctrs(frozenset({A, G}), (rule,))
    # from_rules collects the symbols of every part of every rule
    assert Ctrs.from_rules((rules[0][0],)).symbols == {A, B, F, G}
    assert Ctrs.from_rules((rules[2][0],), (A,)).symbols == {A, B, G}


def test_each_construction_walks_each_rule_once(monkeypatch, fib):
    walked = []
    rule_symbols = ctrs_module.rule_symbols
    monkeypatch.setattr(
        ctrs_module, "rule_symbols", lambda rule: walked.append(rule) or rule_symbols(rule)
    )
    # from_rules collects the signature, which holds every symbol by
    # construction, so it needs no second walk to check it
    built = Ctrs.from_rules(fib.rules, (A,))
    assert walked == list(fib.rules)
    # a direct construction walks them once, to check the declared signature
    walked.clear()
    assert built == Ctrs(fib.symbols | {A}, fib.rules)
    assert walked == list(fib.rules)
    walked.clear()
    with pytest.raises(ValueError, match="^symbol 'fib' not in"):
        Ctrs(fib.symbols - fib.defined_symbols, fib.rules)
    assert walked == [fib.rules[0]]


def test_type_le_3_iff_rhs_vars_are_bound_somewhere():
    import random

    from ctrskit.terms import vars_of

    from conftest import random_term

    rng = random.Random(51)
    for _ in range(200):
        lhs = Fun(F, (random_term(rng, 2), random_term(rng, 2)))
        rhs = random_term(rng, 2)
        conds = tuple(
            Condition(random_term(rng, 2), random_term(rng, 2))
            for _ in range(rng.randrange(0, 3))
        )
        sys_ = system(Rule(lhs, rhs, conds))
        bound = set(vars_of(lhs))
        for c in conds:
            bound |= vars_of(c.lhs) | vars_of(c.rhs)
        admissible = vars_of(rhs) <= bound
        assert (classify_type(sys_) <= 3) == admissible


def oracle_classify_type(system):
    # the one-pass loop that `rule_type` replaced, with the union-based
    # `loose_rhs_vars` it called
    t = 1
    for rule in system.rules:
        lv = vars_of(rule.lhs)
        if not vars_of(rule.rhs) <= lv:
            bound = lv.union(*(vars_of(c.lhs) | vars_of(c.rhs) for c in rule.conds))
            if vars_of(rule.rhs) - bound:
                return 4
            t = 3
        elif t == 1 and not lv.issuperset(rule_vars(rule)):
            t = 2
    return t


def class_terms(variables):
    leaves = st.sampled_from(variables + (a, b))
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(g, kids), st.builds(lambda s, t: Fun(F, (s, t)), kids, kids)
        ),
        max_leaves=4,
    )


W = Var("w")
# an lhs over x and y, an rhs that may add z, and conditions that may add z
# and w: so a rule's extra variables may sit in its conditions only (type 2),
# in its rhs bound by a condition (type 3) or in its rhs alone (type 4)
class_rules = st.builds(
    lambda lhs, rhs, conds: Rule(lhs, rhs, tuple(conds)),
    class_terms((X, Y)).filter(lambda t: isinstance(t, Fun)),
    st.one_of(class_terms((X, Y)), class_terms((X, Y, Z))),
    st.lists(
        st.builds(Condition, class_terms((X, Y, Z, W)), class_terms((Y, Z, W))), max_size=2
    ),
)


def test_classify_type_is_the_largest_rule_type_and_agrees_with_the_loop():
    per_class = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(class_rules, min_size=1, max_size=3))
    def check(rule_list):
        sys_ = system(*rule_list)
        assert classify_type(sys_) == oracle_classify_type(sys_), rule_list
        for rule in rule_list:
            # type 1 or 2: the rhs holds no extra variable, which is what
            # exempts a rule from the proper-orientedness check
            assert (rule_type(rule) <= 2) == (vars_of(rule.rhs) <= vars_of(rule.lhs)), rule
        per_class[classify_type(sys_)] += 1

    check()
    # 53, 85, 45 and 117 systems per class 1-4 when this was written
    assert all(per_class[k] >= 25 for k in (1, 2, 3, 4)), per_class


def test_type3_report_witnesses_exactly_the_type_4_rules():
    per_class = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(class_rules, min_size=1, max_size=3))
    def check(rule_list):
        sys_ = system(*rule_list)
        report = check_type3(sys_)
        assert report.holds == (classify_type(sys_) <= 3), rule_list
        type4 = [idx for idx, rule in enumerate(rule_list) if rule_type(rule) == 4]
        assert [w.rule_index for w in report.witnesses] == type4, rule_list
        per_class[classify_type(sys_)] += 1

    check()
    # 73 systems in class 3 and 117 in class 4 when this was written
    assert per_class[3] >= 25 and per_class[4] >= 25, per_class


def oracle_term_vars(t):
    return {t} if isinstance(t, Var) else set().union(*map(oracle_term_vars, t.args))


def oracle_properly_oriented(system):
    # Suzuki, Middeldorp and Ida (RTA 1995): a rule l -> r <= s1 == t1, ...,
    # sn == tn with Var(r) not a subset of Var(l) has Var(si) a subset of
    # Var(l) and the Var(tj), j < i, for each i; a rule with Var(r) a subset
    # of Var(l) is exempt.  Returns the breaches as (rule, condition, loose
    # variables), and the exempt rules whose conditions would breach it
    breaches, exempt = [], []
    for idx, rule in enumerate(system.rules):
        lhs_vars = oracle_term_vars(rule.lhs)
        bound = set(lhs_vars)
        for i, cond in enumerate(rule.conds):
            loose = oracle_term_vars(cond.lhs) - bound
            if loose and oracle_term_vars(rule.rhs) <= lhs_vars:
                exempt.append(idx)
            elif loose:
                breaches.append((idx, i, loose))
            bound |= oracle_term_vars(cond.rhs)
    return breaches, exempt


WITNESS = re.compile(r"condition (\d+) left-hand side .* uses variable\(s\) (.*) not bound by")


def test_properly_oriented_agrees_with_the_definition():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(class_rules, min_size=1, max_size=3))
    def check(rule_list):
        sys_ = system(*rule_list)
        report = check_properly_oriented(sys_)
        breaches, exempt = oracle_properly_oriented(sys_)
        got = []
        for w in report.witnesses:
            cond, names = WITNESS.match(w.detail).groups()
            got.append((w.rule_index, int(cond) - 1, names))
        want = [(idx, i, ", ".join(sorted(map(str, loose)))) for idx, i, loose in breaches]
        assert report.holds == (not breaches) and got == want, rule_list
        seen["fails"] += bool(breaches)
        seen["exempt"] += bool(exempt)

    check()
    # systems that fail, and systems with a rule that breaches the binding
    # rule but is exempt, both of which a checker that confused the two
    # cases would get wrong
    assert seen["fails"] >= 25 and seen["exempt"] >= 25, seen


def oracle_occurrences(t):
    # every variable occurrence of t, left to right
    return [t] if isinstance(t, Var) else [v for u in t.args for v in oracle_occurrences(u)]


def oracle_subterms(t):
    return [t] if isinstance(t, Var) else [t, *(s for u in t.args for s in oracle_subterms(u))]


def oracle_is_instance(t, pattern, binding):
    if isinstance(pattern, Var):
        return binding.setdefault(pattern, t) == t
    return (
        isinstance(t, Fun)
        and t.symbol == pattern.symbol
        and all(oracle_is_instance(u, p, binding) for u, p in zip(t.args, pattern.args))
    )


def oracle_right_stable(system):
    # Suzuki, Middeldorp and Ida (RTA 1995): each condition si == ti of a rule
    # l -> r <= s1 == t1, ..., sn == tn has Var(l, s1, ..., si, t1, ...,
    # t(i-1)) disjoint from Var(ti), and ti is a linear constructor term or a
    # ground normal form of the condition-erased system.  Returns the breaches
    # as (rule, condition, kind), and the conditions whose rhs is accepted
    # only as a ground normal form
    lhss = [rule.lhs for rule in system.rules]
    defined = {lhs.symbol for lhs in lhss}
    breaches, normal_forms = [], []
    for idx, rule in enumerate(system.rules):
        for i, cond in enumerate(rule.conds):
            before = [rule.lhs, cond.lhs] + [s for c in rule.conds[:i] for s in (c.lhs, c.rhs)]
            if any(oracle_term_vars(cond.rhs) & oracle_term_vars(t) for t in before):
                breaches.append((idx, i, "shares"))
            occurrences = oracle_occurrences(cond.rhs)
            constructor = len(set(occurrences)) == len(occurrences) and all(
                isinstance(u, Var) or u.symbol not in defined for u in oracle_subterms(cond.rhs)
            )
            normal_form = not occurrences and not any(
                oracle_is_instance(u, lhs, {}) for u in oracle_subterms(cond.rhs) for lhs in lhss
            )
            if not (constructor or normal_form):
                breaches.append((idx, i, "shape"))
            elif not constructor:
                normal_forms.append((idx, i))
    return breaches, normal_forms


def oracle_left_linear(system):
    # no variable occurs twice in a left-hand side
    return [
        idx
        for idx, rule in enumerate(system.rules)
        if len(set(oracle_occurrences(rule.lhs))) < len(oracle_occurrences(rule.lhs))
    ]


RIGHT_STABLE_WITNESS = re.compile(r"condition (\d+) right-hand side .* (shares|is neither) ")


def test_right_stable_and_left_linear_agree_with_the_definitions():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(class_rules, min_size=1, max_size=3))
    def check(rule_list):
        sys_ = system(*rule_list)
        report = check_right_stable(sys_)
        breaches, normal_forms = oracle_right_stable(sys_)
        got = []
        for w in report.witnesses:
            cond, kind = RIGHT_STABLE_WITNESS.match(w.detail).groups()
            got.append((w.rule_index, int(cond) - 1, "shares" if kind == "shares" else "shape"))
        assert report.holds == (not breaches) and got == breaches, rule_list
        report = check_left_linear(sys_)
        nonlinear = oracle_left_linear(sys_)
        assert report.holds == (not nonlinear), rule_list
        assert [w.rule_index for w in report.witnesses] == nonlinear, rule_list
        seen.update({kind for _, _, kind in breaches})
        seen["normal-form"] += bool(normal_forms)
        seen["non-left-linear"] += bool(nonlinear)
        seen["right-stable"] += not breaches

    check()
    # systems with a condition rhs that shares a variable, one of the wrong
    # shape, one accepted only as a ground normal form, a non-left-linear
    # lhs, and right-stable systems: 127, 163, 40, 91 and 106 when written
    floors = {
        "shares": 50, "shape": 50, "normal-form": 15, "non-left-linear": 30, "right-stable": 50
    }
    assert all(seen[kind] >= n for kind, n in floors.items()), seen
