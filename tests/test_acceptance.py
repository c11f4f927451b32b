"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also enforces its runtime budget.
"""

import itertools
import json
import random
import time

import pytest

from ctrskit.analysis import (
    DISP_IF1,
    DISP_IF2,
    DiamondPeak,
    diamond_fuzz,
    dispose_overlaps,
)
from ctrskit.cli import main as cli_main
from ctrskit.cops import (
    ArityConflictError,
    ParseError,
    UnknownConditionTypeError,
    VariableAsLhsError,
    parse,
    render_system,
)
from ctrskit.engine import Bounds, cstep_n, cstep_star, epar_check, epar_successors, root_steps
from ctrskit.mctxt import HOLE, decompose, fill, fill_ctx, hole_count, leq, meet
from ctrskit.terms import (
    Fun,
    Subst,
    Var,
    apply_subst,
    ground_terms,
    match,
    positions,
    replace_at,
    vars_of,
)
from ctrskit.unify import RenamingScope, mgu, rename_apart

from conftest import (
    corpus_path,
    load_corpus,
    random_context,
    random_ground_term,
    random_prefix,
)

ALL_CORPUS = (
    "fib.ctrs",
    "if2.ctrs",
    "non_left_linear.ctrs",
    "non_properly_oriented.ctrs",
    "non_right_stable.ctrs",
    "overlap.ctrs",
    "type4.ctrs",
)


def _report(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.1f}s"
    print(f"\n[acceptance] criterion {number} ({name}): PASS in {elapsed:.1f}s")


def test_criterion_1_semilattice_suite():
    started = time.monotonic()
    rng = random.Random(1001)
    for _ in range(1000):
        c = random_context(rng, 6)
        d = random_context(rng, 6)
        e = random_context(rng, 6)
        m = meet(c, d)
        assert meet(c, c) == c
        assert m == meet(d, c)
        assert meet(c, meet(d, e)) == meet(meet(c, d), e)
        assert leq(m, c) and leq(m, d)
        low = meet(c, random_context(rng, 6))
        if leq(low, d):
            assert leq(low, m)
        cs = decompose(c, m)
        ds = decompose(d, m)
        assert fill_ctx(m, cs) == c
        assert fill_ctx(m, ds) == d
    # the per-hole disjointness holds whenever both sides decompose a common
    # whole, which is how the meet is used
    for _ in range(1000):
        shared = random_context(rng, 6)
        c = random_prefix(rng, shared)
        d = random_prefix(rng, shared)
        m = meet(c, d)
        for ci, di in zip(decompose(c, m), decompose(d, m)):
            assert ci == HOLE or di == HOLE
    _report(1, "semilattice suite", started, 10.0)


def test_criterion_2_relation_chain_suite(fib):
    started = time.monotonic()
    bounds = Bounds(max_level=8, max_depth=8, max_terms=100000)
    saturate = Bounds(max_level=8, max_depth=128, max_terms=200000)
    terms = ground_terms(fib.symbols, 8)
    assert len(terms) == 5709
    for t in terms:
        assert cstep_n(t, 0, fib, bounds) == frozenset()
        epar0 = epar_successors(t, 0, fib, bounds)
        assert epar0.terms == {t}
        for level in (1, 2, 3):
            one_step = cstep_n(t, level, fib, bounds)
            par = epar_successors(t, level, fib, bounds)
            assert not par.truncated
            assert one_step <= par.terms
            reach = cstep_star(t, level, fib, saturate)
            assert not reach.truncated
            assert par.terms <= reach.terms
        for level in (0, 1, 2, 3):
            assert root_steps(t, level, fib, bounds) <= root_steps(
                t, level + 1, fib, bounds
            )
    _report(2, "relation chain suite", started, 60.0)


def test_criterion_3_context_closure_suite(fib):
    started = time.monotonic()
    rng = random.Random(1003)
    bounds = Bounds(max_level=8, max_depth=8, max_terms=4096)
    check_bounds = Bounds(max_level=8, max_depth=8, max_terms=200000)
    seeds = ground_terms(fib.symbols, 4)
    for _ in range(500):
        ctx = random_context(rng, 3, symbols=tuple(fib.symbols), variables=())
        level = rng.choice((1, 2))
        sources, targets = [], []
        for _ in range(hole_count(ctx)):
            s = rng.choice(seeds)
            succ = epar_successors(s, level, fib, bounds)
            u, witness = rng.choice(succ.pairs)
            sources.append(s)
            targets.append(u)
        filled_s = fill(ctx, sources)
        filled_t = fill(ctx, targets)
        assert epar_check(filled_s, filled_t, level, fib, check_bounds) is not None
    _report(3, "context closure suite", started, 60.0)


def test_criterion_4_diamond_falsification_suite(fib):
    started = time.monotonic()
    bounds = Bounds(max_level=8, max_depth=6, max_terms=100000)
    seeds = ground_terms(fib.symbols, 6)
    for m, n in itertools.product((0, 1, 2), repeat=2):
        outcome = diamond_fuzz(fib, seeds, m, n, bounds)
        assert outcome.counterexample is None, (m, n, outcome)
    overlapping = load_corpus("overlap.ctrs").ctrs
    by_name = {s.name: s for s in overlapping.symbols}
    f_b = Fun(by_name["f"], (Fun(by_name["b"]),))
    outcome = diamond_fuzz(overlapping, [f_b], 1, 1, bounds)
    assert outcome.counterexample == DiamondPeak(
        f_b, Fun(by_name["a"]), Fun(by_name["b"])
    )
    _report(4, "diamond falsification suite", started, 120.0)


def _check_json(capsys, name, *extra):
    code = cli_main(["check", str(corpus_path(name)), "--json", *extra])
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def test_criterion_5_verdict_suite(capsys):
    started = time.monotonic()

    code, fib_report = _check_json(capsys, "fib.ctrs")
    assert code == 0
    assert fib_report["verdict"] == "LEVEL_CONFLUENT"
    assert all(p["holds"] for p in fib_report["properties"].values())
    assert [o["disposition"] for o in fib_report["overlaps"]] == ["root-variant"] * 4
    assert fib_report["truncated"] is False

    failing_property = {
        "non_left_linear.ctrs": "left-linear",
        "non_properly_oriented.ctrs": "properly-oriented",
        "non_right_stable.ctrs": "right-stable",
        "type4.ctrs": "type-3",
        "overlap.ctrs": "almost-orthogonal",
    }
    independent = {"type-3", "left-linear", "properly-oriented", "right-stable"}
    for name, failing in failing_property.items():
        code, payload = _check_json(capsys, name)
        assert code == 0
        assert payload["verdict"] == "NOT_APPLICABLE", name
        assert payload["properties"][failing]["holds"] is False, name
        assert payload["properties"][failing]["witnesses"], name
        # the other independent properties hold, pinpointing the failure
        for other in independent - {failing}:
            assert payload["properties"][other]["holds"] is True, (name, other)

    code, if2_report = _check_json(capsys, "if2.ctrs")
    assert code == 0
    assert if2_report["verdict"] == "LEVEL_CONFLUENT"
    assert [o["disposition"] for o in if2_report["overlaps"]] == [
        "root-variant", "infeasible-IF2", "infeasible-IF2", "root-variant",
    ]
    assert [o["rules"] for o in if2_report["overlaps"]] == [[1, 1], [1, 2], [2, 1], [2, 2]]
    assert all(o["pos"] == [] for o in if2_report["overlaps"])

    # strict mode turns NOT_APPLICABLE into exit code 1
    assert cli_main(["check", str(corpus_path("overlap.ctrs")), "--strict"]) == 1
    capsys.readouterr()
    _report(5, "verdict suite", started, 60.0)


def test_criterion_6_unification_suite():
    started = time.monotonic()
    rng = random.Random(1006)
    for _ in range(1000):
        common = random_ground_term(rng, 4)
        s = replace_at(common, rng.choice(positions(common)), Var("l"))
        t = replace_at(common, rng.choice(positions(common)), Var("r"))
        u = mgu(s, t)
        assert u is not None
        assert apply_subst(s, u) == apply_subst(t, u)
        delta = match(apply_subst(s, u), common)
        assert delta is not None
        assert apply_subst(apply_subst(s, u), delta) == common
    for _ in range(100):
        c = random_ground_term(rng, 4)
        pos = rng.choice(positions(c))
        cyclic = replace_at(c, pos, Var("x"))
        if cyclic == Var("x"):
            cyclic = Fun(c.symbol, tuple(Var("x") for _ in c.args)) if c.args else None
        if cyclic is None or cyclic == Var("x"):
            continue
        assert mgu(Var("x"), cyclic) is None
    for name in ALL_CORPUS:
        system = load_corpus(name).ctrs
        scope = RenamingScope()
        issued = set()
        for rule in system.rules:
            renamed, scope = rename_apart(rule, scope)
            new_vars = set(vars_of(renamed.lhs)) | vars_of(renamed.rhs)
            for cond in renamed.conds:
                new_vars |= vars_of(cond.lhs) | vars_of(cond.rhs)
            old_vars = set(vars_of(rule.lhs)) | vars_of(rule.rhs)
            for cond in rule.conds:
                old_vars |= vars_of(cond.lhs) | vars_of(cond.rhs)
            assert new_vars.isdisjoint(old_vars)
            assert new_vars.isdisjoint(issued)
            issued |= new_vars
    _report(6, "unification suite", started, 60.0)


def test_criterion_7_infeasibility_cross_check():
    started = time.monotonic()
    marked = 0
    for name in ALL_CORPUS:
        system = load_corpus(name).ctrs
        for od in dispose_overlaps(system):
            if od.disposition not in (DISP_IF1, DISP_IF2):
                continue
            marked += 1
            assert not _ground_instantiation_satisfiable(
                od.overlap, system, size=5, depth=5
            ), (name, od)
    assert marked >= 2  # the IF2 corpus file contributes at least two
    _report(7, "infeasibility cross-check", started, 60.0)


def _ground_instantiation_satisfiable(overlap, system, size, depth):
    conds = overlap.combined_conditions()
    free = sorted(
        {v for c in conds for v in vars_of(c.lhs) | vars_of(c.rhs)},
        key=lambda v: (v.name, -1 if v.index is None else v.index),
    )
    search_bounds = Bounds(max_level=8, max_depth=depth, max_terms=100000)
    for images in itertools.product(ground_terms(system.symbols, size), repeat=len(free)):
        sigma = Subst(dict(zip(free, images)))
        if all(
            apply_subst(c.rhs, sigma)
            in cstep_star(apply_subst(c.lhs, sigma), 8, system, search_bounds).terms
            for c in conds
        ):
            return True
    return False


def test_criterion_8_parser_suite():
    started = time.monotonic()
    for name in ALL_CORPUS:
        spec = load_corpus(name)
        assert parse(render_system(spec.ctrs)).ctrs == spec.ctrs

    with pytest.raises(UnknownConditionTypeError):
        parse("(CONDITIONTYPE SEMI-EQUATIONAL)(RULES f(a) -> a)")
    with pytest.raises(VariableAsLhsError):
        parse("(VAR x)(RULES x -> a)")
    with pytest.raises(ArityConflictError):
        parse("(RULES f(a) -> f(a, a))")
    with pytest.raises(ParseError):
        parse("(RULES f(a -> a)")

    rng = random.Random(1008)
    for _ in range(100000):
        blob = rng.randbytes(rng.randrange(0, 40)).decode("latin-1")
        try:
            parse(blob)
        except ParseError:
            pass
    _report(8, "parser suite", started, 60.0)
