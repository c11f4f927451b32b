"""Shared fixtures: the corpus, term builders, random generators, and a
brute-force rewriting oracle that is independent of the engine's
matching-based condition solving (it enumerates ground substitutions and
rewrites by plain equality of subterms)."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ctrskit.cops import SourceSpec, parse
from ctrskit.ctrs import Ctrs, rule_vars
from ctrskit.mctxt import HOLE, MFun, MVar, Mctxt
from ctrskit.terms import (
    Fun,
    Subst,
    Symbol,
    Term,
    Var,
    apply_subst,
    positions,
    replace_at,
    subterm_at,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_path(name: str) -> Path:
    return CORPUS / name


def load_corpus(name: str) -> SourceSpec:
    return parse(corpus_path(name).read_text(encoding="utf-8"))


def run_fresh(script, *args, hash_seed="0"):
    """Run a script in a fresh interpreter that imports this checkout."""
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED=hash_seed),
        timeout=300,
    )


@pytest.fixture(scope="session")
def fib_spec() -> SourceSpec:
    return load_corpus("fib.ctrs")


@pytest.fixture(scope="session")
def fib(fib_spec) -> Ctrs:
    return fib_spec.ctrs


class FibTerms:
    """Builders for terms over the fib signature."""

    def __init__(self, system: Ctrs):
        by_name = {s.name: s for s in system.symbols}
        self.zero = Fun(by_name["0"])
        self._s = by_name["s"]
        self._fib = by_name["fib"]
        self._pair = by_name["pair"]
        self._add = by_name["add"]

    def s(self, t: Term) -> Term:
        return Fun(self._s, (t,))

    def num(self, k: int) -> Term:
        t = self.zero
        for _ in range(k):
            t = self.s(t)
        return t

    def fib(self, t: Term) -> Term:
        return Fun(self._fib, (t,))

    def pair(self, a: Term, b: Term) -> Term:
        return Fun(self._pair, (a, b))

    def add(self, a: Term, b: Term) -> Term:
        return Fun(self._add, (a, b))


@pytest.fixture(scope="session")
def fb(fib) -> FibTerms:
    return FibTerms(fib)


# a small standalone signature for random-term and context properties
F = Symbol("f", 2)
G = Symbol("g", 1)
H = Symbol("h", 2)
A = Symbol("a", 0)
B = Symbol("b", 0)
SIG5 = (F, G, H, A, B)
X, Y, Z = Var("x"), Var("y"), Var("z")
VARS3 = (X, Y, Z)


def random_term(rng: random.Random, depth: int, symbols=SIG5, variables=VARS3,
                var_p: float = 0.25) -> Term:
    leaves = [s for s in symbols if s.arity == 0]
    inner = [s for s in symbols if s.arity > 0]
    if depth <= 0 or (inner and rng.random() < 0.2):
        if variables and rng.random() < var_p:
            return rng.choice(list(variables))
        return Fun(rng.choice(leaves))
    sym = rng.choice(inner)
    return Fun(sym, tuple(random_term(rng, depth - 1, symbols, variables, var_p)
                          for _ in range(sym.arity)))


def random_ground_term(rng: random.Random, depth: int, symbols=SIG5) -> Term:
    return random_term(rng, depth, symbols, variables=(), var_p=0.0)


def random_context(rng: random.Random, depth: int, symbols=SIG5, variables=VARS3,
                   hole_p: float = 0.25) -> Mctxt:
    leaves = [s for s in symbols if s.arity == 0]
    inner = [s for s in symbols if s.arity > 0]
    roll = rng.random()
    if roll < hole_p:
        return HOLE
    if depth <= 0 or roll < hole_p + 0.2:
        if variables and rng.random() < 0.4:
            return MVar(rng.choice(list(variables)))
        return MFun(rng.choice(leaves))
    sym = rng.choice(inner)
    return MFun(sym, tuple(random_context(rng, depth - 1, symbols, variables, hole_p)
                           for _ in range(sym.arity)))


def random_prefix(rng: random.Random, c: Mctxt, cut_p: float = 0.3) -> Mctxt:
    """A random context below c in the prefix order (subtrees cut to holes)."""
    if rng.random() < cut_p:
        return HOLE
    if isinstance(c, MFun) and c.args:
        return MFun(c.symbol, tuple(random_prefix(rng, a, cut_p) for a in c.args))
    return c


def random_subst(rng: random.Random, variables=VARS3, depth: int = 2) -> Subst:
    mapping = {}
    for v in variables:
        if rng.random() < 0.75:
            mapping[v] = random_term(rng, depth)
    return Subst(mapping)


def random_position(rng: random.Random, t: Term):
    return rng.choice(positions(t))


# ---------------------------------------------------------------------------
# brute-force oracle for the level-indexed relations


def naive_level_pairs(system: Ctrs, universe: list[Term], level: int,
                      depth: int) -> set[tuple[Term, Term]]:
    """Ground instances of the level-`level` rewrite pairs, computed by
    enumerating substitutions over `universe` and checking conditions with
    equality-based rewriting over the previous level's pairs."""
    pairs: set[tuple[Term, Term]] = set()
    for _ in range(level):
        prev = pairs
        reach_cache: dict[Term, frozenset[Term]] = {}

        def reach(t: Term) -> frozenset[Term]:
            got = reach_cache.get(t)
            if got is None:
                got = naive_reach(t, prev, depth)
                reach_cache[t] = got
            return got

        new: set[tuple[Term, Term]] = set()
        for rule in system.rules:
            vs: list[Var] = []
            for v in rule_vars(rule):
                if v not in vs:
                    vs.append(v)
            for images in itertools.product(universe, repeat=len(vs)):
                sigma = Subst(dict(zip(vs, images)))
                if all(
                    apply_subst(c.rhs, sigma) in reach(apply_subst(c.lhs, sigma))
                    for c in rule.conds
                ):
                    new.add((apply_subst(rule.lhs, sigma), apply_subst(rule.rhs, sigma)))
        pairs = new
    return pairs


def naive_step(t: Term, pairs: set[tuple[Term, Term]]) -> set[Term]:
    out = set()
    for pos in positions(t):
        sub = subterm_at(t, pos)
        for lhs, rhs in pairs:
            if sub == lhs:
                out.add(replace_at(t, pos, rhs))
    return out


def naive_reach(t: Term, pairs: set[tuple[Term, Term]], depth: int) -> frozenset[Term]:
    seen = {t}
    frontier = [t]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for v in naive_step(u, pairs):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        if not nxt:
            break
        frontier = nxt
    return frozenset(seen)
