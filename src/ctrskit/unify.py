"""Syntactic unification, deterministic renaming-apart, and variant checks.

Renaming is index bumping: a scope hands out strictly increasing indices, so
rules renamed under successive scope states are variable-disjoint by
construction and the whole pipeline stays reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .ctrs import Condition, Rule, rule_terms, rule_vars
from .terms import Fun, Subst, Term, Var, apply_subst, compose, iter_vars


@dataclass(frozen=True)
class RenamingScope:
    next_index: int = 0

    def __post_init__(self) -> None:
        if self.next_index < 0:
            raise ValueError("renaming indices are natural numbers")


def mgu(s: Term, t: Term) -> Subst | None:
    """Most general unifier of s and t, or None (occurs-check included).

    A stack loop with eager composition: every popped pair is rewritten by
    the substitution built so far, so the result is idempotent.
    """
    sigma = Subst()
    stack: list[tuple[Term, Term]] = [(s, t)]
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
            sigma = compose(sigma, Subst({a: b}))
        elif a.symbol == b.symbol:
            stack.extend(zip(a.args, b.args))
        else:
            return None
    return sigma


def _freshen(occurrences, scope: RenamingScope) -> tuple[Subst, RenamingScope]:
    mapping: dict[Var, Term] = {}
    nxt = scope.next_index
    for v in occurrences:
        if v not in mapping:
            mapping[v] = Var(v.name, nxt)
            nxt += 1
    return Subst(mapping), RenamingScope(nxt)


def rename_term_apart(t: Term, scope: RenamingScope) -> tuple[Term, RenamingScope]:
    """Injectively rename the variables of t to fresh indices from the scope."""
    ren, scope = _freshen(iter_vars(t), scope)
    return apply_subst(t, ren), scope


def rename_apart(rule: Rule, scope: RenamingScope) -> tuple[Rule, RenamingScope]:
    """A variant of the rule over fresh variables, plus the advanced scope."""
    ren, scope = _freshen(rule_vars(rule), scope)
    lhs, rhs, *sides = [apply_subst(t, ren) for t in rule_terms(rule)]
    return Rule(lhs, rhs, tuple(map(Condition, sides[::2], sides[1::2]))), scope


def _variant_pairs(pairs: Iterable[tuple[Term, Term]]) -> bool:
    # one injective renaming must map every left term onto its right term;
    # the maps only collect variable pairs, so the order of visits is free
    fwd: dict[Var, Var] = {}
    bwd: dict[Var, Var] = {}
    stack = list(pairs)
    while stack:
        a, b = stack.pop()
        if isinstance(a, Var):
            if not isinstance(b, Var) or fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
                return False
        elif isinstance(b, Fun) and a.symbol == b.symbol:
            stack += zip(a.args, b.args)
        else:
            return False
    return True


def is_term_variant(a: Term, b: Term) -> bool:
    """True iff some injective variable renaming maps a onto b."""
    return _variant_pairs([(a, b)])


def is_variant(r1: Rule, r2: Rule) -> bool:
    """True iff an injective renaming maps r1 onto r2, condition order kept."""
    return len(r1.conds) == len(r2.conds) and _variant_pairs(
        zip(rule_terms(r1), rule_terms(r2))
    )
