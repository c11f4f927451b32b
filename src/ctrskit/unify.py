"""Syntactic unification, deterministic renaming-apart, and variant checks.

Unification keeps its bindings in triangular form, which may hold bound
variables, and resolves them once, at the end; neither loop recurses.

Renaming apart follows one rule: a copy that must avoid some variables is
renamed from `RenamingScope.above` them, and everything else is used as
written.  Renaming from index k maps the i-th of a rule's
`ctrs.rule_variables` to index k + i, so a caller that keeps that list can
rename the rule from any k, and the whole pipeline stays reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .ctrs import Condition, Rule, rule_terms, rule_variables
from .terms import Fun, Subst, Term, Var, apply_subst, iter_vars


@dataclass(frozen=True)
class RenamingScope:
    next_index: int = 0

    def __post_init__(self) -> None:
        if self.next_index < 0:
            raise ValueError("renaming indices are natural numbers")

    @classmethod
    def above(cls, variables: Iterable[Var]) -> RenamingScope:
        """The scope from the first natural index above every one `variables` carry."""
        return cls(max([0, *(v.index + 1 for v in variables if v.index is not None)]))


def _occurs(v: Var, t: Term, bound: dict[Var, Term]) -> bool:
    # v in t read through the bindings, each binding walked at most once
    seen: set[Var] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Fun):
            stack += u.args
        elif u is v:
            return True
        elif u in bound and u not in seen:
            seen.add(u)
            stack.append(bound[u])
    return False


def _resolve(bound: dict[Var, Term]) -> Subst:
    # a binding is resolved once every bound variable in it is; the occurs
    # check keeps them acyclic.  Last one first: most hold later ones
    resolved: dict[Var, Term] = {}
    for root in reversed(bound):
        todo = [root]
        while todo:
            v = todo.pop()
            if v in resolved:
                continue
            t = bound[v]
            inner = [u for u in iter_vars(t) if u in bound]
            waiting = [u for u in inner if u not in resolved]
            if waiting:
                todo += [v, *waiting]
            elif inner:
                resolved[v] = apply_subst(t, Subst({u: resolved[u] for u in inner}))
            else:
                resolved[v] = t
    return Subst({v: resolved[v] for v in bound})


def mgu(s: Term, t: Term) -> Subst | None:
    """Most general unifier of s and t, or None (occurs-check included).

    A stack loop over triangular bindings: a popped pair is read through the
    bindings at its two roots only, a variable is bound to the other side as
    it stands, and the bindings are resolved once at the end.  The result is
    idempotent, with one binding per bound variable in binding order.
    """
    bound: dict[Var, Term] = {}
    stack: list[tuple[Term, Term]] = [(s, t)]
    while stack:
        a, b = stack.pop()
        while isinstance(a, Var) and a in bound:
            a = bound[a]
        while isinstance(b, Var) and b in bound:
            b = bound[b]
        if a is b:
            continue
        if isinstance(b, Var) and not isinstance(a, Var):
            a, b = b, a
        if isinstance(a, Var):
            if _occurs(a, b, bound):
                return None
            bound[a] = b
        elif a.symbol is b.symbol:
            stack.extend(zip(a.args, b.args))
        else:
            return None
    return _resolve(bound)


def renaming(variables: Iterable[Var], start: int) -> Subst:
    """Maps the i-th of the distinct `variables` to its name at index start + i."""
    return Subst({v: Var(v.name, i) for i, v in enumerate(variables, start)})


def rename_rule(rule: Rule, ren: Subst) -> Rule:
    """The rule with ren applied to each of its terms."""
    lhs, rhs, *sides = [apply_subst(t, ren) for t in rule_terms(rule)]
    return Rule(lhs, rhs, tuple(map(Condition, sides[::2], sides[1::2])))


def rename_term_apart(t: Term, scope: RenamingScope) -> tuple[Term, RenamingScope]:
    """Injectively rename the variables of t to fresh indices from the scope."""
    variables = dict.fromkeys(iter_vars(t))
    ren = renaming(variables, scope.next_index)
    return apply_subst(t, ren), RenamingScope(scope.next_index + len(variables))


def rename_apart(rule: Rule, scope: RenamingScope) -> tuple[Rule, RenamingScope]:
    """A variant of the rule over fresh variables, plus the advanced scope."""
    variables = rule_variables(rule)
    ren = renaming(variables, scope.next_index)
    return rename_rule(rule, ren), RenamingScope(scope.next_index + len(variables))


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
