"""Conditional rewrite systems and their syntactic health checks.

A rule is `lhs -> rhs` guarded by an ordered list of oriented conditions
`s == t`, each read as reachability: an instance fires only if every
instantiated condition left-hand side rewrites to the corresponding
right-hand side.  The checks in this module (variable classification,
proper orientedness, right-stability, left-linearity) are the syntactic
prerequisites the confluence verdict in `analysis` relies on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .terms import (
    Fun,
    Symbol,
    Term,
    Var,
    is_constructor_term,
    is_ground,
    is_linear,
    iter_vars,
    match,
    render_term,
    render_vars,
    subterms,
    vars_of,
)


@dataclass(frozen=True)
class Condition:
    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{render_term(self.lhs)} == {render_term(self.rhs)}"


@dataclass(frozen=True)
class Rule:
    lhs: Term
    rhs: Term
    conds: tuple[Condition, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "conds", tuple(self.conds))
        if isinstance(self.lhs, Var):
            raise ValueError(f"rule left-hand side may not be a variable: {self.lhs}")

    def __str__(self) -> str:
        base = f"{render_term(self.lhs)} -> {render_term(self.rhs)}"
        if not self.conds:
            return base
        return base + " | " + ", ".join(str(c) for c in self.conds)


def rule_terms(r: Rule) -> list[Term]:
    """The terms of a rule, left to right: lhs, rhs, then each condition's
    lhs and rhs."""
    terms = [r.lhs, r.rhs]
    for c in r.conds:
        terms += (c.lhs, c.rhs)
    return terms


def rule_vars(r: Rule) -> Iterable[Var]:
    """Variable occurrences of a rule, in the order of `rule_terms`."""
    for t in rule_terms(r):
        yield from iter_vars(t)


def rule_variables(r: Rule) -> tuple[Var, ...]:
    """The rule's variables, each once, in first-occurrence order."""
    return tuple(dict.fromkeys(rule_vars(r)))


def extra_vars(r: Rule) -> frozenset[Var]:
    """The rule's variables that its lhs does not hold."""
    return frozenset(rule_vars(r)) - vars_of(r.lhs)


def rule_symbols(r: Rule) -> list[Symbol]:
    """Function symbol occurrences of a rule, in the order of `rule_terms`."""
    return [sub.symbol for t in rule_terms(r) for sub in subterms(t) if isinstance(sub, Fun)]


@dataclass(frozen=True)
class Ctrs:
    symbols: frozenset[Symbol]
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", frozenset(self.symbols))
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            for sym in rule_symbols(rule):
                if sym not in self.symbols:
                    raise ValueError(f"symbol {sym.name!r} not in the declared signature")

    @classmethod
    def from_rules(cls, rules: Iterable[Rule], extra_symbols: Iterable[Symbol] = ()) -> "Ctrs":
        """The system over `extra_symbols` and every symbol of its rules; a
        signature collected from the rules needs no `__post_init__` check."""
        rules = tuple(rules)
        syms = set(extra_symbols)
        for rule in rules:
            syms.update(rule_symbols(rule))
        system = object.__new__(cls)
        object.__setattr__(system, "symbols", frozenset(syms))
        object.__setattr__(system, "rules", rules)
        return system

    def __hash__(self) -> int:
        # the dataclass hash, computed once: a system keys every memo table
        try:
            return self._hash
        except AttributeError:
            h = hash((self.symbols, self.rules))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # symbols and terms hash by address, so a pickle must not carry the hash
        return (Ctrs, (self.symbols, self.rules))

    @cached_property
    def rules_by_symbol(self) -> Mapping[Symbol, tuple[Rule, ...]]:
        """The rules by lhs root symbol, each tuple in system order.

        Built on first use and kept for the life of the system; it is not a
        field, so equality, the hash and pickles ignore it.
        """
        index: dict[Symbol, list[Rule]] = {}
        for rule in self.rules:
            index.setdefault(rule.lhs.symbol, []).append(rule)
        return MappingProxyType({sym: tuple(rules) for sym, rules in index.items()})

    @property
    def defined_symbols(self) -> frozenset[Symbol]:
        return frozenset(self.rules_by_symbol)

    @property
    def constructor_symbols(self) -> frozenset[Symbol]:
        return self.symbols - self.defined_symbols


@dataclass(frozen=True)
class Witness:
    """Evidence for a failed property: the offending rule plus an explanation."""

    rule_index: int
    detail: str


@dataclass(frozen=True)
class PropertyReport:
    """A property's evidence: it holds exactly when no rule witnesses a failure."""

    name: str
    witnesses: tuple[Witness, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "witnesses", tuple(self.witnesses))

    @property
    def holds(self) -> bool:
        return not self.witnesses


def loose_rhs_vars(rule: Rule) -> frozenset[Var]:
    """Variables of the rhs bound by neither the lhs nor any condition."""
    lhs, rhs, *sides = rule_terms(rule)
    return vars_of(rhs).difference(vars_of(lhs), *map(iter_vars, sides))


def rule_type(rule: Rule) -> int:
    """The class in 1..4 of one rule, by where its extra variables occur.

    1: no extra variables; 2: extra variables in conditions only; 3: rhs
    extra variables, each bound by a condition; 4: anything else.
    """
    lhs_vars = vars_of(rule.lhs)
    if not vars_of(rule.rhs) <= lhs_vars:
        return 4 if loose_rhs_vars(rule) else 3
    return 2 if rule.conds and not lhs_vars.issuperset(rule_vars(rule)) else 1


def classify_type(system: Ctrs) -> int:
    """Smallest class in 1..4 that holds every rule: the largest `rule_type`."""
    return max(map(rule_type, system.rules), default=1)


def check_type3(system: Ctrs) -> PropertyReport:
    """A 3-CTRS: no rule has an rhs variable that `loose_rhs_vars` names."""
    witnesses = [
        Witness(
            idx,
            f"right-hand side variable(s) {render_vars(loose)} bound by neither "
            f"the lhs nor any condition",
        )
        for idx, loose in enumerate(map(loose_rhs_vars, system.rules))
        if loose
    ]
    return PropertyReport("type-3", witnesses)


def underlying_trs(system: Ctrs) -> list[tuple[Term, Term]]:
    """The unconditional rule pairs obtained by erasing every condition."""
    return [(r.lhs, r.rhs) for r in system.rules]


def is_ground_normal_form_ru(t: Term, system: Ctrs) -> bool:
    """Ground, and no condition-erased rule matches any subterm."""
    if not is_ground(t):
        return False
    index = system.rules_by_symbol
    for sub in subterms(t):
        for rule in index.get(sub.symbol, ()):
            if match(rule.lhs, sub) is not None:
                return False
    return True


def check_left_linear(system: Ctrs) -> PropertyReport:
    witnesses = []
    for idx, rule in enumerate(system.rules):
        dups = [v for v, n in Counter(iter_vars(rule.lhs)).items() if n > 1]
        if dups:
            names = render_vars(dups)
            witnesses.append(
                Witness(idx, f"variable(s) {names} repeated in left-hand side {rule.lhs}")
            )
    return PropertyReport("left-linear", witnesses)


def loose_conditions(rule: Rule) -> Iterator[tuple[int, Condition, frozenset[Var]]]:
    """The left-to-right binding rule: conditions that use unbound variables.

    Condition i may only use variables of the rule lhs and of the right-hand
    sides of conditions before it.  Yields (i, condition, loose variables)
    for each condition whose lhs uses any other variable, in rule order.
    """
    bound = set(vars_of(rule.lhs))
    for i, cond in enumerate(rule.conds):
        loose = vars_of(cond.lhs) - bound
        if loose:
            yield i, cond, loose
        bound |= vars_of(cond.rhs)


def check_properly_oriented(system: Ctrs) -> PropertyReport:
    """Condition left-hand sides only use variables already determined.

    A rule whose rhs holds a variable its lhs does not, Var(r) ⊄ Var(l), must
    have every condition obey the left-to-right binding rule of
    `loose_conditions`.  Every other rule is exempt.
    """
    witnesses = []
    for idx, rule in enumerate(system.rules):
        if vars_of(rule.rhs) <= vars_of(rule.lhs):
            continue
        for i, cond, loose in loose_conditions(rule):
            names = render_vars(loose)
            witnesses.append(
                Witness(
                    idx,
                    f"condition {i + 1} left-hand side {render_term(cond.lhs)} "
                    f"uses variable(s) {names} not bound by the rule lhs or "
                    f"earlier condition rhss",
                )
            )
    return PropertyReport("properly-oriented", witnesses)


def check_right_stable(system: Ctrs) -> PropertyReport:
    """Condition right-hand sides are fresh and match-only.

    Each condition rhs must be variable-disjoint from the rule lhs, all
    earlier conditions, and its own lhs; and it must be a linear constructor
    term or a ground normal form of the condition-erased system.
    """
    defined = system.defined_symbols
    witnesses = []
    for idx, rule in enumerate(system.rules):
        seen = set(vars_of(rule.lhs))
        for i, cond in enumerate(rule.conds):
            seen |= vars_of(cond.lhs)
            shared = seen & vars_of(cond.rhs)
            if shared:
                names = render_vars(shared)
                witnesses.append(
                    Witness(
                        idx,
                        f"condition {i + 1} right-hand side {render_term(cond.rhs)} "
                        f"shares variable(s) {names} with earlier parts of the rule",
                    )
                )
            ok_shape = (
                is_linear(cond.rhs) and is_constructor_term(cond.rhs, defined)
            ) or is_ground_normal_form_ru(cond.rhs, system)
            if not ok_shape:
                witnesses.append(
                    Witness(
                        idx,
                        f"condition {i + 1} right-hand side {render_term(cond.rhs)} "
                        f"is neither a linear constructor term nor a ground normal "
                        f"form of the condition-erased system",
                    )
                )
            seen |= vars_of(cond.rhs)
    return PropertyReport("right-stable", witnesses)
