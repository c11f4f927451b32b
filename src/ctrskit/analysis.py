"""Overlap analysis and the level-confluence criterion.

An overlap is a unifiable superposition of a rule and a variable-disjoint
variant of a rule at a function position of the first one's left-hand side;
a rule overlapping its own variant at the root is enumerated too, since the
criterion has to dispatch that case explicitly rather than silently drop it.

The verdict combines four prerequisites: the system is a 3-CTRS, properly
oriented, right-stable, and almost orthogonal modulo infeasibility.  When
all hold the system is level-confluent; when one fails the criterion simply
does not apply, which says nothing about non-confluence.  `diamond_fuzz`
complements the verdict empirically by hunting for peaks of parallel steps
that cannot be closed into a commuting diamond.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .ctrs import (
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
    is_ground_normal_form_ru,
    rule_variables,
)
from .engine import Bounds, _rewriter
from .terms import (
    Fun,
    Position,
    Subst,
    Symbol,
    Term,
    Var,
    apply_subst,
    fold,
    positioned_subterms,
)
from .unify import RenamingScope, is_variant, mgu, rename_rule, renaming


@dataclass(frozen=True)
class Overlap:
    """A rule as written and a renamed variant of a rule, their lhss unifying at `pos`."""

    rule1: Rule
    rule2: Rule
    rule1_index: int
    rule2_index: int
    pos: Position
    mgu: Subst

    def combined_conditions(self) -> tuple[Condition, ...]:
        """Both rules' conditions instantiated by the unifier, in order."""
        return tuple(
            Condition(apply_subst(c.lhs, self.mgu), apply_subst(c.rhs, self.mgu))
            for c in self.rule1.conds + self.rule2.conds
        )


IF1 = "IF1"
IF2 = "IF2"


@dataclass(frozen=True)
class Feasibility:
    """Outcome of the infeasibility semi-decision; never certifies feasibility.

    `reason` names the test that refuted `conditions`; None means unknown.
    """

    reason: Optional[str] = None
    conditions: tuple[Condition, ...] = ()

    @property
    def infeasible(self) -> bool:
        return self.reason is not None

    @classmethod
    def unknown(cls) -> "Feasibility":
        return cls()

    @classmethod
    def by_if1(cls, cond: Condition) -> "Feasibility":
        return cls(IF1, (cond,))

    @classmethod
    def by_if2(cls, c1: Condition, c2: Condition) -> "Feasibility":
        return cls(IF2, (c1, c2))


DISP_ROOT_VARIANT = "root-variant"
DISP_EQUAL_RHS = "equal-rhs"
DISP_IF1 = "infeasible-IF1"
DISP_IF2 = "infeasible-IF2"
DISP_UNKNOWN = "unknown"


@dataclass(frozen=True)
class OverlapDisposition:
    overlap: Overlap
    disposition: str
    feasibility: Optional[Feasibility] = None


@dataclass(frozen=True)
class Verdict:
    """Either the criterion applies (level-confluent) or it does not.

    `level_confluent` false means "not applicable", never "not confluent".
    """

    ctrs_type: int
    properties: tuple[PropertyReport, ...]
    overlaps: tuple[OverlapDisposition, ...]

    @property
    def failing(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.properties if not p.holds)

    @property
    def level_confluent(self) -> bool:
        return not self.failing


def conditional_overlaps(system: Ctrs) -> list[Overlap]:
    """All overlaps between a rule as written and a variant of a rule.

    Only the second role is renamed, each rule once, `RenamingScope.above`
    the system's variables.  An index is None (parsed), natural (renamed) or
    negative (an IF1 skeleton hole), so no second rule meets a first, its own
    original included, and no hole meets either.  Enumeration is ordered by
    rule-index pair, then by function position of the first lhs, left-outer.
    A second rule is tried only at the positions carrying its lhs root
    symbol: no lhs is a variable, so at any other position `mgu` fails.
    """
    rules = system.rules
    variables = [rule_variables(rule) for rule in rules]
    k = RenamingScope.above(itertools.chain.from_iterable(variables)).next_index
    seconds = [rename_rule(r, renaming(vs, k)) for r, vs in zip(rules, variables)]
    out: list[Overlap] = []
    for i, r1 in enumerate(rules):
        at: dict[Symbol, list[tuple[Position, Fun]]] = {}
        for pos, sub in positioned_subterms(r1.lhs):
            if isinstance(sub, Fun):
                at.setdefault(sub.symbol, []).append((pos, sub))
        for j, r2 in enumerate(seconds):
            for pos, sub in at.get(r2.lhs.symbol, ()):
                unifier = mgu(sub, r2.lhs)
                if unifier is not None:
                    out.append(Overlap(r1, r2, i, j, pos, unifier))
    return out


def _skeleton(t: Term, system: Ctrs, holes: Iterator[int]) -> Term:
    """Overapproximate every reduct of t by a constructor skeleton.

    Variables become fresh holes, and so does any application that some
    condition-erased left-hand side could rewrite; what remains is structure
    no rewrite sequence starting from an instance of t can ever change.
    Holes take their negative indices from `holes` in left-to-right postorder;
    no variable of the system can carry one, so each lhs is unified as written.
    """

    def hole(_: Term) -> Var:
        return Var("_sk", next(holes))

    def node(u: Fun, args: list) -> Term:
        u = Fun(u.symbol, args)
        lhss = system.rules_by_symbol.get(u.symbol, ())
        return hole(u) if any(mgu(r.lhs, u) is not None for r in lhss) else u

    return fold(t, hole, node)


def infeasible(overlap: Overlap, system: Ctrs) -> Feasibility:
    """Semi-decide that the overlap's combined conditions have no solution.

    IF1: some condition's reduct skeleton cannot be unified with its
    right-hand side, so no substitution makes the two sides meet.  IF2: two
    conditions share a left-hand side but demand distinct ground normal
    forms of the condition-erased system; assuming levelwise commutation the
    two rewrite sequences would have to join, which distinct normal forms
    cannot.  Anything else stays Unknown.
    """
    conds = overlap.combined_conditions()
    holes = itertools.count(-1, -1)
    for cond in conds:
        cap = _skeleton(cond.lhs, system, holes)
        if mgu(cap, cond.rhs) is None:
            return Feasibility.by_if1(cond)
    for i in range(len(conds)):
        for j in range(i + 1, len(conds)):
            a, b = conds[i], conds[j]
            if a.lhs != b.lhs or a.rhs == b.rhs:
                continue
            if is_ground_normal_form_ru(a.rhs, system) and is_ground_normal_form_ru(
                b.rhs, system
            ):
                return Feasibility.by_if2(a, b)
    return Feasibility.unknown()


def dispose_overlap(overlap: Overlap, system: Ctrs) -> OverlapDisposition:
    if overlap.pos == () and is_variant(overlap.rule1, overlap.rule2):
        return OverlapDisposition(overlap, DISP_ROOT_VARIANT)
    if overlap.pos == () and apply_subst(overlap.rule1.rhs, overlap.mgu) == apply_subst(
        overlap.rule2.rhs, overlap.mgu
    ):
        return OverlapDisposition(overlap, DISP_EQUAL_RHS)
    feas = infeasible(overlap, system)
    if feas.infeasible:
        disp = DISP_IF1 if feas.reason == IF1 else DISP_IF2
        return OverlapDisposition(overlap, disp, feas)
    return OverlapDisposition(overlap, DISP_UNKNOWN, feas)


def dispose_overlaps(system: Ctrs) -> list[OverlapDisposition]:
    return [dispose_overlap(o, system) for o in conditional_overlaps(system)]


def _almost_orthogonal_report(
    left_linear: PropertyReport, dispositions: list[OverlapDisposition]
) -> PropertyReport:
    witnesses = list(left_linear.witnesses)
    for od in dispositions:
        if od.disposition != DISP_UNKNOWN:
            continue
        o = od.overlap
        witnesses.append(
            Witness(
                o.rule1_index,
                f"overlap of rule {o.rule1_index + 1} with rule "
                f"{o.rule2_index + 1} at position {list(o.pos)} is neither "
                f"infeasible nor a harmless root overlap",
            )
        )
    return PropertyReport("almost-orthogonal", witnesses)


def check_almost_orthogonal(system: Ctrs) -> PropertyReport:
    """Left-linear, and every overlap dispatched.

    A harmless root overlap is one between variants of the same rule or one
    whose instantiated right-hand sides are syntactically equal; every other
    overlap must be infeasible.
    """
    return _almost_orthogonal_report(check_left_linear(system), dispose_overlaps(system))


def check_level_confluence(system: Ctrs) -> Verdict:
    """Apply the level-confluence criterion and collect the evidence trail.

    Every check is syntactic, so the verdict runs no rewriting search and
    takes no bounds.
    """
    dispositions = dispose_overlaps(system)
    left_linear = check_left_linear(system)
    properties = (
        check_type3(system),
        left_linear,
        check_properly_oriented(system),
        check_right_stable(system),
        _almost_orthogonal_report(left_linear, dispositions),
    )
    return Verdict(classify_type(system), properties, tuple(dispositions))


@dataclass(frozen=True)
class DiamondPeak:
    seed: Term
    left: Term
    right: Term


@dataclass(frozen=True)
class DiamondOutcome:
    counterexample: Optional[DiamondPeak]
    truncated: bool
    peaks_checked: int


def diamond_fuzz(
    system: Ctrs,
    seeds: Iterable[Term],
    m: int,
    n: int,
    bounds: Bounds,
) -> DiamondOutcome:
    """Hunt for an uncloseable peak of parallel steps at levels m and n.

    For every seed s and every peak t <-(m)- s -(n)-> u, search for a v with
    t -(n)-> v and u -(m)-> v.  The first peak with no such v is returned;
    with truncated bounds a reported peak may merely mean the join was out
    of reach.  Every successor set comes from the one Rewriter that the
    module functions share for (system, bounds), whose memo asks each join
    once, and the truncation flag covers every set read.
    """
    rewriter = _rewriter(system, bounds)
    truncated = False
    peaks = 0
    for seed in seeds:
        lefts = rewriter.epar_successors(seed, m)
        rights = rewriter.epar_successors(seed, n)
        truncated |= lefts.truncated or rights.truncated
        for t in lefts.ordered:
            for u in rights.ordered:
                peaks += 1
                if t == u:
                    continue
                join_t = rewriter.epar_successors(t, n)
                join_u = rewriter.epar_successors(u, m)
                truncated |= join_t.truncated or join_u.truncated
                if join_t.terms.isdisjoint(join_u.terms):
                    return DiamondOutcome(DiamondPeak(seed, t, u), truncated, peaks)
    return DiamondOutcome(None, truncated, peaks)
