"""Bounded executable semantics for conditional rewriting.

The conditional rewrite relation is stratified by levels: level 0 rewrites
nothing, and a rule instance fires at level n+1 when all its instantiated
conditions are solved by rewriting at level n.  On top of the level-indexed
one-step and many-step relations this module implements parallel steps over
multihole contexts: a step at level n replaces the contents of each hole
either by a conditional root step at level n or by an arbitrary rewrite
sequence at level n-1.

All searches are bounded (sequence length and visited-set size), so answers
are sound but complete only up to the bounds; whenever a cap cuts a search
short the result says so via its `truncated` flag.  The engine enumerates no
instance of a variable: a condition whose instantiated lhs is not ground is
left unsolved, and that cut sets `truncated` too.  An untruncated answer is
exact: any larger max_depth and max_terms give the same answer.
"""

from __future__ import annotations

import itertools
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import lru_cache

from .ctrs import Condition, Ctrs, extra_vars
from .mctxt import HOLE, Mctxt, MFun, fill, of_term
from .terms import (
    Fun,
    Subst,
    Term,
    apply_subst,
    compose,
    is_ground,
    match,
    term_key,
    vars_of,
)
from .unify import RenamingScope, rename_apart


class EngineError(RuntimeError):
    """Kept for importers; nothing in the engine raises it."""


@dataclass(frozen=True)
class Bounds:
    """Caps for the bounded searches.

    max_level caps the level arguments accepted from the command line,
    max_depth caps rewrite-sequence length, and max_terms caps the number of
    distinct terms a single search may collect.  Where the cap cuts no
    search, enlarging a bound never removes an answer.
    """

    max_level: int = 8
    max_depth: int = 8
    max_terms: int = 4096

    def __post_init__(self) -> None:
        if min(self.max_level, self.max_depth, self.max_terms) < 0:
            raise ValueError("bounds must be non-negative")


KIND_ROOT = "root"
KIND_BELOW = "below"


@dataclass(frozen=True)
class ReachSet:
    """Terms reachable within the bounds, plus whether the search was cut."""

    terms: frozenset[Term]
    truncated: bool

    def __contains__(self, t: Term) -> bool:
        return t in self.terms

    def __iter__(self):
        return iter(sorted(self.terms, key=term_key))

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class EparStep:
    """Witness of a parallel step: context, hole contents, per-hole kind.

    The endpoints are recovered by filling the context with the sources and
    with the targets; `kinds[i]` records whether hole i did a conditional
    root step at the step's level or a rewrite sequence one level below.
    """

    ctx: Mctxt
    sources: tuple[Term, ...]
    targets: tuple[Term, ...]
    kinds: tuple[str, ...]

    def endpoints(self) -> tuple[Term, Term]:
        return fill(self.ctx, self.sources), fill(self.ctx, self.targets)


def trivial_step(t: Term) -> EparStep:
    """The zero-hole step witnessing t related to itself."""
    return EparStep(of_term(t), (), (), ())


# how a successor that rewrites inside the arguments was first reached
_BY_ARGS = "args"


@dataclass(frozen=True, eq=False)
class EparSet:
    """All parallel-step successors found, each with one witness.

    `reached_by` says how each was first reached: None for the source
    itself, `KIND_ROOT`, `KIND_BELOW`, or a step inside the arguments, whose
    witness combines those of `args`, the successor sets of the source's
    arguments.  `ordered` (the successors in `term_key` order; one term is
    its own order) and `pairs` (each with its witness) are built when first
    read, so a caller that needs only the terms sorts nothing and builds no
    context.  Equality and hashing are on (pairs, truncated).
    """

    source: Term
    reached_by: dict[Term, str | None] = field(repr=False)
    args: tuple[EparSet, ...] = field(repr=False)
    truncated: bool

    def __getattr__(self, name: str):
        # a view is stored on first read; `cached_property` would take a lock
        if name == "ordered":
            terms = tuple(self.reached_by)
            view = terms if len(terms) == 1 else tuple(sorted(terms, key=term_key))
        elif name == "pairs":
            view = tuple((u, self.witness(u)) for u in self.ordered)
        elif name == "terms":
            view = frozenset(self.reached_by)
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, view)
        return view

    def witness(self, u: Term) -> EparStep | None:
        if u not in self.reached_by:
            return None
        kind = self.reached_by[u]
        if kind is None:
            return trivial_step(u)
        if kind is not _BY_ARGS:
            return EparStep(HOLE, (self.source,), (u,), (kind,))
        steps = [s.witness(a) for s, a in zip(self.args, u.args)]
        return EparStep(
            MFun(u.symbol, tuple(s.ctx for s in steps)),
            tuple(src for s in steps for src in s.sources),
            tuple(tgt for s in steps for tgt in s.targets),
            tuple(k for s in steps for k in s.kinds),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EparSet):
            return NotImplemented
        return (self.pairs, self.truncated) == (other.pairs, other.truncated)

    def __hash__(self) -> int:
        return hash((self.pairs, self.truncated))

    def __contains__(self, t: Term) -> bool:
        return t in self.reached_by

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.reached_by)


_NO_STEPS: tuple[frozenset[Term], bool] = (frozenset(), False)


def _admit(found: dict[Term, str | None], terms: Collection[Term], kind: str | None,
           max_terms: int) -> bool:
    """Add the terms not in found, mapped to kind, while found holds fewer
    than max_terms; True if the cap left one out.

    Order decides which terms get in only when they cannot all fit, so only
    then are they taken in term_key order.
    """
    if len(terms) > max_terms - len(found):
        terms = sorted(terms, key=term_key)
    for u in terms:
        if u in found:
            continue
        if len(found) >= max_terms:
            return True
        found[u] = kind
    return False


class Rewriter:
    """Level-indexed rewriting in one system under one set of bounds.

    Every relation at level n is built from level n-1, so each result is
    memoised by (term, level) in tables that live as long as the Rewriter.
    Methods whose result type has no `truncated` flag return a pair
    (result, truncated) instead.  The module functions' registry may link a
    Rewriter with others of its system under bounds no larger, and on a miss
    it takes their untruncated answers, which are exact, as its own.
    """

    def __init__(self, system: Ctrs, bounds: Bounds) -> None:
        self.bounds = bounds
        self._rules = system.rules_by_symbol
        self._roots: dict[tuple[Term, int], tuple[frozenset[Term], bool]] = {}
        self._steps: dict[tuple[Term, int], tuple[frozenset[Term], bool]] = {}
        self._reach: dict[tuple[Term, int], ReachSet] = {}
        self._epar: dict[tuple[Term, int], EparSet] = {}
        self._lenders: list[Rewriter] = []

    def _borrow(self, table: str, key: tuple[Term, int]):
        """A lender's untruncated entry for key in table, stored as ours, or None."""
        for lender in self._lenders:
            found = getattr(lender, table).get(key)
            if found is not None and not (found[1] if type(found) is tuple else found.truncated):
                getattr(self, table)[key] = found
                return found
        return None

    def solve_conditions(
        self, conds: tuple[Condition, ...], sigma: Subst, n: int, frozen: frozenset
    ) -> tuple[frozenset[Subst], bool]:
        """Extensions of sigma solving conds left to right at level n,
        binding no variable in frozen.  A goal that is not ground is not
        solved: its extension is dropped and the result is truncated."""
        partial: set[Subst] = {sigma}
        truncated = False
        for cond in conds:
            nxt: set[Subst] = set()
            for s in partial:
                lhs_inst = apply_subst(cond.lhs, s)
                if not is_ground(lhs_inst):
                    truncated = True
                    continue
                rhs_inst = apply_subst(cond.rhs, s)
                reach = self.cstep_star(lhs_inst, n)
                truncated |= reach.truncated
                for u in reach.terms:
                    theta = match(rhs_inst, u)
                    if theta is None:
                        continue
                    # variables of the subject being rewritten are rigid: a
                    # binding for one would claim an instance, not the term itself
                    if any(v in frozen for v in theta.domain):
                        continue
                    nxt.add(compose(s, theta))
            partial = nxt
            if not partial:
                break
        return frozenset(partial), truncated

    def root_steps(self, t: Term, n: int) -> tuple[frozenset[Term], bool]:
        """Reducts of t by one conditional root step at level n."""
        if n <= 0 or not isinstance(t, Fun):
            return _NO_STEPS
        key = (t, n)
        found = self._roots.get(key)
        if found is None and self._lenders:
            found = self._borrow("_roots", key)
        if found is not None:
            return found
        out: set[Term] = set()
        truncated = False
        rigid = None
        for rule in self._rules.get(t.symbol, ()):
            sigma = match(rule.lhs, t)
            if sigma is None:
                continue
            if rigid is None:
                rigid = vars_of(t)
            if rigid and not rigid.isdisjoint(extra_vars(rule)):
                # the match binds every lhs variable, but a rule variable
                # outside the lhs named like a subject variable is not that
                # variable: the rule must avoid the subject's variables
                rule, _ = rename_apart(rule, RenamingScope.above(rigid))
                sigma = match(rule.lhs, t)
            sols, flag = self.solve_conditions(rule.conds, sigma, n - 1, rigid)
            truncated |= flag
            for s in sols:
                out.add(apply_subst(rule.rhs, s))
        found = self._roots[key] = (frozenset(out), truncated)
        return found

    def cstep_n(self, t: Term, n: int) -> tuple[frozenset[Term], bool]:
        """One-step reducts of t at level n: its root steps, then those of
        each argument put back in place."""
        if n <= 0 or not isinstance(t, Fun):
            return _NO_STEPS
        key = (t, n)
        found = self._steps.get(key)
        if found is None and self._lenders:
            found = self._borrow("_steps", key)
        if found is not None:
            return found
        roots, truncated = self.root_steps(t, n)
        out = set(roots)
        args = t.args
        for i, a in enumerate(args):
            below, flag = self.cstep_n(a, n)
            truncated |= flag
            for u in below:
                out.add(Fun(t.symbol, args[:i] + (u,) + args[i + 1 :]))
        found = self._steps[key] = (frozenset(out), truncated)
        return found

    def cstep_star(self, t: Term, n: int) -> ReachSet:
        """Terms reachable from t by at most max_depth level-n steps.

        Breadth-first, one round per step, and every round ORs in the
        `truncated` flag of each expansion.  A round whose new terms fit
        under max_terms takes them in any order.  Otherwise the cap bites and
        order decides what is kept, so the round is walked in term_key order,
        and the walk ends the search.  Round max_depth only looks: a new term
        there means depth cut the search.  max_depth also bounds the condition
        searches nested in each step, so a low depth can hide a step too.
        """
        if n <= 0:
            return ReachSet(frozenset({t}), False)
        key = (t, n)
        found = self._reach.get(key)
        if found is None and self._lenders:
            found = self._borrow("_reach", key)
        if found is not None:
            return found
        max_depth, max_terms = self.bounds.max_depth, self.bounds.max_terms
        visited: set[Term] = {t}
        frontier: Collection[Term] = (t,)
        truncated = False
        for depth in range(max_depth + 1):
            new: set[Term] = set()
            for u in frontier:
                succ, flag = self.cstep_n(u, n)
                truncated |= flag
                new |= succ
            new -= visited
            if not new:
                break
            if depth == max_depth:
                truncated = True
                break
            if len(new) > max_terms - len(visited):
                kept = dict.fromkeys(visited)
                for u in sorted(frontier, key=term_key):
                    if _admit(kept, self.cstep_n(u, n)[0], None, max_terms):
                        break
                visited, truncated = set(kept), True
                break
            visited |= new
            frontier = new
        found = self._reach[key] = ReachSet(frozenset(visited), truncated)
        return found

    def epar_successors(self, t: Term, n: int) -> EparSet:
        """Successors of t under one parallel step at level n, with witnesses."""
        if n <= 0:
            # the level-0 parallel relation is the identity
            return EparSet(t, {t: None}, (), False)
        key = (t, n)
        cached = self._epar.get(key)
        if cached is None and self._lenders:
            cached = self._borrow("_epar", key)
        if cached is not None:
            return cached

        reached_by: dict[Term, str | None] = {t: None}
        truncated = False
        max_terms = self.bounds.max_terms

        roots, flag = self.root_steps(t, n)
        truncated |= flag
        capped = _admit(reached_by, roots, KIND_ROOT, max_terms)

        below = self.cstep_star(t, n - 1)
        truncated |= below.truncated
        capped |= _admit(reached_by, below.terms, KIND_BELOW, max_terms)

        args: tuple[EparSet, ...] = ()
        if isinstance(t, Fun) and t.args and not capped:
            args = tuple(self.epar_successors(a, n) for a in t.args)
            truncated |= any(s.truncated for s in args)
            for combo in itertools.product(*(s.ordered for s in args)):
                u = Fun(t.symbol, combo)
                if u in reached_by:
                    continue
                if len(reached_by) >= max_terms:
                    capped = True
                    break
                reached_by[u] = _BY_ARGS

        truncated |= capped
        result = self._epar[key] = EparSet(t, reached_by, args, truncated)
        return result


# The module functions share one Rewriter per (system, bounds); its
# cache_info counts public calls that found their Rewriter already built.
# Each Rewriter it builds borrows from the registry's Rewriters of its system
# whose max_depth and max_terms are both no larger, and lends to those whose
# are both no smaller, whichever was built first.
_built: dict[Ctrs, list[Rewriter]] = {}


def _within(small: Bounds, big: Bounds) -> bool:
    return small.max_depth <= big.max_depth and small.max_terms <= big.max_terms


def _linked_rewriter(system: Ctrs, bounds: Bounds) -> Rewriter:
    new = Rewriter(system, bounds)
    peers = _built.setdefault(system, [])
    for old in peers:
        if _within(old.bounds, bounds):
            new._lenders.append(old)
        if _within(bounds, old.bounds):
            old._lenders.append(new)
    peers.append(new)
    return new


_rewriter = lru_cache(maxsize=None)(_linked_rewriter)


def solve_conditions(
    conds,
    sigma: Subst,
    n: int,
    system: Ctrs,
    bounds: Bounds,
    frozen: frozenset = frozenset(),
) -> frozenset[Subst]:
    """All extensions of sigma solving the conditions left to right at level n.

    Each condition's instantiated lhs is rewritten (bounded, level n) and the
    reducts are matched against the instantiated rhs; matches bind the rhs's
    fresh variables.  An empty result means nothing was found within bounds.
    """
    sols, _ = _rewriter(system, bounds).solve_conditions(tuple(conds), sigma, n, frozen)
    return sols


def root_steps(t: Term, n: int, system: Ctrs, bounds: Bounds) -> frozenset[Term]:
    """Reducts of t by one conditional root step at level n.

    Level 0 rewrites nothing.  At level n+1 a rule fires when its lhs matches
    t exactly and all conditions are solved at level n.  Sound always;
    complete only up to the bounds used for condition solving.
    """
    steps, _ = _rewriter(system, bounds).root_steps(t, n)
    return steps


def cstep_n(t: Term, n: int, system: Ctrs, bounds: Bounds) -> frozenset[Term]:
    """All one-step reducts of t at level n (root steps under any context)."""
    steps, _ = _rewriter(system, bounds).cstep_n(t, n)
    return steps


def cstep_star(t: Term, n: int, system: Ctrs, bounds: Bounds) -> ReachSet:
    """Terms reachable from t by at most max_depth level-n steps.

    Breadth-first by step count, so results do not depend on traversal luck;
    always contains t itself.
    """
    return _rewriter(system, bounds).cstep_star(t, n)


def epar_successors(t: Term, n: int, system: Ctrs, bounds: Bounds) -> EparSet:
    """Successors of t under one parallel step at level n, with witnesses.

    A successor replaces the contents of the holes of some multihole context
    over t, each hole independently doing a level-n conditional root step or
    a level-(n-1) rewrite sequence.  Level 0 relates t only to itself.
    """
    return _rewriter(system, bounds).epar_successors(t, n)


def epar_check(s: Term, u: Term, n: int, system: Ctrs, bounds: Bounds) -> EparStep | None:
    """A witness that s steps to u in parallel at level n, or None.

    None means "not found within bounds", never a proof of absence.
    """
    return _rewriter(system, bounds).epar_successors(s, n).witness(u)


def verify_epar_step(step: EparStep, n: int, system: Ctrs, bounds: Bounds) -> bool:
    """Replay a witness: refill the context and recheck every hole."""
    if not len(step.sources) == len(step.targets) == len(step.kinds):
        return False
    rewriter = _rewriter(system, bounds)
    for src, tgt, kind in zip(step.sources, step.targets, step.kinds):
        if kind == KIND_ROOT:
            if tgt not in rewriter.root_steps(src, n)[0]:
                return False
        elif kind == KIND_BELOW:
            if tgt not in rewriter.cstep_star(src, n - 1).terms:
                return False
        else:
            return False
    try:
        step.endpoints()
    except ValueError:
        return False
    return True


def clear_caches() -> None:
    """Drop the Rewriters behind the module functions, and so their memo
    tables and the links between them."""
    _rewriter.cache_clear()
    _built.clear()
