"""First-order terms, positions, substitutions, matching, and basic predicates.

Terms are immutable values with structural equality.  A variable carries a
base name plus an optional index, whose three ranges `Var` defines.
Positions are 1-indexed paths, the root being the empty tuple.

The walks that only read a term are stack loops, `subterms` and
`positioned_subterms` or walks read off them; the walks that build bottom-up
are `fold`, or a loop like `replace_at`'s.  So they work on terms nested
deeper than Python's recursion limit.  What still recurses: `==` between
distinct equal terms, the first hash of a term that was never hashed, and
elsewhere `mctxt.meet` and the engine's recursion over arguments in
`cstep_n`, `epar_successors` and `EparSet.witness`.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Union


class PositionError(ValueError):
    """A position does not exist in the term it was used on."""


@dataclass(frozen=True)
class Symbol:
    name: str
    arity: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("symbol name must be non-empty")
        if self.arity < 0:
            raise ValueError(f"symbol {self.name!r} has negative arity")


@dataclass(frozen=True)
class Var:
    """A variable: a base name plus an index from one of three disjoint ranges.

    - ``None``: read from source; the parser makes only these.
    - A natural number: made by renaming (`unify.RenamingScope`), which only
      ever bumps the index, so renamed variables never meet source ones.
    - A negative number: a hole of an IF1 skeleton (`analysis._skeleton`),
      so no hole meets a variable of the system.  Holes stay inside the
      infeasibility test: they never reach `term_key`, which encodes index
      ``None`` as -1, nor any rendered output, so nothing sorts or prints them.
    """

    name: str
    index: Optional[int] = None

    def __str__(self) -> str:
        return self.name if self.index is None else f"{self.name}#{self.index}"


@dataclass(frozen=True)
class Fun:
    symbol: Symbol
    args: tuple["Term", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.symbol.arity:
            raise ValueError(
                f"symbol {self.symbol.name!r} has arity {self.symbol.arity}, "
                f"got {len(self.args)} argument(s)"
            )

    def __hash__(self) -> int:
        # the dataclass hash, computed once: terms are hashed on every memo
        # lookup, and rehashing rebuilds the hash of every subterm
        try:
            return self._hash
        except AttributeError:
            h = hash((self.symbol, self.args))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # string hashes differ between processes, so a pickle must not carry one
        return (Fun, (self.symbol, self.args))

    def __str__(self) -> str:
        return render_term(self)


Term = Union[Var, Fun]
Position = tuple[int, ...]


def fold(t: Any, leaf: Callable[[Any], Any], node: Callable[[Any, list], Any]) -> Any:
    """Fold t bottom-up: `leaf(u)` at a node without `args`, `node(u, folds)`
    at a node with them, `folds` being the folds of `u.args` in order.

    Duck-typed on `args`, so it folds terms and multihole contexts alike.  It
    lists the nodes in right-to-left preorder and folds them in reverse, that
    is in left-to-right postorder: leaves left to right, and no recursion."""
    order = []
    stack = [t]
    while stack:
        u = stack.pop()
        order.append(u)
        stack += getattr(u, "args", ())
    done: list = []
    for u in reversed(order):
        args = getattr(u, "args", None)
        if args is None:
            done.append(leaf(u))
        else:
            k = len(done) - len(args)
            done[k:] = [node(u, done[k:])]
    return done[0]


def render_term(t: Term) -> str:
    """Concrete syntax: ``f(x, a)`` for applications, bare name for leaves and
    ``□`` for the holes of a context, which renders through it too."""
    return fold(t, str, lambda u, a: f"{u.symbol.name}({', '.join(a)})" if a else u.symbol.name)


def render_vars(vs: Iterable[Var]) -> str:
    """Variables for a message: rendered, sorted and comma-separated."""
    return ", ".join(sorted(str(v) for v in vs))


class Subst:
    """A finite map from variables to terms, the identity outside its domain.

    Bindings that map a variable to itself are dropped, so two substitutions
    are equal exactly when they act the same on every term.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[Var, Term] | None = None):
        m: dict[Var, Term] = {}
        if mapping:
            for v, t in mapping.items():
                if t != v:
                    m[v] = t
        object.__setattr__(self, "_map", m)

    def get(self, v: Var) -> Term:
        return self._map.get(v, v)

    @property
    def domain(self) -> frozenset[Var]:
        return frozenset(self._map)

    def items(self) -> Iterable[tuple[Var, Term]]:
        return self._map.items()

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subst):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{v} -> {render_term(t)}"
            for v, t in sorted(self._map.items(), key=lambda it: term_key(it[0]))
        )
        return "{" + inner + "}"


def iter_vars(t: Term) -> Iterator[Var]:
    """Left-to-right occurrences of variables, with repetitions."""
    # the loop of `subterms`, keeping variables: cheaper than filtering it
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            yield u
        elif u.args:
            stack += u.args[::-1]


def vars_of(t: Term) -> frozenset[Var]:
    return frozenset(iter_vars(t))


def is_linear(t: Term) -> bool:
    """True iff no variable occurs twice in t."""
    seen: set[Var] = set()
    for v in iter_vars(t):
        if v in seen:
            return False
        seen.add(v)
    return True


def is_ground(t: Term) -> bool:
    return next(iter_vars(t), None) is None


def is_constructor_term(t: Term, defined: frozenset[Symbol] | set[Symbol]) -> bool:
    """True iff no function node of t carries a symbol from `defined`."""
    return all(isinstance(u, Var) or u.symbol not in defined for u in subterms(t))


def subterm_at(t: Term, p: Position) -> Term:
    cur = t
    for depth, i in enumerate(p):
        if isinstance(cur, Var):
            raise PositionError(
                f"position {list(p)} traverses variable {cur} at depth {depth}"
            )
        if not 1 <= i <= len(cur.args):
            raise PositionError(
                f"position {list(p)}: index {i} exceeds arity of {cur.symbol.name}"
            )
        cur = cur.args[i - 1]
    return cur


def replace_at(t: Term, p: Position, u: Term) -> Term:
    above: list[tuple[Fun, int]] = []
    for depth, i in enumerate(p):
        if isinstance(t, Var):
            raise PositionError(f"position {list(p[depth:])} traverses variable {t}")
        if not 1 <= i <= len(t.args):
            raise PositionError(f"index {i} exceeds arity of {t.symbol.name}")
        above.append((t, i))
        t = t.args[i - 1]
    for f, i in reversed(above):
        u = Fun(f.symbol, f.args[: i - 1] + (u,) + f.args[i:])
    return u


def subterms(t: Term) -> Iterator[Term]:
    """Every subterm of t in preorder: root first, arguments left to right."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, Fun):
            stack += u.args[::-1]


def positioned_subterms(t: Term) -> Iterator[tuple[Position, Term]]:
    """`(p, subterm_at(t, p))` for every position p of t, in preorder."""
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        p, u = stack.pop()
        yield p, u
        if isinstance(u, Fun) and u.args:
            stack += [(p + (i,), u.args[i - 1]) for i in range(len(u.args), 0, -1)]


def positions(t: Term) -> list[Position]:
    """All positions of t, root first, arguments left to right."""
    return [p for p, _ in positioned_subterms(t)]


def function_positions(t: Term) -> list[Position]:
    """Positions whose subterm is a function application, in left-outer order."""
    return [p for p, u in positioned_subterms(t) if isinstance(u, Fun)]


def with_args(u: Fun, args: list) -> Fun:
    """u with its arguments replaced by args: u itself when each is u's own."""
    return u if all(map(operator.is_, args, u.args)) else Fun(u.symbol, tuple(args))


def apply_subst(t: Term, s: Subst) -> Term:
    """t with each variable v replaced by `s.get(v)`; a subterm holding no
    variable that s binds comes back as it is, not as a copy."""
    return fold(t, s.get, with_args) if s else t


def match(pattern: Term, subject: Term) -> Subst | None:
    """A substitution s with apply_subst(pattern, s) == subject, or None.

    Matching is purely syntactic; repeated pattern variables must match
    structurally equal subjects.
    """
    bindings: dict[Var, Term] = {}
    stack: list[tuple[Term, Term]] = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            bound = bindings.get(p)
            if bound is None:
                bindings[p] = s
            elif bound != s:
                return None
        elif isinstance(s, Fun) and s.symbol == p.symbol:
            stack.extend(zip(p.args, s.args))
        else:
            return None
    return Subst(bindings)


def compose(s1: Subst, s2: Subst) -> Subst:
    """The substitution acting as s1 followed by s2."""
    m: dict[Var, Term] = {v: apply_subst(t, s2) for v, t in s1.items()}
    for v, t in s2.items():
        m.setdefault(v, t)
    return Subst(m)


def term_size(t: Term) -> int:
    """Number of nodes, variables included."""
    return sum(1 for _ in subterms(t))


def term_key(t: Term) -> tuple:
    """A total-order key on terms, used wherever deterministic output matters.

    The preorder sequence of node keys: arities make it prefix-free, so it
    orders terms as the nested key (node, then argument keys) would.
    """
    return tuple([
        (0, u.name, -1 if u.index is None else u.index) if isinstance(u, Var)
        else (1, u.symbol.name, u.symbol.arity)
        for u in subterms(t)
    ])


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # tuples of `parts` positive integers summing to `total`, by cut points
    if total >= parts:
        for cuts in itertools.combinations(range(1, total), parts - 1):
            yield tuple(map(operator.sub, (*cuts, total), (0, *cuts)))


def ground_terms(symbols: Iterable[Symbol], max_size: int) -> list[Term]:
    """All ground terms over `symbols` with at most `max_size` nodes.

    Deterministic order: by size, then by symbol name, then argument choices.
    """
    syms = sorted(set(symbols), key=lambda f: (f.name, f.arity))
    by_size: list[list[Term]] = [[] for _ in range(max_size + 1)]
    for k in range(1, max_size + 1):
        bucket = by_size[k]
        for f in syms:
            if f.arity == 0:
                if k == 1:
                    bucket.append(Fun(f))
                continue
            for split in _compositions(k - 1, f.arity):
                pools = [by_size[sz] for sz in split]
                if any(not pool for pool in pools):
                    continue
                for combo in itertools.product(*pools):
                    bucket.append(Fun(f, combo))
    out: list[Term] = []
    for bucket in by_size:
        out.extend(bucket)
    return out
