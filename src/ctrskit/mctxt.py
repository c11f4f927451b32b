"""Multihole contexts: terms with ordered anonymous holes.

Contexts ordered by refinement (a hole may be replaced by any context) form a
meet-semilattice; `meet` computes the greatest common prefix and `decompose`
recovers the residues under a prefix.  Holes are filled left to right, which
is what makes parallel rewrite steps over a shared context well defined.
Every walk is `terms.fold` or a stack loop, so none of them recurses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .terms import Fun, Symbol, Term, Var, check_arity, fold


class HoleCountError(ValueError):
    """Number of fillers does not match the number of holes."""


class NotAPrefixError(ValueError):
    """decompose() was called with a context that is not a prefix."""


@dataclass(frozen=True)
class Hole:
    def __str__(self) -> str:
        return "□"


@dataclass(frozen=True)
class MVar:
    var: Var

    def __str__(self) -> str:
        return str(self.var)


@dataclass(frozen=True)
class MFun:
    symbol: Symbol
    args: tuple["Mctxt", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        check_arity(self.symbol, self.args)

    # the same renderer as a term's
    __str__ = Fun.__str__


Mctxt = Union[Hole, MVar, MFun]

HOLE = Hole()


def hole_count(c: Mctxt) -> int:
    return fold(c, lambda u: 1 if isinstance(u, Hole) else 0, lambda u, ns: sum(ns))


def of_term(t: Term) -> Mctxt:
    """Embed a term as the hole-free context that reads back as itself."""
    return fold(t, MVar, lambda u, args: MFun(u.symbol, args))


def _fill(c: Mctxt, fillers: Iterable, make: Callable) -> Term | Mctxt:
    # `make` builds the nodes: Fun fills into a term, MFun into a context
    fillers = tuple(fillers)
    n = hole_count(c)
    if len(fillers) != n:
        noun = "term" if make is Fun else "context"
        raise HoleCountError(f"context has {n} hole(s), got {len(fillers)} {noun}(s)")
    it = iter(fillers)

    def leaf(u: Mctxt) -> Term | Mctxt:
        return next(it) if isinstance(u, Hole) else u.var if make is Fun else u

    return fold(c, leaf, lambda u, args: make(u.symbol, args))


def fill(c: Mctxt, ts: Iterable[Term]) -> Term:
    """Replace the holes of c left to right by ts."""
    return _fill(c, ts, Fun)


def fill_ctx(c: Mctxt, cs: Iterable[Mctxt]) -> Mctxt:
    """Replace the holes of c left to right by contexts, yielding a context."""
    return _fill(c, cs, MFun)


def leq(c: Mctxt, d: Mctxt) -> bool:
    """Prefix order: c <= d iff d is c with every hole refined to a context."""
    try:
        decompose(d, c)
    except NotAPrefixError:
        return False
    return True


def meet(c: Mctxt, d: Mctxt) -> Mctxt:
    """Greatest lower bound under leq.

    Keeps the nodes on which both sides agree and emits a hole at any
    disagreement, a hole on either side included.  A pair loop lists the
    agreed symbols and the leaves in right-to-left preorder, and they are
    built in reverse, bottom-up, as `terms.fold` does; nothing recurses.
    """
    order: list[Symbol | Mctxt] = []
    stack = [(c, d)]
    while stack:
        ci, di = stack.pop()
        if isinstance(ci, MFun) and isinstance(di, MFun) and ci.symbol == di.symbol:
            order.append(ci.symbol)
            stack += zip(ci.args, di.args)
        else:
            order.append(ci if isinstance(ci, MVar) and ci == di else HOLE)
    done: list[Mctxt] = []
    for item in reversed(order):
        if isinstance(item, Symbol):
            k = len(done) - item.arity
            done[k:] = [MFun(item, done[k:])]
        else:
            done.append(item)
    return done[0]


def decompose(c: Mctxt, e: Mctxt) -> list[Mctxt]:
    """The unique residues [c_1, ..., c_k] with fill_ctx(e, residues) == c;
    NotAPrefixError at the first mismatch in left-to-right preorder."""
    out: list[Mctxt] = []
    stack = [(c, e)]
    while stack:
        ci, ei = stack.pop()
        if isinstance(ei, Hole):
            out.append(ci)
        elif isinstance(ei, MFun) and isinstance(ci, MFun) and ci.symbol == ei.symbol:
            stack += zip(ci.args[::-1], ei.args[::-1])
        elif not (isinstance(ei, MVar) and ci == ei):
            raise NotAPrefixError(f"{ei} is not a prefix of {ci}")
    return out


def partition_by(ts: Iterable[Term], cs: Iterable[Mctxt]) -> list[list[Term]]:
    """Split ts into consecutive blocks sized by the hole counts of cs."""
    ts = list(ts)
    sizes = [hole_count(c) for c in cs]
    if sum(sizes) != len(ts):
        raise HoleCountError(
            f"contexts have {sum(sizes)} hole(s) in total, got {len(ts)} term(s)"
        )
    out: list[list[Term]] = []
    at = 0
    for sz in sizes:
        out.append(ts[at : at + sz])
        at += sz
    return out
