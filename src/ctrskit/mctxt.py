"""Multihole contexts: terms with ordered anonymous holes.

Contexts ordered by refinement (a hole may be replaced by any context) form a
meet-semilattice; `meet` computes the greatest common prefix and `decompose`
recovers the residues under a prefix.  Holes are filled left to right, which
is what makes parallel rewrite steps over a shared context well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .terms import Fun, Symbol, Term, Var


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

    # the same arity check as a term's
    __post_init__ = Fun.__post_init__

    def __str__(self) -> str:
        if not self.args:
            return self.symbol.name
        return f"{self.symbol.name}({', '.join(str(a) for a in self.args)})"


Mctxt = Union[Hole, MVar, MFun]

HOLE = Hole()


def hole_count(c: Mctxt) -> int:
    if isinstance(c, Hole):
        return 1
    if isinstance(c, MVar):
        return 0
    return sum(hole_count(a) for a in c.args)


def of_term(t: Term) -> Mctxt:
    """Embed a term as the hole-free context that reads back as itself."""
    if isinstance(t, Var):
        return MVar(t)
    return MFun(t.symbol, tuple(of_term(a) for a in t.args))


def _fill(c: Mctxt, it: Iterator[Term]) -> Term:
    if isinstance(c, Hole):
        return next(it)
    if isinstance(c, MVar):
        return c.var
    return Fun(c.symbol, tuple(_fill(a, it) for a in c.args))


def fill(c: Mctxt, ts: Iterable[Term]) -> Term:
    """Replace the holes of c left to right by ts."""
    ts = tuple(ts)
    n = hole_count(c)
    if len(ts) != n:
        raise HoleCountError(f"context has {n} hole(s), got {len(ts)} term(s)")
    return _fill(c, iter(ts))


def _fill_ctx(c: Mctxt, it: Iterator[Mctxt]) -> Mctxt:
    if isinstance(c, Hole):
        return next(it)
    if isinstance(c, MVar):
        return c
    return MFun(c.symbol, tuple(_fill_ctx(a, it) for a in c.args))


def fill_ctx(c: Mctxt, cs: Iterable[Mctxt]) -> Mctxt:
    """Replace the holes of c left to right by contexts, yielding a context."""
    cs = tuple(cs)
    n = hole_count(c)
    if len(cs) != n:
        raise HoleCountError(f"context has {n} hole(s), got {len(cs)} context(s)")
    return _fill_ctx(c, iter(cs))


def leq(c: Mctxt, d: Mctxt) -> bool:
    """Prefix order: c <= d iff d is c with every hole refined to a context."""
    if isinstance(c, Hole):
        return True
    if isinstance(c, MVar):
        return c == d
    return (
        isinstance(d, MFun)
        and d.symbol == c.symbol
        and all(leq(ca, da) for ca, da in zip(c.args, d.args))
    )


def meet(c: Mctxt, d: Mctxt) -> Mctxt:
    """Greatest lower bound under leq.

    The recursion keeps nodes on which both sides agree and emits a hole at
    any disagreement, a hole on either side included.
    """
    if isinstance(c, Hole) or isinstance(d, Hole):
        return HOLE
    if isinstance(c, MVar):
        return c if c == d else HOLE
    if isinstance(d, MFun) and d.symbol == c.symbol:
        return MFun(c.symbol, tuple(meet(ca, da) for ca, da in zip(c.args, d.args)))
    return HOLE


def decompose(c: Mctxt, e: Mctxt) -> list[Mctxt]:
    """The unique residues [c_1, ..., c_k] with fill_ctx(e, residues) == c."""
    out: list[Mctxt] = []

    def walk(ci: Mctxt, ei: Mctxt) -> None:
        if isinstance(ei, Hole):
            out.append(ci)
            return
        if isinstance(ei, MVar):
            if ci == ei:
                return
            raise NotAPrefixError(f"{ei} is not a prefix of {ci}")
        if isinstance(ci, MFun) and ci.symbol == ei.symbol:
            for ca, ea in zip(ci.args, ei.args):
                walk(ca, ea)
            return
        raise NotAPrefixError(f"{ei} is not a prefix of {ci}")

    walk(c, e)
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
