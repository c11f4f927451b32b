"""Seeded generator of oriented CTRSs whose check verdict is known by construction.

A system is a sequence of blocks.  Each block defines its own symbols (a
numeric suffix keeps them apart) over a shared set of constructors
(``0``, ``s``, ``pair``, ``a``, ``b``, ``c``, ``d``), so no two blocks
overlap and every overlap of the system lies inside one block.  What each
block contributes to ``ctrskit check --json`` follows from the level-
confluence criterion alone, which makes the expected report independent of
the code under test:

- ``add``: Peano addition; two self overlaps at the root, both
  ``root-variant``.
- ``fib``: the rules of ``corpus/fib.ctrs``; four ``root-variant``.
- ``if2``: the pair of ``corpus/if2.ctrs``; the two root overlaps between
  the rules need ``x`` to reach the distinct normal forms ``c`` and ``d``,
  so they are ``infeasible-IF2``.
- ``if1``: ``q(x) -> a | s(x) == 0`` beside ``q(x) -> b``; no reduct of
  ``s(x)`` is ``0``, so the root overlaps are ``infeasible-IF1``.
- ``equal``: ``e(x) -> a`` beside ``e(b) -> a``; ``equal-rhs``.
- ``overlap``: the rules of ``corpus/overlap.ctrs``; two ``unknown``
  overlaps, so ``almost-orthogonal`` fails and the verdict is
  ``NOT_APPLICABLE``.

Every other block keeps the system ``LEVEL_CONFLUENT``.  Run as a script to
print one system: ``python3 perfbench/gen_cops.py SEED RULES``.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass

ROOT_VARIANT = "root-variant"
EQUAL_RHS = "equal-rhs"
IF1 = "infeasible-IF1"
IF2 = "infeasible-IF2"
UNKNOWN = "unknown"
DISPOSITIONS = (ROOT_VARIANT, EQUAL_RHS, IF1, IF2, UNKNOWN)


def _add(k: int) -> list[str]:
    return [f"add{k}(0, y) -> y", f"add{k}(s(x), y) -> s(add{k}(x, y))"]


def _fib(k: int) -> list[str]:
    return [
        f"fib{k}(0) -> pair(0, s(0))",
        f"fib{k}(s(x)) -> pair(z, add{k}(y, z)) | fib{k}(x) == pair(y, z)",
    ] + _add(k)


def _if2(k: int) -> list[str]:
    return [f"g{k}(x) -> a | x == c", f"g{k}(x) -> b | x == d"]


def _if1(k: int) -> list[str]:
    return [f"q{k}(x) -> a | s(x) == 0", f"q{k}(x) -> b"]


def _equal(k: int) -> list[str]:
    return [f"e{k}(x) -> a", f"e{k}(b) -> a"]


def _overlap(k: int) -> list[str]:
    return [f"h{k}(x) -> a", f"h{k}(b) -> b"]


# block name -> (rules for suffix k, dispositions the block's overlaps get)
BLOCKS = {
    "add": (_add, {ROOT_VARIANT: 2}),
    "fib": (_fib, {ROOT_VARIANT: 4}),
    "if2": (_if2, {ROOT_VARIANT: 2, IF2: 2}),
    "if1": (_if1, {ROOT_VARIANT: 2, IF1: 2}),
    "equal": (_equal, {ROOT_VARIANT: 2, EQUAL_RHS: 2}),
    "overlap": (_overlap, {ROOT_VARIANT: 2, UNKNOWN: 2}),
}
CLEAN_BLOCKS = ("add", "fib", "if2", "if1", "equal")
# share of systems that get one injected overlap block
OVERLAP_SHARE = 0.25


@dataclass(frozen=True)
class Expected:
    """What `ctrskit check --json` must report for a generated system."""

    verdict: str
    failing: tuple[str, ...]
    dispositions: tuple[tuple[str, int], ...]

    @property
    def overlap_count(self) -> int:
        return sum(n for _, n in self.dispositions)


@dataclass(frozen=True)
class Generated:
    text: str
    rules: int
    blocks: tuple[str, ...]
    expected: Expected


def generate(seed: int, rules: int) -> Generated:
    """A system of about `rules` rules (rounded up to even, at least 4).

    The same seed and size always give the same text.  Block kinds cycle
    through a seeded permutation of the clean blocks, so every disposition
    appears in any system of ten or more rules; about one system in four
    gets one `overlap` block at a seeded place.
    """
    rng = random.Random(seed)
    target = max(4, rules + rules % 2)
    inject = rng.random() < OVERLAP_SHARE
    order = list(CLEAN_BLOCKS)
    rng.shuffle(order)
    blocks: list[str] = []
    size = 2 if inject else 0
    while size < target:
        name = order[len(blocks) % len(order)]
        if size + len(BLOCKS[name][0](0)) > target:
            name = "add"
        blocks.append(name)
        size += len(BLOCKS[name][0](0))
    if inject:
        blocks.insert(rng.randrange(len(blocks) + 1), "overlap")
    lines: list[str] = []
    counts: Counter[str] = Counter()
    for k, name in enumerate(blocks):
        make, disps = BLOCKS[name]
        lines.extend(make(k))
        counts.update(disps)
    text = (
        "(CONDITIONTYPE ORIENTED)\n(VAR x y z)\n(RULES\n"
        + "".join(f"  {line}\n" for line in lines)
        + f")\n(COMMENT generated: seed {seed}, {len(lines)} rules)\n"
    )
    expected = Expected(
        verdict="NOT_APPLICABLE" if inject else "LEVEL_CONFLUENT",
        failing=("almost-orthogonal",) if inject else (),
        dispositions=tuple((d, counts[d]) for d in DISPOSITIONS if counts[d]),
    )
    return Generated(text, len(lines), tuple(blocks), expected)


def report_errors(payload: dict, expected: Expected) -> list[str]:
    """Differences between a `check --json` payload and the known answer."""
    errors = []
    if payload.get("verdict") != expected.verdict:
        errors.append(f"verdict {payload.get('verdict')} != {expected.verdict}")
    failing = tuple(
        sorted(n for n, p in payload.get("properties", {}).items() if not p["holds"])
    )
    if failing != expected.failing:
        errors.append(f"failing properties {failing} != {expected.failing}")
    got = Counter(o["disposition"] for o in payload.get("overlaps", []))
    if sorted(got.items()) != sorted(expected.dispositions):
        errors.append(f"dispositions {dict(got)} != {dict(expected.dispositions)}")
    if payload.get("truncated") is not False:
        errors.append("report is truncated")
    return errors


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: gen_cops.py SEED RULES")
    sys.stdout.write(generate(int(sys.argv[1]), int(sys.argv[2])).text)
