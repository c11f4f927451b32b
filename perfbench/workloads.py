"""The benchmark's three workloads: inputs, the timed call, and the checks.

Each workload turns a seed into a list of `Op`s.  `Op.run` is the timed
call into ctrskit; `Op.check` runs afterwards, untimed, and returns the
known-answer and invariant failures plus a digest of the op's output.  The
digest is compared with `reference.json`, recorded at the commit that
introduced the benchmark, so an op whose output changes counts as failed.

With `seed=None` a workload returns its whole universe of ops, which is
what `record_reference.py` digests; a seed picks a subset of that universe
whose size, and so whose amount of work, does not depend on the seed.

ctrskit is passed in as a module and every call goes through a module
attribute, so the tracer's wrappers (installed after import) see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import gen_cops

# The criterion-2 bounds of the acceptance suite: `chain` for the one-step
# and parallel relations, `saturate` for reachability.
CHAIN_BOUNDS = dict(max_level=8, max_depth=8, max_terms=100000)
SATURATE_BOUNDS = dict(max_level=8, max_depth=128, max_terms=200000)
DIAMOND_BOUNDS = dict(max_level=8, max_depth=6, max_terms=100000)

# Ground terms of fib.ctrs up to this many nodes form the universe of the
# two engine workloads (1437 terms).  Size 8 would add 4272 terms, and at
# that size some diamond searches hit the bounds.
TERM_CAP = 7
# Terms this small are in every run: they hold the add/fib known answers.
ALWAYS_BELOW = 6
# Share of the larger terms a seed picks, per size class.
SAMPLE_SHARE = 1 / 3

# check-mix: systems per run, spread log-uniformly over MIN..MAX rules, and
# the number of generated variants per size from which a seed picks one.
MIX_OPS = 40
MIX_MIN_RULES = 4
MIX_MAX_RULES = 96
MIX_VARIANTS = 4


@dataclass
class Op:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], str]]


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _fib_system(ck, root: Path):
    return ck.parse((root / "corpus" / "fib.ctrs").read_text(encoding="utf-8")).ctrs


def _pick_terms(ck, terms: list, seed: int | None) -> list:
    """All small terms plus a per-size seeded sample of the rest, in order."""
    if seed is None:
        return terms
    rng = random.Random(seed)
    by_size: dict[int, list[int]] = {}
    for i, t in enumerate(terms):
        by_size.setdefault(ck.term_size(t), []).append(i)
    keep: list[int] = []
    for size, idx in sorted(by_size.items()):
        keep.extend(idx if size < ALWAYS_BELOW else rng.sample(idx, round(len(idx) * SAMPLE_SHARE)))
    return [terms[i] for i in sorted(keep)]


class _Peano:
    """Builds and reads the numerals and pairs of fib.ctrs."""

    def __init__(self, ck, system):
        self.ck = ck
        self.sym = {s.name: s for s in system.symbols}

    def num(self, n: int):
        t = self.ck.Fun(self.sym["0"])
        for _ in range(n):
            t = self.ck.Fun(self.sym["s"], (t,))
        return t

    def value(self, t) -> int | None:
        n = 0
        while isinstance(t, self.ck.Fun) and t.symbol.name == "s":
            t, n = t.args[0], n + 1
        return n if isinstance(t, self.ck.Fun) and t.symbol.name == "0" else None

    def pair(self, a, b):
        return self.ck.Fun(self.sym["pair"], (a, b))


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _known_reducts(peano: _Peano, t) -> list[tuple[Any, int]]:
    """(reduct, lowest level reaching it) that hold by arithmetic alone.

    add(s^a(0), s^b(0)) reaches s^(a+b)(0) at level 1; fib(s^k(0)) reaches
    pair(F_k, F_(k+1)) at level k+1 and at no lower level.
    """
    name = t.symbol.name
    if name == "add":
        a, b = (peano.value(x) for x in t.args)
        if a is not None and b is not None:
            return [(peano.num(a + b), 1)]
    if name == "fib":
        k = peano.value(t.args[0])
        if k is not None:
            return [(peano.pair(peano.num(_fibonacci(k)), peano.num(_fibonacci(k + 1))), k + 1)]
    return []


def relation_chain(ck, root: Path, workdir: Path, seed: int | None) -> list[Op]:
    """Criterion 2 of the acceptance suite, one op per ground term of fib.ctrs."""
    fib = _fib_system(ck, root)
    chain = ck.Bounds(**CHAIN_BOUNDS)
    saturate = ck.Bounds(**SATURATE_BOUNDS)
    peano = _Peano(ck, fib)
    render = ck.render

    def run(t):
        one = [ck.cstep_n(t, lv, fib, chain) for lv in range(4)]
        par = [ck.epar_successors(t, lv, fib, chain) for lv in range(4)]
        reach = [None] + [ck.cstep_star(t, lv, fib, saturate) for lv in (1, 2, 3)]
        roots = [ck.root_steps(t, lv, fib, chain) for lv in range(5)]
        return one, par, reach, roots

    def check(t, out):
        one, par, reach, roots = out
        errors = []
        if one[0]:
            errors.append("level-0 step exists")
        if par[0].terms != {t}:
            errors.append("level-0 parallel step is not the identity")
        for lv in (1, 2, 3):
            if par[lv].truncated or reach[lv].truncated:
                errors.append(f"level {lv} search truncated")
            if not one[lv] <= par[lv].terms <= reach[lv].terms:
                errors.append(f"one-step <= parallel <= reach fails at level {lv}")
        for lv in range(4):
            if not roots[lv] <= roots[lv + 1]:
                errors.append(f"root steps not monotone at level {lv}")
        for reduct, lowest in _known_reducts(peano, t):
            for lv in (1, 2, 3):
                if (reduct in reach[lv]) != (lv >= lowest):
                    errors.append(f"{render(reduct)} reachable at level {lv}: {lv >= lowest} expected")
        lines = [render(t)]
        for lv in range(4):
            lines.append(f"cstep_n {lv} " + " ".join(sorted(render(u) for u in one[lv])))
            lines.append(
                f"epar {lv} {par[lv].truncated} "
                + " ".join(f"{render(u)}/{len(w.sources)}/{','.join(w.kinds)}" for u, w in par[lv].pairs)
            )
        for lv in (1, 2, 3):
            lines.append(f"cstep_star {lv} {reach[lv].truncated} " + " ".join(sorted(render(u) for u in reach[lv].terms)))
        for lv in range(5):
            lines.append(f"root_steps {lv} " + " ".join(sorted(render(u) for u in roots[lv])))
        return errors, digest(lines)

    terms = _pick_terms(ck, ck.ground_terms(fib.symbols, TERM_CAP), seed)
    return [
        Op(render(t), (lambda t=t: run(t)), (lambda out, t=t: check(t, out)))
        for t in terms
    ]


LEVEL_PAIRS = tuple(itertools.product((0, 1, 2), repeat=2))


def diamond(ck, root: Path, workdir: Path, seed: int | None) -> list[Op]:
    """Criterion 4: diamond_fuzz at every (m, n) in {0,1,2}^2 per seed term,
    plus the known uncloseable f(b) peak of overlap.ctrs."""
    fib = _fib_system(ck, root)
    bounds = ck.Bounds(**DIAMOND_BOUNDS)
    render = ck.render

    def run(system, seed_term, pairs):
        return [ck.diamond_fuzz(system, [seed_term], m, n, bounds) for m, n in pairs]

    def lines_of(seed_term, pairs, outcomes):
        lines = [render(seed_term)]
        for (m, n), o in zip(pairs, outcomes):
            cex = o.counterexample
            peak = "-" if cex is None else f"{render(cex.left)}<{render(cex.seed)}>{render(cex.right)}"
            lines.append(f"{m} {n} {peak} {o.truncated} {o.peaks_checked}")
        return lines

    def check_fib(seed_term, outcomes):
        errors = [
            f"peak at ({m}, {n})"
            for (m, n), o in zip(LEVEL_PAIRS, outcomes)
            if o.counterexample is not None
        ]
        return errors, digest(lines_of(seed_term, LEVEL_PAIRS, outcomes))

    overlapping = ck.parse((root / "corpus" / "overlap.ctrs").read_text(encoding="utf-8")).ctrs
    sym = {s.name: s for s in overlapping.symbols}
    f_b = ck.Fun(sym["f"], (ck.Fun(sym["b"]),))
    known_peak = ("f(b)", "a", "b")

    def check_overlap(outcomes):
        cex = outcomes[0].counterexample
        got = None if cex is None else (render(cex.seed), render(cex.left), render(cex.right))
        errors = [] if got == known_peak else [f"peak {got} != {known_peak}"]
        return errors, digest(lines_of(f_b, [(1, 1)], outcomes))

    seeds = _pick_terms(ck, ck.ground_terms(fib.symbols, TERM_CAP), seed)
    ops = [
        Op(render(s), (lambda s=s: run(fib, s, LEVEL_PAIRS)), (lambda out, s=s: check_fib(s, out)))
        for s in seeds
    ]
    ops.append(Op("overlap.ctrs:f(b)", lambda: run(overlapping, f_b, [(1, 1)]), check_overlap))
    return ops


def mix_sizes() -> list[int]:
    """Rule counts of the check-mix ops, one per log-uniform stratum."""
    span = MIX_MAX_RULES / MIX_MIN_RULES
    return [round(MIX_MIN_RULES * span ** ((i + 0.5) / MIX_OPS)) for i in range(MIX_OPS)]


def check_mix(ck, root: Path, workdir: Path, seed: int | None) -> list[Op]:
    """`ctrskit check FILE --json` on generated systems with known verdicts."""
    sizes = mix_sizes()
    if seed is None:
        picks = [(i, v) for i in range(MIX_OPS) for v in range(MIX_VARIANTS)]
    else:
        rng = random.Random(seed)
        picks = [(i, rng.randrange(MIX_VARIANTS)) for i in range(MIX_OPS)]
        rng.shuffle(picks)

    def run(path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ck.cli.main(["check", str(path), "--json"])
        return code, out.getvalue()

    def check(expected, result):
        code, text = result
        if code != 0:
            return [f"exit code {code}"], digest([str(code), text])
        try:
            payload = json.loads(text)
        except ValueError:
            return ["output is not JSON"], digest([text])
        return gen_cops.report_errors(payload, expected), digest([text])

    ops = []
    for i, variant in picks:
        system_seed = i * MIX_VARIANTS + variant
        gen = gen_cops.generate(system_seed, sizes[i])
        path = workdir / f"mix-{system_seed}.ctrs"
        path.write_text(gen.text, encoding="utf-8")
        ops.append(
            Op(f"{system_seed}:{sizes[i]}", (lambda p=path: run(p)), (lambda out, e=gen.expected: check(e, out)))
        )
    return ops


WORKLOADS = {
    "relation-chain": relation_chain,
    "diamond": diamond,
    "check-mix": check_mix,
}
