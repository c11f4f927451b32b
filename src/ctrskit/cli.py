"""Command-line interface.

Subcommands: check, props, overlaps, rewrite, epar, diamond.  Shared flags
(--max-level, --max-depth, --max-terms, --json) are accepted by every
subcommand, and every subcommand rejects a negative bound.  props only
validates the bounds; check and overlaps run no search and echo them in the
JSON `bounds` key; rewrite takes its depth from --steps; epar and diamond use
all three.  Exit codes: 0 a verdict or result was produced, 1 the verdict
was NOT_APPLICABLE and --strict was given, 2 bad input, including a term
nested too deeply for the walks that still recurse: the engine's recursion
over arguments in `cstep_n`, `epar_successors` and `EparSet.witness`.  A
condition goal that holds a variable is no error: the engine leaves it
unsolved and the result says `truncated`.  A stdout whose reader has gone
changes no exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .analysis import check_level_confluence, diamond_fuzz, dispose_overlaps
from .cops import ParseError, SourceSpec, parse, parse_term, render
from .ctrs import (
    check_left_linear,
    check_properly_oriented,
    check_right_stable,
    classify_type,
)
from .engine import Bounds, cstep_star, epar_successors
from .terms import ground_terms
from . import reports


class CliError(Exception):
    pass


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", help="system description file")
    sub.add_argument("--max-level", type=int, default=Bounds.max_level, metavar="N",
                     help="largest level accepted for level arguments")
    sub.add_argument("--max-depth", type=int, default=Bounds.max_depth, metavar="N",
                     help="rewrite sequence length cap")
    sub.add_argument("--max-terms", type=int, default=Bounds.max_terms, metavar="N",
                     help="visited-term cap per search")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


# built on the first call, so importers that never parse a command line skip it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrskit",
        description="Conditional rewriting toolkit and level-confluence checker",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="run the level-confluence criterion")
    _add_common(p)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the criterion does not apply")

    p = subs.add_parser("props", help="report the syntactic properties")
    _add_common(p)

    p = subs.add_parser("overlaps", help="enumerate conditional overlaps")
    _add_common(p)

    p = subs.add_parser("rewrite", help="bounded rewriting from a term")
    _add_common(p)
    p.add_argument("--term", required=True, help="start term")
    p.add_argument("--level", type=int, required=True, help="rewrite level")
    p.add_argument("--steps", type=int, required=True, help="step cap")

    p = subs.add_parser("epar", help="parallel-step successors of a term")
    _add_common(p)
    p.add_argument("--term", required=True, help="start term")
    p.add_argument("--level", type=int, required=True, help="step level")

    p = subs.add_parser("diamond", help="search for uncloseable peaks")
    _add_common(p)
    p.add_argument("--m", type=int, required=True, help="left step level")
    p.add_argument("--n", type=int, required=True, help="right step level")
    p.add_argument("--seed-size", type=int, required=True,
                   help="enumerate all ground seed terms up to this size")

    return parser


def _bounds(args: argparse.Namespace) -> Bounds:
    try:
        return Bounds(args.max_level, args.max_depth, args.max_terms)
    except ValueError as e:
        raise CliError(str(e)) from e


def _load(path: str) -> SourceSpec:
    try:
        # undecodable bytes become replacement characters, which the lexer
        # then rejects with a line/column instead of a decode traceback
        with open(path, encoding="utf-8", errors="replace") as fh:
            return parse(fh.read())
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror or e}") from e


def _check_level(args: argparse.Namespace, *levels: int) -> None:
    for lv in levels:
        if lv < 0:
            raise CliError("levels must be non-negative")
        if lv > args.max_level:
            raise CliError(f"level {lv} exceeds --max-level {args.max_level}")


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    try:
        print(json.dumps(payload, indent=2) if args.json else text, flush=True)
    except BrokenPipeError:
        # the reader has gone: on devnull the interpreter's last flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_check(args: argparse.Namespace, spec: SourceSpec, bounds: Bounds) -> int:
    verdict = check_level_confluence(spec.ctrs)
    _emit(args, reports.verdict_json(verdict, bounds), reports.verdict_text(verdict))
    if args.strict and not verdict.level_confluent:
        return 1
    return 0


def _cmd_props(args: argparse.Namespace, spec: SourceSpec, bounds: Bounds) -> int:
    system = spec.ctrs
    props = [
        check_left_linear(system),
        check_properly_oriented(system),
        check_right_stable(system),
    ]
    ctype = classify_type(system)
    _emit(
        args,
        reports.properties_json(ctype, props),
        reports.properties_text(ctype, props),
    )
    return 0


def _cmd_overlaps(args: argparse.Namespace, spec: SourceSpec, bounds: Bounds) -> int:
    dispositions = dispose_overlaps(spec.ctrs)
    _emit(
        args,
        reports.overlaps_json(dispositions, bounds),
        reports.overlaps_text(dispositions),
    )
    return 0


def _cmd_rewrite(args: argparse.Namespace, spec: SourceSpec, bounds: Bounds) -> int:
    if args.steps < 0:
        raise CliError("--steps must be non-negative")
    _check_level(args, args.level)
    term = parse_term(args.term, spec)
    bounds = dataclasses.replace(bounds, max_depth=args.steps)
    reach = cstep_star(term, args.level, spec.ctrs, bounds)
    rendered = [render(t) for t in reach]
    payload = {
        "term": render(term),
        "level": args.level,
        "steps": args.steps,
        "reachable": rendered,
        "truncated": reach.truncated,
    }
    text = "\n".join(rendered) + f"\ntruncated: {str(reach.truncated).lower()}"
    _emit(args, payload, text)
    return 0


def _cmd_epar(args: argparse.Namespace, spec: SourceSpec, bounds: Bounds) -> int:
    _check_level(args, args.level)
    term = parse_term(args.term, spec)
    succ = epar_successors(term, args.level, spec.ctrs, bounds)
    payload = {
        "term": render(term),
        "level": args.level,
        "successors": [
            {
                "term": render(t),
                "holes": len(step.sources),
                "kinds": list(step.kinds),
            }
            for t, step in succ.pairs
        ],
        "truncated": succ.truncated,
    }
    lines = [
        f"{render(t)}  [holes={len(step.sources)}"
        + (f" kinds={','.join(step.kinds)}]" if step.kinds else "]")
        for t, step in succ.pairs
    ]
    text = "\n".join(lines) + f"\ntruncated: {str(succ.truncated).lower()}"
    _emit(args, payload, text)
    return 0


def _cmd_diamond(args: argparse.Namespace, spec: SourceSpec, bounds: Bounds) -> int:
    if args.seed_size < 1:
        raise CliError("--seed-size must be at least 1")
    _check_level(args, args.m, args.n)
    seeds = ground_terms(spec.ctrs.symbols, args.seed_size)
    outcome = diamond_fuzz(spec.ctrs, seeds, args.m, args.n, bounds)
    cex = outcome.counterexample
    payload = {
        "counterexample": None
        if cex is None
        else {"seed": render(cex.seed), "left": render(cex.left), "right": render(cex.right)},
        "seeds": len(seeds),
        "peaks_checked": outcome.peaks_checked,
        "truncated": outcome.truncated,
    }
    if cex is None:
        text = (
            f"no counterexample ({outcome.peaks_checked} peaks over "
            f"{len(seeds)} seeds, truncated: {str(outcome.truncated).lower()})"
        )
    else:
        text = (
            f"counterexample peak: {render(cex.left)} <- {render(cex.seed)} "
            f"-> {render(cex.right)} (truncated: {str(outcome.truncated).lower()})"
        )
    _emit(args, payload, text)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "props": _cmd_props,
    "overlaps": _cmd_overlaps,
    "rewrite": _cmd_rewrite,
    "epar": _cmd_epar,
    "diamond": _cmd_diamond,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _load(args.file), _bounds(args))
    except (ParseError, CliError) as e:
        print(f"error: {e}", file=sys.stderr)
    except RecursionError:
        print("error: term nesting exceeds Python's recursion limit", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
