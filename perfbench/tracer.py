"""Span tracing at ctrskit's module boundaries, from outside the package.

`Tracer.install` replaces each traced public function by a wrapper in every
ctrskit namespace that binds it, the defining module included, so calls
between modules and from the benchmark go through the wrapper.  A traced
class is wrapped at `__init__`.  While a wrapper is active, calls that come
back to the same function (recursion) run unwrapped, so a recursive walk is
one span.  `calls` therefore counts boundary calls, not recursive ones.

Each span is kept in memory (name, start, end, parent, op) and written out
by `write`.  Self time, the span minus its direct child spans, is summed as
spans close.  A few results are also inspected to give the named ratios.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# module -> traced public names; the per-layer metrics are named after these
TARGETS = {
    "terms": (
        "match", "apply_subst", "compose", "term_key", "function_positions",
        "subterm_at", "replace_at", "vars_of", "ground_terms",
    ),
    "engine": (
        "root_steps", "cstep_n", "cstep_star", "epar_successors", "epar_check",
        "solve_conditions",
    ),
    "mctxt": ("fill", "of_term", "MFun"),
    "unify": ("mgu", "rename_apart", "rename_term_apart", "is_variant"),
    "analysis": (
        "conditional_overlaps", "dispose_overlap", "infeasible",
        "check_level_confluence", "diamond_fuzz",
    ),
    "ctrs": (
        "check_left_linear", "check_properly_oriented", "check_right_stable",
        "classify_type", "is_ground_normal_form_ru", "underlying_trs",
    ),
    "cops": ("parse",),
    "reports": ("verdict_json",),
    "cli": ("main",),
}
DISPOSITIONS = ("root-variant", "equal-rhs", "infeasible-IF1", "infeasible-IF2", "unknown")
# spans kept for writing out (28 bytes each); later spans are still timed
MAX_SPANS = 1_000_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.edges: Counter[tuple[int, int]] = Counter()
        # open spans: [name id, start, child time, span index]
        self.stack: list[list] = []
        self.op = -1
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.dropped = 0
        self.engine_seen: set = set()
        self.engine_calls = 0
        self.engine_repeats = 0
        self.flagged_calls = 0
        self.truncated = 0
        self.overlaps_found = 0
        self.peaks_checked = 0
        self.dispositions: Counter[str] = Counter()
        self._ck = None

    def _span(self, name: str, fn, inspect=None):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        active = [False]
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            parent = stack[-1] if stack else None
            idx = len(self.sp_name)
            if idx < MAX_SPANS:
                self.sp_name.append(nid)
                self.sp_start.append(0.0)
                self.sp_end.append(0.0)
                self.sp_parent.append(parent[3] if parent else -1)
                self.sp_op.append(self.op)
            else:
                idx = -1
                self.dropped += 1
            frame = [nid, 0.0, 0.0, idx]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[0] = False
                dur = end - start
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                    self.edges[parent[0], nid] += 1
                if idx >= 0:
                    self.sp_start[idx] = start
                    self.sp_end[idx] = end
            if inspect is not None:
                inspect(args, result)
            return result

        return traced

    def install(self, ck) -> None:
        """Wrap every target found in the imported ctrskit package."""
        self._ck = ck
        modules = [m for n, m in sys.modules.items() if n == "ctrskit" or n.startswith("ctrskit.")]
        for mod_name, names in TARGETS.items():
            module = sys.modules.get(f"ctrskit.{mod_name}")
            if module is None:
                continue
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                span_name = f"{mod_name}.{name}"
                if isinstance(original, type):
                    original.__init__ = self._span(span_name, original.__init__)
                    continue
                wrapped = self._span(span_name, original, self._inspector(span_name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    def _inspector(self, span_name: str):
        if span_name.startswith("engine."):
            return self._engine_result
        return {
            "analysis.conditional_overlaps": self._overlaps_result,
            "analysis.dispose_overlap": self._disposition_result,
            "analysis.diamond_fuzz": self._diamond_result,
        }.get(span_name)

    def _engine_result(self, args, result) -> None:
        # the query is the arguments other than the system and the bounds
        key = tuple(a for a in args if not isinstance(a, (self._ck.Ctrs, self._ck.Bounds)))
        try:
            repeat = key in self.engine_seen
            self.engine_seen.add(key)
        except TypeError:
            return
        self.engine_calls += 1
        self.engine_repeats += repeat
        if hasattr(result, "truncated"):
            self.flagged_calls += 1
            self.truncated += bool(result.truncated)

    def _overlaps_result(self, args, result) -> None:
        self.overlaps_found += len(result)

    def _disposition_result(self, args, result) -> None:
        self.dispositions[result.disposition] += 1

    def _diamond_result(self, args, result) -> None:
        self.peaks_checked += result.peaks_checked

    def metrics(self) -> dict[str, float]:
        """Per-module counts and self times, plus the named ratios."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        out["engine.repeat_share"] = self.engine_repeats / max(self.engine_calls, 1)
        out["engine.truncated_share"] = self.truncated / max(self.flagged_calls, 1)
        hits = misses = 0
        exposed = False
        for value in vars(sys.modules["ctrskit.engine"]).values():
            info = getattr(value, "cache_info", None)
            if callable(info):
                exposed = True
                stats = info()
                hits += stats.hits
                misses += stats.misses
        if exposed:
            out["engine.memo_hits"] = hits
            out["engine.memo_misses"] = misses
        out["analysis.overlaps_found"] = self.overlaps_found
        mgu_attempts = sum(
            n for (parent, child), n in self.edges.items()
            if self.names[parent] == "analysis.conditional_overlaps" and self.names[child] == "unify.mgu"
        )
        out["analysis.mgu_per_overlap"] = mgu_attempts / max(self.overlaps_found, 1)
        for d in DISPOSITIONS:
            out[f"analysis.disp.{d}"] = self.dispositions[d]
        out["analysis.peaks_checked"] = self.peaks_checked
        return out

    def write(self, path: Path, op_keys: list[str]) -> None:
        """A JSON header line, then the five span columns as native arrays."""
        header = {
            "fields": ["name", "start", "end", "parent", "op"],
            "types": [a.typecode for a in self._columns()],
            "count": len(self.sp_name),
            "dropped": self.dropped,
            "names": self.names,
            "ops": op_keys,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in self._columns():
                column.tofile(fh)

    def _columns(self):
        return (self.sp_name, self.sp_start, self.sp_end, self.sp_parent, self.sp_op)


def read_spans(path: Path) -> tuple[dict, list[array]]:
    """The header and the five columns of a file made by `Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for code in header["types"]:
            column = array(code)
            column.fromfile(fh, header["count"])
            columns.append(column)
    return header, columns
