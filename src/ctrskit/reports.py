"""Human-readable and JSON views of checker results.

Rule numbers in every report are 1-based, matching how systems are written
down; Python-level indices stay 0-based.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from .analysis import OverlapDisposition, Verdict
from .ctrs import PropertyReport, Witness
from .engine import Bounds

VERDICT_LEVEL_CONFLUENT = "LEVEL_CONFLUENT"
VERDICT_NOT_APPLICABLE = "NOT_APPLICABLE"


def bounds_json(bounds: Bounds) -> dict:
    return dataclasses.asdict(bounds)


def witness_json(w: Witness) -> dict:
    return {"rule": w.rule_index + 1, "detail": w.detail}


def property_json(report: PropertyReport) -> dict:
    return {
        "holds": report.holds,
        "witnesses": [witness_json(w) for w in report.witnesses],
    }


def _property_map(reports: Iterable[PropertyReport]) -> dict:
    return {p.name: property_json(p) for p in reports}


def overlap_json(od: OverlapDisposition) -> dict:
    o = od.overlap
    return {
        "rules": [o.rule1_index + 1, o.rule2_index + 1],
        "pos": list(o.pos),
        "disposition": od.disposition,
    }


def verdict_json(verdict: Verdict, bounds: Bounds) -> dict:
    return {
        "verdict": VERDICT_LEVEL_CONFLUENT
        if verdict.level_confluent
        else VERDICT_NOT_APPLICABLE,
        "properties": _property_map(verdict.properties),
        "overlaps": [overlap_json(od) for od in verdict.overlaps],
        "bounds": bounds_json(bounds),
        # the verdict needs no search, so no bound can cut it short
        "truncated": False,
    }


def _property_lines(report: PropertyReport) -> list[str]:
    lines = [f"property {report.name}: {'holds' if report.holds else 'FAILS'}"]
    for w in report.witnesses:
        lines.append(f"  rule {w.rule_index + 1}: {w.detail}")
    return lines


def _overlap_line(od: OverlapDisposition) -> str:
    o = od.overlap
    return (
        f"overlap rule {o.rule1_index + 1} ~ rule {o.rule2_index + 1} "
        f"at {list(o.pos)}: {od.disposition}"
    )


def verdict_text(verdict: Verdict) -> str:
    if verdict.level_confluent:
        lines = ["YES (level-confluent)"]
    else:
        lines = [f"MAYBE (criterion not applicable: {', '.join(verdict.failing)})"]
    lines.append(properties_text(verdict.ctrs_type, verdict.properties))
    if verdict.overlaps:
        lines.append(f"overlaps: {len(verdict.overlaps)}")
        lines.extend(_overlap_line(od) for od in verdict.overlaps)
    else:
        lines.append("overlaps: none")
    return "\n".join(lines)


def properties_text(ctrs_type: int, reports: Iterable[PropertyReport]) -> str:
    lines = [f"system class: {ctrs_type}-CTRS"]
    for p in reports:
        lines.extend(_property_lines(p))
    return "\n".join(lines)


def properties_json(ctrs_type: int, reports: Iterable[PropertyReport]) -> dict:
    return {"type": ctrs_type, "properties": _property_map(reports)}


def overlaps_text(dispositions: list[OverlapDisposition]) -> str:
    if not dispositions:
        return "no overlaps"
    return "\n".join(_overlap_line(od) for od in dispositions)


def overlaps_json(dispositions: list[OverlapDisposition], bounds: Bounds) -> dict:
    return {
        "overlaps": [overlap_json(od) for od in dispositions],
        "bounds": bounds_json(bounds),
    }


def render_report(report: Verdict | PropertyReport) -> str:
    """Human-readable text for a verdict or a single property report."""
    if isinstance(report, Verdict):
        return verdict_text(report)
    return "\n".join(_property_lines(report))
