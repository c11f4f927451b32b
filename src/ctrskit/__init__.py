"""Conditional term rewriting toolkit.

Level-indexed conditional rewriting, parallel steps over multihole contexts,
conditional overlap analysis, and a checker for a level-confluence criterion
(orthogonal modulo infeasibility + properly oriented + right-stable 3-CTRS).
"""

from .analysis import (
    DiamondOutcome,
    DiamondPeak,
    Feasibility,
    Overlap,
    OverlapDisposition,
    Verdict,
    check_almost_orthogonal,
    check_level_confluence,
    conditional_overlaps,
    diamond_fuzz,
    dispose_overlaps,
    infeasible,
)
from .cops import ParseError, SourceSpec, parse, parse_term, render, render_system
from .reports import render_report, verdict_json
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
    underlying_trs,
)
from .engine import (
    Bounds,
    EngineError,
    EparSet,
    EparStep,
    ReachSet,
    Rewriter,
    cstep_n,
    cstep_star,
    epar_check,
    epar_successors,
    root_steps,
    solve_conditions,
)
from .mctxt import (
    HOLE,
    Hole,
    MFun,
    MVar,
    Mctxt,
    decompose,
    fill,
    fill_ctx,
    hole_count,
    leq,
    meet,
    of_term,
    partition_by,
)
from .terms import (
    Fun,
    Position,
    Subst,
    Symbol,
    Term,
    Var,
    apply_subst,
    compose,
    function_positions,
    ground_terms,
    is_constructor_term,
    is_ground,
    is_linear,
    match,
    render_term,
    subterm_at,
    replace_at,
    term_size,
    vars_of,
)
from .unify import RenamingScope, is_term_variant, is_variant, mgu, rename_apart

__all__ = [name for name in dir() if not name.startswith("_")]
