"""The benchmark's worker still runs against this checkout and reports every
declared metric.

`perfbench/worker.py` drives ctrskit through its public functions and, with
tracing on, reads per-layer counts off the engine module; an engine change
that breaks either makes the benchmark print no result.  Each run here is
one worker process, as `perfbench/run.py` starts it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# added by run.py from the traced and untraced runs, not by a worker
RUN_LEVEL = {"trace.ops_per_s_ratio"}


def run_worker(workload: str, trace: int, workdir: Path) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
        "--seed", "1", "--trace", str(trace), "--workdir", str(workdir),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    return result


def test_traced_relation_chain_reports_every_per_layer_metric(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer"]} - RUN_LEVEL
    result = run_worker("relation-chain", 1, tmp_path)
    assert sorted(names - set(result["trace"])) == []


def test_untraced_diamond_passes_its_checks(tmp_path):
    result = run_worker("diamond", 0, tmp_path)
    assert result["op_s"] and "trace" not in result


def test_traced_check_mix_disposes_every_overlap_through_the_index(tmp_path):
    trace = run_worker("check-mix", 1, tmp_path)["trace"]
    assert trace["analysis.overlaps_found"] == 1784
    # dispose_overlaps goes through the traced public dispose_overlap
    assert trace["analysis.dispose_overlap.calls"] == 1784
    # the generator fixes these counts by construction
    assert [
        trace[f"analysis.disp.{d}"]
        for d in ("root-variant", "equal-rhs", "infeasible-IF1", "infeasible-IF2", "unknown")
    ] == [1180, 186, 194, 196, 28]
    # unindexed enumeration tries about 52 unifiers per overlap found
    assert trace["analysis.mgu_per_overlap"] < 2


def test_traced_check_mix_renames_each_rule_once_and_composes_nothing(tmp_path):
    trace = run_worker("check-mix", 1, tmp_path)["trace"]
    assert trace["analysis.overlaps_found"] == 1784
    # 2549 when mgu composed every binding into its substitution at once;
    # the engine composes, but check-mix runs no engine search
    assert trace["terms.compose.calls"] == 0
    # 3540 when every first rule, and the second rule of every pair tried,
    # was renamed whole through rename_apart; at most one per rule of the
    # 1180, and none since each rule's renamings come from its variable list
    assert trace["unify.rename_apart.calls"] <= 1180
    # 27872 when mgu rewrote every popped pair by its substitution so far,
    # and every pair tried renamed its second rule whole;
    # 15988 when each new Overlap re-applied its unifier to both sides;
    # 12420 when second lhss were renamed per first rule's scope start;
    # 8656 when each rule was renamed once per role
    assert trace["terms.apply_subst.calls"] <= 5518
    # 10877 when the class checks each took the variables of a rule's terms
    # on their own; 10099 since they read `rule_type`;
    # 9907 since properly-oriented asks only whether the rhs adds a variable
    assert trace["terms.vars_of.calls"] <= 9907


def test_traced_relation_chain_sorts_only_where_the_cap_can_bite(tmp_path):
    trace = run_worker("relation-chain", 1, tmp_path)["trace"]
    # 25533 when every search round sorted its frontier and successors,
    # 4900 when every parallel-step successor set was sorted as it was built
    assert trace["terms.term_key.calls"] < 4700


def test_traced_diamond_builds_no_witness(tmp_path):
    trace = run_worker("diamond", 1, tmp_path)["trace"]
    # diamond_fuzz reads successor terms only; eager witnesses took 8511 calls
    assert trace["mctxt.of_term.calls"] == 0
    # 35882 when each left peak's join was asked for once per right peak,
    # 29841 when each right peak's join was asked for once per left peak,
    # 23800 when the right peaks' joins were kept for one seed only,
    # 15583 when every join went through the module function
    assert trace["engine.epar_successors.calls"] == 0
    # one registry lookup per diamond_fuzz call, and one Rewriter per system
    assert (trace["engine.memo_hits"], trace["engine.memo_misses"]) == (4922, 2)
    # 4873 when every successor set was sorted as it was built, 6248 when a
    # set of one term was sorted too
    assert trace["terms.term_key.calls"] < 3500


def test_traced_relation_chain_takes_untruncated_answers_across_bounds(tmp_path):
    trace = run_worker("relation-chain", 1, tmp_path)["trace"]
    # 8683 when the reach bounds' Rewriter re-derived every root step, step
    # set and condition search that the one-step bounds' Rewriter had found
    assert trace["terms.match.calls"] <= 5447
    # the registry still builds one Rewriter per (system, bounds)
    assert (trace["engine.memo_hits"], trace["engine.memo_misses"]) == (8750, 2)
