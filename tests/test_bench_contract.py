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
    # 23800 when the right peaks' joins were kept for one seed only
    assert trace["engine.epar_successors.calls"] < 23800
    # 4873 when every successor set was sorted as it was built, 6248 when a
    # set of one term was sorted too
    assert trace["terms.term_key.calls"] < 3500
