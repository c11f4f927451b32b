"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen_cops  # noqa: E402
import workloads  # noqa: E402
from ctrskit import cli  # noqa: E402


@pytest.mark.parametrize("seed", [0, 7, 12345])
@pytest.mark.parametrize("rules", [4, 11, 30])
def test_generator_is_deterministic(seed, rules):
    first = gen_cops.generate(seed, rules)
    assert first == gen_cops.generate(seed, rules)
    assert first.rules == max(4, rules + rules % 2)


def test_generator_varies_with_seed():
    assert len({gen_cops.generate(seed, 20).blocks for seed in range(10)}) >= 5


@pytest.mark.parametrize("seed", range(12))
def test_generated_verdicts_are_right(seed, tmp_path):
    gen = gen_cops.generate(seed, 4 + 3 * seed)
    path = tmp_path / "system.ctrs"
    path.write_text(gen.text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["check", str(path), "--json"]) == 0
    assert gen_cops.report_errors(json.loads(out.getvalue()), gen.expected) == []


def test_check_mix_exercises_every_disposition_and_verdict():
    seen: Counter[str] = Counter()
    verdicts = set()
    for i, rules in enumerate(workloads.mix_sizes()):
        for variant in range(workloads.MIX_VARIANTS):
            expected = gen_cops.generate(i * workloads.MIX_VARIANTS + variant, rules).expected
            seen.update(dict(expected.dispositions))
            verdicts.add(expected.verdict)
    assert set(seen) == set(gen_cops.DISPOSITIONS)
    assert verdicts == {"LEVEL_CONFLUENT", "NOT_APPLICABLE"}


def test_check_mix_work_does_not_depend_on_seed(tmp_path):
    import ctrskit

    def sizes(seed):
        return sorted(int(op.key.split(":")[1]) for op in workloads.check_mix(ctrskit, ROOT, tmp_path, seed))

    assert sizes(1) == sizes(2) == sorted(workloads.mix_sizes())


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["relation-chain", "diamond", "check-mix"])
def test_traced_outputs_equal_untraced(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert 0 < result["metrics"]["trace.ops_per_s_ratio"]["value"] <= 1.5


def test_span_file_matches_the_traced_metrics():
    from tracer import read_spans

    proc = _run("relation-chain", 1)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    header, (name, start, end, parent, _) = read_spans(ROOT / ".perfbench" / "spans-relation-chain.bin")
    assert header["dropped"] == 0
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    for i in range(header["count"]):
        label = header["names"][name[i]]
        calls[label] += 1
        self_s[label] += end[i] - start[i]
        if parent[i] >= 0:
            self_s[header["names"][name[parent[i]]]] -= end[i] - start[i]
    for label in header["names"]:
        assert metrics[f"{label}.calls"]["value"] == calls[label]
        assert metrics[f"{label}.self_s"]["value"] == pytest.approx(self_s[label], rel=1e-6, abs=1e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("check-mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
