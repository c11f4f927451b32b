"""ctrskit benchmark: one workload, fresh worker processes, checked outputs.

    python3 perfbench/run.py --workload relation-chain --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see `workloads.py`):

- relation-chain: the criterion-2 chain (cstep_n, epar_successors,
  cstep_star, root_steps at levels 0-4) on ground terms of fib.ctrs.
  Mostly `engine` and `terms`: memo tables, hashing, term ordering.
- diamond: diamond_fuzz at every (m, n) in {0,1,2}^2 on seed terms of
  fib.ctrs, plus the known f(b) peak of overlap.ctrs.  The same engine, but
  dominated by repeated parallel-step queries and `mctxt` witnesses.
- check-mix: `ctrskit check FILE --json` in-process on generated systems
  with known verdicts, mostly small with a tail of large ones.  `cli`,
  `cops`, `analysis`, `unify`, `ctrs` and `reports`; no engine search.

Repetitions run one after another, each in a fresh single-threaded worker
(`worker.py`), until the next one would end past `--seconds`; at least two
run untraced.  Every op's output is checked against known answers and
invariants and against the digest in `reference.json`; the share of ops
that fail is printed as failed_frac and counted in the result's `failed`.

With `--trace 0` the last line reports the end-to-end metrics: setup_s
(median over workers), ops_per_s (median over workers), op_p50_ms and
op_p90_ms (over all ops of all workers), peak_rss_mib (median ru_maxrss).
With `--trace 1` untraced and traced workers alternate; the last line
reports the traced workers' per-module metrics (medians) and
trace.ops_per_s_ratio, traced over untraced ops_per_s.  Traced outputs
must equal untraced ones.  The line before the result records the Python
version, the core count, the git commit and the line count of `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("relation-chain", "diamond", "check-mix")
# at least this many rounds; a traced round is one untraced and one traced worker
MIN_ROUNDS = {0: 2, 1: 1}
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, trace: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)), "--workdir", str(WORKDIR),
    ]
    # a fixed hash seed keeps set and dict layouts, and so timings, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    src_loc = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_loc": src_loc,
    }


def ops_per_s(worker: dict) -> float:
    return len(worker["op_s"]) / sum(worker["op_s"])


def end_to_end(untraced: list[dict]) -> dict:
    op_ms = [s * 1e3 for w in untraced for s in w["op_s"]]
    deciles = statistics.quantiles(op_ms, n=10)
    return {
        "setup_s": (statistics.median(w["setup_s"] for w in untraced), "s", len(untraced)),
        "ops_per_s": (statistics.median(ops_per_s(w) for w in untraced), "1/s", len(untraced)),
        "op_p50_ms": (deciles[4], "ms", len(op_ms)),
        "op_p90_ms": (deciles[8], "ms", len(op_ms)),
        "peak_rss_mib": (statistics.median(w["rss_mib"] for w in untraced), "MiB", len(untraced)),
    }


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_share", "_per_overlap")):
        return "ratio"
    return "count"


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    out = {
        name: (statistics.median(w["trace"][name] for w in traced), layer_unit(name), len(traced))
        for name in traced[0]["trace"]
    }
    ratio = statistics.median(ops_per_s(w) for w in traced) / statistics.median(
        ops_per_s(w) for w in untraced
    )
    out["trace.ops_per_s_ratio"] = (ratio, "ratio", len(traced))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in (ROOT / "src" / "ctrskit", ROOT / "corpus" / "fib.ctrs"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a ctrskit checkout",
                  file=sys.stderr)
            return 2
    WORKDIR.mkdir(exist_ok=True)
    env = environment()
    kinds = (False, True) if args.trace else (False,)
    workers: list[tuple[bool, dict]] = []
    started = time.perf_counter()
    try:
        rounds = 0
        while True:
            for traced in kinds:
                workers.append((traced, run_worker(args.workload, args.seed, traced)))
            rounds += 1
            elapsed = time.perf_counter() - started
            if rounds >= MIN_ROUNDS[args.trace] and elapsed * (rounds + 1) / rounds > args.seconds:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall_s = time.perf_counter() - started

    untraced = [w for t, w in workers if not t]
    traced = [w for t, w in workers if t]
    attempted = sum(len(w["op_s"]) for _, w in workers)
    failed = sum(w["failed"] for _, w in workers)
    mismatched = sum(
        a != b for w in traced for a, b in zip(w["digests"], untraced[0]["digests"])
    )
    for _, w in workers:
        for line in w["failures"]:
            print(f"failure: {line}")
    if mismatched:
        print(f"failure: {mismatched} traced op outputs differ from the untraced run")

    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(
        f"run workload={args.workload} seed={args.seed} workers={len(workers)} "
        f"wall_s={wall_s:.1f} ops_per_worker={len(untraced[0]['op_s'])}"
    )
    print(f"failed_frac {(failed + mismatched) / attempted:.6g} (failed {failed + mismatched} of {attempted} ops)")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={samples})")
    result = {
        "correct": failed == 0 and mismatched == 0,
        "attempted": attempted,
        "failed": failed + mismatched,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
