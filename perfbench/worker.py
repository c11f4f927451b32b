"""One repetition of a workload in a fresh process; prints one JSON line.

`run.py` starts this once per repetition, so ctrskit's memo tables start
empty as they do for every command-line user.  The set-up time covers
importing ctrskit, parsing the corpus and generating the inputs.  Each op's
`run` is timed on its own; its checks and digest are computed after the
clock stops.  With `--trace 1` the tracer is installed right after import.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[args.workload]
    workdir = args.workdir / f"worker-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        started = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import ctrskit
        import ctrskit.cli

        location = Path(ctrskit.__file__).resolve()
        if ROOT / "src" not in location.parents:
            raise SystemExit(f"ctrskit was imported from {location}, not from this checkout")
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(ctrskit)
        ops = WORKLOADS[args.workload](ctrskit, ROOT, workdir, args.seed)
        setup_s = time.perf_counter() - started

        op_s: list[float] = []
        digests: list[str] = []
        failures: list[str] = []
        clock = time.perf_counter
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            begin = clock()
            try:
                out = op.run()
            except Exception as exc:  # a raising op is a failed op
                op_s.append(clock() - begin)
                digests.append("raised")
                failures.append(f"{op.key}: raised {exc!r}")
                continue
            op_s.append(clock() - begin)
            try:
                errors, dig = op.check(out)
            except Exception as exc:  # so is one whose output breaks a check
                errors, dig = [f"check raised {exc!r}"], "raised"
            if reference.get(op.key) != dig:
                errors.append(f"digest {dig} != reference {reference.get(op.key)}")
            digests.append(dig)
            failures.extend(f"{op.key}: {e}" for e in errors[:1])
        result = {
            "setup_s": setup_s,
            "op_s": op_s,
            "digests": digests,
            "failed": len(failures),
            "failures": failures[:5],
            "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if tracer is not None:
            result["trace"] = tracer.metrics()
            tracer.write(args.workdir / f"spans-{args.workload}.bin", [op.key for op in ops])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
