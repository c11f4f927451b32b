"""Record the per-op output digests that every benchmark run is checked against.

Runs each workload's whole universe of ops once and writes
`perfbench/reference.json`.  It refuses to write if any op fails a check.
Re-record only when a change of behaviour is intended:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ctrskit  # noqa: E402
import ctrskit.cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    reference: dict[str, dict[str, str]] = {}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        for name, make in WORKLOADS.items():
            digests: dict[str, str] = {}
            for op in make(ctrskit, ROOT, Path(tmp), None):
                errors, digests[op.key] = op.check(op.run())
                if errors:
                    print(f"{name} {op.key}: {errors}", file=sys.stderr)
                    return 1
            reference[name] = digests
            print(f"{name}: {len(digests)} ops")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
