#!/usr/bin/env python3
"""Show that the output checks catch a corrupted result.

    python3 perfbench/selftest.py

For every workload, one run with one returned zero perturbed by 1e-6
relative and one run with one row dropped (``run.py --inject``).  Each run
must exit 1 and report failed_frac > 0.  Prints one line per run and exits
1 if any run was not caught.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for fault in ("perturb", "drop"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--inject", fault],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads((HERE / "out" / f"{workload}-seed1-trace0-inject-{fault}.json")
                                .read_text())
            failed_frac = result["end_to_end"]["failed_frac"]["value"]
            caught = proc.returncode == 1 and failed_frac > 0
            missed += not caught
            checks = [r["note"] for r in result["records"] if r["incorrect"]]
            print(f"{workload:<15} {fault:<8} exit {proc.returncode}  "
                  f"failed_frac {failed_frac:.4f}  {'caught' if caught else 'MISSED'}"
                  f"  {checks[0] if checks else ''}", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
