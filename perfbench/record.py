#!/usr/bin/env python3
"""Run every workload over several seeds and record a BENCH_<label>.json.

    python3 perfbench/record.py --label 0_baseline

Each workload runs untraced with seeds 1 to 10, then traced twice with
seed 1 (to show that the per-layer counts repeat); each run is one
``run.py`` process, run one after another.  The record holds every run's
end-to-end metrics, each metric's median, quartiles and spread
(interquartile distance over the median) per workload, and the per-layer
metrics of the traced runs.  The table printed at the end
marks a spread that is not below a third of the metric's bound in
BENCHMARK.json.  A later change is compared with this record by running the
same command on both commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_SEEDS = (1, 1)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(result.read_text())


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"label": args.label, "command": " ".join(sys.argv),
              "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    rows = []
    for name in (w["name"] for w in spec["workloads"]):
        runs, traces = [], []
        for seed in SEEDS:
            res = run(name, seed, spec["run_seconds"], 0)
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
            runs.append({k: res[k] for k in ("seed", "correct", "attempted", "failed",
                                             "passes", "end_to_end")})
            for k in ("nproc", "python", "numpy", "scipy", "mpmath", "machine"):
                record[k] = res[k]
        for seed in TRACE_SEEDS:
            res = run(name, seed, spec["run_seconds"], 1)
            traces.append({"seed": seed, "correct": res["correct"],
                           "per_layer": res["per_layer"]})
        stats = {m: summary([r["end_to_end"][m]["value"] for r in runs])
                 for m in runs[0]["end_to_end"]}
        record["workloads"][name] = {"runs": runs, "summary": stats, "traced": traces}
        for m, s in stats.items():
            bound = bounds.get(m)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  SPREAD >= bound/3"
            rows.append(f"{name:<15} {m:<20} median {s['median']:>12.6g}  "
                        f"spread {s['spread']:7.4f}  bound {bound!s:>5}{flag}")
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(rows))
    print(f"written {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
