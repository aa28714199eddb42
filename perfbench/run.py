#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload sweep-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from any directory; the program is imported from ``src/`` next to
this directory, never from an installed copy.  Each workload is a closed
loop: one client, one thread, each problem starting after the previous one
ends.  The run makes whole passes while the next pass is predicted to end
within ``--seconds`` of timed work, and at least one.  Every pass draws its
own problems from the same stratified mix (see ``workloads.py``), so no
problem repeats within a run.  Timed calls are rescaled to a reference
machine speed measured while they run (``speed.py``; "Timing" in
README.md).  The set-up samples are taken between the problems of the
first pass, so that they span it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
untraced pass, then wraps the program's functions (``tracing.py``) and
makes one traced pass; it reports the per-layer metrics of the traced
pass, with the tracing overhead against the untraced pass.  ``--inject
perturb`` or ``--inject drop`` corrupts one returned list of zeros, to
show that the checks catch it (``selftest.py``).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full result file, with the seed, nproc and the Python, numpy, scipy and
mpmath versions, goes to ``perfbench/out/``.  The exit code is 0 when every
returned output passed its check, 1 when one did not, 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9
TAIL_PCT = 75
SMOOTH = 10               # half-width, in percentile points, of p50 and the tail


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def load_program() -> None:
    pkg = SRC / "rgbpzeros"
    if not (pkg / "__init__.py").is_file():
        fail(f"no program source at {pkg}")
    sys.path.insert(0, str(SRC))
    import rgbpzeros
    if Path(rgbpzeros.__file__).resolve().parent != pkg:
        fail(f"imported {rgbpzeros.__file__}, not the source under {SRC}")


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{mod: importlib.metadata.version(mod) for mod in ("numpy", "scipy", "mpmath")},
        "machine": platform.machine(),
    }


def setup_sample() -> tuple:
    """(wall, rescaled) seconds of a fresh interpreter importing the CLI,
    which a user of the command pays on every call.  The interpreter samples
    its own speed while it imports (``speed.CHILD_IMPORT``)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", speed.CHILD_IMPORT], env=env,
                          cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    took = json.loads(proc.stdout.strip().splitlines()[-1])
    return wall, speed.child_import_rescaled(wall, took)


def percentile(xs: list, q: float) -> float:
    """Linear interpolation between order statistics; +inf entries
    (failed problems) propagate."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0.0:
        return s[lo]
    if math.isinf(s[lo + 1]):
        return math.inf
    return s[lo] + frac * (s[lo + 1] - s[lo])


def smoothed_percentile(xs: list, q: int) -> float:
    """Triangle-weighted mean of the percentiles q-SMOOTH .. q+SMOOTH: the
    q-th percentile estimated from the few problems around it rather than
    from one, whose time alone moves by a few percent on a shared machine.  +inf if
    a failed problem falls inside the window."""
    offsets = range(-SMOOTH, SMOOTH + 1)
    weights = [SMOOTH + 1 - abs(d) for d in offsets]
    values = [percentile(xs, q + d) for d in offsets]
    if math.inf in values:
        return math.inf
    return sum(w * v for w, v in zip(weights, values)) / sum(weights)


def run_pass(wl, seed, pass_no, outdir, sampler, tracer, records, setup=None) -> float:
    """One pass over the problems of ``wl.design(seed, pass_no)``; returns
    its timed seconds, rescaled.  Given a list ``setup``, appends to it
    SETUP_SAMPLES (wall, rescaled) set-up times taken between problems,
    spread over the pass (every workload has at least SETUP_SAMPLES
    problems in a pass)."""
    from rgbpzeros.errors import RgbpError
    from workloads import Outcome

    problems = wl.design(seed, pass_no)
    sample_at = ({len(problems) * k // SETUP_SAMPLES for k in range(SETUP_SAMPLES)}
                 if setup is not None else set())
    done = []
    for i, p in enumerate(problems):
        if i in sample_at:
            sampler.stop()
            setup.append(setup_sample())
            sampler.start()
        raw, outcome = None, None
        span = tracer.problem(p.pid) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            try:
                raw = wl.call(p, outdir)
            except RgbpError as exc:
                outcome = Outcome(0, f"error:{type(exc).__name__}", str(exc)[:200])
            except Exception:  # untyped failure: recorded, and the run is incorrect
                outcome = Outcome(0, "crash", traceback.format_exc(limit=3)[-400:])
        t1 = time.perf_counter()
        if tracer:
            tracer.active = False
        if outcome is None:
            try:
                outcome = wl.check(p, raw)
            except Exception:  # malformed output fails its check
                outcome = Outcome(0, "check", traceback.format_exc(limit=3)[-400:])
        if tracer:
            tracer.active = True
        done.append({"pid": p.pid, "pass": pass_no, "n": p.n, "a": p.a,
                     "alpha": p.alpha, "band": p.band, "method": p.method,
                     "format": p.fmt, "t0": t0, "t1": t1, "outcome": outcome.kind,
                     "zeros": outcome.zeros, "note": outcome.note,
                     "incorrect": outcome.incorrect})
    for r in done:
        # the sampler's runs just after the pass inform its last problems
        r["wall_s"], r["seconds"] = sampler.rescale(r.pop("t0"), r.pop("t1"))
    records += done
    return sum(r["seconds"] for r in done)


def run_passes(wl, seed, outdir, sampler, seconds, records, setup) -> None:
    """Passes 0, 1, ... while the next is predicted to end within
    ``seconds`` of timed wall time; at least one.  Each pass draws its own
    problems, so no problem repeats within a run."""
    times: list = []
    while not times or sum(times) + statistics.mean(times) <= seconds:
        run_pass(wl, seed, len(times), outdir, sampler, None, records,
                 setup if not times else None)
        times.append(sum(r["wall_s"] for r in records if r["pass"] == len(times)))


def end_to_end(records: list, setup: list, key: str = "seconds") -> dict:
    """The six end-to-end metrics, from rescaled times (key "seconds") or
    from wall times (key "wall_s"); ``setup`` holds (wall, rescaled) pairs."""
    times = [r[key] if r["outcome"] == "ok" else math.inf for r in records]
    return {
        "zeros_per_s": sum(r["zeros"] for r in records) / sum(r[key] for r in records),
        "problem_s.p50": smoothed_percentile(times, 50),
        f"problem_s.tail_p{TAIL_PCT}": smoothed_percentile(times, TAIL_PCT),
        "failed_frac": sum(r["outcome"] != "ok" for r in records) / len(records),
        "setup_s": statistics.median(w if key == "wall_s" else r for w, r in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


E2E_UNITS = {"zeros_per_s": "1/s", "problem_s.p50": "s",
             f"problem_s.tail_p{TAIL_PCT}": "s", "failed_frac": "1",
             "setup_s": "s", "peak_rss_mb": "MB"}


def run_workload(args, spec: dict) -> int:
    import workloads
    from tracing import PER_LAYER, Tracer

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    setup: list = []
    records: list = []
    tracer = None
    sampler = speed.Sampler()
    with tempfile.TemporaryDirectory(dir=OUT) as outdir:
        wl.warm_up(outdir)
        if args.inject:
            module, names = wl.faulty
            workloads.inject_fault(module, names, args.inject, args.seed)
        sampler.start()
        try:
            if args.trace:
                # one untraced pass, then one traced pass of other problems
                # from the same stratified mix, so that the counts of a seed
                # repeat exactly and no problem repeats
                untraced = run_pass(wl, args.seed, 0, outdir, sampler, None, records, setup)
                tracer = Tracer()
                tracer.install()
                tracer.active = True
                traced = run_pass(wl, args.seed, 1, outdir, sampler, tracer, records)
                tracer.active = False
            else:
                run_passes(wl, args.seed, outdir, sampler, args.seconds, records, setup)
        finally:
            sampler.stop()
    if args.trace:
        traced_records = [r for r in records if r["pass"] == 1]
        scale = traced / sum(r["wall_s"] for r in traced_records)
        layer = tracer.per_layer(sum(r["zeros"] for r in traced_records),
                                 untraced, traced, scale)
    # a traced run takes its end-to-end figures from the untraced pass
    e2e_records = [r for r in records if r["pass"] == 0] if args.trace else records
    e2e = end_to_end(e2e_records, setup)
    e2e_wall = end_to_end(e2e_records, setup, "wall_s")

    attempted = len(records)
    failed = sum(r["outcome"] != "ok" for r in records)
    incorrect = [r for r in records if r["incorrect"]]
    correct = not incorrect
    kinds = collections.Counter(r["outcome"] for r in records if r["outcome"] != "ok")
    passes_run = 1 + max(r["pass"] for r in records)

    suffix = f"-inject-{args.inject}" if args.inject else ""
    result_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}{suffix}.json"
    result = {
        "workload": wl.name, "why": wl.why, **environment(args.seed),
        "seconds": args.seconds, "trace": args.trace, "inject": args.inject,
        "correct": correct, "attempted": attempted, "failed": failed,
        "passes": passes_run,
        "tail_percentile": TAIL_PCT,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "end_to_end_wall": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e_wall.items()},
        "speed_ref_s": speed.REF_S,
        "speed_samples": len(sampler.took),
        "setup_samples_s": [{"wall": w, "rescaled": r} for w, r in setup],
        "records": records,
    }
    if args.trace:
        result["per_layer"] = {k: {"value": v, "unit": PER_LAYER[k][0]}
                               for k, v in layer.items()}
        spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.dump()))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    result_path.write_text(json.dumps(result, indent=1))

    # human-readable report
    beyond = len(e2e_records) * (100 - TAIL_PCT) // 100
    print(f"{wl.name}  seed={args.seed}  nproc={result['nproc']}  "
          f"{passes_run} pass(es), {attempted} problems  "
          f"failed {failed}/{attempted} {dict(kinds) or ''}  "
          f"{'checks ok' if correct else f'{len(incorrect)} OUTPUT CHECK FAILURE(S)'}")
    for r in incorrect[:5]:
        print(f"  FAILED CHECK pid={r['pid']} n={r['n']} a={r['a']!r}: "
              f"{r['outcome']}: {r['note']}")
    for k, v in e2e.items():
        note = f"  ({beyond} problems beyond it)" if k.startswith("problem_s.tail") else ""
        print(f"  {k:<24} {v:>14.6g} {E2E_UNITS[k]}{note}")
    if args.trace:
        for k, v in layer.items():
            print(f"  {k:<44} {v:>14.6g} {PER_LAYER[k][0]:<7} {PER_LAYER[k][1]}")
    print(f"  result: {result_path.relative_to(ROOT)}")

    if args.trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        values = {k: (v, PER_LAYER[k][0]) for k, v in layer.items()}
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        values = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k][0], "unit": values[k][1]}
                                  for k in wanted}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, proc.returncode)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"][name] = last["metrics"]
    print(json.dumps(summary))
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("perturb", "drop"), default=None)
    args = ap.parse_args()
    spec = load_spec()
    load_program()
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of "
             f"{', '.join(workloads.WORKLOADS)} or all")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
