"""Command-line interface: compute and validate zero tables.

Commands:
  zeros     upper-half zeros by sweep or asymptotic expansion (csv/json)
  validate  compare both methods against the brute-force oracle (json)

Each row of ``zeros`` carries ``err_est``, a relative error estimate that
costs O(1) per row.  An asymptotic row reports the expansion's own
estimate (``ZeroApprox.err_est``: its last term, or its largest where the
terms grow).  A sweep row m reports |z - t_m| / |t_m| + err_est(t_m)
against the full expansion t_m, which bounds the sweep's error whenever
the expansion's estimate bounds the expansion's; NaN (``nan`` in CSV,
``null`` in JSON) where the expansion has no row.

Exit codes: 0 success, 1 computation failure, 2 partial result,
64 usage error.  Output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import dataclass
from typing import List, Optional

from .errors import (ApproximationFailures, InvalidDegree,
                     ParameterOutOfRange, RgbpError, SweepStalled)
from .expansion import MAX_TERMS, approx_all
from .params import ProblemParams, make_params
from .polynomials import oracle_zeros
from .sweep import sweep

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARTIAL = 2
EXIT_USAGE = 64

VALIDATE_MAX_N = 200


@dataclass
class ZeroRow:
    m: int
    z: complex
    err_est: float
    method: str
    terms: int


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rgbp-zeros",
        description="Zeros of reverse generalized Bessel polynomials.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--n", type=int, required=True,
                        help="polynomial degree")
        sp.add_argument("--a", type=float, required=True,
                        help="real parameter")
        sp.add_argument("--output", default=None,
                        help="output path (default: stdout)")
        sp.add_argument("--terms", type=int, default=MAX_TERMS,
                        choices=range(1, MAX_TERMS + 1),
                        help="expansion terms (zeros: asymptotic method only)")

    sp = sub.add_parser("zeros", help="compute upper-half zeros")
    common(sp)
    sp.add_argument("--method", choices=("sweep", "asymptotic"),
                    default="sweep")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("validate", help="compare both methods to the oracle")
    common(sp)
    sp.add_argument("--gate", type=float, default=1e-10,
                    help="maximum allowed relative error")
    return p


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _rows_to_csv(rows: List[ZeroRow], partial: bool) -> str:
    lines = ["# conjugates_implied=true"]
    if partial:
        lines.append("# partial=true")
    lines.append("m,re,im,err_est,method,terms")
    for r in rows:
        lines.append(f"{r.m},{r.z.real!r},{r.z.imag!r},{r.err_est!r},"
                     f"{r.method},{r.terms}")
    return "\n".join(lines) + "\n"


def _rows_to_json(args: argparse.Namespace, params: ProblemParams,
                  rows: List[ZeroRow], partial: bool) -> str:
    doc = {
        "meta": {"n": args.n, "a": args.a, "u": params.u,
                 "alpha": params.alpha,
                 "method": rows[0].method if rows else args.method,
                 "terms": MAX_TERMS if args.method == "sweep" else args.terms},
        "conjugates_implied": True,
        "partial": partial,
        "zeros": [{"m": r.m, "re": r.z.real, "im": r.z.imag,
                   "err_est": None if math.isnan(r.err_est) else r.err_est,
                   "method": r.method,
                   "terms": r.terms} for r in rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def _compute_rows(args: argparse.Namespace, params: ProblemParams):
    """(rows, partial_flag) for the configured method."""
    partial = False
    if args.method == "sweep":
        try:
            zs = sweep(args.n, args.a)
        except SweepStalled as exc:
            zs = exc.partial
            partial = True
        # the expansion only checks the sweep here: rows it could not
        # give get no estimate, and never a failure
        try:
            approxes = approx_all(params, terms=MAX_TERMS)
        except ApproximationFailures as exc:
            approxes = exc.results
        by_m = {ap.m: ap for ap in approxes}
        rows = []
        for m, z in enumerate(zs, start=1):
            ap = by_m.get(m)
            err = (math.nan if ap is None
                   else abs(z - ap.t) / abs(ap.t) + ap.err_est)
            # terms: those of the expansion the estimate is measured against
            rows.append(ZeroRow(m=m, z=z, err_est=err, method="sweep",
                                terms=MAX_TERMS))
    else:
        rows = [ZeroRow(m=ap.m, z=ap.t, err_est=ap.err_est,
                        method="asymptotic", terms=ap.terms_used)
                for ap in approx_all(params, terms=args.terms)]
    return rows, partial


def cmd_zeros(args: argparse.Namespace) -> int:
    params = make_params(args.n, args.a)
    rows, partial = _compute_rows(args, params)
    if args.format == "csv":
        _emit(_rows_to_csv(rows, partial), args.output)
    else:
        _emit(_rows_to_json(args, params, rows, partial), args.output)
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.n > VALIDATE_MAX_N:
        raise ParameterOutOfRange(
            f"validate is limited to n <= {VALIDATE_MAX_N} (oracle bound)")
    params = make_params(args.n, args.a)
    truth = [z for z in oracle_zeros(args.n, args.a) if z.imag >= -1e-12]
    truth = truth[:params.num_upper_zeros]

    def nearest_err(z: complex) -> float:
        r = min(truth, key=lambda r: abs(r - z))
        return abs(z - r) / abs(r)

    swept = sweep(args.n, args.a)
    approxes = approx_all(params, terms=args.terms)
    sweep_errs = [nearest_err(z) for z in swept]
    approx_errs = [nearest_err(ap.t) for ap in approxes]

    def summary(errs):
        return {"per_m": errs, "max": max(errs), "median":
                statistics.median(errs)}

    ok = max(sweep_errs) <= args.gate and max(approx_errs) <= args.gate
    report = {
        "meta": {"n": args.n, "a": args.a, "u": params.u,
                 "alpha": params.alpha, "method": "both",
                 "terms": args.terms},
        "gate": args.gate,
        "sweep_vs_oracle": summary(sweep_errs),
        "asymptotic_vs_oracle": summary(approx_errs),
        "pass": ok,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    return EXIT_OK if ok else EXIT_FAILURE


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; remap to the contract value
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {"zeros": cmd_zeros, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except (InvalidDegree, ParameterOutOfRange) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ApproximationFailures as exc:
        for m, sub_exc in exc.failures:
            print(f"m={m}: {type(sub_exc).__name__}: {sub_exc}",
                  file=sys.stderr)
        return EXIT_FAILURE
    except RgbpError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
