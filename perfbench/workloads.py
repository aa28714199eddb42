"""The four workloads: seeded problem sets, the timed call, the output check.

Every workload draws (n, a) problems over the documented window
-0.9n + 3/2 <= a <= 10n, written through alpha = (a - 2)/(n + 1/2).  A pass
is a stratified design, so that the problem mix, and with it p50 and the
tail, stays the same from seed to seed:

* n sits at the midpoints of equal strata of log n, so n is log-uniform
  over the workload's range;
* alpha comes from [-0.84, alpha_max(n)] in equal cells; stratum k takes
  cell (step * k + shift) mod cells.  Each workload's (step, shift) keeps
  every cell on one side of the program's known cost and accuracy edges,
  so a problem's outcome and cost mode do not flip with the seed (see the
  comment above the workloads).  The seed places alpha in the middle
  ``jitter`` share of its cell; validate-small keeps alpha within 2.5% of
  a cell width of the centre, well clear of the oracle's cost edge;
* about one problem in twenty is an extra problem from the lower-edge band
  alpha < -0.84, where the sweep is known to stall.  Band problems sit at
  the workload's median n, so whether they pass or fail moves p50 by at
  most one neighbouring problem, the same for every seed;
* the seed also draws the order of the pass (and the CLI output format).

Each pass of a run is drawn with its own random stream, keyed on the seed
and the pass number, so every pass has the same stratified mix but other
values of a: no problem repeats within a run, and a cache keyed on (n, a)
gains nothing from the passes that a faster program makes.

With a plain random draw of 8 to 64 problems, the median problem's n alone
would move by 25-35% from seed to seed (the spread of the median of that
many log-uniform draws), more than any bound the benchmark could hold.

The check of a problem runs outside its timed call.  A problem fails when
the call raises, the CLI exits non-zero, the output has the wrong number of
zeros, or it misses its reference by more than REL_TOL (1e-10, the default
gate of ``rgbp-zeros validate``).  Failures are graded:

* ``error:<Type>``, ``exit:<code>``: the program reported the failure
  (a typed ``RgbpError``, or a CLI exit code 1 or 2);
* ``inaccurate``: zeros off their reference by more than REL_TOL but less
  than WRONG_TOL.  The 5-term expansion is that far off near the lower
  edge of the window at small n (7e-9 at n = 16, alpha = -0.84; 3e-6 at
  n = 8), so this is a known limit, shown in ``failed_frac``.  On
  validate-small, a report in which the sweep meets the gate and the
  expansion does not;
* ``check``, ``crash``: a wrong or malformed output, or an exception that
  is not an ``RgbpError``.  These make the run incorrect (exit code 1).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import mpmath as mp

from rgbpzeros import cli
from rgbpzeros.errors import RgbpError

# Reach the submodules through sys.modules: the package re-exports the
# function ``sweep`` under the name of the submodule ``rgbpzeros.sweep``.
SW = sys.modules["rgbpzeros.sweep"]
EX = sys.modules["rgbpzeros.expansion"]
LG = sys.modules["rgbpzeros.lg_coeffs"]
PA = sys.modules["rgbpzeros.params"]

BAND_ALPHA = -0.84        # below this alpha the sweep is known to stall
BAND_SHARE = 1.0 / 20.0
REL_TOL = 1e-10           # zero-by-zero agreement with a reference
WRONG_TOL = 1e-7          # beyond this a zero is wrong, not inaccurate
SMOOTH_TOL = 1e-7         # relative 4-neighbour interpolation residual
SAMPLED_M = 16            # sweep-large: zeros compared with the expansion
EDGE_M = 4                # sweep-large: zeros at each end always compared
PERTURB = 1e-6            # fault injection: relative perturbation


@dataclass(frozen=True)
class Problem:
    pid: int
    n: int
    a: float
    band: bool
    method: str = ""      # cli-zeros: sweep | asymptotic
    fmt: str = ""         # cli-zeros: csv | json

    @property
    def alpha(self) -> float:
        return (self.a - 2.0) / (self.n + 0.5)

    @property
    def num_zeros(self) -> int:
        return (self.n + 1) // 2


@dataclass
class Outcome:
    zeros: int            # zeros that passed the check
    kind: str             # ok, error:<Type>, exit:<code>, inaccurate, check, crash
    note: str = ""

    @property
    def incorrect(self) -> bool:
        """Wrong output or an untyped failure, as opposed to a typed error."""
        return self.kind in ("check", "crash")


def _alpha_window(n: int) -> Tuple[float, float]:
    return ((-0.9 * n + 1.5 - 2.0) / (n + 0.5), (10.0 * n - 2.0) / (n + 0.5))


def _a_from_alpha(n: int, alpha: float) -> float:
    return min(max(2.0 + alpha * (n + 0.5), -0.9 * n + 1.5), 10.0 * n)


# ---------------------------------------------------------------------------
# fault injection: rebinding a program function so that it corrupts one
# returned list of zeros, to prove the checks catch it


def _corrupt(zs: list, mode: str, rng: random.Random) -> list:
    zs = list(zs)
    i = rng.randrange(len(zs))
    if mode == "drop":
        del zs[i]
    elif isinstance(zs[i], complex):
        zs[i] = zs[i] * (1.0 + PERTURB)
    else:                                  # ZeroApprox
        zs[i] = dataclasses.replace(zs[i], t=zs[i].t * (1.0 + PERTURB))
    return zs


def inject_fault(module, names: Tuple[str, ...], mode: str, seed: int) -> None:
    """Corrupt the first result with at least two zeros returned by any of
    ``module.<names>``; later calls pass through unchanged."""
    rng = random.Random(f"inject:{seed}")
    state = {"done": False}

    def wrap(fn):
        def faulty(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not state["done"] and len(out) >= 2:
                state["done"] = True
                out = _corrupt(out, mode, rng)
            return out
        return faulty

    for name in names:
        setattr(module, name, wrap(getattr(module, name)))


# ---------------------------------------------------------------------------
# reference values, written in the benchmark


def _mp_newton_rel(n: int, a: float, zs: List[complex]) -> List[float]:
    """|p/p'| / |z| at each z, in extended precision: the first-order
    relative error of z as a zero of theta_n(.; a)."""
    with mp.workdps(30 + n // 2):
        am = mp.mpf(a)
        coefs = [mp.mpf(1)]
        for k in range(n):
            coefs.append(coefs[-1] * (n - k) / (k + 1) * (n + am - 1 + k) / 2)
        out = []
        for z0 in zs:
            z = mp.mpc(z0)
            p, q = coefs[0], mp.mpf(0)
            for c in coefs[1:]:
                q = q * z + p
                p = p * z + c
            out.append(float(abs(p / q) / abs(z)))
    return out


def _airy_coordinate(m: int) -> float:
    """Smooth stand-in for the m-th Airy zero (its large-m expansion).
    Zeros are smooth functions of the Airy zero, turning point included,
    so interpolating in this variable follows them even at small m."""
    t = 3.0 * math.pi * (4 * m - 1) / 8.0
    return -(t ** (2.0 / 3.0)) * (1.0 + 5.0 / (48.0 * t * t))


def _smoothness_outliers(zs: List[complex]) -> List[int]:
    """Indices m (1-based) whose zero misses the cubic through its two
    neighbours on each side by more than SMOOTH_TOL relative.  From m = 5 on
    the cubic follows the true zeros to 1e-8 (2e-9 at m = 5 for n >= 1000
    away from the lower edge); a zero moved by 1e-6 misses it by 1e-6."""
    x = [_airy_coordinate(m) for m in range(1, len(zs) + 1)]
    bad = []
    for i in range(EDGE_M, len(zs) - 2):
        pred = 0j
        for j in (i - 2, i - 1, i + 1, i + 2):
            w = 1.0
            for k in (i - 2, i - 1, i + 1, i + 2):
                if k != j:
                    w *= (x[i] - x[k]) / (x[j] - x[k])
            pred += w * zs[j]
        if abs(pred - zs[i]) > SMOOTH_TOL * abs(zs[i]):
            bad.append(i + 1)
    return bad


def _rel_errors(zs: List[complex], ref: Dict[int, complex]) -> Dict[int, float]:
    """Relative error of zs[m - 1] against each reference zero ref[m]."""
    return {m: abs(zs[m - 1] - r) / abs(r) for m, r in ref.items()}


def _graded(zeros: int, errs: Dict[int, float], what: str) -> Outcome:
    m = max(errs, key=errs.__getitem__)
    note = f"m={m} off the {what} by {errs[m]:.1e} relative"
    if errs[m] > WRONG_TOL:
        return Outcome(0, "check", note)
    if errs[m] > REL_TOL:
        return Outcome(0, "inaccurate", note)
    return Outcome(zeros, "ok")


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    why: str
    n_lo: int
    n_hi: int
    strata: int
    alpha_step: int                  # alpha cell of stratum k:
    alpha_shift: int                 #   (step * k + shift) mod cells
    jitter: float = 0.2              # share of its cell alpha moves over
    methods: Tuple[str, ...] = ("",)
    call: Callable = None            # (problem, outdir) -> raw output
    check: Callable = None           # (problem, raw) -> Outcome
    faulty: Tuple = ()               # (module, names) fault injection targets

    def design(self, seed: int, pass_no: int) -> List[Problem]:
        """The problems of one pass; the same seed and pass number give the
        same problems, and the passes of a seed differ in every a."""
        rng = random.Random(f"{self.name}:{seed}:{pass_no}")
        lo, hi = math.log(self.n_lo), math.log(self.n_hi)
        ns = [round(math.exp(lo + (i + 0.5) / self.strata * (hi - lo)))
              for i in range(self.strata)]
        cells = self.strata * len(self.methods)
        assert math.gcd(self.alpha_step, cells) == 1
        probs = []
        k = 0
        for n in ns:
            for method in self.methods:
                cell = (self.alpha_step * k + self.alpha_shift) % cells
                top = _alpha_window(n)[1]
                u = cell + 0.5 + self.jitter * (rng.random() - 0.5)
                al = BAND_ALPHA + u / cells * (top - BAND_ALPHA)
                probs.append((n, _a_from_alpha(n, al), False, method))
                k += 1
        n_med = round(math.sqrt(self.n_lo * self.n_hi))
        band_lo = _alpha_window(n_med)[0]
        for _ in range(max(1, round(cells * BAND_SHARE / (1 - BAND_SHARE)))):
            al = band_lo + rng.random() * (BAND_ALPHA - band_lo)
            # the band is where the sweep stalls: band problems use it
            method = "sweep" if self.methods != ("",) else ""
            probs.append((n_med, _a_from_alpha(n_med, al), True, method))
        rng.shuffle(probs)
        return [Problem(pid=i, n=n, a=a, band=band, method=method,
                        fmt=rng.choice(("csv", "json")) if method else "")
                for i, (n, a, band, method) in enumerate(probs)]

    def warm_up(self, outdir: str) -> None:
        """Untimed first calls, which pay imports and lazy set-up that the
        timed problems then do not."""
        for method in self.methods:
            n = self.n_lo
            self.call(Problem(-1, n, _a_from_alpha(n, 1.0), False, method,
                              "csv" if method else ""), outdir)


# -- sweep-large ------------------------------------------------------------

def _call_sweep(p: Problem, outdir: str):
    return SW.sweep(p.n, p.a)


def _check_sweep(p: Problem, zs: List[complex]) -> Outcome:
    M = p.num_zeros
    if len(zs) != M:
        return Outcome(0, "check", f"{len(zs)} zeros, expected {M}")
    if any(zs[i].imag <= zs[i + 1].imag for i in range(M - 1)):
        return Outcome(0, "check", "imaginary parts not strictly decreasing")
    if p.n % 2 and zs[-1].imag != 0.0:
        return Outcome(0, "check", f"real zero not real: {zs[-1]!r}")

    bad = _smoothness_outliers(zs)
    if bad:
        return Outcome(0, "check", f"zeros off the smooth sequence at m={bad[:5]}")
    params = PA.make_params(p.n, p.a)
    lg = LG.build_lg_table(params)
    ms = sorted({*range(1, EDGE_M + 1), *range(M - EDGE_M + 1, M + 1),
                 *(1 + round(k * (M - 1) / (SAMPLED_M - 1)) for k in range(SAMPLED_M))})
    ref = {m: EX.approx_zero(params, lg, m, terms=5).t for m in ms}
    return _graded(M, _rel_errors(zs, ref), "expansion")


# -- expansion-all ----------------------------------------------------------

def _call_expansion(p: Problem, outdir: str):
    return EX.approx_all(PA.make_params(p.n, p.a), terms=5)


def _check_expansion(p: Problem, approxes) -> Outcome:
    M = p.num_zeros
    if len(approxes) != M or [ap.m for ap in approxes] != list(range(1, M + 1)):
        return Outcome(0, "check", f"{len(approxes)} zeros, expected {M}")
    ts = [ap.t for ap in approxes]

    try:
        ref = SW.sweep(p.n, p.a)
    except RgbpError:
        ref = None
    if ref is not None:
        return _graded(M, _rel_errors(ts, dict(enumerate(ref, start=1))), "sweep")
    # no sweep to compare with: an extended-precision Newton step at each
    # zero gives its error
    errs = _mp_newton_rel(p.n, p.a, ts)
    return _graded(M, dict(enumerate(errs, start=1)), "Newton step")


# -- cli-zeros --------------------------------------------------------------

def _quiet_main(argv: List[str]) -> Tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _call_cli_zeros(p: Problem, outdir: str):
    path = os.path.join(outdir, f"zeros.{p.fmt}")
    code, err = _quiet_main(["zeros", "--n", str(p.n), "--a", repr(p.a),
                             "--method", p.method, "--format", p.fmt,
                             "--output", path])
    return code, err, path


def _parse_rows(fmt: str, text: str) -> List[Tuple[int, complex]]:
    if fmt == "json":
        return [(r["m"], complex(r["re"], r["im"]))
                for r in json.loads(text)["zeros"]]
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return [(int(r["m"]), complex(float(r["re"]), float(r["im"])))
            for r in csv.DictReader(lines)]


def _check_cli_zeros(p: Problem, raw) -> Outcome:
    code, err, path = raw
    if code in (1, 2):
        return Outcome(0, f"exit:{code}", err.strip()[:200])
    if code != 0:
        return Outcome(0, "check", f"exit {code}: {err.strip()[:200]}")
    with open(path) as fh:
        rows = _parse_rows(p.fmt, fh.read())
    M = p.num_zeros
    if [m for m, _ in rows] != list(range(1, M + 1)):
        return Outcome(0, "check", f"{len(rows)} rows, expected m = 1..{M}")

    if p.method == "sweep":
        ref = SW.sweep(p.n, p.a, eps=1e-12)
    else:
        ref = [ap.t for ap in EX.approx_all(PA.make_params(p.n, p.a), terms=5)]
    for (m, z), r in zip(rows, ref):
        if z != r:
            return Outcome(0, "check", f"row m={m}: {z!r} vs library {r!r}")
    return Outcome(M, "ok")


# -- validate-small ---------------------------------------------------------

def _call_validate(p: Problem, outdir: str):
    path = os.path.join(outdir, "validate.json")
    code, err = _quiet_main(["validate", "--n", str(p.n), "--a", repr(p.a),
                             "--output", path])
    return code, err, path


def _check_validate(p: Problem, raw) -> Outcome:
    code, err, path = raw
    if code != 0 and not os.path.exists(path):
        kind = f"exit:{code}" if code in (1, 2) else "check"
        return Outcome(0, kind, err.strip()[:200])
    with open(path) as fh:
        report = json.load(fh)
    os.remove(path)
    M = p.num_zeros
    counts = [len(report[k]["per_m"]) for k in ("sweep_vs_oracle", "asymptotic_vs_oracle")]
    if counts != [M, M]:
        return Outcome(0, "check", f"{counts} zeros compared, expected {M}")
    sweep_err = report["sweep_vs_oracle"]["max"]
    approx_err = report["asymptotic_vs_oracle"]["max"]
    note = f"exit {code}, pass={report['pass']}, max errors {sweep_err:.1e} / {approx_err:.1e}"
    if (code, report["pass"]) not in ((0, True), (1, False)) or sweep_err > REL_TOL:
        return Outcome(0, "check", note)
    if code == 1:
        # the sweep met the gate, so the expansion failed it: it is that far
        # off near the lower edge at small n
        return Outcome(0, "inaccurate", note)
    return Outcome(M, "ok")


# Alpha pairing.  sweep-large: the lowest alpha cell goes to the lowest n,
# where the stall edge sits closest to -0.84; the top stratum (n = 18714)
# gets alpha 7.7-8.2, inside the corner n > 15000, alpha > 4-8 where the
# expansion seed of the first zero raises TurningPointProximity, so that
# defect shows in every pass.  expansion-all: the lowest cell goes to the
# top stratum, because at n < 25 the expansion misses 1e-10 on it for some
# alpha but not others.  cli-zeros: the lowest cell goes to an asymptotic
# problem.  validate-small: the lowest cell goes to n = 53, and n = 15, 19,
# 25, 32 get cells wholly on the slow side of the oracle's fast/slow edge
# (its extended-precision stage stops after 2-3 iterations, or runs all 80).

SWEEP_LARGE = Workload(
    name="sweep-large",
    why="library sweep() at n 1000-20000: Taylor transport (taylor_table, "
        "taylor_step, iterate_T) takes almost all the time",
    n_lo=1000, n_hi=20000, strata=24, alpha_step=5, alpha_shift=0,
    call=_call_sweep, check=_check_sweep, faulty=(SW, ("sweep",)))

EXPANSION_ALL = Workload(
    name="expansion-all",
    why="library approx_all(terms=5) at n 15-1000: per-zero evaluate_jet plus "
        "per-problem build_lg_table and airy_zero set-up; no sweep",
    n_lo=15, n_hi=1000, strata=64, alpha_step=41, alpha_shift=41,
    call=_call_expansion, check=_check_expansion, faulty=(EX, ("approx_all",)))

CLI_ZEROS = Workload(
    name="cli-zeros",
    why="cli zeros to a file at n 100-3000, both methods and formats: the "
        "O(n^2) residual column dominates",
    n_lo=100, n_hi=3000, strata=12, alpha_step=17, alpha_shift=7,
    methods=("sweep", "asymptotic"),
    call=_call_cli_zeros, check=_check_cli_zeros,
    faulty=(cli, ("sweep", "approx_all")))

VALIDATE_SMALL = Workload(
    name="validate-small",
    why="cli validate at n 8-60: the brute-force oracle takes almost all the "
        "time; the only workload with the sub-30 first-zero polish",
    n_lo=8, n_hi=60, strata=8, alpha_step=5, alpha_shift=5, jitter=0.05,
    call=_call_validate, check=_check_validate, faulty=(cli, ("sweep",)))

WORKLOADS = {w.name: w for w in (SWEEP_LARGE, EXPANSION_ALL, CLI_ZEROS, VALIDATE_SMALL)}
