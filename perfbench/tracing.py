"""Per-layer counts and times, by wrapping the program's public functions
from outside.

Each target is rebound in every ``rgbpzeros`` module that holds it: a
module that did ``from .sweep import sweep`` keeps its own reference, and
a call through that reference must be seen too.  Methods are rebound on
their class.  A span wrapper records calls, exceptions raised, total time
and the time of wrapped children (for self time); a count wrapper records
calls only, for functions called hundreds of times per zero.

Aggregates cover every call.  Full spans (name, start, end, parent span,
problem id) are kept in memory for the coarse functions only, those called
a few times per problem, and written when the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import sys
import time
from typing import Callable, Dict, List, Optional

# (module, attribute, short name, keep full spans); the short name is the
# metric prefix "<module>.<function>"
SPAN_TARGETS = (
    ("rgbpzeros.cli", "main", "cli.main", True),
    ("rgbpzeros.sweep", "sweep", "sweep.sweep", True),
    ("rgbpzeros.sweep", "iterate_T", "sweep.iterate_T", False),
    ("rgbpzeros.sweep", "taylor_table", "sweep.taylor_table", False),
    ("rgbpzeros.sweep", "taylor_step", "sweep.taylor_step", False),
    ("rgbpzeros.expansion", "approx_all", "expansion.approx_all", True),
    ("rgbpzeros.expansion", "solve_tau0", "expansion.solve_tau0", False),
    ("rgbpzeros.mapping", "map_point", "mapping.map_point", False),
    ("rgbpzeros.phase", "phase_corrections", "phase.phase_corrections", False),
    ("rgbpzeros.trig_series", "PhiSeries.evaluate_jet", "trig_series.evaluate_jet", False),
    ("rgbpzeros.lg_coeffs", "build_lg_table", "lg_coeffs.build_lg_table", True),
    ("rgbpzeros.airy", "airy_zero", "airy.airy_zero", False),
    ("rgbpzeros.polynomials", "relative_residual", "polynomials.relative_residual", False),
    ("rgbpzeros.polynomials", "oracle_zeros", "polynomials.oracle_zeros", True),
    ("rgbpzeros.polynomials", "theta_with_derivative", "polynomials.theta_with_derivative", False),
)
COUNT_TARGETS = (
    ("rgbpzeros.sweep", "omega", "sweep.omega"),
    ("rgbpzeros.jets", "JetOps.mul", "jets.mul"),
)

# name -> (unit, description); the order is the order of the report
PER_LAYER = {
    "sweep.taylor_table.per_zero": ("1/zero", "Taylor tables built"),
    "sweep.taylor_step.per_zero": ("1/zero", "Taylor steps tried"),
    "sweep.taylor_step.rejected_frac": ("1", "StepTooLarge raised / steps tried"),
    "sweep.omega.per_zero": ("1/zero", "fixed-point iterations + 1"),
    "sweep.iterate_T.diverged": ("count", "IterationDivergence raised, per pass"),
    "sweep.taylor_table.s": ("s", "time in taylor_table, per pass"),
    "sweep.taylor_step.s": ("s", "time in taylor_step, per pass"),
    "sweep.sweep.self_s": ("s", "sweep minus its wrapped children, per pass"),
    "expansion.solve_tau0.s": ("s", "time in solve_tau0, per pass"),
    "expansion.solve_tau0.newton_iters_per_zero": ("1/zero", "Newton iterations returned"),
    "mapping.map_point.s": ("s", "time in map_point, per pass"),
    "phase.phase_corrections.s": ("s", "time in phase_corrections, per pass"),
    "trig_series.evaluate_jet.s": ("s", "time in PhiSeries.evaluate_jet, per pass"),
    "trig_series.evaluate_jet.per_zero": ("1/zero", "PhiSeries.evaluate_jet calls"),
    "jets.mul.per_zero": ("1/zero", "JetOps.mul calls"),
    "lg_coeffs.build_lg_table.s": ("s", "time in build_lg_table, per pass"),
    "airy.airy_zero.s": ("s", "time in airy_zero, per pass"),
    "polynomials.relative_residual.calls": ("count", "relative_residual calls, per pass"),
    "polynomials.relative_residual.s": ("s", "time in relative_residual, per pass"),
    "cli.main.self_s": ("s", "cli.main minus its wrapped children, per pass"),
    "polynomials.oracle_zeros.s": ("s", "time in oracle_zeros, per pass"),
    "polynomials.theta_with_derivative.calls": ("count", "double-precision Aberth evaluations, per pass"),
    "polynomials.oracle_zeros.mp_stage_s": ("s", "oracle_zeros minus its wrapped children, per pass"),
    "trace.overhead_s": ("s", "traced pass minus untraced pass, in seconds"),
    "trace.overhead_frac": ("1", "trace.overhead_s / untraced pass time"),
}


class Stat:
    __slots__ = ("calls", "seconds", "child_seconds", "raised", "iters")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.child_seconds = 0.0
        self.raised: Dict[str, int] = collections.Counter()
        self.iters = 0           # solve_tau0: Newton iterations returned


class Tracer:
    """Aggregates and spans of the wrapped functions; off until started,
    and paused while the benchmark checks outputs."""

    def __init__(self):
        self.active = False
        self.stats: Dict[str, Stat] = collections.defaultdict(Stat)
        self.spans: List[tuple] = []
        self.problem_id: Optional[int] = None
        self._stack: List[list] = []   # [span id, child seconds]
        self._next_id = 0

    @contextlib.contextmanager
    def problem(self, pid: int):
        """Root span of one problem; the spans inside it carry its id."""
        self.problem_id = pid
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((pid, frame[0], None, "problem", t0, t1))

    def _span(self, name: str, fn: Callable, keep: bool) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            stat.calls += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                stat.raised[type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                stat.seconds += t1 - t0
                stat.child_seconds += frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                if keep:
                    self.spans.append((self.problem_id, frame[0], parent, name, t0, t1))
            if name == "expansion.solve_tau0":
                stat.iters += out[2]
            return out
        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]

        def counted(*args, **kwargs):
            if self.active:
                stat.calls += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Rebind every target in every loaded rgbpzeros module."""
        for mod, attr, name, keep in SPAN_TARGETS:
            self._rebind(mod, attr, lambda fn, n=name, k=keep: self._span(n, fn, k))
        for mod, attr, name in COUNT_TARGETS:
            self._rebind(mod, attr, lambda fn, n=name: self._count(n, fn))

    @staticmethod
    def _rebind(mod: str, attr: str, make: Callable) -> None:
        if "." in attr:                      # Class.method
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[mod], cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(sys.modules[mod], attr)
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if name == "rgbpzeros" or name.startswith("rgbpzeros."):
                for key, val in list(vars(module).items()):
                    if val is original:
                        setattr(module, key, wrapped)

    def per_layer(self, zeros: int, untraced_s: float, traced_s: float,
                  scale: float) -> Dict[str, float]:
        """Per-layer metrics of one traced pass.  ``zeros`` passed the check
        in the pass; ``untraced_s`` and ``traced_s`` are the timed seconds
        of the untraced and the traced pass; ``scale`` rescales the wall
        seconds measured here to the reference machine speed, like the
        timed calls."""
        st = self.stats

        def calls(name):
            return st[name].calls

        def per_zero(name):
            return calls(name) / zeros if zeros else 0.0

        def secs(name):
            return st[name].seconds * scale

        def self_s(name):
            return secs(name) - st[name].child_seconds * scale

        steps = st["sweep.taylor_step"].calls
        out = {
            "sweep.taylor_table.per_zero": per_zero("sweep.taylor_table"),
            "sweep.taylor_step.per_zero": per_zero("sweep.taylor_step"),
            "sweep.taylor_step.rejected_frac":
                st["sweep.taylor_step"].raised["StepTooLarge"] / steps if steps else 0.0,
            "sweep.omega.per_zero": per_zero("sweep.omega"),
            "sweep.iterate_T.diverged":
                st["sweep.iterate_T"].raised["IterationDivergence"],
            "sweep.taylor_table.s": secs("sweep.taylor_table"),
            "sweep.taylor_step.s": secs("sweep.taylor_step"),
            "sweep.sweep.self_s": self_s("sweep.sweep"),
            "expansion.solve_tau0.s": secs("expansion.solve_tau0"),
            "expansion.solve_tau0.newton_iters_per_zero":
                st["expansion.solve_tau0"].iters / zeros if zeros else 0.0,
            "mapping.map_point.s": secs("mapping.map_point"),
            "phase.phase_corrections.s": secs("phase.phase_corrections"),
            "trig_series.evaluate_jet.s": secs("trig_series.evaluate_jet"),
            "trig_series.evaluate_jet.per_zero": per_zero("trig_series.evaluate_jet"),
            "jets.mul.per_zero": per_zero("jets.mul"),
            "lg_coeffs.build_lg_table.s": secs("lg_coeffs.build_lg_table"),
            "airy.airy_zero.s": secs("airy.airy_zero"),
            "polynomials.relative_residual.calls": calls("polynomials.relative_residual"),
            "polynomials.relative_residual.s": secs("polynomials.relative_residual"),
            "cli.main.self_s": self_s("cli.main"),
            "polynomials.oracle_zeros.s": secs("polynomials.oracle_zeros"),
            "polynomials.theta_with_derivative.calls":
                calls("polynomials.theta_with_derivative"),
            "polynomials.oracle_zeros.mp_stage_s": self_s("polynomials.oracle_zeros"),
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        }
        assert list(out) == list(PER_LAYER)
        return out

    def dump(self) -> dict:
        return {
            "aggregates": {name: {"calls": s.calls, "seconds": s.seconds,
                                  "child_seconds": s.child_seconds,
                                  "raised": dict(s.raised)}
                           for name, s in sorted(self.stats.items())},
            "spans": [{"problem": p, "id": i, "parent": par, "name": n,
                       "start": t0, "end": t1}
                      for p, i, par, n, t0, t1 in self.spans],
        }
