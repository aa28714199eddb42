"""Taylor-transport sweep computing every upper-half zero in order.

Between consecutive zeros the normalized solution w (w = 0, w' = 1 at the
previous zero) is carried by a truncated Taylor table of its derivatives,
generated from the differential-equation recurrence; each new zero is the
fixed point of  T(z) = z - arctan(sqrt(Omega) w / w') / sqrt(Omega),
started one local half-period  H = pi / sqrt(Omega)  away.  The first zero
is the full asymptotic expansion where its own error estimate is at the
floor (``ERR_EST_FLOOR``); elsewhere it is polished by Newton's method at
high precision, started from the truncation with the smallest estimate.

Cost is O(1) work per zero: the Taylor table has a fixed number of terms,
and each transport step is chosen before it is taken, from the tail of the
table (Taylor marching, Glaser, Liu & Rokhlin 2007), so no step is tried
and rejected.
"""

from __future__ import annotations

import cmath
import math
from typing import List

from .errors import IterationDivergence, ParameterOutOfRange, SweepStalled
from .expansion import ERR_EST_FLOOR, approx_zero, zero_approx
from .lg_coeffs import build_lg_table
from .params import ProblemParams, make_params
from .polynomials import horner, typed_coeffs

POLISH_MAX_ITERS = 12  # Newton steps of the polish
SEED_DRIFT_LIMIT = 0.5  # polished first zero may not move further than this
TAYLOR_TERMS = 28     # table length K (derivatives 0..K), the measured fastest
STEP_EPS = 1e-13      # Taylor truncation tolerance of one step
STEP_SAFETY = 0.9     # share of the a-priori step bound that is taken
MAX_ITERS = 30        # fixed-point iterations per zero


def omega(n: int, a: float, z: complex) -> complex:
    """Local frequency-squared of the normalized equation w'' + Omega w = 0
    plus lower-order terms; Omega = -1 + (2-a)/z - (n+a/2)(n+a/2-1)/z^2."""
    z = complex(z)
    return -1.0 + (2.0 - a) / z - (n + a / 2.0) * (n + a / 2.0 - 1.0) / (z * z)


def taylor_table(n: int, a: float, z0: complex, w0: complex, dw0: complex,
                 terms: int = TAYLOR_TERMS) -> List[complex]:
    """Derivatives w, w', ..., w^(terms) at z0 from the equation recurrence."""
    z0 = complex(z0)
    C = (n + a / 2.0) * (n + a / 2.0 - 1.0)
    z2 = z0 * z0
    Q = -z2 + (2.0 - a) * z0 - C
    d = [0j] * (terms + 1)
    d[0] = complex(w0)
    d[1] = complex(dw0)
    d[2] = -(Q / z2) * d[0]
    if terms >= 3:
        d[3] = -(Q / z2) * d[1] + ((2.0 - a) / z2 - 2.0 * C / (z2 * z0)) * d[0]
    for k in range(2, terms - 1):
        d[k + 2] = -(2.0 * k * z0 * d[k + 1] + (Q + k * (k - 1)) * d[k]
                     - k * (2.0 * z0 + a - 2.0) * d[k - 1]
                     - k * (k - 1) * d[k - 2]) / z2
    return d


def taylor_step(d: List[complex], h: complex):
    """(w, w') a displacement h from the table's base point, summing the
    terms 0 .. K-1 of the table d[0..K] for w and 1 .. K for w'.

    The step is not checked here: the Carrier sizes every step it takes
    from the table's tail, so that the truncation is below STEP_EPS.
    """
    N = len(d) - 2
    w = 0j
    dw = 0j
    term = 1.0 + 0j
    for k in range(N + 1):
        w += d[k] * term
        dw += d[k + 1] * term
        term = term * h / (k + 1)
    return w, dw


class Carrier:
    """Movable Taylor table transporting (w, w') along the sweep path.

    Each table carries its own step bound h_max, taken from its tail so
    that the truncation estimate max(|d_{K-1}|, |d_K|) |h|^(K-1) / (K-1)!
    stays below STEP_EPS * max(|w|, |w'|, 1) on every step of length
    <= h_max; the carrier never takes a longer one.  A table whose tail is
    not finite bounds no step and raises IterationDivergence.
    """

    def __init__(self, n: int, a: float, z0: complex, w0: complex,
                 dw0: complex):
        self.n, self.a = n, a
        self._expand(complex(z0), w0, dw0)

    def _expand(self, z0: complex, w0: complex, dw0: complex) -> None:
        self.z0 = z0
        self.d = taylor_table(self.n, self.a, z0, w0, dw0, TAYLOR_TERMS)
        N = TAYLOR_TERMS - 1
        ends = abs(self.d[N]), abs(self.d[N + 1])
        if not (ends[0] < math.inf and ends[1] < math.inf):  # inf or NaN
            raise IterationDivergence(
                f"Taylor table at z={z0} is not finite")
        tail = max(ends)
        # est = tail * h^N / N! <= STEP_SAFETY^N * STEP_EPS for |h| <= h_max,
        # against the smallest scale 1 of the result.  A zero tail bounds
        # nothing; a finite one gives h_max > 0, so the walk below ends.
        if tail:
            self.h_max = STEP_SAFETY * (STEP_EPS * math.factorial(N)
                                        / tail) ** (1.0 / N)
        else:
            self.h_max = math.inf

    def eval_at(self, z: complex):
        """(w, w') at z, re-expanding every h_max along the way."""
        h = z - self.z0
        while abs(h) > self.h_max:
            step = h * (self.h_max / abs(h))
            w, dw = taylor_step(self.d, step)
            self._expand(self.z0 + step, w, dw)
            h = z - self.z0
        return taylor_step(self.d, h)


def iterate_T(carrier: Carrier, z0: complex, *,
              eps: float = 1e-12) -> complex:
    """Fixed point of T(z) = z - arctan(sqrt(Omega) w / w') / sqrt(Omega)."""
    n, a = carrier.n, carrier.a
    z = complex(z0)
    for _ in range(MAX_ITERS):
        w, dw = carrier.eval_at(z)
        sq = cmath.sqrt(omega(n, a, z))
        upd = -cmath.atan(sq * w / dw) / sq
        if abs(upd) > 0.5 * math.pi / abs(sq):
            raise IterationDivergence(
                f"update {abs(upd):.3e} exceeds half the local period at z={z}")
        z = z + upd
        if abs(upd) <= eps * (1.0 + abs(z)):
            return z
    raise IterationDivergence(f"no fixed point within {MAX_ITERS} iterations "
                              f"near z={z0}")


def _first_zero(params: ProblemParams) -> complex:
    lg = build_lg_table(params)
    ap = approx_zero(params, lg, 1)
    if ap.err_est <= ERR_EST_FLOOR:
        return ap.t
    # the polish starts from the truncation with the smallest estimate:
    # near the lower edge at tiny n the later terms grow, and a start from
    # all of them can land on another zero or drift away
    seed = min((zero_approx(params, 1, ap.tau[:k])
                for k in range(ap.terms_used, 1, -1)),
               key=lambda start: start.err_est).t
    import mpmath as mp

    n = params.n
    dps = 30 + n // 2  # the monomial basis loses about n/3 digits
    with mp.workdps(dps):
        coefs = typed_coeffs(n, mp.mpf(params.a))
        # z is returned as a double, so the polish stops at a step below
        # 2^-70 relative: the next one would be near its square, far below
        # the double's 2^-53.  A tolerance near the working precision can
        # lie below the Horner sum's rounding at high alpha (the steps stay
        # near 1e-30 at (13, 130) with 36 digits) and is never met.
        tol = mp.mpf(2) ** -70
        z = mp.mpc(seed)
        for _ in range(POLISH_MAX_ITERS):
            p, q = horner(coefs, z)
            if q == 0:
                break
            dz = p / q
            z = z - dz
            if abs(dz) <= tol * (1 + abs(z)):
                break
        z = complex(z)
    if abs(z - seed) > SEED_DRIFT_LIMIT * (1.0 + abs(seed)):
        raise SweepStalled(
            f"first-zero polish drifted from {seed} to {z}", [])
    return z


def sweep(n: int, a: float, eps: float = 1e-12) -> List[complex]:
    """All floor((n+1)/2) upper-half zeros, by decreasing imaginary part.

    The lower-half zeros are the conjugates; for odd n the last entry is
    the single real zero (its imaginary part snapped to exactly zero).
    """
    params = make_params(n, a)
    if not 0.0 < eps < math.inf:
        raise ParameterOutOfRange(
            f"eps must be finite and positive, got {eps}")
    M = (n + 1) // 2
    zeros = [_first_zero(params)]
    for _ in range(1, M):
        zp = zeros[-1]
        sq = cmath.sqrt(omega(n, a, zp))
        step = math.pi / sq
        zt = zp + step
        if zt.imag > zp.imag:
            step = -step
            zt = zp + step
        carrier = Carrier(n, a, zp, 0.0, 1.0)
        z = None
        for attempt_step in (step, -step, 0.5 * step):
            try:
                cand = iterate_T(carrier, zp + attempt_step, eps=eps)
            except IterationDivergence:
                continue
            if cand.imag < zp.imag - 1e-14 * (1.0 + abs(zp.imag)):
                z = cand
                break
        if z is None:
            raise SweepStalled(
                f"sweep stalled after {len(zeros)} of {M} zeros "
                f"(n={n}, a={a})", zeros)
        zeros.append(z)
    if n % 2 == 1 and zeros:
        last = zeros[-1]
        if abs(last.imag) <= 64.0 * 2.220446049250313e-16 * (1.0 + abs(last.real)):
            zeros[-1] = complex(last.real, 0.0)
    return zeros
