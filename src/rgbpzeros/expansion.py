"""Asymptotic approximation of individual zeros.

For each index m the scaled zero has an expansion  u * sum_s tau_s / u^(2s).
The leading coefficient tau_0 solves a transcendental equation on the
left branch of the map (Newton on the shifted unknown w = tau_0 + 1/2);
up to MAX_TERMS - 1 = 4 more follow from a cascade that reverts
zeta(tau) + sum_s U_s(tau) u^(-2s) = zeta(tau_0) order by order, reading
the zeta jet that ``map_point`` returns at tau_0 on that same branch and
the correction jets [U1, U2, ...] that ``phase_corrections`` builds there,
only as many and as long as the requested number of terms reads.
``approx_zero`` runs this kernel at the Airy level set of one index.

tau_s depends on m only through the real zeta_m = a_m u^(-2/3), so
``approx_all`` runs the kernel at the Chebyshev-Lobatto points of
[zeta_M, zeta_1] instead, in nested levels of 9, 17, 33 and 65 nodes, and
reads every row from one Chebyshev series per tau_s by Clenshaw's rule
(the technique of Bogaert 2014 for Gauss-Legendre nodes).  tau_s enters
t/u with the weight u^(-2s), so each series stops at the first level where
its weighted tail is negligible, and later nodes solve only the terms
still open: at (n, a) = (200, 20.2), 33 tau_0 solves and 52 correction
evaluations against 132 with all five terms at every node.  With at most
SERIES_ABOVE_ZEROS = 24 zeros, or where a node fails or tau_0's tail test
fails at 65 nodes, it solves each row on its own.  Every row carries an
error estimate from the sizes of its terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .airy import AIRY_PHASE
from .errors import ApproximationFailures, NewtonDivergence, RgbpError
from .jets import Jet
from .lg_coeffs import LgTable, build_lg_table
from .mapping import left_Z, map_point, xi_closed_form, zeta_for_airy_zero
from .params import ProblemParams
from .phase import phase_corrections

MAX_TERMS = len(AIRY_PHASE) + 1  # tau_0, then one per Airy-phase C_s
NEWTON_TOL = 1e-14
NEWTON_MAX_ITERS = 50
# the last iteration's bound: next to the turning point xi' = Z/tau -> 0,
# and a converged step can stay above NEWTON_TOL (6e-14 to 1.9e-13)
NEWTON_LAST_STEP_TOL = 1e-10
SERIES_DEGREES = (8, 16, 32, 64)  # nested Chebyshev-Lobatto levels: 9 .. 65 nodes
SERIES_TAIL_RTOL = 1e-14          # the node samples' noise plateau is 2-4e-15
ERR_EST_FLOOR = 1e-13             # see _err_est
# approx_all reads the rows from the series above this many zeros M.
# Series time over per-m loop time, in-process best of 11 on 2 cores, at
# alpha in {-0.8, 0, 2.3, 6}: M = 18: 1.15-1.58; M = 24: 0.84-1.07;
# M = 25: 0.76-0.88; M = 40: 0.42-0.57; M = 65: 0.27-0.46.  Near the lower
# edge, where tau_0 needs 33 nodes and tau_3 stays open to them, it is
# still 1.0-1.5 at M = 25-30 (alpha from -0.9 to -0.84).
SERIES_ABOVE_ZEROS = 24


@dataclass
class ZeroApprox:
    """One zero from the expansion; ``tau`` holds tau_0 ..
    tau_{terms_used - 1}, the coefficients that ``t`` sums.  For a row of
    ``approx_all``'s Chebyshev series, ``tau`` is read from that series.
    ``err_est`` estimates the relative error of ``t`` from the sizes of its
    terms (``_err_est``); it is NaN with one term."""

    m: int
    tau: List[complex]
    t: complex                    # assembled zero approximation
    terms_used: int
    err_est: float = math.nan


def _tau0_residual(params: ProblemParams, tau: complex, xi_target: complex):
    """Residual of the implicit leading-order equation and its derivative."""
    Z = left_Z(params, tau)
    # F and F' (= xi')
    return xi_closed_form(params, tau, Z) - xi_target, Z / tau


def _check_index(params: ProblemParams, m: int) -> None:
    if not 1 <= m <= params.num_upper_zeros:
        raise ValueError(
            f"m={m} outside 1..{params.num_upper_zeros} for n={params.n}")


def solve_tau0(params: ProblemParams, m: Optional[int],
               xi_target: Optional[complex] = None):
    """Leading coefficient tau_0 for index m, or at ``xi_target`` alone.

    Returns (tau0, residual, iters).  Newton runs on w with tau_0 = -1/2 + w,
    seeded at w = 0; an arithmetic error inside it raises NewtonDivergence
    from that error.
    ``xi_target`` is the pinned xi of ``zeta_for_airy_zero(params, m)``,
    looked up here when the caller does not pass it; with m None it is any
    xi = -(2i/3)|zeta|^(3/2) of a real zeta < 0, a Chebyshev node.
    """
    if m is not None:
        _check_index(params, m)
    if xi_target is None:
        _, xi_target = zeta_for_airy_zero(params, m)
    al = params.alpha
    w, mirrored = 0j, False
    cause: Optional[Exception] = None
    try:
        for it in range(1, NEWTON_MAX_ITERS + 1):
            tau = -0.5 + w
            f, fp = _tau0_residual(params, tau, xi_target)
            dw = f / fp
            w -= dw
            tol = NEWTON_LAST_STEP_TOL if it == NEWTON_MAX_ITERS else NEWTON_TOL
            if abs(dw) <= tol * (1.0 + abs(w)):
                tau = -0.5 + w
                if (tau + 0.5 * al).real <= 0.0:
                    resid = abs(_tau0_residual(params, tau, xi_target)[0])
                    return tau, resid, it
                if mirrored:
                    break
                # near the lower window edge the equation also has roots
                # right of the segment Re(tau + alpha/2) = 0, off the branch
                # of the zeros; the mirror image of one in that segment lies
                # in the basin of the left root
                w, mirrored = complex(1.0 - al - w.real, w.imag), True
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        cause = exc
    raise NewtonDivergence(
        f"tau_0 Newton failed for n={params.n}, a={params.a}, m={m}"
        + (f" ({cause})" if cause else "")) from cause


def _check_terms(terms: int) -> None:
    if not 1 <= terms <= MAX_TERMS:
        raise ValueError(f"terms must be in 1..{MAX_TERMS}")


def _tau_cascade(zeta: Jet, ups: List[Jet]) -> List[complex]:
    """tau_1 .. tau_k from the zeta jet and the jets [U1 .. Uk]: order j of
    zeta(tau_0 + delta) + sum_s eps^s U_s(tau_0 + delta) = zeta(tau_0),
    delta = sum_j tau_j eps^j, is linear in tau_j with coefficient
    zeta'(tau_0) and reads U_s to order j - s."""
    k = len(ups)
    # P[i][m]: order m of delta^i, filled a column at a time; P[1] is tau
    P = [[0j] * (k + 1) for _ in range(k + 1)]
    for j in range(1, k + 1):
        rest = ups[j - 1][0]
        for i in range(2, j + 1):
            for a in range(i - 1, j):
                P[i][j] += P[i - 1][a] * P[1][j - a]
            rest += zeta[i] * P[i][j]
        for s in range(1, j):
            for i in range(1, j - s + 1):
                rest += ups[s - 1][i] * P[i][j - s]
        P[1][j] = -rest / zeta[1]
    return P[1][1:]


def _expand(params: ProblemParams, lg: LgTable, m: Optional[int],
            zeta: complex, xi: complex, terms: int) -> List[complex]:
    """tau_0 .. tau_{terms-1} on the Airy level set (zeta, xi): Newton for
    tau_0, then the map on the branch Newton solved on, with zeta and xi
    pinned, the corrections and the cascade.  ``m`` is the index of that
    level set, or None at a series node; one term needs neither the map
    nor the corrections."""
    tau0, _, _ = solve_tau0(params, m, xi)
    tau = [tau0]
    if terms > 1:
        state = map_point(params, tau0, left_Z(params, tau0), xi, zeta)
        tau += _tau_cascade(state.zeta, phase_corrections(lg, state, terms))
    return tau


def _err_est(sizes: List[float]) -> float:
    """Relative error estimate from the sizes e_s = |tau_s| u^(1-2s) / |t|
    of the terms s = 1 .. terms-1 (NaN with no such term).

    While the terms above ERR_EST_FLOOR decrease, the last one bounds the
    truncation error; where one grows, the largest does.  Below the floor
    the terms are rounding noise (tau_3 and tau_4 carry a few correct
    digits at large n), which must not read as growth.  The floor is the
    least error a row can claim: it sits above the measured disagreement of
    the two answer paths (at most 1.8e-14 relative on n from 100 to 3000,
    alpha from -0.9 to 9.9) and of the series rows with the rows solved one
    by one (at most 5.2e-14, at the lower edge).
    """
    if not sizes:
        return math.nan
    decreasing = all(b <= max(a, ERR_EST_FLOOR)
                     for a, b in zip(sizes, sizes[1:]))
    return max(sizes[-1] if decreasing else max(sizes), ERR_EST_FLOOR)


def zero_approx(params: ProblemParams, m: int,
                tau: List[complex]) -> ZeroApprox:
    """The row of index m whose zero u * sum_s tau_s / u^(2s) sums ``tau``."""
    u = params.u
    terms = [tau[s] / u ** (2 * s) for s in range(len(tau))]
    t = u * sum(terms)
    if t.imag < 0.0:
        # upper-half convention; a below-axis value can only be the
        # approximation error of the single real zero (odd n, last m)
        t = complex(t.real, 0.0)
    scale = abs(t) / u
    return ZeroApprox(m=m, tau=tau, t=t, terms_used=len(tau),
                      err_est=_err_est([abs(c) / scale for c in terms[1:]]))


def approx_zero(params: ProblemParams, lg: LgTable, m: int,
                terms: int = MAX_TERMS) -> ZeroApprox:
    """tau_0 by Newton, then tau_1..tau_{terms-1} and the assembled
    approximation, all at the Airy level set of index m."""
    _check_terms(terms)
    _check_index(params, m)
    zeta0, xi0 = zeta_for_airy_zero(params, m)
    return zero_approx(params, m, _expand(params, lg, m, zeta0, xi0, terms))


def _chebyshev_coeffs(series: List[List[complex]]) -> List[List[complex]]:
    """c_0 .. c_N of the interpolant sum_k c_k T_k(x) through each list of
    values at the Chebyshev-Lobatto points x_j = cos(pi j / N), j = 0..N
    (DCT-I), all from one cosine table."""
    N = len(series[0]) - 1
    cosines = [math.cos(math.pi * i / N) for i in range(2 * N)]
    out = []
    for values in series:
        f = [0.5 * values[0], *values[1:N], 0.5 * values[N]]
        coeffs = [2.0 / N * sum(fj * cosines[j * k % (2 * N)]
                                for j, fj in enumerate(f))
                  for k in range(N + 1)]
        coeffs[0] *= 0.5
        coeffs[N] *= 0.5
        out.append(coeffs)
    return out


def _clenshaw(coeffs: List[complex], x: float) -> complex:
    """sum_k coeffs[k] T_k(x) by Clenshaw's recurrence."""
    b1 = b2 = 0j
    x2 = 2.0 * x
    for c in coeffs[:0:-1]:
        b1, b2 = c + x2 * b1 - b2, b1
    return coeffs[0] + x * b1 - b2


def _open_after(weights: List[float], coeffs: List[List[complex]],
                open_terms: int, scale: float) -> int:
    """How many of the series tau_0 .. tau_{open_terms-1} stay open after a
    level: the top open one closes while its weighted last three
    coefficients u^(-2s) |c_s[-3:]| are at most SERIES_TAIL_RTOL of
    ``scale``, the largest coefficient of F."""
    k = open_terms
    while k and all(weights[k - 1] * abs(c) <= SERIES_TAIL_RTOL * scale
                    for c in coeffs[k - 1][-3:]):
        k -= 1
    return k


def _series_rows(params: ProblemParams, lg: LgTable,
                 terms: int) -> Optional[List[ZeroApprox]]:
    """Every row from one Chebyshev series in zeta per tau_s, or None when
    a node fails or the series of tau_0 is still open at the last level.

    tau_s depends on m only through the real zeta_m, so t/u is one
    analytic function F(zeta) = sum_s u^(-2s) tau_s(zeta) on
    [zeta_M, zeta_1].  It is sampled at the Chebyshev-Lobatto points of
    nested levels of 9, 17, 33 and 65 nodes, each reusing the samples of
    the one before.  tau_s reaches F only through its weight u^(-2s), so
    each series closes at its own level (``_open_after``) and enters F at
    its own length; a node solves only the terms still open (one open term
    is Newton alone).  The series is done when tau_0 closes.
    """
    M = params.num_upper_zeros
    hi = zeta_for_airy_zero(params, 1)[0].real
    lo = zeta_for_airy_zero(params, M)[0].real
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    weights = [params.u ** (-2 * s) for s in range(terms)]
    samples: List[List[complex]] = []
    coeffs: List[List[complex]] = []
    open_terms = terms
    for N in SERIES_DEGREES:
        coarse, samples = samples, []
        for j in range(N + 1):
            if coarse and j % 2 == 0:
                samples.append(coarse[j // 2])
                continue
            zeta = mid + half * math.cos(math.pi * j / N)
            xi = -2j * (-zeta) ** 1.5 / 3.0
            try:
                samples.append(_expand(params, lg, None, complex(zeta), xi,
                                       open_terms))
            except (RgbpError, ArithmeticError, ValueError):
                return None  # the per-m loop reports the failing indices
        # the open series are refitted; a closed one keeps its coefficients
        coeffs[:open_terms] = _chebyshev_coeffs(
            [[tau[s] for tau in samples] for s in range(open_terms)])
        F = [0j] * (N + 1)
        for w, c in zip(weights, coeffs):
            for k, ck in enumerate(c):
                F[k] += w * ck
        scale = max(abs(c) for c in F)
        open_terms = _open_after(weights, coeffs, open_terms, scale)
        if not open_terms:
            break
    else:
        return None
    # a trailing coefficient below the rounding of F's largest one reads
    # as noise (rows moved by at most 6.4e-16 relative); from n = 200 the
    # series of tau_3 and tau_4 keep their first coefficient alone
    cut = 2.0 ** -53 * scale
    for w, c in zip(weights, coeffs):
        while len(c) > 1 and w * abs(c[-1]) <= cut:
            c.pop()
    rows = []
    for m in range(1, M + 1):
        x = (zeta_for_airy_zero(params, m)[0].real - mid) / half
        rows.append(zero_approx(params, m, [_clenshaw(c, x) for c in coeffs]))
    return rows


def approx_all(params: ProblemParams, terms: int = MAX_TERMS) -> List[ZeroApprox]:
    """One approximation per m = 1..floor((n+1)/2).

    With more than SERIES_ABOVE_ZEROS = 24 zeros every row is read from one
    Chebyshev series in zeta per tau_s (``_series_rows``: at most 65
    expansion solves per problem, 33 on every problem tried, each with only
    the terms whose series is still open).  Where that series fails or does
    not converge, and at fewer zeros, where it costs more than the rows
    (measured beside SERIES_ABOVE_ZEROS), each row is solved on its own by
    ``approx_zero``.

    Raises ValueError for a bad ``terms``, and ApproximationFailures
    (carrying the successful subset) if any index fails with an RgbpError,
    ArithmeticError or ValueError, the failures ``_series_rows`` also
    catches; any other exception propagates.
    """
    _check_terms(terms)
    lg = build_lg_table(params)
    if params.num_upper_zeros > SERIES_ABOVE_ZEROS:
        rows = _series_rows(params, lg, terms)
        if rows is not None:
            return rows
    results: List[ZeroApprox] = []
    failures = []
    for m in range(1, params.num_upper_zeros + 1):
        try:
            results.append(approx_zero(params, lg, m, terms))
        except (RgbpError, ArithmeticError, ValueError) as exc:
            # aggregated with the offending index
            failures.append((m, exc))
    if failures:
        raise ApproximationFailures(
            f"{len(failures)} of {params.num_upper_zeros} indices failed",
            failures, results)
    return results
