"""Asymptotic approximation of individual zeros.

For each index m the scaled zero has an expansion  u * sum_s tau_s / u^(2s).
The leading coefficient tau_0 solves a branch-sensitive transcendental
equation (Newton on the shifted unknown w = tau_0 + 1/2); the next
coefficients, up to four, follow from a closed cascade driven by the zeta
jet that ``map_point`` returns at tau_0 and the correction jets
[U1, ..., U4] that ``phase_corrections`` builds there, only as many and
as long as the requested number of terms reads.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import List, Optional

from .errors import ApproximationFailures, NewtonDivergence
from .jets import Jet, JetOps
from .lg_coeffs import LgTable, build_lg_table
from .mapping import map_point, xi_closed_form, zeta_for_airy_zero
from .params import ProblemParams
from .phase import phase_corrections

LOW_CONFIDENCE_N = 10  # the expansion is asymptotic; below this n it is a guess
NEWTON_TOL = 1e-14
NEWTON_MAX_ITERS = 50
_RETRY_SEEDS = (0.0 + 0.0j, 0.1j, 0.2j)


@dataclass
class ZeroApprox:
    """One zero from the expansion; ``tau`` holds tau_0 ..
    tau_{terms_used - 1}, the coefficients that ``t`` sums."""

    m: int
    tau: List[complex]
    t: complex                    # assembled zero approximation
    terms_used: int
    newton_residual: float
    newton_iters: int
    low_confidence: bool = False


def _tau0_residual(params: ProblemParams, tau: complex, xi_target: complex):
    """Residual of the implicit leading-order equation and its derivative."""
    al = params.alpha
    Z = -cmath.sqrt((tau + 0.5 * al) ** 2 + 1.0 + al)
    # F and F' (= xi')
    return xi_closed_form(params, tau, Z, -1) - xi_target, Z / tau


def _check_index(params: ProblemParams, m: int) -> None:
    if not 1 <= m <= params.num_upper_zeros:
        raise ValueError(
            f"m={m} outside 1..{params.num_upper_zeros} for n={params.n}")


def solve_tau0(params: ProblemParams, m: int,
               xi_target: Optional[complex] = None):
    """Leading coefficient tau_0 for index m.

    Returns (tau0, residual, iters).  Newton runs on w with tau_0 = -1/2 + w,
    seeded at w = 0 (retrying from small imaginary seeds on divergence).
    ``xi_target`` is the pinned xi of ``zeta_for_airy_zero(params, m)``,
    looked up here when the caller does not pass it.
    """
    _check_index(params, m)
    if xi_target is None:
        _, xi_target = zeta_for_airy_zero(params, m)
    last_exc: Optional[Exception] = None
    for seed in _RETRY_SEEDS:
        w = seed
        try:
            for it in range(1, NEWTON_MAX_ITERS + 1):
                tau = -0.5 + w
                f, fp = _tau0_residual(params, tau, xi_target)
                dw = f / fp
                w -= dw
                if abs(dw) <= NEWTON_TOL * (1.0 + abs(w)):
                    tau = -0.5 + w
                    resid = abs(_tau0_residual(params, tau, xi_target)[0])
                    return tau, resid, it
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            last_exc = exc
            continue
    raise NewtonDivergence(
        f"tau_0 Newton failed for n={params.n}, a={params.a}, m={m}"
        + (f" ({last_exc})" if last_exc else ""))


def _check_terms(terms: int) -> None:
    if not 1 <= terms <= 5:
        raise ValueError("terms must be in 1..5")


def _tau_cascade(zeta: Jet, ups: List[Jet]) -> List[complex]:
    """tau_1 .. tau_k from the zeta jet and the k correction jets
    [U1 .. Uk]; tau_s reads U_j to derivative order s - j."""
    d = JetOps.derivative
    k = len(ups)
    U1 = ups[0]
    zd1 = d(zeta, 1)
    t1 = -U1[0] / zd1
    if k == 1:
        return [t1]
    U2 = ups[1]
    zd2, du1, u2 = d(zeta, 2), d(U1, 1), U2[0]
    t2 = -(t1 * t1 * zd2 + 2 * t1 * du1 + 2 * u2) / (2 * zd1)
    if k == 2:
        return [t1, t2]
    U3 = ups[2]
    zd3, d2u1, du2, u3 = d(zeta, 3), d(U1, 2), d(U2, 1), U3[0]
    t3 = -(t1 ** 3 * zd3 + 6 * t1 * t2 * zd2 + 3 * t1 * t1 * d2u1
           + 6 * t2 * du1 + 6 * t1 * du2 + 6 * u3) / (6 * zd1)
    if k == 3:
        return [t1, t2, t3]
    zd4, d3u1, d2u2, du3, u4 = (d(zeta, 4), d(U1, 3), d(U2, 2), d(U3, 1),
                                ups[3][0])
    t4 = -(t1 ** 4 * zd4 + 12 * t1 * t1 * t2 * zd3 + 24 * t1 * t3 * zd2
           + 12 * t2 * t2 * zd2 + 4 * t1 ** 3 * d3u1 + 24 * t1 * t2 * d2u1
           + 12 * t1 * t1 * d2u2 + 24 * t3 * du1 + 24 * t2 * du2
           + 24 * t1 * du3 + 24 * u4) / (24 * zd1)
    return [t1, t2, t3, t4]


def approx_zero(params: ProblemParams, lg: LgTable, m: int,
                terms: int = 5) -> ZeroApprox:
    """tau_0 by Newton, then tau_1..tau_{terms-1} and the assembled
    approximation; one term needs neither the map nor the corrections."""
    _check_terms(terms)
    _check_index(params, m)
    zeta0, xi0 = zeta_for_airy_zero(params, m)
    tau0, resid, iters = solve_tau0(params, m, xi0)
    tau = [tau0]
    if terms > 1:
        state = map_point(params, tau0, xi_value=xi0, zeta_value=zeta0)
        tau += _tau_cascade(state.zeta, phase_corrections(lg, state, terms))
    u = params.u
    t = u * sum(tau[s] / u ** (2 * s) for s in range(terms))
    if t.imag < 0.0:
        # upper-half convention; a below-axis value can only be the
        # approximation error of the single real zero (odd n, last m)
        t = complex(t.real, 0.0)
    return ZeroApprox(m=m, tau=tau, t=t, terms_used=terms,
                      newton_residual=resid, newton_iters=iters,
                      low_confidence=params.n < LOW_CONFIDENCE_N)


def approx_all(params: ProblemParams, terms: int = 5) -> List[ZeroApprox]:
    """One approximation per m = 1..floor((n+1)/2).

    Raises ValueError for a bad ``terms``, and ApproximationFailures
    (carrying the successful subset) if any index fails.
    """
    _check_terms(terms)
    lg = build_lg_table(params)
    results: List[ZeroApprox] = []
    failures = []
    for m in range(1, params.num_upper_zeros + 1):
        try:
            results.append(approx_zero(params, lg, m, terms))
        except Exception as exc:  # aggregated with the offending index
            failures.append((m, exc))
    if failures:
        raise ApproximationFailures(
            f"{len(failures)} of {params.num_upper_zeros} indices failed",
            failures, results)
    return results
