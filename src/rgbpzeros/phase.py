"""Correction terms of the phase-function expansion and their z-derivatives.

The zero condition puts zeta (1 + v), v = sum_k v_k eps^k in eps = u^-2, on
an Airy-zero level.  With C_0 = 1 and C_j from ``AIRY_PHASE`` it reads

    sum_{j>=0} C_j zeta^(-3j) (1 + v)^(3/2 - 3j) eps^j = 1 + beta,

beta's order k being 9 xi (E_{2k-1} + d_{2k-1}) / (4 zeta^3).  Order k is
linear in v_k with coefficient 3/2, and each power of 1 + v follows
J. C. P. Miller's recurrence, so one reversion gives every U_k = zeta v_k.
``phase_corrections`` returns them as jets in z, each only as long as the
derivative orders the tau cascade reads.

The expansion is uniform at the turning point (Olver 1974, ch. 11): no
zeta of the zero pipeline exceeds zeta_1 = a_1 u^(-2/3) < 0, and |zeta_1|
stays above 1e-8 up to u ~ 3.6e12, so the powers of 1/zeta need no guard.
"""

from __future__ import annotations

from math import isfinite
from typing import List

from .airy import AIRY_PHASE
from .errors import ZetaVanishes
from .jets import Jet, JetOps
from .lg_coeffs import LgTable
from .mapping import MapState

_PHASE = tuple(float(c) for c in AIRY_PHASE)
# jet arithmetic of each length a correction jet can have
_OPS = {k: JetOps(k) for k in range(1, len(AIRY_PHASE) + 1)}


def _power_order(J: JetOps, p: float, v: List[Jet], g: List[Jet],
                 m: int) -> Jet:
    """Order m of g = (1 + v)^p by Miller's recurrence,
    m g_m = sum_{i=1}^{m} ((p + 1) i - m) v_i g_{m-i}, where g_0 = 1."""
    acc = J.scale(v[m][:J.order], p)
    for i in range(1, m):
        acc = J.add(acc, J.scale(J.mul(v[i], g[m - i]), ((p + 1) * i - m) / m))
    return acc


def phase_corrections(lg: LgTable, state: MapState,
                      terms: int = len(AIRY_PHASE) + 1) -> List[Jet]:
    """Jets [U1, ..., U_{terms-1}] at ``state.z``; U_s multiplies u^{-2s}.

    U_s holds terms - s coefficients, the derivative orders the tau cascade
    of a ``terms``-term expansion reads from it: at terms = 5, U1 to order
    3 and U4 its value alone.  A jet product never lets a coefficient
    depend on higher ones, so the coefficients kept are the same as in
    full-length jets.  ``terms`` is 2 .. len(AIRY_PHASE) + 1.  Raises
    ZetaVanishes where a coefficient overflows, at |zeta| far below any
    zero's.
    """
    zeta_j = state.zeta
    J = _OPS[terms - 1]
    zinv = J.div(J.const(1.0), zeta_j)
    # zeta^(-3j) from j = 1, first read at order j, so to length terms - j
    cubes = [J.mul(J.mul(zinv, zinv), zinv)]
    for j in range(2, terms):
        cubes.append(_OPS[terms - j].mul(cubes[-1], cubes[0]))
    cz = [[], *(J.scale(w, c) for w, c in zip(cubes, _PHASE))]  # C_j zeta^-3j
    beta_factor = J.scale(J.mul(state.xi, cubes[0]), 2.25)
    v: List[Jet] = [[]]  # v[k], from k = 1
    # g[j][m], m >= 1: order m of (1 + v)^(3/2 - 3j); order k reads m <= k - j
    g: List[List[Jet]] = [[[]] for _ in range(terms - 1)]
    ups = []
    for k in range(1, terms):
        J = _OPS[terms - k]
        v.append(J.const(0.0))  # v_k = 0 till solved: order k less 3/2 v_k
        g[0].append(_power_order(J, 1.5, v, g[0], k))
        known = J.add(g[0][k], cz[k])
        for j in range(1, k):
            g[j].append(_power_order(J, 1.5 - 3 * j, v, g[j], k - j))
            known = J.add(known, J.mul(cz[j], g[j][k - j]))
        s = 2 * k - 1  # beta's order k is beta_factor (E_s + d_s)
        Ed = J.add(lg.E[s].evaluate_jet(state.sin, state.cos, J),
                   J.const(lg.d_const[s]))
        v[k] = J.scale(J.sub(J.mul(beta_factor, Ed), known), 2.0 / 3.0)
        g[0][k] = J.add(g[0][k], J.scale(v[k], 1.5))
        ups.append(J.mul(zeta_j, v[k]))

    if not all(isfinite(c.real) and isfinite(c.imag)
               for jet in ups for c in jet):
        raise ZetaVanishes(f"non-finite correction coefficient at z={state.z}")
    return ups
