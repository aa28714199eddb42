"""Correction terms of the phase-function expansion and their z-derivatives.

The zero condition equates a corrected Airy variable to an Airy-zero level;
the corrections enter as a series in inverse even powers of u whose first
four coefficients are assembled here from the E-coefficients, the odd
d-constants, and inverse powers of the Airy variable.  ``phase_corrections``
returns them as the jets [U1, U2, U3, U4] in z, each only as long as the
derivative orders needed downstream (3, 2, 1, 0 respectively), so those
derivatives fall out of the same computation and no more.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite
from typing import List

from .errors import ZetaVanishes
from .jets import Jet, JetOps
from .lg_coeffs import LgTable
from .mapping import MapState

ZETA_TOL = 1e-8

# Exact rational constants of the four correction coefficients.  The tails
# are the a_s sequence folded in through xi^2 = (4/9) zeta^3; the tests
# check that identity in exact rationals.
TAIL_CONSTANTS = (Fraction(5, 48), Fraction(1105, 9216),
                  Fraction(82825, 98304), Fraction(1282031525, 88080384))
COUPLING_CONSTANTS = (Fraction(5, 32), Fraction(25, 128), Fraction(1105, 2048),
                      Fraction(175, 768), Fraction(12155, 8192),
                      Fraction(414125, 65536))
# the same constants as the floats the corrections multiply by
_TAILS = tuple(float(f) for f in TAIL_CONSTANTS)
_COUPLINGS = tuple(float(f) for f in COUPLING_CONSTANTS)
# jet arithmetic of each length a correction jet can have
_OPS = {k: JetOps(k) for k in range(1, 5)}


def phase_corrections(lg: LgTable, state: MapState,
                      terms: int = 5) -> List[Jet]:
    """Jets [U1, ..., U_{terms-1}] at ``state.z``; U_s multiplies u^{-2s}.

    U_s holds terms - s coefficients, the derivative orders the tau cascade
    of a ``terms``-term expansion reads from it: at terms = 5, U1 to order
    3 and U4 its value alone.  A jet product never lets a coefficient
    depend on higher ones, so the coefficients kept are the same as in
    full-length jets.  ``terms`` is 2..5.
    """
    zeta_j = state.zeta
    if abs(zeta_j[0]) < ZETA_TOL:
        raise ZetaVanishes(
            f"|zeta|={abs(zeta_j[0]):.3e} too small at z={state.z}")
    J = _OPS[terms - 1]
    zinv = J.div(J.const(1.0), zeta_j)
    # zeta_pow[p] = zeta^-p; U_s reads p <= 3s - 1, so zeta^-p is needed
    # to the length of the first U_s that reads it
    zeta_pow = [J.const(1.0)]
    for p in range(1, 3 * terms - 3):
        zeta_pow.append(_OPS[terms - (p + 3) // 3].mul(zeta_pow[-1], zinv))

    def odd_term(J: JetOps, s_odd: int, tail: float, tail_pow: int) -> Jet:
        """3 xi (E_s + d_s)/(2 zeta^2) minus the rational tail constant."""
        E = lg.E[s_odd].evaluate_jet(state.phi, state.sin, state.cos, J)
        base = J.mul(J.scale(J.mul(state.xi, J.add(
            E, J.const(lg.d_const[s_odd]))), 1.5), zeta_pow[2])
        return J.sub(base, J.scale(zeta_pow[tail_pow], tail))

    c5_32, c25_128, c1105_2048, c175_768, c12155_8192, c414125_65536 = (
        _COUPLINGS)

    U1 = odd_term(J, 1, _TAILS[0], 2)
    ups = [U1]
    if terms > 2:
        J = _OPS[terms - 2]
        U1sq = J.mul(U1, U1)
        U2 = J.add(
            J.add(J.scale(J.mul(U1sq, zeta_pow[1]), -0.25),
                  J.scale(J.mul(U1, zeta_pow[3]), c5_32)),
            odd_term(J, 3, _TAILS[1], 5))
        ups.append(U2)
    if terms > 3:
        J = _OPS[terms - 3]
        U3 = J.const(0.0)
        for t in (J.scale(J.mul(J.mul(U1, U2), zeta_pow[1]), -0.5),
                  J.scale(J.mul(J.mul(U1sq, U1), zeta_pow[2]), 1.0 / 24.0),
                  J.scale(J.mul(U1sq, zeta_pow[4]), -c25_128),
                  J.scale(J.mul(U2, zeta_pow[3]), c5_32),
                  J.scale(J.mul(U1, zeta_pow[6]), c1105_2048),
                  odd_term(J, 5, _TAILS[2], 8)):
            U3 = J.add(U3, t)
        ups.append(U3)
    if terms > 4:
        J = _OPS[terms - 4]
        U4 = J.const(0.0)
        for t in (J.scale(J.mul(J.mul(U1sq, U1sq), zeta_pow[3]), -1.0 / 64.0),
                  J.scale(J.mul(J.mul(U1sq, U2), zeta_pow[2]), 1.0 / 8.0),
                  J.scale(J.mul(J.mul(U1sq, U1), zeta_pow[5]), c175_768),
                  J.scale(J.mul(J.mul(U1, U3), zeta_pow[1]), -0.5),
                  J.scale(J.mul(J.mul(U1, U2), zeta_pow[4]), -25.0 / 64.0),
                  J.scale(J.mul(J.mul(U2, U2), zeta_pow[1]), -0.25),
                  J.scale(J.mul(U1sq, zeta_pow[7]), -c12155_8192),
                  J.scale(J.mul(U3, zeta_pow[3]), c5_32),
                  J.scale(J.mul(U2, zeta_pow[6]), c1105_2048),
                  J.scale(J.mul(U1, zeta_pow[9]), c414125_65536),
                  odd_term(J, 7, _TAILS[3], 11)):
            U4 = J.add(U4, t)
        ups.append(U4)

    for jet in ups:
        for c in jet:
            if not (isfinite(c.real) and isfinite(c.imag)):
                raise ZetaVanishes(
                    f"non-finite correction coefficient at z={state.z}")
    return ups
