"""Correction terms of the phase-function expansion and their z-derivatives.

The zero condition equates a corrected Airy variable to an Airy-zero level;
the corrections enter as a series in inverse even powers of u whose first
four coefficients are assembled here from the E-coefficients, the odd
d-constants, and inverse powers of the Airy variable.  ``phase_corrections``
returns them as the jets [U1, U2, U3, U4] in z, so the derivative orders
needed downstream (3, 2, 1, 0 respectively) fall out of the same
computation.
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


def phase_corrections(lg: LgTable, state: MapState) -> List[Jet]:
    """Jets [U1, U2, U3, U4] at ``state.z``; U_s multiplies u^{-2s}."""
    zeta_j = state.zeta
    if abs(zeta_j[0]) < ZETA_TOL:
        raise ZetaVanishes(
            f"|zeta|={abs(zeta_j[0]):.3e} too small at z={state.z}")
    J = JetOps(len(zeta_j))
    zinv = J.div(J.const(1.0), zeta_j)
    zeta_pow = [J.const(1.0)]  # zeta_pow[p] = zeta^-p
    for _ in range(11):
        zeta_pow.append(J.mul(zeta_pow[-1], zinv))

    def odd_term(s_odd: int, tail: Fraction, tail_pow: int) -> Jet:
        """3 xi (E_s + d_s)/(2 zeta^2) minus the rational tail constant."""
        E = lg.E[s_odd].evaluate_jet(state.phi, state.sin, state.cos, J)
        base = J.mul(J.scale(J.mul(state.xi, J.add(
            E, J.const(lg.d_const[s_odd]))), 1.5), zeta_pow[2])
        return J.sub(base, J.scale(zeta_pow[tail_pow], float(tail)))

    c5_32, c25_128, c1105_2048, c175_768, c12155_8192, c414125_65536 = (
        float(f) for f in COUPLING_CONSTANTS)

    U1 = odd_term(1, TAIL_CONSTANTS[0], 2)
    U1sq = J.mul(U1, U1)
    U2 = J.add(
        J.add(J.scale(J.mul(U1sq, zeta_pow[1]), -0.25),
              J.scale(J.mul(U1, zeta_pow[3]), c5_32)),
        odd_term(3, TAIL_CONSTANTS[1], 5))
    U3 = J.const(0.0)
    for t in (J.scale(J.mul(J.mul(U1, U2), zeta_pow[1]), -0.5),
              J.scale(J.mul(J.mul(U1sq, U1), zeta_pow[2]), 1.0 / 24.0),
              J.scale(J.mul(U1sq, zeta_pow[4]), -c25_128),
              J.scale(J.mul(U2, zeta_pow[3]), c5_32),
              J.scale(J.mul(U1, zeta_pow[6]), c1105_2048),
              odd_term(5, TAIL_CONSTANTS[2], 8)):
        U3 = J.add(U3, t)
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
              odd_term(7, TAIL_CONSTANTS[3], 11)):
        U4 = J.add(U4, t)

    ups = [U1, U2, U3, U4]
    for jet in ups:
        for c in jet:
            if not (isfinite(c.real) and isfinite(c.imag)):
                raise ZetaVanishes(
                    f"non-finite correction coefficient at z={state.z}")
    return ups
