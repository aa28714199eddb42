"""Phase-expansion coefficient machinery.

Builds, per problem instance, E_s(phi) (a closed form for s = 1, a
differentiate/multiply/integrate recursion driven by the generator G(phi)
beyond it) and the odd turning-point constants d_s(alpha), from Bernoulli
numbers, for s to S_MAX, which ``airy.EXPANSION_TERMS`` sets.  Every
integrand of the recursion has zero mean over a period, so no power of phi
arises: the E_s are polynomials in sin(phi) and cos(phi).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List

from .airy import AIRY_PHASE
from .params import ProblemParams
from .trig_series import PhiSeries

S_MAX = 2 * len(AIRY_PHASE) - 1  # highest index consumed: U_k reads E_{2k-1}


@functools.cache
def _d_factor(s: int) -> Fraction:
    """c_s = -(1 - 2^-s) B_{s+1} / (2 s (s + 1)), B the Bernoulli numbers."""
    B = [Fraction(1)]
    for k in range(1, s + 2):
        B.append(-sum(comb(k + 1, j) * B[j] for j in range(k)) / (k + 1))
    return -(1 - Fraction(1, 2**s)) * B[s + 1] / (2 * s * (s + 1))


def const_d(al, s_odd: int):
    """Turning-point constant d_s(alpha) = c_s alpha sum_{j<s} C(s, j+1)
    alpha^j / (1+alpha)^s, odd s, DLMF 5.11.8; exact for a Fraction alpha."""
    if s_odd < 1 or s_odd % 2 == 0:
        raise ValueError(f"d-constant defined for odd s >= 1, got {s_odd}")
    c = _d_factor(s_odd)
    poly = sum(comb(s_odd, j + 1) * al**j for j in range(s_odd))
    return c.numerator * al * poly / (c.denominator * (1 + al)**s_odd)  # c_s unrounded


def coeff_G(params: ProblemParams) -> PhiSeries:
    """Generator series G = cos sin^2 / (2 sigma) - alpha sin^3 / (4(1+alpha))."""
    al, sg = params.alpha, params.sigma
    s = PhiSeries.sin()
    c = PhiSeries.cos()
    s2 = s * s
    return (c * s2).scale(1.0 / (2.0 * sg)) + (s2 * s).scale(-al / (4.0 * (1.0 + al)))


def _closed_form_E1(params: ProblemParams) -> PhiSeries:
    al, sg = params.alpha, params.sigma
    s, c, one = PhiSeries.sin(), PhiSeries.cos(), PhiSeries.one()
    c2 = c * c
    part1 = (s * (c2.scale(5.0) - one.scale(2.0))).scale(1.0 / (24.0 * sg))
    part2 = (c * (c2.scale(5.0) - one.scale(6.0)) + one).scale(al / (48.0 * (1.0 + al)))
    return part1 + part2


def coeff_E(params: ProblemParams, s_max: int) -> List[PhiSeries]:
    """Coefficients E_1..E_{s_max}, 1-indexed (index 0 unused).

    E_1 comes from its closed form; higher indices from the recursion
    E_{s+1} = G E_s' + int_0^phi G sum_j E_j' E_{s-j}' (s >= 1, the sum
    empty for s = 1), whose lower limit makes every E_s vanish at phi = 0.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    G = coeff_G(params)
    E: List[PhiSeries] = [PhiSeries.zero(), _closed_form_E1(params)]
    dE = [PhiSeries.zero(), E[1].differentiate()]
    for s in range(1, s_max):
        conv = PhiSeries.zero()
        for j in range(1, s):
            conv = conv + dE[j] * dE[s - j]
        nxt = G * dE[s] + (G * conv).integrate()
        E.append(nxt)
        dE.append(nxt.differentiate())
    return E


@dataclass(frozen=True)
class LgTable:
    """Per-(n, a) cache of everything the correction terms consume."""

    E: List[PhiSeries]            # 1-indexed, E[0] unused
    d_const: Dict[int, float]


def build_lg_table(params: ProblemParams) -> LgTable:
    return LgTable(E=coeff_E(params, S_MAX),
                   d_const={s: const_d(params.alpha, s)
                            for s in range(1, S_MAX + 1, 2)})
