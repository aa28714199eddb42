"""Negative zeros of the Airy function Ai, ordered by |value|.

a_m = -T(t), t = 3 pi (4m - 1) / 8, with T(t) ~ t^(2/3) (1 + 5/48 t^-2 - ...),
DLMF 9.9.6 and 9.9.18: six terms leave 4.1e-19 relative at m = 17 and less
beyond, and the zeros below are tabulated; either way a_m is the nearest double.

``AIRY_PHASE`` holds C_1, C_2, ... of the Airy phase (2/3) x^(3/2) (1 + sum_k
C_k x^(-3k)), DLMF 9.8(iv), one per term of the zero expansion after tau_0.
They and T's coefficients are computed exactly from the a_s recurrence.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from .errors import NonpositiveIndex

EXPANSION_TERMS = 5  # tau_0 and one term per C_k: the order, stated here alone

# a_1 .. a_16 rounded from mpmath.airyaizero at 50 digits
_TABLE = (
    -2.338107410459767, -4.08794944413097, -5.520559828095551,
    -6.786708090071759, -7.944133587120853, -9.02265085334098,
    -10.040174341558085, -11.008524303733262, -11.936015563236262,
    -12.828776752865757, -13.691489035210719, -14.527829951775335,
    -15.340755135977997, -16.132685156945772, -16.90563399742994,
    -17.66130010569706,
)


def _airy_phase(count: int) -> tuple:
    """C_1 .. C_count: C_k = (3/2)^(s+1) a_s / s with s = 2k - 1, where
    a_1 = a_2 = 5/72, a_{k+1} = (k+1)/2 a_k + 1/2 sum_{0<j<k} a_j a_{k-j}."""
    a = [None, Fraction(5, 72), Fraction(5, 72)]
    for k in range(2, 2 * count - 1):
        a.append(((k + 1) * a[k] + sum(a[j] * a[k - j] for j in range(1, k))) / 2)
    return tuple(Fraction(3, 2) ** (s + 1) * a[s] / s for s in range(1, 2 * count, 2))


def _zero_series(count: int) -> tuple:
    """b_1 .. b_count of T = t^(2/3) (1 + w), w = sum_k b_k t^(-2k), reverting
    sum_j (-1)^j C_j t^(-2j) (1 + w)^(3/2 - 3j) = 1 as ``phase.py`` does."""
    C = (1, *((-1) ** k * c for k, c in enumerate(_airy_phase(count), 1)))
    w, g = [0] * (count + 1), [[1] for _ in range(count + 1)]
    for k in range(1, count + 1):
        for j, gj in enumerate(g[:k]):  # with w_k = 0, g[0][k] lacks 3/2 w_k
            q, m = Fraction(5, 2) - 3 * j, k - j  # q = p + 1
            gj.append(sum((q * i - m) * w[i] * gj[m - i] for i in range(1, m + 1)) / m)
        w[k] = -Fraction(2, 3) * sum(C[j] * g[j][k - j] for j in range(k + 1))
        g[0][k] += Fraction(3, 2) * w[k]
    return tuple(w[1:])


AIRY_PHASE = _airy_phase(EXPANSION_TERMS - 1)


@functools.cache
def _series():
    """A private mpmath context at 24 digits, so that no call switches the
    precision of mpmath's global one, and b_1 .. b_5 (T to six terms)."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = 24
    return ctx, tuple(float(b) for b in _zero_series(5))


@functools.lru_cache(maxsize=None)
def airy_zero(m: int) -> float:
    """m-th negative zero of Ai, the nearest double; m integral, not bool."""
    if isinstance(m, bool) or not hasattr(m, "__index__") or m < 1:
        raise NonpositiveIndex(f"Airy zero index must be an integer >= 1, got {m!r}")
    if m <= len(_TABLE):
        return _TABLE[m - 1]
    mp, (b1, b2, b3, b4, b5) = _series()
    # (8t)^2 and 4 t^(2/3) need more than a double; the correction S - 1 =
    # O(t^-2) does not, and the sum is rounded once
    c2 = (mp.pi * (12 * operator.index(m) - 3)) ** 2
    x = 64 / float(c2)
    s1 = x * (b1 + x * (b2 + x * (b3 + x * (b4 + x * b5))))
    c = mp.cbrt(c2)
    return -float(c + c * s1) / 4
