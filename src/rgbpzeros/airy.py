"""Negative zeros of the Airy function Ai, ordered by |value|.

a_m = -T(t) with t = 3 pi (4m - 1) / 8 and the large-t series
T(t) ~ t^(2/3) (1 + 5/48 t^-2 - 5/36 t^-4 + ...), DLMF 9.9.6 and 9.9.18.
Six terms of it leave a truncation error of 4.1e-19 relative at m = 17 and
less beyond; below that the zeros are tabulated.  Either way the value is
the double nearest to a_m.

``AIRY_PHASE`` holds C_1 .. C_4 of the Airy phase (2/3) x^(3/2) (1 + sum_k
C_k x^(-3k)), DLMF 9.8(iv); the zero expansion has a term per C_k after tau_0.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import NonpositiveIndex

AIRY_PHASE = (Fraction(5, 32), Fraction(1105, 6144), Fraction(82825, 65536),
              Fraction(1282031525, 58720256))

# a_1 .. a_16 rounded from mpmath.airyaizero at 50 digits
_TABLE = (
    -2.338107410459767, -4.08794944413097, -5.520559828095551,
    -6.786708090071759, -7.944133587120853, -9.02265085334098,
    -10.040174341558085, -11.008524303733262, -11.936015563236262,
    -12.828776752865757, -13.691489035210719, -14.527829951775335,
    -15.340755135977997, -16.132685156945772, -16.90563399742994,
    -17.66130010569706,
)


@functools.cache
def _mp24():
    """A private mpmath context at 24 digits, so that no call switches the
    precision of mpmath's global one."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = 24
    return ctx


@functools.lru_cache(maxsize=None)
def airy_zero(m: int) -> float:
    """m-th negative zero of Ai, the nearest double."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise NonpositiveIndex(f"Airy zero index must be >= 1, got {m!r}")
    if m <= len(_TABLE):
        return _TABLE[m - 1]
    mp = _mp24()
    # (8t)^2 and 4 t^(2/3) need more than a double; the correction S - 1 =
    # O(t^-2) does not, and the sum is rounded once
    c2 = (mp.pi * (12 * m - 3)) ** 2
    x = 64 / float(c2)
    s1 = x * (5 / 48 + x * (-5 / 36 + x * (77125 / 82944 + x * (
        -108056875 / 6967296 + x * (162375596875 / 334430208)))))
    c = mp.cbrt(c2)
    return -float(c + c * s1) / 4
