"""Direct polynomial evaluation and a brute-force zero oracle.

The polynomials are monic of degree n with coefficient
``binom(n, k) (n + a - 1)_k / 2^k`` on ``z^(n-k)``.  Coefficients grow like
n! so everything numeric here is carried as (mantissa, base-2 exponent)
pairs; ``math.frexp``/``math.ldexp`` keep the mantissas in a safe range up
to degrees of a few thousand.

The oracle deliberately avoids the asymptotic machinery: simultaneous
Aberth iteration in scaled double precision to locate all n roots at once,
then the same iteration with extended-precision evaluation.  Plain
monomial-basis companion solves (e.g. numpy.roots) lose 8-9 digits on
these coefficients and are not accurate enough to serve as a reference.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Tuple

from .errors import InvalidDegree, OracleNoConvergence

ORACLE_TOL = 1e-13           # Aberth convergence (relative step)
ORACLE_MAX_ITERS = 100       # double-precision stage (limited by noise floor)
ORACLE_MP_MAX_ITERS = 80     # extended-precision stage
ORACLE_RESIDUAL_TOL = 1e-12  # relative residual contract per zero


def _check_degree(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidDegree(f"degree must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class PolyCoeffs:
    """Scaled coefficients, highest degree first (monic leading term)."""

    n: int
    a: float
    mant: Tuple[float, ...]   # coefficient of z^(n-k) is mant[k] * 2^exp2[k]
    exp2: Tuple[int, ...]


def poly_coeffs(n: int, a: float) -> PolyCoeffs:
    """All coefficients via the stable product recurrence
    c_{k+1} = c_k * (n-k)/(k+1) * (n+a-1+k)/2."""
    _check_degree(n)
    a = float(a)
    mant = [1.0]
    exp2 = [0]
    c, e = 1.0, 0
    for k in range(n):
        c *= (n - k) / (k + 1) * (n + a - 1 + k) / 2.0
        m, sh = math.frexp(c)
        c = m
        e += sh
        mant.append(c)
        exp2.append(e)
    return PolyCoeffs(n=n, a=a, mant=tuple(mant), exp2=tuple(exp2))


def typed_coeffs(n: int, a) -> list:
    """All coefficients, highest degree first, by the same recurrence as
    poly_coeffs but in the arithmetic of ``a``: exact for a Fraction, at
    the working precision for an mpmath mpf."""
    out = [type(a)(1)]
    c = out[0]
    for k in range(n):
        c = c * (n - k) / (k + 1) * (n + a - 1 + k) / 2
        out.append(c)
    return out


def theta_with_derivative(n: int, a: float, z: complex,
                          coeffs: PolyCoeffs = None):
    """Scaled Horner for the value and derivative on one shared exponent.

    Returns (p, q, e) with theta = p * 2^e and theta' = q * 2^e.
    """
    if coeffs is None:
        coeffs = poly_coeffs(n, a)
    z = complex(z)
    mant, exp2 = coeffs.mant, coeffs.exp2
    p = complex(mant[0])
    q = 0j
    e = exp2[0]
    for k in range(1, n + 1):
        q = q * z + p
        p = p * z + math.ldexp(mant[k], exp2[k] - e)
        m = abs(p) + abs(q)
        if m > 1e100 or (m != 0.0 and m < 1e-100):
            _, sh = math.frexp(m)
            p = math.ldexp(1.0, -sh) * p
            q = math.ldexp(1.0, -sh) * q
            e += sh
    return p, q, e


def relative_residual(coeffs: PolyCoeffs, z: complex) -> float:
    """|p(z)| / sum_k |c_k| |z|^(n-k), both on the shared scaling."""
    z = complex(z)
    n = coeffs.n
    p = complex(coeffs.mant[0])
    s = abs(coeffs.mant[0])
    e = coeffs.exp2[0]
    az = abs(z)
    for k in range(1, n + 1):
        c = math.ldexp(coeffs.mant[k], coeffs.exp2[k] - e)
        p = p * z + c
        s = s * az + abs(c)
        m = abs(p) + s
        if m > 1e100 or (m != 0.0 and m < 1e-100):
            _, sh = math.frexp(m)
            p = math.ldexp(1.0, -sh) * p
            s = math.ldexp(s, -sh)
            e += sh
    return abs(p) / s if s else abs(p)


def horner(coefs: list, z):
    """(p(z), p'(z)) for unscaled coefficients, highest degree first, in
    the arithmetic of ``coefs`` and ``z``."""
    p = coefs[0]
    q = 0 * p
    for c in coefs[1:]:
        q = q * z + p
        p = p * z + c
    return p, q


def _aberth(est: list, p_and_dp, tol, max_iters: int) -> None:
    """In-place simultaneous Aberth iteration on the estimates ``est``.

    ``p_and_dp(z)`` returns (p(z), p'(z)) in the arithmetic of ``est``;
    the repulsion sum is well-conditioned, so it is always formed in
    double precision, from ``dbl``, the estimates rounded to doubles.
    """
    n = len(est)
    dbl = [complex(z) for z in est]
    for _ in range(max_iters):
        worst = 0.0
        for i in range(n):
            zi = est[i]
            p, q = p_and_dp(zi)
            if p == 0:
                continue
            if q == 0:
                est[i] = zi + 1e-8 * (1 + abs(zi))
                dbl[i] = complex(est[i])
                worst = 1.0
                continue
            newton = p / q
            zid = dbl[i]
            s = 0j
            for j in range(n):
                if j != i:
                    d = zid - dbl[j]
                    if d == 0:
                        d = 1e-14 * (1 + abs(zid))
                    s += 1.0 / d
            denom = 1 - newton * s
            step = newton / denom if denom != 0 else newton
            est[i] = zi - step
            dbl[i] = complex(est[i])
            rel = abs(step) / (1 + abs(zi))
            if rel > worst:
                worst = rel
        if worst <= tol:
            break


def oracle_zeros(n: int, a: float) -> List[complex]:
    """All n zeros, sorted by decreasing imaginary part (ties by real part).

    Deterministic Aberth iteration from a circle of seeds around the
    centroid -(n + a - 1)/2: a fast double-precision stage to separate the
    estimates, then the same simultaneous iteration with extended-precision
    evaluation (the monomial basis loses roughly n/3 digits near the zero
    cluster), and a per-root residual check.
    """
    coeffs = poly_coeffs(n, a)
    center = -(n + a - 1.0) / 2.0
    radius = max(abs(center), 1.0)
    roots = [center + radius * cmath.exp(2j * math.pi * (k + 0.25) / n
                                         + 0.3j / n)
             for k in range(n)]
    # monomial-basis noise limits this stage (for n around 50 the positions
    # can still be off by O(10)); its job is only to spread the estimates
    # into distinct basins
    _aberth(roots, lambda z: theta_with_derivative(n, a, z, coeffs)[:2],
            ORACLE_TOL, ORACLE_MAX_ITERS)

    import mpmath as mp

    dps = 30 + n // 2
    bad = []
    with mp.workdps(dps):
        coefs = typed_coeffs(n, mp.mpf(a))
        est = [mp.mpc(r) for r in roots]
        _aberth(est, lambda z: horner(coefs, z), mp.mpf(10) ** (-(dps - 10)),
                ORACLE_MP_MAX_ITERS)
        for i in range(n):
            z = est[i]
            roots[i] = complex(z)
            p = coefs[0]
            s = abs(coefs[0])
            az = abs(z)
            for c in coefs[1:]:
                p = p * z + c
                s = s * az + abs(c)
            if float(abs(p) / s) > ORACLE_RESIDUAL_TOL:
                bad.append(i)
    if not bad:
        # distinctness guard: two estimates collapsing onto one root would
        # still pass the residual check individually
        srt = sorted(roots, key=lambda r: (r.real, r.imag))
        for i in range(n - 1):
            if abs(srt[i + 1] - srt[i]) < 1e-9 * (1.0 + abs(srt[i])):
                bad.append(i)
    if bad:
        raise OracleNoConvergence(
            f"oracle failed the residual/distinctness check for {len(bad)} "
            f"roots (n={n}, a={a})", bad)
    roots.sort(key=lambda r: (-r.imag, r.real))
    return roots

