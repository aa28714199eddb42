"""Direct polynomial evaluation and a brute-force zero oracle.

The polynomials are monic of degree n with coefficient
``binom(n, k) (n + a - 1)_k / 2^k`` on ``z^(n-k)``.  Coefficients grow like
n! so everything numeric here is carried as (mantissa, base-2 exponent)
pairs; ``math.frexp``/``math.ldexp`` keep the mantissas in a safe range up
to degrees of a few thousand.

The oracle deliberately avoids the asymptotic machinery: simultaneous
Aberth iteration in scaled double precision to locate all n roots at once,
then the same iteration with extended-precision evaluation, in which each
root is frozen as soon as its step is below the tolerance or its value is
rounding noise.  It returns only certified roots: each lies in a
Weierstrass inclusion disc (Carstensen 1991) of radius <= 1e-13 |z| that
meets no other, so the disc holds exactly one zero.  When the certificate
fails, the precision rises by 20 digits and the iteration resumes from the
current estimates, at most 3 times.  Plain monomial-basis companion solves
(e.g. numpy.roots) lose 8-9 digits on these coefficients and are not
accurate enough to serve as a reference.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Tuple

from .errors import InvalidDegree, OracleNoConvergence

ORACLE_TOL = 1e-13           # Aberth convergence (relative step)
ORACLE_MAX_ITERS = 100       # double-precision stage (limited by noise floor)
ORACLE_MP_MAX_ITERS = 80     # extended-precision stage, per precision
ORACLE_RESIDUAL_TOL = 1e-12  # relative residual contract per zero
ORACLE_RADIUS_TOL = 1e-13    # inclusion-disc radius, relative to |z|
ORACLE_DPS_STEP = 20         # digits added when a check fails ...
ORACLE_ESCALATIONS = 3       # ... at most this many times


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


def _aberth(est: list, p_and_dp, tol, max_iters: int,
            settled=None) -> None:
    """In-place simultaneous Aberth iteration on the estimates ``est``.

    ``p_and_dp(z)`` returns (p(z), p'(z)) in the arithmetic of ``est``;
    the repulsion sum is well-conditioned, so it is always formed in
    double precision, from ``dbl``, the estimates rounded to doubles.

    Without ``settled``, every root steps in every iteration until the
    largest relative step is <= ``tol``.  With it, a root that takes a
    step <= ``tol``, or a step from a z where ``settled(z, p(z))`` holds,
    is frozen: it steps no more but still repels the others, and the
    iteration ends when no root is live.
    """
    n = len(est)
    dbl = [complex(z) for z in est]
    live = range(n)
    for _ in range(max_iters):
        moving = []
        for i in live:
            zi = est[i]
            p, q = p_and_dp(zi)
            if p == 0:
                continue
            if q == 0:
                est[i] = zi + 1e-8 * (1 + abs(zi))
                dbl[i] = complex(est[i])
                moving.append(i)
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
            if abs(step) / (1 + abs(zi)) > tol and (
                    settled is None or not settled(zi, p)):
                moving.append(i)
        if not moving:
            break
        if settled is not None:
            live = moving


def _certify(coefs: list, sizes: list, est: list,
             noise) -> Tuple[List[complex], str, List[int]]:
    """Round the estimates to doubles and check them.

    Returns (roots, failure, bad): ``failure`` is "" when every root passes
    the residual check, the distinctness guard and the inclusion
    certificate, and otherwise names the first check that failed, with
    ``bad`` the indices it rejected.  ``sizes`` holds the |c_k|, and
    ``noise`` bounds the relative rounding error of one operation.
    """
    import mpmath as mp

    n = len(est)
    roots = [complex(z) for z in est]
    absp, scale = [], []
    for z in est:
        p = coefs[0]
        s = sizes[0]
        az = abs(z)
        for c, ac in zip(coefs[1:], sizes[1:]):
            p = p * z + c
            s = s * az + ac
        absp.append(abs(p))
        scale.append(s)
    bad = [i for i in range(n)
           if float(absp[i] / scale[i]) > ORACLE_RESIDUAL_TOL]
    if bad:
        return roots, (f"residual check: {len(bad)} roots above "
                       f"{ORACLE_RESIDUAL_TOL:g}"), bad
    # distinctness guard: two estimates collapsing onto one root would
    # still pass the residual check individually
    order = sorted(range(n), key=lambda i: (roots[i].real, roots[i].imag))
    bad = [order[k] for k in range(n - 1)
           if abs(roots[order[k + 1]] - roots[order[k]])
           < 1e-9 * (1.0 + abs(roots[order[k]]))]
    if bad:
        return roots, (f"distinctness check: {len(bad)} roots within 1e-9 "
                       f"of the next"), bad
    # Weierstrass inclusion discs (Carstensen 1991): for monic p, the discs
    # D(z_i, n |p(z_i)| / prod_{j != i} |z_i - z_j|) cover the zeros, and
    # one disjoint from the others holds exactly one.  |p(z_i)| is widened
    # by 2n * noise * s(|z_i|), a bound on its rounding error.  The product
    # is a sum of logs in doubles: it would overflow as a product.
    dist = [[abs(zi - zj) for zj in roots] for zi in roots]
    radius = []
    for i in range(n):
        logprod = sum(math.log(dist[i][j]) for j in range(n) if j != i)
        lognum = math.log(n) + float(mp.log(absp[i]
                                            + 2 * n * noise * scale[i]))
        radius.append(math.exp(min(lognum - logprod, 700.0)))
    ratio = [r / abs(z) for r, z in zip(radius, roots)]
    bad = {i for i in range(n) if ratio[i] > ORACLE_RADIUS_TOL}
    overlaps = [(i, j) for i in range(n) for j in range(i + 1, n)
                if dist[i][j] <= radius[i] + radius[j]]
    for pair in overlaps:
        bad.update(pair)
    if bad:
        return roots, (f"certificate radius: worst r/|z| = {max(ratio):.1e} "
                       f"(limit {ORACLE_RADIUS_TOL:g}), {len(overlaps)} "
                       f"overlapping disc pairs"), sorted(bad)
    return roots, "", []


def oracle_zeros(n: int, a: float) -> List[complex]:
    """All n zeros, sorted by decreasing imaginary part (ties by real part).

    Deterministic Aberth iteration from a circle of seeds around the
    centroid -(n + a - 1)/2: a fast double-precision stage to separate the
    estimates, then the same simultaneous iteration with extended-precision
    evaluation (the monomial basis loses roughly n/3 digits near the zero
    cluster), in which each root is frozen once its step is below the
    tolerance or |p(z)| is at the rounding floor 8n 10^-dps s(|z|), with
    s(|z|) = sum_k |c_k| |z|^(n-k).  The roots are returned only once they
    are certified: relative residual <= 1e-12, pairwise distinct, and
    Weierstrass inclusion discs of radius <= 1e-13 |z| that are pairwise
    disjoint, so each holds exactly one zero.  When a check fails, the
    precision rises by 20 digits and the iteration continues from the
    current estimates, up to 3 times; then OracleNoConvergence names the
    check.
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

    est = roots
    for attempt in range(ORACLE_ESCALATIONS + 1):
        dps = 30 + n // 2 + ORACLE_DPS_STEP * attempt
        with mp.workdps(dps):
            coefs = typed_coeffs(n, mp.mpf(a))
            sizes = [abs(c) for c in coefs]
            # mpmath carries about dps + 1 digits, so 10^-dps is an upper
            # bound on the rounding error of one operation
            noise = mp.mpf(10) ** (-dps)
            floor = 8 * n * noise
            est = [mp.mpc(z) for z in est]

            def at_floor(z, p):
                r = abs(z)
                s = sizes[0]
                for c in sizes[1:]:
                    s = s * r + c
                return abs(p) <= floor * s

            _aberth(est, lambda z: horner(coefs, z),
                    mp.mpf(10) ** (-(dps - 10)), ORACLE_MP_MAX_ITERS, at_floor)
            roots, failure, bad = _certify(coefs, sizes, est, noise)
        if not failure:
            roots.sort(key=lambda r: (-r.imag, r.real))
            return roots
    raise OracleNoConvergence(
        f"oracle failed its {failure} (n={n}, a={a}, final dps {dps})", bad)
