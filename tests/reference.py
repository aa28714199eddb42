"""Independent references that only the tests use.

None of these is on a production path: a second evaluation route for the
polynomial, the normalized ODE solution built from it, the map at points
on either side of its branch cut and the angle phi there, the closed form
of the second phase coefficient E_2, the coefficient recursion in exact
rationals with the means it drops, a term-by-term evaluation of a
phi-series on jets, the exact a_s sequence the phase tails fold in, the
extended-precision remainder of the d-constant expansion, and the
oracle's upper-half zeros on the grids where the rows' error estimates
are checked.
"""

import cmath
import functools
import math
from fractions import Fraction

from rgbpzeros.errors import ZeroArgument
from rgbpzeros.lg_coeffs import const_d
from rgbpzeros.mapping import left_Z, map_point, xi_closed_form
from rgbpzeros.polynomials import oracle_zeros, theta_with_derivative
from rgbpzeros.trig_series import PhiSeries


def theta_laguerre(n, a, z):
    """Scaled value (m, e), theta = m * 2^e, through the Laguerre
    three-term recurrence with parameter 1 - 2n - a at argument 2z, times
    (-1/2)^n n!."""
    al = 1.0 - 2.0 * n - a
    x = 2.0 * complex(z)
    # L_0 = 1, L_1 = 1 + alpha - x; then
    # (k+1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1}
    lm, lc = 1.0 + 0j, 1.0 + al - x
    e = 0
    for k in range(1, n):
        ln = ((2 * k + 1 + al - x) * lc - (k + al) * lm) / (k + 1)
        lm, lc = lc, ln
        m = abs(lc) + abs(lm)
        if m > 1e100 or (m != 0.0 and m < 1e-100):
            _, sh = math.frexp(m)
            lc = math.ldexp(1.0, -sh) * lc
            lm = math.ldexp(1.0, -sh) * lm
            e += sh
    # multiply by (-1/2)^n n! in scaled form
    fac_m, fac_e = 1.0, -n
    for j in range(2, n + 1):
        fac_m *= j
        m, sh = math.frexp(fac_m)
        fac_m = m
        fac_e += sh
    if n % 2:
        fac_m = -fac_m
    return lc * fac_m, e + fac_e


def w0_derivable(n, a, z):
    """Solution z^(1 - n - a/2) exp(-z) theta_n(z; a) of the second-order
    equation, and its derivative; raises ZeroArgument at z = 0."""
    z = complex(z)
    if z == 0:
        raise ZeroArgument("w0 has a branch point at the origin")
    p, q, e = theta_with_derivative(n, a, z)
    pref = cmath.exp((1.0 - n - 0.5 * a) * cmath.log(z) - z + e * math.log(2.0))
    w = pref * p
    dw = pref * (q + p * ((1.0 - n - 0.5 * a) / z - 1.0))
    return w, dw


# half-width of the band around the approximate cut where no side is chosen
CUT_TOL = 1e-8


class CutProximity(Exception):
    """A point lies within CUT_TOL of the approximate branch cut."""


def branch_sign(params, z):
    """+1 right of the cut, -1 left; raises CutProximity near the cut.

    The cut joins the origin to the upper turning point; it is taken here
    as the vertical segment Re(z + alpha/2) = 0, 0 <= Im z <= sigma, which
    is exact for alpha = 0 only.
    """
    al, sg = params.alpha, params.sigma
    x = z.real + 0.5 * al
    y = z.imag
    if (abs(x) <= CUT_TOL * (1.0 + sg)
            and -CUT_TOL <= y <= sg * (1.0 + CUT_TOL)):
        raise CutProximity(f"z={z} lies within tolerance of the branch cut")
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 1  # on the ray above the turning point both sides agree


def big_Z(params, z):
    """Branch-resolved square root of (z - z1)(z - z2) on the side of the
    cut that ``branch_sign`` picks."""
    z = complex(z)
    if z.imag < -CUT_TOL:
        raise ValueError("big_Z is defined on the closed upper half-plane")
    if z == 0:
        raise ZeroArgument("Z is undefined at the origin")
    Z = left_Z(params, z)
    return Z if branch_sign(params, z) < 0 else -Z


def xi_either_side(params, z, Z, sign):
    """Closed-form LG phase xi with principal logarithms on the side
    ``sign`` of the cut: the direct form right of it, the package's
    left-branch form left of it."""
    if sign < 0:
        return xi_closed_form(params, z, Z)
    al = params.alpha
    denom = 4.0 * Z + 2.0 * al * (Z + z + 2.0) + 4.0 + al * al
    xi = (Z - (1.0 + 0.5 * al) * cmath.log(denom / z)
          + 0.5 * al * cmath.log(2.0 * Z + 2.0 * z + al))
    return (xi + 0.5 * cmath.log(1.0 + al) + (2.0 + 0.5 * al) * math.log(2.0)
            - 0.5 * (1.0 + al) * math.pi * 1j)


def zeta_from_xi(xi, sign):
    """Airy variable with (2/3) zeta^(3/2) = xi on the side ``sign``."""
    ln = cmath.log(1.5 * xi)
    if sign < 0 and ln.imag < 0:
        # left of the cut xi is in the lower half; zeta sits near the
        # negative real axis, reached by the shifted branch of the 2/3 power
        ln += 2j * math.pi
    return cmath.exp((2.0 / 3.0) * ln)


def map_anywhere(params, z):
    """``map_point`` at any z of the upper half-plane off the cut: the side
    from ``branch_sign``, then Z, the closed-form xi and zeta on it."""
    z = complex(z)
    Z = big_Z(params, z)
    sign = branch_sign(params, z)
    xi = xi_either_side(params, z, Z, sign)
    return map_point(params, z, Z, xi, zeta_from_xi(xi, sign))


def map_phi(params, state):
    """The angle phi at a mapped point, from exp(i phi) = cos + i sin, and
    its z-derivative -sin^2/sigma."""
    s, c = state.sin[0], state.cos[0]
    return -1j * cmath.log(c + 1j * s), -s * s / params.sigma


def closed_form_E2(params):
    """E_2(phi) in closed form; the recursion builds it as G E_1'."""
    al = params.alpha
    s, c, one = PhiSeries.sin(), PhiSeries.cos(), PhiSeries.one()
    s2, c2 = s * s, c * c
    part1 = (c * s2 * s * (one.scale(3.0) - c2.scale(5.0))).scale(
        al / (16.0 * (1.0 + al) ** 1.5))
    poly = (c2 * c2).scale(5.0 * (4.0 - al * al + 4.0 * al)) \
        + c2.scale(7.0 * al * al - 16.0 * al - 16.0) \
        + one.scale(-2.0 * al * al)
    part2 = (s2 * poly).scale(1.0 / (64.0 * (1.0 + al) ** 2))
    return part1 + part2


def series_mean(series):
    """Mean of a phi-series over a period: sin^m averages to
    (m-1)!!/m!! = C(m, m/2)/2^m for even m; every other term to 0."""
    return sum(c * Fraction(math.comb(m, m // 2), 2 ** m)
               for (m, n), c in series.terms.items() if n == 0 and m % 2 == 0)


def exact_integrate(series):
    """The antiderivative F, with F(0) = 0, of ``series`` less its mean,
    exact on Fraction coefficients.

    sin^k cos integrates to sin^(k+1)/(k+1); sin^k by the reduction
    int sin^k = -sin^(k-1) cos/k + (k-1)/k int sin^(k-2), down to int sin,
    or to int 1, whose integrand is sin^k's share of the mean.
    """
    terms = {}

    def add(t, c):
        terms[t] = terms.get(t, 0) + c

    for (m, n), c in series.terms.items():
        if n == 1:
            add((m + 1, 0), c / (m + 1))
            continue
        while m >= 2:
            add((m - 1, 1), -c / m)
            c = c * (m - 1) / m
            m -= 2
        if m == 1:
            add((0, 1), -c)
    F = PhiSeries(terms)
    at_zero = sum(c for (m, n), c in F.terms.items() if m == 0)
    return F - PhiSeries({(0, 0): at_zero})


def exact_G_E1(sigma):
    """G and E_1 of ``lg_coeffs`` at a rational sigma, alpha = sigma^2 - 1,
    in Fractions."""
    al = sigma * sigma - 1
    s, c = PhiSeries({(1, 0): Fraction(1)}), PhiSeries({(0, 1): Fraction(1)})
    one, c2 = PhiSeries({(0, 0): Fraction(1)}), c * c
    G = (c * s * s).scale(1 / (2 * sigma)) \
        + (s * s * s).scale(-al / (4 * (1 + al)))
    E1 = (s * (c2.scale(5) - one.scale(2))).scale(1 / (24 * sigma)) \
        + (c * (c2.scale(5) - one.scale(6)) + one).scale(al / (48 * (1 + al)))
    return G, E1


def exact_E_recursion(sigma, s_max):
    """E_1 .. E_{s_max} (1-indexed) by ``coeff_E``'s recursion in exact
    rationals, and the mean of each integrand G sum_j E_j' E_{s-j}' that
    the recursion integrates, s = 2 .. s_max - 1."""
    G, E1 = exact_G_E1(sigma)
    E, dE, means = [None, E1], [None, E1.differentiate()], []
    for s in range(1, s_max):
        conv = PhiSeries()
        for j in range(1, s):
            conv = conv + dE[j] * dE[s - j]
        if s > 1:
            means.append(series_mean(G * conv))
        E.append(G * dE[s] + exact_integrate(G * conv))
        dE.append(E[-1].differentiate())
    return E, means


def monomial_jets(series, sin_jet, cos_jet, jet_ops):
    """The jet of each monomial of ``series``, raised from its constant by
    one jet product per factor of sin and cos; their sum is what
    ``PhiSeries.evaluate_jet`` computes by Horner in sin."""
    out = []
    for (m, n), coeff in series.terms.items():
        term = jet_ops.const(coeff)
        for _ in range(m):
            term = jet_ops.mul(term, sin_jet)
        for _ in range(n):
            term = jet_ops.mul(term, cos_jet)
        out.append(term)
    return out


def const_d_branches(al, s_odd):
    """d_1 .. d_7 as transcribed by hand, one branch each, the reference
    for the package's Bernoulli form of const_d."""
    op = 1 + al
    if s_odd == 1:
        return -al / (48 * op)
    if s_odd == 3:
        return 7 * al * (3 + 3 * al + al * al) / (5760 * op**3)
    if s_odd == 5:
        return (-31 * al * (5 + 10 * al + 10 * al**2 + 5 * al**3 + al**4)
                / (80640 * op**5))
    if s_odd == 7:
        return (127 * al * (7 + 21 * al + 35 * al**2 + 35 * al**3
                            + 21 * al**4 + 7 * al**5 + al**6)
                / (430080 * op**7))
    raise ValueError(f"d-constant transcribed for s in {{1,3,5,7}}, got {s_odd}")


@functools.lru_cache(maxsize=None)
def const_a(s):
    """Exact rational a_s: a1 = a2 = 5/72, then
    a_{k+1} = (k+1)/2 a_k + (1/2) sum_{j=1}^{k-1} a_j a_{k-j}."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if s <= 2:
        return Fraction(5, 72)
    k = s - 1
    total = Fraction(k + 1, 2) * const_a(k)
    for j in range(1, k):
        total += Fraction(1, 2) * const_a(j) * const_a(k - j)
    return total


def _mp_fraction(mp, f):
    return mp.mpf(f.numerator) / mp.mpf(f.denominator)


def d_expansion_error(alpha, u, s_terms=4, dps=60):
    """|lhs - sum_{s<s_terms} d_{2s+1}/u^{2s+1}| in extended precision,
    where lhs is the log-gamma ratio whose large-u expansion has the
    d-constants as coefficients.

    The residual after four terms sits far below double rounding of the
    lhs itself, so the subtraction cannot be done in floats.
    """
    import mpmath as mp

    with mp.workdps(dps):
        ua = mp.mpf(u)
        al = mp.mpf(alpha)
        lhs = (ua * al * (mp.log(ua) - 1) + ua * (1 + al) * mp.log(1 + al)
               + mp.loggamma(ua + mp.mpf(1) / 2)
               - mp.loggamma(ua + ua * al + mp.mpf(1) / 2)) / 2
        alf = Fraction(alpha)  # binary floats are exact rationals
        partial = mp.fsum(_mp_fraction(mp, const_d(alf, 2 * s + 1))
                          / ua ** (2 * s + 1)
                          for s in range(s_terms))
        return float(abs(lhs - partial))


def _in_window(n, a):
    return -0.9 * n + 1.5 <= a <= 10.0 * n


# criterion 4's grid, and a grid in alpha = (a - 2)/(n + 1/2) down to the
# lower edge of the window, where the expansion is least accurate and the
# sweep stalls
ERR_EST_GRID = sorted(
    {(n, a) for n in (2, 5, 8, 15, 30, 50)
     for a in (1.01, 1.2, 2.3, 20.2, 30.7, -0.4 * n + 1.5) if _in_window(n, a)}
    | {(n, 2.0 + alpha * (n + 0.5)) for n in (8, 11, 16, 23, 31, 45, 60)
       for alpha in (-0.9, -0.88, -0.84, -0.6, -0.3, 0.0, 1.0, 3.0, 6.0, 9.9)
       if _in_window(n, 2.0 + alpha * (n + 0.5))})


@functools.lru_cache(maxsize=None)
def upper_oracle_zeros(n, a):
    """The oracle's zeros in the closed upper half-plane, computed once per
    test session."""
    return tuple(z for z in oracle_zeros(n, a) if z.imag >= -1e-12)


def oracle_error(n, a, z):
    """Relative distance from z to the nearest upper-half oracle zero."""
    r = min(upper_oracle_zeros(n, a), key=lambda r: abs(r - z))
    return abs(z - r) / abs(r)
