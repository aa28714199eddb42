import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import quad

from rgbpzeros import build_lg_table, make_params
from rgbpzeros.lg_coeffs import coeff_E, coeff_G, const_d

from reference import (closed_form_E2, const_a, d_expansion_error,
                       exact_E_recursion, exact_G_E1, series_mean)


def params_for_alpha(alpha):
    """Any (n, a) realizing the requested alpha."""
    n = 40
    u = n + 0.5
    return make_params(n, alpha * u + 2.0)


# -- exact constant sequences ------------------------------------------------

def test_constant_seeds():
    assert const_a(1) == Fraction(5, 72)
    assert const_a(2) == Fraction(5, 72)


def test_constant_recursion_values():
    assert const_a(3) == Fraction(3, 2) * Fraction(5, 72) \
        + Fraction(1, 2) * Fraction(5, 72) ** 2
    assert const_a(3) == Fraction(1105, 10368)


# -- generator series --------------------------------------------------------

def test_G_alpha_zero():
    p = params_for_alpha(0.0)
    G = coeff_G(p)
    for phi in (0.3, 1.1, 2.0):
        expected = math.cos(phi) * math.sin(phi) ** 2 / 2.0
        assert G.evaluate(phi) == pytest.approx(expected, rel=1e-13)


def test_G_vanishes_at_zero():
    p = params_for_alpha(0.7)
    assert coeff_G(p).evaluate(0.0) == 0


def test_G_alpha_one_at_half_pi():
    p = params_for_alpha(1.0)
    assert coeff_G(p).evaluate(math.pi / 2) == pytest.approx(-0.125, rel=1e-13)


# -- E coefficients ----------------------------------------------------------

def test_E1_alpha_zero_at_half_pi():
    p = params_for_alpha(0.0)
    E = coeff_E(p, 1)
    assert E[1].evaluate(math.pi / 2) == pytest.approx(-1.0 / 12.0, rel=1e-13)


def test_E_vanish_at_zero():
    p = params_for_alpha(-0.3)
    E = coeff_E(p, 7)
    for s in range(1, 8):
        assert abs(E[s].evaluate(0.0)) <= 1e-14


def test_E_parity():
    # odd index: every trig term has odd total degree (plus the constant
    # that pins E(0)=0); even index: every term has even total degree
    p = params_for_alpha(0.45)
    E = coeff_E(p, 7)
    for s in range(1, 8):
        for (m, n) in E[s].terms:
            if s % 2 == 1:
                assert (m, n) == (0, 0) or (m + n) % 2 == 1
            else:
                assert (m + n) % 2 == 0


def test_E2_matches_closed_form():
    # the recursion's first step, E_2 = G E_1', against the closed form,
    # term by term (point values of E_2 cancel down to a tenth of its
    # largest coefficient)
    for alpha in (-0.85, -0.3, 0.0, 0.45, 1.0, 2.5, 9.0):
        p = params_for_alpha(alpha)
        ref = closed_form_E2(p)
        diff = coeff_E(p, 2)[2] - ref
        scale = max(abs(c) for c in ref.terms.values())
        assert all(abs(c) <= 1e-15 * scale for c in diff.terms.values())


def test_recursion_integrands_have_no_mean():
    # PhiSeries.integrate drops the mean of its integrand, so the E_s stay
    # polynomials in sin and cos; exact in rationals, every integrand of
    # the recursion through E_11 has zero mean over a period, for alpha
    # from -8/9 to 91/9.  The odd E_s average to -d_s, which ties E_1's
    # constant and the d-constants to the same check.
    for sigma in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 2),
                  Fraction(5, 4), Fraction(2), Fraction(7, 3),
                  Fraction(10, 3)):
        E, means = exact_E_recursion(sigma, 11)
        assert len(means) == 9 and all(m == 0 for m in means), (sigma, means)
        alpha = sigma * sigma - 1
        for s in (1, 3, 5, 7):
            assert series_mean(E[s]) + const_d(alpha, s) == 0, (sigma, s)
    # the rational G and E_1 are the package's, where sigma is a double
    for sigma in (Fraction(1, 2), Fraction(3, 2)):
        p = params_for_alpha(float(sigma * sigma - 1))
        assert p.sigma == sigma
        exact = exact_G_E1(sigma)
        for mine, ref in zip((coeff_G(p), coeff_E(p, 1)[1]), exact):
            assert mine.terms.keys() == ref.terms.keys()
            for t, c in ref.terms.items():
                assert abs(mine.terms[t] - c) <= 1e-15 * abs(c), (sigma, t)


def quadrature_E_next(params, E, dE, s, phi):
    """Right side of the recursion with the integral done numerically.

    Real alpha makes every coefficient real, so a real-line adaptive
    quadrature suffices for the integral term.
    """
    G = coeff_G(params)

    def integrand(x):
        return (G.evaluate(x) * sum(dE[j].evaluate(x) * dE[s - j].evaluate(x)
                                    for j in range(1, s))).real

    integral = quad(integrand, 0.0, phi, limit=200)[0]
    return G.evaluate(phi) * dE[s].evaluate(phi) + integral


def test_E_recursion_matches_quadrature():
    rng = random.Random(20240817)
    for _ in range(20):
        alpha = rng.uniform(-0.8, 2.5)
        phi = rng.uniform(0.1, 1.5)
        p = params_for_alpha(alpha)
        E = coeff_E(p, 7)
        dE = [None] + [e.differentiate() for e in E[1:]]
        for s in range(2, 7):
            direct = E[s + 1].evaluate(phi)
            oracle = quadrature_E_next(p, E, dE, s, phi)
            assert abs(direct - oracle) <= 1e-10 * (1.0 + abs(direct))


# -- d constants -------------------------------------------------------------

def test_d1_values():
    assert const_d(0.0, 1) == 0.0
    assert const_d(1.0, 1) == pytest.approx(-1.0 / 96.0, rel=1e-15)
    assert const_d(Fraction(1), 1) == Fraction(-1, 96)


def test_d_requires_odd_index():
    with pytest.raises(ValueError):
        const_d(0.5, 2)


def test_d_partial_sum_error_scaling():
    alpha = 0.5
    errs = {u: d_expansion_error(alpha, u, 4) for u in (50.0, 100.0)}
    ratio = errs[100.0] / errs[50.0]
    assert 2.0 ** -10 <= ratio <= 2.0 ** -8


# -- table -------------------------------------------------------------------

def test_build_lg_table():
    p = make_params(15, 1.01)
    lg = build_lg_table(p)
    assert len(lg.E) == 8  # slot 0 unused
    assert lg.d_const[1] == const_d(p.alpha, 1)
    assert set(lg.d_const) == {1, 3, 5, 7}


def test_G_matches_map_derivative_ratio():
    # G equals -phi'/(2 xi') at mapped points
    from reference import map_anywhere, map_phi

    p = make_params(15, 1.01)
    G = coeff_G(p)
    rng = random.Random(5)
    for _ in range(20):
        z = complex(rng.uniform(-10, -2), rng.uniform(2, 10))
        st = map_anywhere(p, z)
        phi, dphi = map_phi(p, st)
        lhs = G.evaluate(phi)
        rhs = -dphi / (2.0 * st.xi[1])
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))
