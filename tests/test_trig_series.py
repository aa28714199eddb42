import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from rgbpzeros.jets import JetOps
from rgbpzeros.trig_series import PhiSeries

from reference import monomial_jets, series_mean


def series_strategy(max_terms=4):
    term = st.tuples(st.integers(0, 4), st.integers(0, 2))
    coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=4.0,
                               allow_infinity=False, allow_nan=False)
    return st.dictionaries(term, coeff, max_size=max_terms).map(PhiSeries)


PHI_POINTS = [0.3, 1.1, -0.7, 2.4, 0.5 + 0.3j, -1.2 + 0.8j]


def assert_series_close(p, q, tol=1e-10):
    for phi in PHI_POINTS:
        vp, vq = p.evaluate(phi), q.evaluate(phi)
        assert abs(vp - vq) <= tol * (1.0 + abs(vp) + abs(vq))


# -- worked examples ---------------------------------------------------------

def test_add_examples():
    s = PhiSeries.sin()
    assert s + s == s.scale(2.0)
    assert s + PhiSeries.zero() == s
    c = PhiSeries.cos()
    assert c * c + s * s == PhiSeries.one()


def test_multiply_examples():
    s, c = PhiSeries.sin(), PhiSeries.cos()
    assert (s * c).terms == {(1, 1): 1.0}
    assert (s * s).terms == {(2, 0): 1.0}
    assert (c * c * s).terms == {(1, 0): 1.0, (3, 0): -1.0}


def test_differentiate_examples():
    s, c = PhiSeries.sin(), PhiSeries.cos()
    assert s.differentiate() == c
    assert_series_close((s * c).differentiate(), c * c - s * s)
    s3 = s * s * s
    assert_series_close(s3.differentiate(), (s * s * c).scale(3.0))


def test_integrate_examples():
    s, c = PhiSeries.sin(), PhiSeries.cos()
    assert_series_close(c.integrate(), s)
    assert_series_close(s.integrate(), PhiSeries.one() - c)
    # sin^2 has mean 1/2: its phi/2 is dropped, the rest is exact
    assert (s * s).integrate() == (s * c).scale(-0.5)


def test_evaluate_examples():
    assert PhiSeries.sin().evaluate(math.pi / 2) == pytest.approx(1.0)
    assert (PhiSeries.sin() * PhiSeries.cos()).evaluate(0.0) == 0
    v = (PhiSeries.sin() * PhiSeries.sin()).evaluate(1j)
    assert v == pytest.approx(cmath.sin(1j) ** 2, rel=1e-13)


def test_canonical_form_bounds_cos_power():
    p = PhiSeries({(0, 5): 2.0, (1, 4): -1.0})
    assert all(nn <= 1 for (_, nn) in p.terms)
    assert p.evaluate(0.7) == pytest.approx(
        2.0 * math.cos(0.7) ** 5 - math.sin(0.7) * math.cos(0.7) ** 4,
        rel=1e-13)


def test_immutability():
    p = PhiSeries.sin()
    with pytest.raises(AttributeError):
        p.terms = {}


# -- algebraic properties ----------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(series_strategy())
def test_differentiate_after_integrate_is_identity(p):
    # integrate drops the mean, which no series of the span has as its
    # derivative
    mean = PhiSeries({(0, 0): series_mean(p)})
    assert_series_close(p.integrate().differentiate(), p - mean, tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(series_strategy(), series_strategy())
def test_evaluate_is_ring_homomorphism(p, q):
    for phi in (0.4, 1.3, -0.9):
        prod = (p * q).evaluate(phi)
        direct = p.evaluate(phi) * q.evaluate(phi)
        assert abs(prod - direct) <= 1e-13 * (1.0 + abs(direct))
        tot = (p + q).evaluate(phi)
        assert abs(tot - (p.evaluate(phi) + q.evaluate(phi))) \
            <= 1e-13 * (1.0 + abs(tot))


@settings(max_examples=200, deadline=None)
@given(series_strategy())
def test_integral_vanishes_at_zero(p):
    assert p.integrate().evaluate(0.0) == 0


@settings(max_examples=100, deadline=None)
@given(series_strategy())
def test_differentiate_matches_central_differences(p):
    h = 1e-6
    for phi in (0.6, 1.7):
        fd = (p.evaluate(phi + h) - p.evaluate(phi - h)) / (2 * h)
        an = p.differentiate().evaluate(phi)
        assert abs(fd - an) <= 1e-6 * (1.0 + abs(an))


# -- jet evaluation ----------------------------------------------------------

def phi_jets(phi0, order):
    """Jets in phi of sin(phi) and cos(phi) about phi0."""
    J = JetOps(order)
    fact = [math.factorial(k) for k in range(order)]
    sin_j = [cmath.sin(phi0 + k * math.pi / 2) / fact[k] for k in range(order)]
    cos_j = [cmath.cos(phi0 + k * math.pi / 2) / fact[k] for k in range(order)]
    return J, sin_j, cos_j


# Gradual underflow: an operation whose result is subnormal keeps no
# relative accuracy, only an absolute one of half of 2**-1074.  Allow a
# thousand such roundings on top of the relative bound.
UNDERFLOW = 1024 * 2.0 ** -1074


def assert_jet_matches_monomials(p, jet, monomials):
    # each coefficient within 1e-12 of the sum of the monomials' sizes
    for i, value in enumerate(jet):
        expected = sum(mono[i] for mono in monomials)
        size = sum(abs(mono[i]) for mono in monomials)
        assert abs(value - expected) <= 1e-12 * size + UNDERFLOW, (p, i)


@settings(max_examples=200, deadline=None)
@given(series_strategy(max_terms=8), st.integers(1, 5),
       st.sampled_from(PHI_POINTS))
def test_evaluate_jet_matches_monomial_sum(p, order, phi0):
    # Horner in sin within each cos-power group against the
    # monomial-by-monomial evaluation
    J, sin_j, cos_j = phi_jets(phi0, order)
    jet = p.evaluate_jet(sin_j, cos_j, J)
    assert len(jet) == order
    assert_jet_matches_monomials(p, jet, monomial_jets(p, sin_j, cos_j, J))


@settings(max_examples=100, deadline=None)
@given(series_strategy(max_terms=8), st.sampled_from(PHI_POINTS))
def test_order_one_jet_is_evaluate(p, phi0):
    J, sin_j, cos_j = phi_jets(phi0, 1)
    monomials = monomial_jets(p, sin_j, cos_j, J)
    assert_jet_matches_monomials(p, [p.evaluate(phi0)], monomials)
    assert_jet_matches_monomials(p, p.evaluate_jet(sin_j, cos_j, J),
                                 monomials)

