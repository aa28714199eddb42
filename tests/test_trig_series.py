import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from rgbpzeros.trig_series import PhiSeries


def series_strategy(max_terms=4):
    term = st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 2))
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
    s, c, phi = PhiSeries.sin(), PhiSeries.cos(), PhiSeries.phi()
    assert (s * c).terms == {(0, 1, 1): 1.0}
    assert (s * s).terms == {(0, 2, 0): 1.0}
    assert (phi * s).terms == {(1, 1, 0): 1.0}


def test_differentiate_examples():
    s, c, phi = PhiSeries.sin(), PhiSeries.cos(), PhiSeries.phi()
    assert s.differentiate() == c
    assert_series_close((phi * s).differentiate(), s + phi * c)
    s3 = s * s * s
    assert_series_close(s3.differentiate(), (s * s * c).scale(3.0))


def test_integrate_examples():
    s, c, phi = PhiSeries.sin(), PhiSeries.cos(), PhiSeries.phi()
    assert_series_close(c.integrate(), s)
    expected = phi.scale(0.5) - (s * c).scale(0.5)
    assert_series_close((s * s).integrate(), expected)
    expected2 = phi * s + c - PhiSeries.one()
    assert_series_close((phi * c).integrate(), expected2)


def test_evaluate_examples():
    assert PhiSeries.sin().evaluate(math.pi / 2) == pytest.approx(1.0)
    assert (PhiSeries.phi() * PhiSeries.sin()).evaluate(0.0) == 0
    v = (PhiSeries.sin() * PhiSeries.sin()).evaluate(1j)
    assert v == pytest.approx(cmath.sin(1j) ** 2, rel=1e-13)


def test_canonical_form_bounds_cos_power():
    p = PhiSeries({(0, 0, 5): 2.0, (1, 1, 4): -1.0})
    assert all(nn <= 1 for (_, _, nn) in p.terms)
    assert p.evaluate(0.7) == pytest.approx(
        2.0 * math.cos(0.7) ** 5 - 0.7 * math.sin(0.7) * math.cos(0.7) ** 4,
        rel=1e-13)


def test_immutability():
    p = PhiSeries.sin()
    with pytest.raises(AttributeError):
        p.terms = {}


# -- algebraic properties ----------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(series_strategy())
def test_differentiate_after_integrate_is_identity(p):
    assert_series_close(p.integrate().differentiate(), p, tol=1e-9)


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
