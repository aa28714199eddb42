import pytest
from scipy import special

from rgbpzeros import NonpositiveIndex
from rgbpzeros.airy import airy_zero, airy_zero_seed


def test_first_two_zeros():
    assert airy_zero(1) == pytest.approx(-2.338107410459767, abs=1e-13)
    assert airy_zero(2) == pytest.approx(-4.087949444130971, abs=1e-13)


def test_residual_small():
    for m in range(1, 30):
        ai = special.airy(airy_zero(m))[0]
        assert abs(ai) <= 1e-13


def test_seed_close_for_m10():
    assert abs(airy_zero(10) - airy_zero_seed(10)) <= 1e-6


def test_monotone_and_negative():
    prev = 0.0
    for m in range(1, 201):
        z = airy_zero(m)
        assert z < 0
        assert z < prev
        prev = z


def test_seed_improves_with_m():
    d5 = abs(airy_zero(5) - airy_zero_seed(5))
    d50 = abs(airy_zero(50) - airy_zero_seed(50))
    assert d50 < d5


def test_invalid_index():
    with pytest.raises(NonpositiveIndex):
        airy_zero(0)
    with pytest.raises(NonpositiveIndex):
        airy_zero(-2)
