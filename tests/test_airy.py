import random

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from rgbpzeros import NonpositiveIndex
from rgbpzeros.airy import airy_zero


def test_first_two_zeros():
    assert airy_zero(1) == pytest.approx(-2.338107410459767, abs=1e-13)
    assert airy_zero(2) == pytest.approx(-4.087949444130971, abs=1e-13)


def test_nearest_double():
    # the table (m <= 16), the series (m >= 17) and the seam between them,
    # then out to m = 5e5, the zeros of n = 1e6
    sampled = random.Random(9).sample(range(41, 10001), 30)
    sampled += random.Random(10).sample(range(10001, 500001), 30)
    with mp.workdps(40):
        for m in list(range(1, 41)) + sampled:
            assert airy_zero(m) == float(mp.airyaizero(m)), m


def test_residual_small():
    for m in range(1, 30):
        ai = special.airy(airy_zero(m))[0]
        assert abs(ai) <= 1e-13


def test_monotone_and_negative():
    prev = 0.0
    for m in range(1, 201):
        z = airy_zero(m)
        assert z < 0
        assert z < prev
        prev = z


def test_invalid_index():
    for m in (0, -2, np.int64(0), True, 2.0, 17.5, "3"):
        with pytest.raises(NonpositiveIndex):
            airy_zero(m)
    for m in (3, 17, 401):
        assert airy_zero(np.int64(m)) == airy_zero(m)
