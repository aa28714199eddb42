import math
import random

import pytest

from rgbpzeros import InvalidDegree, ParameterOutOfRange, make_params


def test_reference_values():
    p = make_params(15, 1.01)
    assert p.u == 15.5
    assert p.alpha == pytest.approx(-0.99 / 15.5, rel=1e-15)
    assert p.sigma == pytest.approx(math.sqrt(1.0 - 0.99 / 15.5), rel=1e-15)


def test_alpha_zero_symmetry_case():
    p = make_params(1, 2.0)
    assert p.alpha == 0.0
    assert p.sigma == 1.0
    assert p.z1 == 1j
    assert p.z2 == -1j


def test_out_of_range_parameter():
    with pytest.raises(ParameterOutOfRange):
        make_params(10, -20.0)


def test_invalid_degree():
    with pytest.raises(InvalidDegree):
        make_params(0, 2.0)
    with pytest.raises(InvalidDegree):
        make_params(-3, 2.0)
    with pytest.raises(InvalidDegree):
        make_params(2.0, 2.0)  # type: ignore[arg-type]


def test_admissibility_window_overrides():
    # a=25 is outside the window a <= 10n for n=2
    with pytest.raises(ParameterOutOfRange):
        make_params(2, 25.0)


def test_turning_point_factorization():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(1, 100)
        a = rng.uniform(-0.9 * n + 1.5, 10.0 * n)
        p = make_params(n, a)
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        lhs = (z - p.z1) * (z - p.z2)
        rhs = (z + p.alpha / 2.0) ** 2 + 1.0 + p.alpha
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


def test_alpha_vanishes_iff_a_is_two():
    assert make_params(7, 2.0).alpha == 0.0
    assert make_params(7, 2.0 + 1e-12).alpha != 0.0


def test_num_upper_zeros():
    assert make_params(30, 1.2).num_upper_zeros == 15
    assert make_params(31, 1.2).num_upper_zeros == 16
    assert make_params(1, 2.0).num_upper_zeros == 1
