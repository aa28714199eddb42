import cmath
import math
import random

import pytest
from scipy.integrate import quad

from rgbpzeros import ZeroArgument, make_params
from rgbpzeros.mapping import left_Z, map_point, zeta_for_airy_zero
from rgbpzeros.airy import airy_zero

from reference import (CutProximity, big_Z, map_anywhere, map_phi,
                       zeta_from_xi)


def sample_left_points(params, rng, count):
    """Random points left of the cut (where the zero pipeline runs)."""
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-6.0, -0.5) - params.alpha / 2.0,
                    rng.uniform(0.3, 6.0))
        if abs(z - params.z1) > 0.05 * (1.0 + abs(params.z1)):
            pts.append(z)
    return pts


# -- branch-resolved Z -------------------------------------------------------

def test_big_Z_alpha_zero_examples():
    p = make_params(1, 2.0)  # alpha = 0
    assert big_Z(p, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert big_Z(p, -1.0) == pytest.approx(-math.sqrt(2.0), rel=1e-15)


def test_big_Z_continuation_to_imaginary_axis():
    # continuity from z > 0: walk an arc from z=1 to z=2i staying right of
    # and above the cut (the cut ends at z1 = i)
    p = make_params(1, 2.0)
    prev = big_Z(p, 2.0)
    steps = 200
    for k in range(1, steps + 1):
        t = k / steps * (math.pi / 2)
        z = 2.0 * complex(math.cos(t), math.sin(t))
        cur = big_Z(p, z)
        assert abs(cur - prev) < 0.1
        prev = cur
    assert prev == pytest.approx(1j * math.sqrt(3.0), rel=1e-12)


def test_big_Z_asymptotically_z():
    p = make_params(15, 1.01)
    for z in (1e6 + 1e5j, -1e6 + 1e5j, 1e7j):
        assert big_Z(p, z) / z == pytest.approx(1.0, rel=1e-5)


def test_big_Z_branch_cut_guard():
    p = make_params(1, 2.0)  # cut: segment from 0 to i
    with pytest.raises(CutProximity):
        big_Z(p, 0.5j)
    # just beside the cut is fine
    assert big_Z(p, 0.01 + 0.5j).real > 0
    assert big_Z(p, -0.01 + 0.5j).real < 0


def test_left_Z_is_big_Z_left_of_the_cut():
    p = make_params(15, 1.01)
    rng = random.Random(10)
    for z in sample_left_points(p, rng, 50):
        assert left_Z(p, z) == big_Z(p, z)


def test_big_Z_zero_argument():
    p = make_params(1, 2.0)
    with pytest.raises(ZeroArgument):
        big_Z(p, 0.0)


def test_big_Z_rejects_lower_half_plane():
    p = make_params(1, 2.0)
    with pytest.raises(ValueError):
        big_Z(p, 1.0 - 2.0j)


# -- full map state ----------------------------------------------------------

def test_trig_identity_at_random_points():
    p = make_params(15, 1.01)
    rng = random.Random(11)
    for z in sample_left_points(p, rng, 100):
        st = map_anywhere(p, z)
        s = p.sigma / st.Z
        c = (z + p.alpha / 2.0) / st.Z
        assert abs(s * s + c * c - 1.0) <= 1e-12


def test_phi_round_trip():
    p = make_params(30, 20.2)
    rng = random.Random(12)
    for z in sample_left_points(p, rng, 50):
        phi, _ = map_phi(p, map_anywhere(p, z))
        back = p.sigma * cmath.cos(phi) / cmath.sin(phi) - p.alpha / 2.0
        assert abs(back - z) <= 1e-12 * (1.0 + abs(z))


def test_xi_derivative_squared_is_f():
    p = make_params(15, 1.01)
    rng = random.Random(13)
    for z in sample_left_points(p, rng, 50):
        st = map_anywhere(p, z)
        f = ((z + p.alpha / 2.0) ** 2 + 1.0 + p.alpha) / (z * z)
        assert abs(st.xi[1] ** 2 - f) <= 1e-12 * (1.0 + abs(f))


def test_zeta_derivatives_match_finite_differences():
    p = make_params(15, 1.01)
    rng = random.Random(14)
    for z in sample_left_points(p, rng, 20):
        st = map_anywhere(p, z)
        d1, d2, d3 = (math.factorial(k) * st.zeta[k] for k in (1, 2, 3))
        h = 1e-5
        fd1 = (map_anywhere(p, z + h).zeta[0]
               - map_anywhere(p, z - h).zeta[0]) / (2 * h)
        assert abs(d1 - fd1) <= 1e-6 * (1.0 + abs(fd1))
        # wider stencils for the higher orders: the subtractive noise of a
        # 1e-5 step exceeds the target tolerance there
        h = 1e-3
        vals = {k: map_anywhere(p, z + k * h).zeta[0]
                for k in (-2, -1, 0, 1, 2)}
        fd2 = (vals[1] - 2 * vals[0] + vals[-1]) / h ** 2
        fd3 = (vals[2] - 2 * vals[1] + 2 * vals[-1] - vals[-2]) / (2 * h ** 3)
        assert abs(d2 - fd2) <= 1e-5 * (1.0 + abs(fd2))
        assert abs(d3 - fd3) <= 1e-3 * (1.0 + abs(fd3))


def test_xi_closed_form_matches_quadrature():
    # integrate f^(1/2) from the turning point along two straight legs:
    # z1 -> anchor (short, perpendicular-ish) then anchor -> z
    p = make_params(15, 1.01)
    rng = random.Random(15)

    def dxi(z):
        return big_Z(p, z) / z  # xi' = f^(1/2)

    for z in sample_left_points(p, rng, 20):
        # start just off the turning point; the skipped sliver contributes
        # O(|z-z1|^(3/2) * 1e-9) thanks to the square-root vanishing of f
        anchor = p.z1 + (z - p.z1) * 1e-6
        d = z - anchor
        xi_quad = complex(
            quad(lambda t: (dxi(anchor + t * d) * d).real, 0.0, 1.0,
                 limit=300)[0],
            quad(lambda t: (dxi(anchor + t * d) * d).imag, 0.0, 1.0,
                 limit=300)[0])
        st = map_anywhere(p, z)
        assert abs(st.xi[0] - xi_quad) <= 1e-7 * (1.0 + abs(st.xi[0]))


def test_zeta_vanishes_toward_turning_point():
    p = make_params(15, 1.01)
    scale = 1.0 + abs(p.z1)
    z = p.z1 + 1e-2 * scale * cmath.exp(1j * math.pi * 0.75)
    st = map_anywhere(p, z)
    assert abs(st.zeta[0]) <= 1e-1


def test_cos_phi_positive_on_negative_axis():
    p = make_params(30, 20.2)
    for x in (-1.0, -3.0, -10.0, -50.0):
        z = x - p.alpha / 2.0
        if z >= 0:
            continue
        st = map_anywhere(p, complex(z, 0.0))
        cos_phi = (z + p.alpha / 2.0) / st.Z
        assert st.Z.real < 0
        assert cos_phi.real > 0


def test_map_point_zero_argument():
    p = make_params(2, 2.2)
    with pytest.raises(ZeroArgument):
        map_point(p, 0.0, left_Z(p, 0j), -1j, -1.0)
    with pytest.raises(ZeroArgument):
        map_anywhere(p, 0.0)


# -- Airy-zero level set -----------------------------------------------------

def test_zeta_for_airy_zero_values():
    p = make_params(30, 1.2)  # u = 30.5
    a1 = airy_zero(1)
    zeta, xi = zeta_for_airy_zero(p, 1)
    assert zeta == pytest.approx(a1 * 30.5 ** (-2.0 / 3.0), rel=1e-14)
    assert xi.real == 0.0
    assert xi.imag == pytest.approx(-2.0 * abs(a1) ** 1.5 / (3.0 * 30.5),
                                    rel=1e-14)


def test_zeta_for_airy_zero_branch_consistency():
    p = make_params(30, 1.2)
    for m in range(1, 8):
        zeta, xi = zeta_for_airy_zero(p, m)
        assert xi.imag < 0 and xi.real == 0.0
        # (2/3) zeta^(3/2) = xi on the branch used left of the cut
        assert abs((2.0 / 3.0) * zeta_from_xi(xi, -1) - (2.0 / 3.0) * zeta) \
            <= 1e-13
        assert abs(zeta_from_xi(xi, -1) - zeta) <= 1e-13 * (1.0 + abs(zeta))
