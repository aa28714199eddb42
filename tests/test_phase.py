import random
from fractions import Fraction

import pytest

from rgbpzeros import ZetaVanishes, build_lg_table, make_params
from rgbpzeros.jets import JetOps
from rgbpzeros.mapping import map_point
from rgbpzeros.phase import (COUPLING_CONSTANTS, TAIL_CONSTANTS,
                             phase_corrections)

from reference import const_a, map_anywhere


def left_points(params, rng, count):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-6.0, -0.8) - params.alpha / 2.0,
                    rng.uniform(0.5, 6.0))
        if abs(z - params.z1) > 0.3 * (1.0 + abs(params.z1)):
            pts.append(z)
    return pts


def test_transcribed_constants():
    assert TAIL_CONSTANTS == (Fraction(5, 48), Fraction(1105, 9216),
                              Fraction(82825, 98304),
                              Fraction(1282031525, 88080384))
    assert COUPLING_CONSTANTS == (Fraction(5, 32), Fraction(25, 128),
                                  Fraction(1105, 2048), Fraction(175, 768),
                                  Fraction(12155, 8192),
                                  Fraction(414125, 65536))


def test_tail_constants_are_folded_a_constants():
    # with xi^2 = (4/9) zeta^3 the explicit tails equal the a_s/(s xi^s)
    # corrections term by term
    for s, tail in zip((1, 3, 5, 7), TAIL_CONSTANTS):
        assert tail == Fraction(3, 2 * s) * Fraction(3, 2) ** (s - 1) * const_a(s)


def test_finite_values_and_derivative_layout():
    p = make_params(15, 1.01)
    lg = build_lg_table(p)
    st = map_anywhere(p, -2.0 + 3.0j)
    ups = phase_corrections(lg, st)
    # four jets [U1, U2, U3, U4], value at index 0; U_s is only as long
    # as the derivative order the tau cascade reads from it
    assert len(ups) == 4
    assert [len(jet) for jet in ups] == [5 - s for s in (1, 2, 3, 4)]
    for jet in ups:
        assert abs(jet[0]) < 1e6


def test_fewer_terms_truncate_the_same_jets():
    # a jet coefficient never depends on higher ones, so building fewer
    # and shorter corrections leaves the coefficients kept bit for bit
    p = make_params(15, 1.01)
    lg = build_lg_table(p)
    rng = random.Random(5)
    for z in left_points(p, rng, 5):
        st = map_anywhere(p, z)
        full = phase_corrections(lg, st)
        for terms in (2, 3, 4):
            ups = phase_corrections(lg, st, terms)
            assert ups == [jet[:terms - s] for s, jet in
                           enumerate(full[:terms - 1], start=1)]


def test_dU1_matches_finite_differences():
    p = make_params(15, 1.01)
    lg = build_lg_table(p)
    rng = random.Random(77)
    h = 1e-5
    for z in left_points(p, rng, 20):
        mid = phase_corrections(lg, map_anywhere(p, z))
        up = phase_corrections(lg, map_anywhere(p, z + h))
        dn = phase_corrections(lg, map_anywhere(p, z - h))
        dU1, dU2 = (JetOps.derivative(jet, 1) for jet in mid[:2])
        fd = (up[0][0] - dn[0][0]) / (2 * h)
        assert abs(dU1 - fd) <= 1e-6 * (1.0 + abs(fd))
        fd2 = (up[1][0] - dn[1][0]) / (2 * h)
        assert abs(dU2 - fd2) <= 1e-6 * (1.0 + abs(fd2))


def test_U1_decays_on_positive_real_axis():
    p = make_params(15, 1.01)
    lg = build_lg_table(p)
    prev = None
    for x in (5.0, 20.0, 100.0, 500.0):
        U1 = phase_corrections(lg, map_anywhere(p, complex(x, 0.0)))[0]
        mag = abs(U1[0])
        if prev is not None:
            assert mag < prev
        prev = mag
    assert prev < 1e-3


def test_zeta_vanishes_guard():
    p = make_params(15, 1.01)
    lg = build_lg_table(p)
    # force a vanishing Airy variable through the pinned zeta
    z = -2.0 + 3.0j
    st = map_anywhere(p, z)
    st = map_point(p, z, st.Z, st.xi[0], 1e-10)
    with pytest.raises(ZetaVanishes):
        phase_corrections(lg, st)


def test_bounded_near_turning_point():
    # xi (E1 + d1) / zeta^2 stays finite approaching the exclusion radius
    p = make_params(15, 1.01)
    lg = build_lg_table(p)
    scale = 1.0 + abs(p.z1)
    z = p.z1 + 1e-2 * scale * (-1.0 + 0.5j) / abs(-1.0 + 0.5j)
    st = map_anywhere(p, z)
    for jet in phase_corrections(lg, st):
        assert abs(jet[0]) < 1e8
