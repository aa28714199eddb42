import random
from fractions import Fraction

import pytest

from rgbpzeros import ZetaVanishes, build_lg_table, make_params
from rgbpzeros.airy import AIRY_PHASE, _airy_phase, _zero_series
from rgbpzeros.jets import JetOps
from rgbpzeros.mapping import map_point
from rgbpzeros.phase import phase_corrections

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
    # DLMF 9.8(iv), the large-x expansion of the Airy phase, and DLMF
    # 9.9.18, the large-t series of the Airy zeros
    assert AIRY_PHASE == (Fraction(5, 32), Fraction(1105, 6144),
                          Fraction(82825, 65536),
                          Fraction(1282031525, 58720256))
    assert _zero_series(5) == (Fraction(5, 48), Fraction(-5, 36),
                               Fraction(77125, 82944),
                               Fraction(-108056875, 6967296),
                               Fraction(162375596875, 334430208))


def test_constants_one_term_further():
    # what a sixth and seventh expansion term would read
    assert _airy_phase(6)[4:] == (Fraction(1683480621875, 2415919104),
                                  Fraction(6718940277925125, 188978561024))
    assert _zero_series(6)[5] == Fraction(-1622671914671875, 66217181184)


def test_tail_constants_are_folded_a_constants():
    # with xi^2 = (4/9) zeta^3 the tail (2/3) C_k of U_k equals the
    # a_s/(s xi^s) correction of s = 2k - 1 term by term
    for s, c in zip((1, 3, 5, 7), AIRY_PHASE):
        assert c == Fraction(3, 2) * Fraction(3, 2 * s) \
            * Fraction(3, 2) ** (s - 1) * const_a(s)


# U_k as the hand expansion of the zero condition wrote it, in U_1 ..
# U_{k-1}, y = 1/zeta and B_k = 3 xi (E_{2k-1} + d_{2k-1}) / (2 zeta^2):
# {(powers of U_1 .. U_4, power of B_k, power of y): coefficient}
F = Fraction
HAND_COMPOSITIONS = (
    {(0, 0, 0, 0, 1, 0): F(1), (0, 0, 0, 0, 0, 2): -F(5, 48)},
    {(0, 0, 0, 0, 1, 0): F(1), (0, 0, 0, 0, 0, 5): -F(1105, 9216),
     (2, 0, 0, 0, 0, 1): -F(1, 4), (1, 0, 0, 0, 0, 3): F(5, 32)},
    {(0, 0, 0, 0, 1, 0): F(1), (0, 0, 0, 0, 0, 8): -F(82825, 98304),
     (1, 1, 0, 0, 0, 1): -F(1, 2), (3, 0, 0, 0, 0, 2): F(1, 24),
     (2, 0, 0, 0, 0, 4): -F(25, 128), (0, 1, 0, 0, 0, 3): F(5, 32),
     (1, 0, 0, 0, 0, 6): F(1105, 2048)},
    {(0, 0, 0, 0, 1, 0): F(1), (0, 0, 0, 0, 0, 11): -F(1282031525, 88080384),
     (4, 0, 0, 0, 0, 3): -F(1, 64), (2, 1, 0, 0, 0, 2): F(1, 8),
     (3, 0, 0, 0, 0, 5): F(175, 768), (1, 0, 1, 0, 0, 1): -F(1, 2),
     (1, 1, 0, 0, 0, 4): -F(25, 64), (0, 2, 0, 0, 0, 1): -F(1, 4),
     (2, 0, 0, 0, 0, 7): -F(12155, 8192), (0, 0, 1, 0, 0, 3): F(5, 32),
     (0, 1, 0, 0, 0, 6): F(1105, 2048), (1, 0, 0, 0, 0, 9): F(414125, 65536)},
)


def sympy_reversion():
    """U_k in U_1 .. U_{k-1}, B_k and y = 1/zeta for k = 1 .. 4, as
    {powers: coefficient}, from the zero condition with zeta-hat =
    zeta (1 + v), v = sum_k U_k eps^k / zeta:
    (1 + v)^(3/2) + sum_j C_j zeta^(-3j) (1 + v)^(3/2 - 3j) eps^j
    = 1 + (3/(2 zeta)) sum_k B_k eps^k."""
    sp = pytest.importorskip("sympy")
    K = len(AIRY_PHASE)
    eps, y, B = sp.symbols("eps y B")
    U = sp.symbols(f"U1:{K + 1}")
    C = [sp.Rational(c.numerator, c.denominator) for c in AIRY_PHASE]
    v = sum(U[k - 1] * eps ** k for k in range(1, K + 1)) * y

    def power(p):  # (1 + v)^p to order eps^K
        return sum(sp.binomial(p, i) * v ** i for i in range(K + 1))

    half = sp.Rational(3, 2)
    lhs = power(half) + sum(C[j - 1] * y ** (3 * j) * power(half - 3 * j)
                            * eps ** j for j in range(1, K + 1))
    lhs = sp.expand(lhs)
    out = []
    for k in range(1, K + 1):
        order_k = lhs.coeff(eps, k) - half * y * B  # B stands for B_k
        U_k = sp.solve(order_k, U[k - 1])[0]
        poly = sp.Poly(sp.expand(U_k), *U, B, y)
        out.append({powers: Fraction(int(c.p), int(c.q))
                    for powers, c in poly.as_dict().items()})
    return out


def test_reversion_gives_the_hand_compositions():
    # the generic reversion yields every coupling and tail constant of the
    # hand expansion exactly, and no other term
    assert sympy_reversion() == list(HAND_COMPOSITIONS)


def test_corrections_match_the_hand_compositions():
    # phase_corrections against the compositions evaluated term by term
    # on the same E, xi and zeta jets, each U_k only as long as it is read;
    # the tails' cancellation costs some digits in the higher coefficients
    p = make_params(15, 1.01)
    lg = build_lg_table(p)
    rng = random.Random(11)
    worst = 0.0
    for z in left_points(p, rng, 10):
        st = map_anywhere(p, z)
        ups = phase_corrections(lg, st)
        ref = []
        for k, comp in enumerate(HAND_COMPOSITIONS, start=1):
            J = JetOps(5 - k)
            y = J.div(J.const(1.0), st.zeta)
            s = 2 * k - 1
            E = lg.E[s].evaluate_jet(st.sin, st.cos, J)
            B = J.mul(J.scale(J.mul(st.xi, J.add(
                E, J.const(lg.d_const[s]))), 1.5), J.mul(y, y))
            total = J.const(0.0)
            for powers, coeff in comp.items():
                term = J.const(float(coeff))
                for base, count in zip([*ref, B, y], powers[:k - 1] + powers[4:]):
                    for _ in range(count):
                        term = J.mul(term, base)
                total = J.add(total, term)
            ref.append(total)
        for mine, theirs in zip(ups, ref):
            assert len(mine) == len(theirs)
            for a, b in zip(mine, theirs):
                worst = max(worst, abs(a - b) / abs(b))
    assert worst <= 1e-11, worst


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
        dU1, dU2 = (jet[1] for jet in mid[:2])
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
    # force a vanishing Airy variable through the pinned zeta: the
    # corrections overflow (they stay finite down to |zeta| = 1e-25 here)
    z = -2.0 + 3.0j
    st = map_anywhere(p, z)
    st = map_point(p, z, st.Z, st.xi[0], 1e-30)
    with pytest.raises(ZetaVanishes):
        phase_corrections(lg, st)


def test_bounded_near_turning_point():
    # xi (E1 + d1) / zeta^2 stays finite approaching the turning point
    p = make_params(15, 1.01)
    lg = build_lg_table(p)
    scale = 1.0 + abs(p.z1)
    z = p.z1 + 1e-2 * scale * (-1.0 + 0.5j) / abs(-1.0 + 0.5j)
    st = map_anywhere(p, z)
    for jet in phase_corrections(lg, st):
        assert abs(jet[0]) < 1e8
