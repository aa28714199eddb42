import cmath
import math
import random
from fractions import Fraction

import pytest

from rgbpzeros import (InvalidDegree, OracleNoConvergence, ZeroArgument,
                       oracle_zeros, polynomials, sweep)
from rgbpzeros.polynomials import (horner, poly_coeffs, relative_residual,
                                   theta_with_derivative, typed_coeffs)

from reference import theta_laguerre, w0_derivable


def scaled_value(mant, exp2):
    return mant * 2.0 ** exp2


def theta(n, a, z):
    """Scaled value (m, e) with theta_n(z; a) = m * 2^e."""
    v, _, e = theta_with_derivative(n, a, z)
    return v, e


# -- coefficients ------------------------------------------------------------

def test_coefficients_match_exact_arithmetic():
    for n in range(1, 13):
        for a in (2, Fraction(101, 100), Fraction(-1, 2)):
            exact = typed_coeffs(n, Fraction(a))
            approx = poly_coeffs(n, float(a))
            for k in range(n + 1):
                got = math.ldexp(approx.mant[k], approx.exp2[k])
                want = float(exact[k])
                assert got == pytest.approx(want, rel=1e-13)


def test_monic_leading_coefficient():
    c = poly_coeffs(50, 20.2)
    assert c.mant[0] == 1.0 and c.exp2[0] == 0


def test_invalid_degree():
    with pytest.raises(InvalidDegree):
        poly_coeffs(0, 2.0)


# -- evaluation --------------------------------------------------------------

def test_theta_linear_case():
    v, e = theta(1, 2.0, 3.0)
    assert scaled_value(v, e) == 4.0


def test_theta_quadratic_roots():
    r1 = (-3.0 + 1j * math.sqrt(3.0)) / 2.0
    for z in (r1, r1.conjugate()):
        v, e = theta(2, 2.0, z)
        assert abs(v) <= 1e-14  # mantissa scale is O(1) here


def test_residual_small_at_table_zero():
    t = complex(-3.1559515225814951808, 12.586271690843017387)
    v0, e0 = theta(15, 1.01, t)
    v1, e1 = theta(15, 1.01, t + 0.1)
    ref = max(e0, e1)
    assert abs(v0) * 2.0 ** (e0 - ref) <= 1e-10 * abs(v1) * 2.0 ** (e1 - ref)
    coeffs = poly_coeffs(15, 1.01)
    assert relative_residual(coeffs, t) < 1e-12
    assert relative_residual(coeffs, t + 0.1) > 1e-6


def test_no_overflow_at_large_degree():
    v, e = theta(2000, 2.3, complex(-500.0, 500.0))
    assert math.isfinite(v.real) and math.isfinite(v.imag)
    assert math.isfinite(abs(v))


def test_laguerre_route_agreement():
    # restricted to points where monomial-basis cancellation is bounded,
    # since neither double-precision route carries digits through the
    # cancellation-dominated zero cluster
    rng = random.Random(7)
    for n in (5, 20, 50, 100):
        for a in (1.01, 2.3, 20.2):
            coeffs = poly_coeffs(n, a)
            kept = 0
            while kept < 50:
                z = complex(rng.uniform(-2 * n, n), rng.uniform(-n, n))
                if abs(z) < 0.5 or relative_residual(coeffs, z) < 1e-3:
                    continue
                kept += 1
                v1, e1 = theta(n, a, z)
                v2, e2 = theta_laguerre(n, a, z)
                ref = max(e1, e2)
                w1 = v1 * 2.0 ** (e1 - ref)
                w2 = v2 * 2.0 ** (e2 - ref)
                assert abs(w1 - w2) <= 1e-11 * abs(w1)


# -- w0 ----------------------------------------------------------------------

def test_w0_zero_argument():
    with pytest.raises(ZeroArgument):
        w0_derivable(3, 2.0, 0.0)


def test_w0_vanishes_at_linear_zero():
    w, _ = w0_derivable(1, 7.0, -3.5)
    assert abs(w) <= 1e-14


def test_w0_closed_form_n1_a2():
    # z^(1-n-a/2) e^(-z) theta reduces to z^(-1) (z + 1) e^(-z)
    for z in (0.7, 1.3 + 0.4j, -2.0 + 1.0j):
        w, dw = w0_derivable(1, 2.0, z)
        ref = (z + 1.0) * cmath.exp(-z) / z
        assert abs(w - ref) <= 1e-13 * abs(ref)


def test_w0_satisfies_ode_stencil():
    h = 1e-4
    for n, a, z in [(1, 2.0, 1.3 + 0.7j), (5, 2.3, 2.1 + 1.1j),
                    (8, 1.2, -3.0 + 2.0j)]:
        wp, _ = w0_derivable(n, a, z + h)
        wm, _ = w0_derivable(n, a, z - h)
        w, dw = w0_derivable(n, a, z)
        d2 = (wp - 2 * w + wm) / h ** 2
        rhs = (1.0 + (a - 2.0) / z
               + (2 * n + a) * (2 * n + a - 2.0) / (4.0 * z * z)) * w
        assert abs(d2 - rhs) <= 1e-6 * abs(rhs)
        fd1 = (wp - wm) / (2 * h)
        assert abs(dw - fd1) <= 1e-6 * (1.0 + abs(fd1))


# -- oracle ------------------------------------------------------------------

def test_oracle_quadratic():
    roots = oracle_zeros(2, 2.0)
    expected = sorted([(-3 + 1j * math.sqrt(3)) / 2,
                       (-3 - 1j * math.sqrt(3)) / 2],
                      key=lambda r: (-r.imag, r.real))
    for got, want in zip(roots, expected):
        assert abs(got - want) <= 1e-13


def test_oracle_linear():
    roots = oracle_zeros(1, 7.0)
    assert len(roots) == 1
    assert abs(roots[0] - (-3.5)) <= 1e-13


def test_oracle_contains_table_zero():
    roots = oracle_zeros(15, 1.01)
    t = complex(-3.1559515225814951808, 12.586271690843017387)
    assert min(abs(r - t) for r in roots) <= 1e-12 * abs(t)


def test_oracle_conjugate_symmetry_and_real_count():
    for n, a in [(5, 2.3), (8, 1.2), (15, 20.2), (30, 1.01)]:
        roots = oracle_zeros(n, a)
        assert len(roots) == n
        reals = [r for r in roots if abs(r.imag) <= 1e-9 * (1.0 + abs(r))]
        assert len(reals) == n % 2
        for r in roots:
            if abs(r.imag) > 1e-9 * (1.0 + abs(r)):
                assert min(abs(s - r.conjugate()) for s in roots) \
                    <= 1e-9 * (1.0 + abs(r))


def assert_inclusion_discs(n, a, roots):
    """Weierstrass discs about the returned doubles, formed in 40 + n
    digits: each radius n |p(z_i) / prod_j (z_i - z_j)| is <= 1e-13 |z_i|
    and no two discs meet, so each holds exactly one zero."""
    import mpmath

    with mpmath.workdps(40 + n):
        coefs = typed_coeffs(n, mpmath.mpf(a))
        zs = [mpmath.mpc(z) for z in roots]
        radius = []
        for i, z in enumerate(zs):
            w = horner(coefs, z)[0]
            for j, y in enumerate(zs):
                if j != i:
                    w /= z - y
            radius.append(float(n * abs(w)))
    for r, z in zip(radius, roots):
        assert r <= 1e-13 * abs(z)
    for i in range(n):
        for j in range(i + 1, n):
            assert abs(roots[i] - roots[j]) > radius[i] + radius[j]


def test_oracle_residuals():
    for n, a in [(15, 1.01), (50, 30.7)]:
        coeffs = poly_coeffs(n, a)
        roots = oracle_zeros(n, a)
        for r in roots:
            assert relative_residual(coeffs, r) <= 1e-12
        assert_inclusion_discs(n, a, roots)


def test_oracle_high_alpha_matches_sweep():
    # here estimates 3e-3 off pass a relative residual check of 1e-12; the
    # inclusion certificate sends them back for more digits
    n, a = 60, 576.75
    roots = oracle_zeros(n, a)
    assert_inclusion_discs(n, a, roots)
    truth = roots[:(n + 1) // 2]
    for z in sweep(n, a):
        assert min(abs(z - r) / abs(r) for r in truth) <= 1e-13


def test_under_iterated_oracle_is_rejected(monkeypatch):
    monkeypatch.setattr(polynomials, "ORACLE_MP_MAX_ITERS", 1)
    with pytest.raises(OracleNoConvergence,
                       match=r"certificate radius: worst r/\|z\| = .*"
                             r"final dps 115"):
        oracle_zeros(50, 1.01)


def test_oracle_failure_names_the_residual_check(monkeypatch):
    monkeypatch.setattr(polynomials, "ORACLE_RESIDUAL_TOL", 0.0)
    with pytest.raises(OracleNoConvergence, match="residual check"):
        oracle_zeros(8, 2.3)


def test_oracle_failure_names_the_distinctness_check(monkeypatch):
    aberth = polynomials._aberth

    def collapse(est, p_and_dp, tol, max_iters, settled=None):
        aberth(est, p_and_dp, tol, max_iters, settled)
        if settled is not None:  # the extended-precision stage
            est[1] = est[0]

    monkeypatch.setattr(polynomials, "_aberth", collapse)
    with pytest.raises(OracleNoConvergence, match="distinctness check") as exc:
        oracle_zeros(8, 2.3)
    assert len(exc.value.indices) == 1


def test_oracle_deterministic():
    assert oracle_zeros(15, 1.2) == oracle_zeros(15, 1.2)


def test_upper_half_filter():
    # the oracle's order puts the upper half first, which the CLI's
    # validate command relies on when it keeps the first (n+1)//2 roots
    roots = oracle_zeros(7, 2.3)
    up = [r for r in roots if r.imag >= -1e-9]
    assert len(up) == 4  # three conjugate pairs + one real zero
    assert up == roots[:4]
