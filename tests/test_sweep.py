import cmath
import math
import random
import sys

import pytest
import sympy

from rgbpzeros import (IterationDivergence, ParameterOutOfRange, SweepStalled,
                       approx_all, approx_zero, build_lg_table, make_params,
                       oracle_zeros, sweep)
from rgbpzeros.polynomials import poly_coeffs, relative_residual
from rgbpzeros.sweep import Carrier, iterate_T, omega, taylor_step, taylor_table

from reference import ERR_EST_GRID, oracle_error

# the package attribute ``sweep`` is the function, not the module
SWEEP_MODULE = sys.modules["rgbpzeros.sweep"]


def a_from_alpha(n, alpha):
    """The a with (a - 2)/(n + 1/2) = alpha."""
    return 2.0 + alpha * (n + 0.5)


def test_omega_examples():
    assert omega(1, 2.0, 1j) == pytest.approx(1.0)
    assert omega(3, 2.3, 1e9) == pytest.approx(-1.0, rel=1e-8)


def test_q_is_z_squared_omega():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 60)
        a = rng.uniform(-0.5, 25.0)
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z) < 0.3:
            continue
        C = (n + a / 2.0) * (n + a / 2.0 - 1.0)
        q_direct = -(z * z + (a - 2.0) * z + C)
        q_from_omega = z * z * omega(n, a, z)
        assert abs(q_direct - q_from_omega) <= 1e-14 * (1.0 + abs(q_direct))


def test_taylor_table_seeds():
    n, a, z0 = 5, 2.3, complex(-2.0, 3.0)
    d = taylor_table(n, a, z0, 0.0, 1.0, 8)
    assert d[0] == 0.0 and d[1] == 1.0
    assert d[2] == 0.0
    C = (n + a / 2.0) * (n + a / 2.0 - 1.0)
    Q = -(z0 * z0 + (a - 2.0) * z0 + C)
    assert d[3] == pytest.approx(-Q / (z0 * z0), rel=1e-14)


@pytest.mark.parametrize("n,a,closed", [
    (1, 2.0, lambda z: (z + 1) * sympy.exp(-z) / z),
    (2, 2.0, lambda z: (z**2 + 3 * z + 3) * sympy.exp(-z) / z**2),
])
def test_taylor_table_matches_closed_form(n, a, closed):
    zs = sympy.symbols("z")
    expr = closed(zs)
    z0 = complex(1.2, 0.8)
    w0 = complex(expr.subs(zs, z0))
    dw0 = complex(sympy.diff(expr, zs).subs(zs, z0))
    d = taylor_table(n, a, z0, w0, dw0, 10)
    for k in range(9):
        ref = complex(sympy.diff(expr, zs, k).subs(zs, z0))
        assert abs(d[k] - ref) <= 1e-10 * (1.0 + abs(ref)), k


def test_taylor_step_identity_at_zero_displacement():
    d = taylor_table(5, 2.3, complex(-2.0, 3.0), 0.7 + 0.1j, -0.2j, 16)
    w, dw = taylor_step(d, 0.0)
    assert w == d[0] and dw == d[1]


def test_taylor_step_half_vs_full():
    n, a = 30, 1.2
    z0 = complex(-6.0, 10.0)
    d = taylor_table(n, a, z0, 0.0, 1.0, 16)
    h = 0.2 + 0.1j
    w_full, dw_full = taylor_step(d, h)
    w_half, dw_half = taylor_step(d, h / 2)
    d_mid = taylor_table(n, a, z0 + h / 2, w_half, dw_half, 16)
    w_two, dw_two = taylor_step(d_mid, h / 2)
    assert abs(w_full - w_two) <= 1e-12 * (1.0 + abs(w_full))
    assert abs(dw_full - dw_two) <= 1e-12 * (1.0 + abs(dw_full))


def test_carrier_rejects_a_table_that_overflowed():
    # the tail of this table overflows, so it bounds no step
    z0, w0 = complex(-6.0, 10.0), 1e300
    assert not cmath.isfinite(taylor_table(30, 1.2, z0, w0, w0)[-1])
    with pytest.raises(IterationDivergence):
        Carrier(30, 1.2, z0, w0, w0)


def test_iterate_T_fixed_point_at_zero():
    n, a = 2, 2.0
    root = (-3.0 + 1j * math.sqrt(3.0)) / 2.0
    carrier = Carrier(n, a, root, 0.0, 1.0)
    assert iterate_T(carrier, root) == root


def test_iterate_T_converges_to_quadratic_root():
    n, a = 2, 2.0
    root = (-3.0 + 1j * math.sqrt(3.0)) / 2.0
    other = root.conjugate()
    # transport from the conjugate zero, then iterate from a nearby guess
    carrier = Carrier(n, a, other, 0.0, 1.0)
    z = iterate_T(carrier, root + 0.05 - 0.03j, eps=1e-13)
    assert abs(z - root) <= 1e-12


def test_sweep_linear_case():
    zs = sweep(1, 7.0)
    assert len(zs) == 1
    assert zs[0] == pytest.approx(-3.5, abs=1e-12)
    assert zs[0].imag == 0.0


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_sweep_rejects_bad_eps(eps):
    with pytest.raises(ParameterOutOfRange):
        sweep(40, 2.0, eps=eps)


def test_sweep_counts_on_grid():
    for n in (1, 2, 5, 8, 15, 30, 50, 100):
        for a in (-0.4 * n + 1.5, 1.01, 1.2, 2.3, 20.2, 30.7):
            if not -0.9 * n + 1.5 <= a <= 10.0 * n:
                continue
            assert len(sweep(n, a)) == (n + 1) // 2, (n, a)


def test_sweep_contains_table_rows():
    zs = sweep(15, 1.01)
    refs = [complex(-3.1559515225814951808, 12.586271690843017387),
            complex(-6.9360218173803455640, 8.6292759166638006520)]
    for ref in refs:
        assert min(abs(z - ref) for z in zs) <= 1e-10 * abs(ref)


def test_sweep_ordering_and_conjugate_closure():
    for n, a in [(30, 1.2), (31, 2.3)]:
        zs = sweep(n, a)
        ims = [z.imag for z in zs]
        assert all(x > y for x, y in zip(ims, ims[1:]))
        full = zs + [z.conjugate() for z in zs if z.imag > 0]
        assert len(full) == n


def test_sweep_residuals():
    for n, a in [(30, 1.2), (50, 20.2)]:
        coeffs = poly_coeffs(n, a)
        for z in sweep(n, a):
            assert relative_residual(coeffs, z) <= 1e-9


def test_sweep_matches_oracle_midsize():
    n, a = 30, 1.2
    zs = sweep(n, a)
    truth = [z for z in oracle_zeros(n, a) if z.imag >= -1e-12]
    for z in zs:
        assert min(abs(z - r) / abs(r) for r in truth) <= 1e-10


def test_sweep_real_zero_snap_for_odd_degree():
    for n, a in [(3, 2.0), (15, 1.01), (31, 2.3)]:
        zs = sweep(n, a)
        assert zs[-1].imag == 0.0


def test_sweep_work_per_zero(monkeypatch):
    """Steps are sized before they are taken: every truncation estimate
    max(|d_N|, |d_{N+1}|) |h|^N / N! is at most STEP_EPS relative to the
    result, and each zero costs about one Taylor table and two steps."""
    table, step = SWEEP_MODULE.taylor_table, SWEEP_MODULE.taylor_step

    def counted_table(*args, **kwargs):
        counts["tables"] += 1
        return table(*args, **kwargs)

    def counted_step(d, h):
        counts["steps"] += 1
        w, dw = step(d, h)
        N = len(d) - 2
        est = max(abs(d[N]), abs(d[N + 1])) * abs(h) ** N / math.factorial(N)
        if est > SWEEP_MODULE.STEP_EPS * max(abs(w), abs(dw), 1.0):
            counts["over"] += 1
        return w, dw

    monkeypatch.setattr(SWEEP_MODULE, "taylor_table", counted_table)
    monkeypatch.setattr(SWEEP_MODULE, "taylor_step", counted_step)
    for n, a in [(2000, 2.3), (1000, a_from_alpha(1000, -0.835)),
                 (5000, a_from_alpha(5000, 9.9))]:
        counts = {"tables": 0, "steps": 0, "over": 0}
        zs = sweep(n, a)
        assert len(zs) == (n + 1) // 2, n
        assert counts["over"] == 0, n
        assert counts["tables"] <= 1.5 * len(zs), n
        assert counts["steps"] <= 3 * len(zs), n


@pytest.mark.parametrize("n,alpha", [
    *(pytest.param(400, alpha, id=str(alpha)) for alpha in (-0.8, 0.0, 5.0)),
    (20000, 9.9), (30000, 0.0)])
def test_sweep_agrees_with_expansion(n, alpha):
    # at n = 20000 and 30000 the first zeros lie next to the turning point
    a = a_from_alpha(n, alpha)
    zs = sweep(n, a)
    approxes = approx_all(make_params(n, a), terms=5)
    assert len(zs) == len(approxes) == (n + 1) // 2
    for z, ap in zip(zs, approxes):
        assert abs(z - ap.t) <= 5e-13 * abs(ap.t), ap.m


# the lower edge at n = 1 and 2, where the 5-term expansion is no start for
# the first zero's polish; kept out of ERR_EST_GRID because its estimate does
# not bound its error there (140 against 1.0 at (1, -0.9))
TINY_LOWER_EDGE = [(n, a_from_alpha(n, alpha)) for n in (1, 2)
                   for alpha in (-0.9, -0.89)]
SWEEP_ORACLE_GRID = sorted(set(ERR_EST_GRID) | set(TINY_LOWER_EDGE))


@pytest.mark.parametrize("n", sorted({n for n, _ in SWEEP_ORACLE_GRID}))
def test_sweep_rows_match_oracle(n):
    # a stalled sweep is checked on its partial rows
    for a in (a for nn, a in SWEEP_ORACLE_GRID if nn == n):
        try:
            zs = sweep(n, a)
        except SweepStalled as exc:
            zs = exc.partial
        for m, z in enumerate(zs, start=1):
            assert oracle_error(n, a, z) <= 1e-13, (a, m)


def test_first_zero_polish_stops_at_double_precision(monkeypatch):
    # at high alpha the Horner sum's rounding holds the Newton steps near
    # 1e-30; the polish stops once a step cannot move the double it returns
    calls = []
    horner = SWEEP_MODULE.horner

    def counted(coefs, z):
        calls.append(z)
        return horner(coefs, z)

    monkeypatch.setattr(SWEEP_MODULE, "horner", counted)
    n, a = 13, 130.0
    zs = sweep(n, a)
    assert 1 <= len(calls) <= 4
    assert len(zs) == 7
    for m, z in enumerate(zs, start=1):
        assert oracle_error(n, a, z) <= 1e-13, m


LOWER_EDGE_STALL = pytest.mark.xfail(
    strict=True, raises=SweepStalled,
    reason="the half-period predictor stalls near the lower window edge")


@pytest.mark.parametrize("n,alpha", [
    pytest.param(100, -0.88, marks=LOWER_EDGE_STALL),
    pytest.param(400, -0.86, marks=LOWER_EDGE_STALL),
    pytest.param(1000, -0.86, marks=LOWER_EDGE_STALL),
    pytest.param(10000, -0.89, marks=LOWER_EDGE_STALL),
    (100, -0.86), (400, -0.84), (1000, -0.835),
])
def test_sweep_lower_edge(n, alpha):
    a = a_from_alpha(n, alpha)
    params = make_params(n, a)
    stall = None
    try:
        zs = sweep(n, a)
    except SweepStalled as exc:
        zs, stall = exc.partial, exc
    # every row returned, before a stall too, matches the expansion
    assert zs
    lg = build_lg_table(params)
    for m, z in enumerate(zs, start=1):
        ref = approx_zero(params, lg, m).t
        assert abs(z - ref) <= 1e-10 * abs(ref), m
    if stall is not None:
        raise stall
    assert len(zs) == params.num_upper_zeros
