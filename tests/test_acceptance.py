"""End-to-end acceptance gates.

Each test checks one shipping criterion and prints exactly one
"[criterion N] ...: PASS|FAIL" line (written past pytest's capture so the
verdicts always appear in the run log).
"""

import math
import random
import time
from fractions import Fraction

from scipy.integrate import quad

from rgbpzeros import (approx_all, approx_zero, build_lg_table, make_params,
                       oracle_zeros, sweep)
from rgbpzeros.expansion import solve_tau0
from rgbpzeros.lg_coeffs import coeff_E, coeff_G
from rgbpzeros.sweep import taylor_step, taylor_table

from reference import const_a, d_expansion_error

TABLE_A101 = {
    (15, 1): complex(-3.1559515225814951808, 12.586271690843017387),
    (15, 3): complex(-6.9360218173803455640, 8.6292759166638006520),
    (30, 1): complex(-4.2425750716206130472, 27.006358468998877565),
    (30, 3): complex(-9.7584463264409865096, 22.392832031435945931),
    (30, 10): complex(-18.102790325129739597, 9.4722422021510892034),
    (30, 15): complex(-19.702854218331257062, 0.85611271550820061202),
    (50, 1): complex(-5.2055266715795128190, 46.482961682470093754),
    (50, 3): complex(-12.181102558122645217, 41.239145916888100131),
    (50, 10): complex(-24.683402130958153499, 27.225504025486397962),
    (50, 15): complex(-29.379559025204265717, 18.222895815367965462),
    (50, 25): complex(-32.962750529211803345, 0.86074820845854851940),
}

TABLE_A202 = {
    (15, 1): complex(-12.715856054909203812, 18.788546633810651464),
    (15, 3): complex(-16.514653825298059143, 12.612556755577648289),
    (30, 1): complex(-13.800334806578766149, 34.380365451162645216),
    (30, 3): complex(-19.310221900147056579, 28.210989284732813206),
    (30, 10): complex(-27.717880396627235555, 11.750965665786499280),
    (30, 15): complex(-29.339399892921113584, 1.0590134228243351098),
    (50, 1): complex(-14.766307319696546646, 54.504885286408130512),
    (50, 3): complex(-21.724567399352576652, 48.087744580616150218),
    (50, 10): complex(-34.260698846474016613, 31.438165321383787957),
    (50, 15): complex(-38.989834370513922989, 20.967450446744804559),
    (50, 25): complex(-42.605131456252572254, 0.98772884689217274567),
}


def _verdict(capsys, num: int, name: str, ok: bool) -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _table_check(a: float, table) -> bool:
    t0 = time.perf_counter()
    ok = True
    for n in sorted({n for n, _ in table}):
        p = make_params(n, a)
        res = approx_all(p, terms=5)
        for (nn, m), ref in table.items():
            if nn != n:
                continue
            got = res[m - 1].t
            ok = ok and abs(got - ref) / abs(ref) <= 1e-10
    return ok and time.perf_counter() - t0 < 1.0


def test_criterion_1_reference_table_low_a(capsys):
    _verdict(capsys, 1, "reference zero table, a=1.01 (11 rows, <1 s)",
             _table_check(1.01, TABLE_A101))


def test_criterion_2_reference_table_high_a(capsys):
    _verdict(capsys, 2, "reference zero table, a=20.2 (11 rows)",
             _table_check(20.2, TABLE_A202))


def test_criterion_3_newton_anchor(capsys):
    p = make_params(30, 1.01)
    tau0, resid, _ = solve_tau0(p, 10)
    w = tau0 + 0.5
    ok = abs(w - complex(-0.0935299175, 0.310545771)) <= 1e-9
    ok = ok and resid <= 1e-12
    _verdict(capsys, 3, "implicit-equation anchor (n=30, a=1.01, m=10)", ok)


def test_criterion_4_sweep_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    ok = True
    for n in (2, 5, 8, 15, 30, 50):
        for a in (1.01, 1.2, 2.3, 20.2, 30.7, -0.4 * n + 1.5):
            if not -0.9 * n + 1.5 <= a <= 10.0 * n:
                continue  # outside the admissible parameter strip
            swept = sweep(n, a)
            ok = ok and len(swept) == (n + 1) // 2
            full = swept + [z.conjugate() for z in swept if z.imag > 0]
            ok = ok and len(full) == n
            truth = [z for z in oracle_zeros(n, a) if z.imag >= -1e-12]
            used = set()
            for z in swept:
                j = min(range(len(truth)), key=lambda i: abs(truth[i] - z))
                ok = (ok and j not in used
                      and abs(z - truth[j]) / abs(truth[j]) <= 1e-10)
                used.add(j)
    ok = ok and time.perf_counter() - t0 < 60.0
    _verdict(capsys, 4, "sweep vs oracle on the (n, a) grid (<60 s)", ok)


def test_criterion_5_error_improves_with_parameter(capsys):
    n, m = 15, 3
    errs = {}
    ok = True
    for a in (2.0, 10.0, 20.0, 30.0, 40.0):
        p = make_params(n, a)
        lg = build_lg_table(p)
        ap = approx_zero(p, lg, m, terms=5)
        truth = [z for z in oracle_zeros(n, a) if z.imag >= -1e-12]
        errs[a] = min(abs(ap.t - r) / abs(r) for r in truth)
        ok = ok and errs[a] <= 1e-10
    ok = ok and errs[40.0] < errs[2.0]
    _verdict(capsys, 5, "5-term error shrinks as the parameter grows (n=15, m=3)", ok)


def test_criterion_6_coefficient_machinery(capsys):
    ok = const_a(3) == Fraction(1105, 10368)

    # recursion vs adaptive quadrature at s = 3..7
    rng = random.Random(20240824)
    for _ in range(20):
        alpha = rng.uniform(-0.8, 2.5)
        phi = rng.uniform(0.1, 1.5)
        p = make_params(40, alpha * 40.5 + 2.0)
        G = coeff_G(p)
        E = coeff_E(p, 7)
        dE = [None] + [e.differentiate() for e in E[1:]]
        for s in range(2, 7):
            def integrand(x, s=s):
                return (G.evaluate(x)
                        * sum(dE[j].evaluate(x) * dE[s - j].evaluate(x)
                              for j in range(1, s))).real
            oracle = (G.evaluate(phi) * dE[s].evaluate(phi)
                      + quad(integrand, 0.0, phi, limit=200)[0])
            direct = E[s + 1].evaluate(phi)
            ok = ok and abs(direct - oracle) <= 1e-10 * (1.0 + abs(direct))
        for s in range(1, 8):
            ok = ok and abs(E[s].evaluate(0.0)) <= 1e-14

    errs = {u: d_expansion_error(0.5, u, 4) for u in (50.0, 100.0)}
    ratio = errs[100.0] / errs[50.0]
    ok = ok and 0.5 * 2.0 ** -9 <= ratio <= 2.0 * 2.0 ** -9
    _verdict(capsys, 6, "coefficient recursion, pinning, and remainder scaling", ok)


def test_criterion_7_taylor_machinery(capsys):
    import sympy

    ok = True
    zs = sympy.symbols("z")
    closed = {1: (zs + 1) * sympy.exp(-zs) / zs,
              2: (zs**2 + 3 * zs + 3) * sympy.exp(-zs) / zs**2}
    z0 = complex(1.2, 0.8)
    for n, expr in closed.items():
        w0 = complex(expr.subs(zs, z0))
        dw0 = complex(sympy.diff(expr, zs).subs(zs, z0))
        d = taylor_table(n, 2.0, z0, w0, dw0, 10)
        for k in range(9):
            ref = complex(sympy.diff(expr, zs, k).subs(zs, z0))
            ok = ok and abs(d[k] - ref) <= 1e-10 * (1.0 + abs(ref))

    d = taylor_table(30, 1.2, complex(-6.0, 10.0), 0.0, 1.0, 16)
    h = 0.2 + 0.1j
    w_full, dw_full = taylor_step(d, h)
    w_half, dw_half = taylor_step(d, h / 2)
    d_mid = taylor_table(30, 1.2, complex(-6.0, 10.0) + h / 2,
                         w_half, dw_half, 16)
    w_two, dw_two = taylor_step(d_mid, h / 2)
    ok = ok and abs(w_full - w_two) <= 1e-12 * (1.0 + abs(w_full))
    ok = ok and abs(dw_full - dw_two) <= 1e-12 * (1.0 + abs(dw_full))
    _verdict(capsys, 7, "derivative tables vs closed forms; step consistency", ok)


def test_criterion_8_sweep_performance(capsys):
    def timed(n):
        sweep(n, 2.3)  # warm-up
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            sweep(n, 2.3)
            best = min(best, time.perf_counter() - t0)
        return best

    t30 = timed(30)
    t2000 = timed(2000)
    ok = t2000 < 0.5 and t2000 / t30 <= 50.0
    _verdict(capsys, 8, f"sweep timing (n=2000: {t2000:.3f} s, "
                f"ratio {t2000 / t30:.1f}x)", ok)
