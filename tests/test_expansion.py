import math
import random

import pytest

from rgbpzeros import (ApproximationFailures, NewtonDivergence, approx_all,
                       approx_zero, build_lg_table, make_params, oracle_zeros)
from rgbpzeros import expansion
from rgbpzeros.expansion import solve_tau0
from rgbpzeros.jets import JetOps
from rgbpzeros.sweep import Carrier, iterate_T
from rgbpzeros.trig_series import PhiSeries

from reference import ERR_EST_GRID, oracle_error

NEWTON_ANCHOR_W = complex(-0.0935299175, 0.310545771)


def test_newton_anchor():
    p = make_params(30, 1.01)
    tau0, resid, iters = solve_tau0(p, 10)
    w = tau0 + 0.5
    assert abs(w - NEWTON_ANCHOR_W) <= 5e-10
    assert resid <= 1e-13
    assert 1 <= iters <= 50


def test_tau0_residuals_on_grid():
    for n, a in [(15, 1.01), (30, 1.01), (50, 20.2), (30, 30.7)]:
        p = make_params(n, a)
        for m in (1, p.num_upper_zeros // 2 + 1, p.num_upper_zeros):
            _, resid, _ = solve_tau0(p, m)
            assert resid <= 1e-13


def test_leading_order_consistency():
    # u*tau0 is already within 0.5 of the fully corrected zero
    p = make_params(30, 1.01)
    tau0, _, _ = solve_tau0(p, 10)
    target = complex(-18.102790325129739597, 9.4722422021510892034)
    assert abs(p.u * tau0 - target) <= 0.5


def test_m_range_validation():
    p = make_params(30, 1.01)
    with pytest.raises(ValueError):
        solve_tau0(p, 0)
    with pytest.raises(ValueError):
        solve_tau0(p, 16)


def test_table_rows():
    rows = [
        (15, 1.01, 1, complex(-3.1559515225814951808, 12.586271690843017387)),
        (30, 20.2, 10, complex(-27.717880396627235555, 11.750965665786499280)),
    ]
    for n, a, m, ref in rows:
        p = make_params(n, a)
        lg = build_lg_table(p)
        ap = approx_zero(p, lg, m, terms=5)
        assert abs(ap.t - ref) / abs(ref) <= 1e-10
        assert ap.terms_used == 5


def test_terms_truncation_improves_accuracy():
    n, a = 30, 1.2
    p = make_params(n, a)
    lg = build_lg_table(p)
    truth = [z for z in oracle_zeros(n, a) if z.imag >= -1e-12]

    def err(terms):
        ap = approx_zero(p, lg, 1, terms=terms)
        return min(abs(ap.t - r) / abs(r) for r in truth)

    assert err(1) / err(5) >= 1e3


def test_terms_bounds():
    p = make_params(30, 1.2)
    lg = build_lg_table(p)
    with pytest.raises(ValueError):
        approx_zero(p, lg, 1, terms=0)
    with pytest.raises(ValueError):
        approx_zero(p, lg, 1, terms=6)


@pytest.mark.parametrize("terms", [0, 6, 9])
def test_approx_all_rejects_bad_terms(terms):
    # one usage error up front, not one ApproximationFailures entry per index
    with pytest.raises(ValueError, match="terms must be in 1..5"):
        approx_all(make_params(30, 1.2), terms=terms)


@pytest.mark.parametrize("terms", [2, 3, 4, 5])
def test_cascade_reverts_the_zero_condition(terms):
    # with zeta and each U_s the polynomials in tau - tau_0 that their jets
    # spell out, zeta(tau_0 + delta) - zeta(tau_0) + sum_s eps^s U_s(tau_0
    # + delta) at delta = sum_k tau_k eps^k is O(eps^terms): halving eps
    # divides it by 2^terms
    rng = random.Random(terms)

    def jet(length):
        return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(length)]

    zeta = jet(5)
    zeta[1] += 2.0  # zeta'(tau_0), the cascade's divisor, away from 0
    ups = [jet(terms - s) for s in range(1, terms)]
    taus = expansion._tau_cascade(zeta, ups)
    assert len(taus) == terms - 1

    def residual(eps):
        delta = sum(t * eps ** k for k, t in enumerate(taus, start=1))
        total = sum(c * delta ** i for i, c in enumerate(zeta) if i)
        for s, U in enumerate(ups, start=1):
            total += eps ** s * sum(c * delta ** i for i, c in enumerate(U))
        return abs(total)

    assert abs(math.log2(residual(1e-3) / residual(5e-4)) - terms) <= 0.05


def test_approx_all_counts_and_ordering():
    for n in (30, 31):
        p = make_params(n, 2.3)
        res = approx_all(p)
        assert len(res) == (n + 1) // 2
        assert [ap.m for ap in res] == list(range(1, (n + 1) // 2 + 1))
        ims = [ap.t.imag for ap in res]
        assert all(x > y for x, y in zip(ims, ims[1:]))
        assert all(ap.t.imag >= 0.0 for ap in res)


def test_low_degree_flagged():
    p = make_params(1, 7.0)
    res = approx_all(p)
    assert len(res) == 1
    assert res[0].err_est >= 1e-3
    # theta_1 vanishes at exactly -a/2
    assert abs(res[0].t - (-3.5)) <= 0.05


def test_residual_decay_in_terms():
    from rgbpzeros.polynomials import poly_coeffs, relative_residual

    n, a = 30, 1.2
    p = make_params(n, a)
    lg = build_lg_table(p)
    coeffs = poly_coeffs(n, a)
    resids = [relative_residual(coeffs, approx_zero(p, lg, 1, terms=t).t)
              for t in range(1, 6)]
    # decay is monotone until the double-precision evaluation noise floor
    floor = 1e-15
    assert all(x > y or x <= floor for x, y in zip(resids, resids[1:]))
    assert resids[4] <= 1e-4 * resids[0]


def test_err_est_rule():
    floor = expansion.ERR_EST_FLOOR
    # decreasing terms: the last one
    assert expansion._err_est([1e-3, 1e-6, 1e-9, 1e-12]) == 1e-12
    # terms that grow: the largest
    assert expansion._err_est([1e-6, 1e-4, 1e-9, 1e-12]) == 1e-4
    assert expansion._err_est([1e-6, 1e-9, 1e-12, 1e-11]) == 1e-6
    # noise below the floor is not growth, and the floor is the least
    assert expansion._err_est([1e-6, 1e-9, 1e-15, 1e-14]) == floor
    assert expansion._err_est([1e-6, 1e-9, 1e-15, 1e-12]) == 1e-6
    assert expansion._err_est([1e-9, 1e-18, 1e-15]) == floor
    assert expansion._err_est([1e-9, 1e-18, 1e-12]) == 1e-9
    # one term has no estimate
    assert math.isnan(expansion._err_est([]))


def test_err_est_of_the_rows():
    p = make_params(30, 1.2)
    lg = build_lg_table(p)
    assert math.isnan(approx_zero(p, lg, 1, terms=1).err_est)
    ests = [approx_zero(p, lg, 1, terms=t).err_est for t in range(2, 6)]
    assert all(x > y for x, y in zip(ests, ests[1:]))
    # series rows and rows solved one by one
    for n in (100, 1000):
        for ap in approx_all(make_params(n, 2.3)):
            assert expansion.ERR_EST_FLOOR <= ap.err_est < 1e-12


@pytest.mark.parametrize("n", sorted({n for n, _ in ERR_EST_GRID}))
def test_err_est_bounds_oracle_error(n):
    for a in (a for nn, a in ERR_EST_GRID if nn == n):
        for ap in approx_all(make_params(n, a)):
            assert ap.err_est >= oracle_error(n, a, ap.t), (a, ap.m)


def _count_calls(monkeypatch, counts, holder, attr):
    original = getattr(holder, attr)

    def counted(*args, **kwargs):
        counts[attr] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(holder, attr, counted)


def test_expansion_work_per_zero(monkeypatch):
    # jet work of one zero: the powers of zeta^-3 are built once, the odd
    # E-coefficients are each evaluated once, by Horner in sin, and each
    # correction jet is only as long as the cascade reads
    counts = {"mul": 0, "evaluate_jet": 0}
    _count_calls(monkeypatch, counts, JetOps, "mul")
    _count_calls(monkeypatch, counts, PhiSeries, "evaluate_jet")
    p = make_params(200, 20.2)
    lg = build_lg_table(p)

    def per_zero(terms):
        counts.update(mul=0, evaluate_jet=0)
        zeros = p.num_upper_zeros
        for m in range(1, zeros + 1):
            approx_zero(p, lg, m, terms=terms)
        return {name: count / zeros for name, count in counts.items()}

    work = per_zero(5)
    assert work["mul"] <= 127
    assert work["evaluate_jet"] == 4
    # three terms read U1 and U2 alone, so E_5 and E_7 are never evaluated
    work = per_zero(3)
    assert work["mul"] <= 35
    assert work["evaluate_jet"] == 2
    # one term is tau_0 alone
    assert per_zero(1) == {"mul": 0, "evaluate_jet": 0}


def test_expansion_work_per_problem(monkeypatch):
    # approx_all runs the per-zero kernel at the Chebyshev nodes only (33
    # here, against one per zero: 100 solves, 400 evaluate_jet calls), and
    # a node solves only the terms whose series is still open: tau_3 and
    # tau_4 close at 9 nodes, so five terms at every node (132 calls) is
    # never paid
    counts = {"solve_tau0": 0, "evaluate_jet": 0}
    _count_calls(monkeypatch, counts, expansion, "solve_tau0")
    _count_calls(monkeypatch, counts, PhiSeries, "evaluate_jet")
    assert len(approx_all(make_params(200, 20.2), terms=5)) == 100
    assert counts["solve_tau0"] <= 33
    assert counts["evaluate_jet"] <= 60


def _a_from_alpha(n, alpha):
    return 2.0 + alpha * (n + 0.5)


def _rows_one_by_one(p, terms=5):
    lg = build_lg_table(p)
    return [approx_zero(p, lg, m, terms)
            for m in range(1, p.num_upper_zeros + 1)]


@pytest.mark.parametrize("n,alpha", [
    (n, alpha) for n in (49, 60, 130, 200, 1000, 3000)
    for alpha in (-0.9, -0.88, 0.0, 2.3, 9.5)] + [(15000, 9.9)])
def test_series_rows_match_rows_one_by_one(monkeypatch, n, alpha):
    # every row from the series, none solved on its own (at small M the
    # series may do more kernel work than the rows: at (49, -0.9) 33 tau_0
    # solves and 116 evaluate_jet calls, against 25 and 100); at (15000,
    # 9.9) the first node lies next to the turning point
    p = make_params(n, _a_from_alpha(n, alpha))
    counts = {"approx_zero": 0}
    _count_calls(monkeypatch, counts, expansion, "approx_zero")
    rows = approx_all(p)
    assert counts["approx_zero"] == 0
    monkeypatch.undo()
    direct = _rows_one_by_one(p)
    assert [ap.m for ap in rows] == [ap.m for ap in direct]
    for ap, ref in zip(rows, direct):
        assert abs(ap.t - ref.t) <= 1e-13 * abs(ref.t), ap.m
        assert len(ap.tau) == ap.terms_used == 5


def test_refused_series_gives_rows_one_by_one(monkeypatch):
    # a series whose tail test fails at the last level is refused, and
    # every row is solved on its own
    monkeypatch.setattr(expansion, "SERIES_TAIL_RTOL", 0.0)
    p = make_params(300, 2.3)
    assert approx_all(p) == _rows_one_by_one(p)


def test_series_closing_together_gives_the_same_rows(monkeypatch):
    # every tau_s kept open until tau_0's own tail closes, so every node
    # solves all five terms: the rows agree with the adaptive ones
    p = make_params(300, 2.3)
    adaptive = approx_all(p)
    open_after = expansion._open_after

    def together(weights, coeffs, open_terms, scale):
        return 0 if open_after(weights, coeffs, 1, scale) == 0 else open_terms

    counts = {"evaluate_jet": 0}
    _count_calls(monkeypatch, counts, PhiSeries, "evaluate_jet")
    monkeypatch.setattr(expansion, "_open_after", together)
    rows = approx_all(p)
    assert counts["evaluate_jet"] == 4 * 33
    for ap, ref in zip(rows, adaptive, strict=True):
        assert abs(ap.t - ref.t) <= 1e-13 * abs(ref.t), ap.m


LOWER_EDGE = [(2000, -0.9), (4000, -0.9), (4000, -0.89), (10000, -0.88),
              (20000, -0.88)] + [(n, alpha) for n in (10000, 20000)
                                 for alpha in (-0.9, -0.895, -0.89)]
NEAR_TURNING_POINT = [(16000, 9.9), (20000, 5.0), (20000, 9.9), (30000, 0.0),
                      (100000, 0.0), (100000, 7.5)]


def _transport(p, at, start):
    """The zero near ``start`` of the solution that vanishes at ``at``."""
    return iterate_T(Carrier(p.n, p.a, at, 0.0, 1.0), start)


def _assert_first_rows_match_transported_zeros(n, alpha):
    """Walk up the arc from rows 11 and 10 and compare rows 1..9 with the
    zeros it reaches."""
    p = make_params(n, _a_from_alpha(n, alpha))
    lg = build_lg_table(p)
    z = [None] + [approx_zero(p, lg, m).t for m in range(1, 12)]
    walk = {11: z[11], 10: z[10]}
    for m in range(9, 0, -1):
        walk[m] = _transport(p, walk[m + 1], 2 * walk[m + 1] - walk[m + 2])
    for m in range(1, 10):
        assert abs(z[m] - walk[m]) <= 5e-14 * abs(walk[m]), m
    # z_1 from the solution through the expansion's z_2 agrees as well
    z1 = _transport(p, z[2], 2 * z[2] - z[3])
    assert abs(z[1] - z1) <= 5e-14 * abs(z1)


@pytest.mark.parametrize("n,alpha", LOWER_EDGE)
def test_lower_edge_rows_match_transported_zeros(n, alpha):
    # near the lower edge tau_0 has roots right of the segment
    # Re(tau + alpha/2) = 0 too, and a row built on one is 1e-2 to 4e-2
    # off; Newton from w = 0 reaches them for the first 1 to 8 rows here,
    # and the walk starts past those
    _assert_first_rows_match_transported_zeros(n, alpha)


@pytest.mark.parametrize("n,alpha", NEAR_TURNING_POINT)
def test_turning_point_rows_match_transported_zeros(n, alpha):
    # from n ~ 15000 the first rows lie within 1e-3 (1 + |z1|) of the
    # turning point z1, where the expansion takes no special case: it is
    # uniform there.  At m = 1 here tau_3 and tau_4 reach 1e9 to 6e24, but
    # enter t through u^-6 and u^-8 at no more than 1.3e-16 of it
    _assert_first_rows_match_transported_zeros(n, alpha)


def test_lower_edge_first_rows_are_polynomial_zeros():
    # the extended-precision Newton step of theta_n at each row
    import mpmath as mp

    from rgbpzeros.polynomials import horner, typed_coeffs

    n, alpha = 2000, -0.9
    p = make_params(n, _a_from_alpha(n, alpha))
    lg = build_lg_table(p)
    with mp.workdps(n // 2 + 100):
        coefs = typed_coeffs(n, mp.mpf(p.a))
        for m in (1, 2, 3):
            t = approx_zero(p, lg, m).t
            value, slope = horner(coefs, mp.mpc(t))
            assert abs(value / slope) <= 1e-13 * abs(t), m


@pytest.mark.parametrize("n,alpha,ms", [
    (100000, 7.5, (1,)), (10 ** 6, 5.0, (1, 35)),
    (10 ** 6, 9.9, (1, 2, 5, 6, 7, 13, 15, 20))])
def test_solve_tau0_converges_next_to_the_turning_point(n, alpha, ms):
    # tau_0's equation is ill-conditioned there (xi' = Z/tau -> 0): Newton
    # reaches tau_0, and then its step stays just above NEWTON_TOL
    p = make_params(n, _a_from_alpha(n, alpha))
    for m in ms:
        _, resid, _ = solve_tau0(p, m)
        assert resid <= 1e-13, m


def test_solve_tau0_restarts_from_a_root_right_of_the_segment(monkeypatch):
    p = make_params(2000, _a_from_alpha(2000, -0.9))
    xs = []
    residual = expansion._tau0_residual

    def recorded(params, tau, xi_target):
        xs.append((tau + 0.5 * params.alpha).real)
        return residual(params, tau, xi_target)

    monkeypatch.setattr(expansion, "_tau0_residual", recorded)
    tau0, resid, iters = solve_tau0(p, 1)
    # Newton from w = 0 first reaches a root right of the segment
    assert max(xs) > 5e-3
    assert (tau0 + 0.5 * p.alpha).real < -1e-2
    assert resid <= 1e-13
    assert iters == len(xs) - 1


def test_failing_node_gives_failures_one_by_one(monkeypatch):
    solve = expansion.solve_tau0

    def failing(params, m, xi_target=None):
        if m is None or m == 7:
            raise NewtonDivergence("forced")
        return solve(params, m, xi_target)

    monkeypatch.setattr(expansion, "solve_tau0", failing)
    p = make_params(300, 2.3)
    with pytest.raises(ApproximationFailures) as info:
        approx_all(p)
    failures, results = info.value.failures, info.value.results
    assert [m for m, _ in failures] == [7]
    assert isinstance(failures[0][1], NewtonDivergence)
    monkeypatch.undo()
    direct = _rows_one_by_one(p)
    assert [ap.t for ap in results] == [ap.t for ap in direct if ap.m != 7]


def test_programming_error_in_a_row_propagates(monkeypatch):
    # a failed index is a failure that a series node also catches; a
    # TypeError is a programming error
    solve = expansion.solve_tau0

    def broken(params, m, xi_target=None):
        if m == 7:
            raise TypeError("forced")
        return solve(params, m, xi_target)

    monkeypatch.setattr(expansion, "solve_tau0", broken)
    with pytest.raises(TypeError):
        approx_all(make_params(30, 1.2))


def test_arithmetic_error_in_newton_gives_newton_divergence(monkeypatch):
    def failing(params, tau, xi_target):
        raise ValueError("forced")

    monkeypatch.setattr(expansion, "_tau0_residual", failing)
    with pytest.raises(NewtonDivergence) as info:
        solve_tau0(make_params(30, 1.2), 1)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("n", [15, 30, 47])
def test_few_zeros_solved_one_by_one(n):
    # with at most 24 zeros the series would cost more than the rows
    for alpha in (-0.84, 2.3):
        p = make_params(n, _a_from_alpha(n, alpha))
        assert approx_all(p) == _rows_one_by_one(p)


def test_tau_holds_the_terms_used():
    p = make_params(30, 1.2)
    lg = build_lg_table(p)
    full = approx_zero(p, lg, 4, terms=5)
    for terms in range(1, 6):
        ap = approx_zero(p, lg, 4, terms=terms)
        assert len(ap.tau) == terms
        # a shorter expansion computes the same leading coefficients
        assert ap.tau == full.tau[:terms]
