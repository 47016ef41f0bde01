"""Discretized variational solver for the rate functions.

The discrete action is checked on paths with known continuum limits, and the
minimizer is cross-checked against the closed-form rates and, through the
envelope identity, its Lagrange multiplier against their strike derivative.
"""

import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from cevasian import ConvergenceError, ModelParams
from cevasian import varsolve
from cevasian.model import rate_unit
from cevasian.float_strike import rate_float_cev
from cevasian.rate_cev import rate_cev
from cevasian.varsolve import (PathGrid, _action_and_grad, _hessian, _kkt_step, _rescale,
                               _smooth_shape, action, default_n, minimize_fixed, minimize_float)
from oracles import richardson_fixed

closed_rel = 1e-4  # discretization error at the default grid is ~1e-6


def linear_path(n):
    t = np.linspace(0.0, 1.0, n + 1)
    return PathGrid(n=n, values=1.0 + t)


def test_action_linear_path_against_continuum_value():
    # for g(t) = 1 + t, beta = 1/2, sigma = 1 the action is (1/2) log 2
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    exact = 0.5 * math.log(2.0)
    assert action(linear_path(800), params) == pytest.approx(exact, abs=5e-8)


def test_action_second_order_refinement():
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    exact = 0.5 * math.log(2.0)
    e100 = abs(action(linear_path(100), params) - exact)
    e200 = abs(action(linear_path(200), params) - exact)
    assert 3.8 < e100 / e200 < 4.2


def test_action_scaling_identities():
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    path = linear_path(64)
    base = action(path, params)
    # at beta = 1/2 the action is 1-homogeneous in the path level
    scaled = PathGrid(n=64, values=3.0 * path.values)
    assert action(scaled, params) == pytest.approx(3.0 * base, rel=1e-12)
    # and always proportional to 1/sigma^2
    half_vol = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    assert action(path, half_vol) == pytest.approx(4.0 * base, rel=1e-12)


def test_minimize_fixed_matches_closed_form():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    for K, n in ((0.6, 400), (1.7, 800)):
        ref = rate_cev(K, params).value
        assert minimize_fixed(K, params, n=n) == pytest.approx(ref, rel=closed_rel)


def test_minimize_fixed_general_beta():
    params = ModelParams(S0=1.0, sigma=0.4, beta=0.75)
    ref = rate_cev(1.5, params).value
    assert minimize_fixed(1.5, params, n=800) == pytest.approx(ref, rel=closed_rel)


def test_full_output_diagnostics():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    val, info = minimize_fixed(2.0, params, n=400, full_output=True)
    for key in ("converged", "constraint_err", "lam", "floor_active", "path",
                "n", "iterations", "kkt_residual"):
        assert key in info
    assert info["converged"] is True
    assert 1 <= info["iterations"] <= 10
    assert 0.0 <= info["kkt_residual"] <= 1e-12
    assert abs(info["constraint_err"]) < 1e-7
    assert info["floor_active"] is False
    path = info["path"]
    assert isinstance(path, PathGrid)
    assert path.n == 400
    assert len(path.values) == 401
    assert path.values[0] == pytest.approx(1.0)
    assert np.all(path.values > 0.0)
    # trapezoid average of the optimal path hits the strike constraint
    w = np.full(401, 1.0 / 400)
    w[0] = w[-1] = 0.5 / 400
    assert float(w @ path.values) == pytest.approx(2.0, abs=1e-7)
    # call path rises monotonically from the spot
    assert np.all(np.diff(path.values) > -1e-9)


def test_put_path_decreases():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    _, info = minimize_fixed(0.5, params, n=400, full_output=True)
    assert np.all(np.diff(info["path"].values) < 1e-9)


@pytest.mark.parametrize("beta, m", [(0.5, 1.6), (0.75, 1.6), (0.75, 0.6), (0.9, 0.3)])
def test_multiplier_is_the_strike_derivative_of_the_rate(beta, m):
    # envelope identity: the multiplier of min A - lam (mean - K) is dI/dK
    params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
    _, info = minimize_fixed(m, params, n=400, full_output=True)
    h = 1e-4 * m
    dI_dK = (rate_cev(m + h, params).value - rate_cev(m - h, params).value) / (2.0 * h)
    assert info["lam"] == pytest.approx(dI_dK, rel=1e-4)


def test_certified_value_stays_near_the_initial_guess():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    val = minimize_fixed(0.7, params, n=400)
    assert val == pytest.approx(rate_cev(0.7, params).value, rel=1e-4)


def test_minimize_float_matches_closed_form_at_beta_half():
    params = ModelParams(S0=1.0, sigma=0.6, beta=0.5)
    ref = rate_float_cev(1.4, params).value
    assert minimize_float(1.4, params, n=800) == pytest.approx(ref, rel=5e-5)


def test_minimize_float_regression_general_beta():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.9)
    val, info = minimize_float(0.8, params, n=800, full_output=True)
    assert val == pytest.approx(0.32597782727892405, rel=1e-4)
    assert info["converged"] is True


def test_at_the_money_paths_are_flat():
    for S0, n in ((1.5, 200), (1.0, 800)):
        params = ModelParams(S0=S0, sigma=0.5, beta=0.75)
        for val, info in (minimize_fixed(S0, params, n=n, full_output=True),
                          minimize_float(1.0, params, n=n, full_output=True)):
            assert val == 0.0
            assert np.all(info["path"].values == S0)


def test_invalid_inputs():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    with pytest.raises(ValueError):
        minimize_fixed(0.0, params, n=100)
    with pytest.raises(ValueError):
        minimize_fixed(-1.0, params, n=100)
    with pytest.raises(ValueError):
        minimize_float(0.0, params, n=100)
    with pytest.raises(ValueError):
        minimize_float(-0.3, params, n=100)


@pytest.mark.parametrize("minimize, name", [(minimize_fixed, "K/S0"), (minimize_float, "kappa")])
def test_target_at_or_below_the_reference_weight_is_refused(minimize, name):
    # node 0 (fixed) or node n (floating) alone has trapezoid weight 1/(2n),
    # so no positive path has a mean of 1/(2n) times it or less
    params = ModelParams(S0=2.0, sigma=0.5, beta=0.75)
    for m in (5e-4, 1.0 / 1600):
        target = m * params.S0 if minimize is minimize_fixed else m
        with pytest.raises(ValueError, match=rf"{name} = .* 1/\(2n\) = 0.000625"):
            minimize(target, params)
    with pytest.raises(ValueError, match=r"1/\(2n\) = 0.005"):
        minimize(0.004 * (params.S0 if minimize is minimize_fixed else 1.0), params, n=100)


def test_strike_over_a_spot_beyond_the_doubles_is_named():
    # K/S0 = 1/5e-324 overflows while the rate unit S0/sigma^2 = 5e-4 is a double
    params = ModelParams(S0=5e-324, sigma=1e-160, beta=0.5)
    with pytest.raises(ValueError, match=r"^K/S0 = inf is not a finite double$"):
        minimize_fixed(1.0, params)


@pytest.mark.parametrize("minimize", [minimize_fixed, minimize_float])
def test_grid_size_must_be_a_positive_integer(minimize):
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    for n in (0, -3, 2.5, 800.0, True, "800", None):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
            minimize(1.5, params, n=n)
    assert minimize(1.5, params, n=np.int64(400)) == minimize(1.5, params, n=400)


def trapezoid_mean(values):
    n = len(values) - 1
    w = np.full(n + 1, 1.0 / n)
    w[0] = w[-1] = 0.5 / n
    return float(w @ values)


@pytest.mark.parametrize("beta", [0.5, 0.75, 0.9])
def test_constraint_met_to_rounding_on_the_benchmark_cases(beta):
    params = ModelParams(S0=1.0, sigma=0.5, beta=beta, r=0.03, q=0.01)
    for m in (0.3, 0.6, 1.5, 3.0):
        _, info = minimize_fixed(m, params, n=800, full_output=True)
        assert abs(trapezoid_mean(info["path"].values) - m) <= 1e-12
    for kappa in (0.5, 2.0):
        _, info = minimize_float(kappa, params, n=800, full_output=True)
        g = info["path"].values
        assert abs(trapezoid_mean(g) - kappa * g[-1]) <= 1e-12


def test_minimize_float_small_kappa_matches_closed_form():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    for kappa in (0.08, 0.1, 0.15, 0.2):
        ref = rate_float_cev(kappa, params).value
        assert minimize_float(kappa, params, n=800) == pytest.approx(ref, rel=1e-4)


def test_deep_put_matches_closed_form():
    # the optimal paths sink to 6e-11 S0 (beta = 1/2, K/S0 = 0.04) and 7e-7 S0
    # (beta = 0.6); near beta = 1/2 the continuation ladder reaches strikes
    # where a shooting start found no bracket for the path's end value
    cases = [(0.5, 0.04), (0.6, 0.03)] + [
        (beta, m) for beta in (0.5, 0.5001, 0.501) for m in (0.02, 0.01, 3e-3)]
    for beta, m in cases:
        params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
        val, info = minimize_fixed(m, params, n=800, full_output=True)
        assert abs(trapezoid_mean(info["path"].values) - m) <= 1e-12
        assert val == pytest.approx(rate_cev(m, params).value, rel=1e-4)


def rising_then_falling_path(n):
    t = np.linspace(0.0, 1.0, n + 1)
    return 1.0 + 0.4 * np.sin(5.0 * t) - 0.3 * t  # rises, then falls below S0


@pytest.mark.parametrize("beta", [0.5, 0.75, 0.9])
def test_action_and_gradient_match_the_reference_action(beta):
    # the solver's one-pass value and gradient of the scale-free path g/S0,
    # scaled by the rate unit, against action(), which forms the discrete
    # action of g from its definition
    params = ModelParams(S0=1.6, sigma=0.7, beta=beta)
    unit, n = rate_unit(params), 12
    g = params.S0 * rising_then_falling_path(n)
    val, grad, _ = _action_and_grad(g / params.S0, n, beta)
    assert unit * val == pytest.approx(action(PathGrid(n, g), params), rel=1e-14)
    eps = 1e-6
    fd = np.empty(n + 1)
    for j in range(n + 1):
        up, down = g.copy(), g.copy()
        up[j] += eps
        down[j] -= eps
        fd[j] = (action(PathGrid(n, up), params) - action(PathGrid(n, down), params)) / (2.0 * eps)
    np.testing.assert_allclose(unit / params.S0 * grad, fd, rtol=1e-6,
                               atol=1e-6 * np.max(np.abs(fd)))


def dense_hessian(p, n, beta):
    diag, off = _hessian(_action_and_grad(p, n, beta)[2], n, beta)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("beta", [0.5, 0.75, 0.9])
def test_hessian_matches_central_differences(beta):
    n = 12
    p = rising_then_falling_path(n)
    dense = dense_hessian(p, n, beta)
    eps = 1e-6
    fd = np.empty((n, n))
    for j in range(1, n + 1):
        up, down = p.copy(), p.copy()
        up[j] += eps
        down[j] -= eps
        fd[:, j - 1] = (_action_and_grad(up, n, beta)[1][1:]
                        - _action_and_grad(down, n, beta)[1][1:]) / (2.0 * eps)
    np.testing.assert_allclose(dense, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))


def kkt_problem(beta, n=12):
    """The Hessian and gradient at a path that rises, then falls below 1,
    with the floating-strike constraint vector at kappa = 0.7."""
    _, grad, terms = _action_and_grad(rising_then_falling_path(n), n, beta)
    a = np.full(n, 1.0 / n)
    a[-1] = 0.5 / n - 0.7
    return _hessian(terms, n, beta), grad[1:], a


@pytest.mark.parametrize("beta, shift", [(0.5, 0.0), (0.9, 0.0), (0.9, 3.5)])
def test_kkt_step_solves_the_bordered_system(beta, shift):
    (diag, off), grad, a = kkt_problem(beta)
    n, e = len(diag), 2.5e-3
    H = np.diag(diag + shift) + np.diag(off, 1) + np.diag(off, -1)
    kkt = np.block([[H, a[:, None]], [a[None, :], np.zeros((1, 1))]])
    dense = np.linalg.solve(kkt, -np.concatenate((grad, [e])))
    step_t = np.linalg.solve(kkt, -np.concatenate((grad, [0.0])))[:n]
    step, nu, dec, tangential = _kkt_step(diag, off, grad, a, e, shift)
    scale = np.max(np.abs(dense[:n]))
    np.testing.assert_allclose(step, dense[:n], rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(tangential, step_t, rtol=1e-12, atol=1e-12 * scale)
    assert nu == pytest.approx(dense[n], rel=1e-12)
    assert dec == pytest.approx(step_t @ H @ step_t, rel=1e-12)
    assert a @ step == pytest.approx(-e, rel=1e-12)


def test_kkt_step_refuses_a_singular_tridiagonal_system():
    # [[1, 1], [1, 1]] in the leading block: elimination leaves an exact zero
    diag, off = np.ones(12), np.zeros(11)
    off[0] = 1.0
    with pytest.raises(ConvergenceError, match="^singular Newton system"):
        _kkt_step(diag, off, np.ones(12), np.ones(12), 0.0, 0.0)


def test_indefinite_hessian_start_converges_to_a_kkt_point():
    # beta > 1/2: the Hessian at the exponential start has a negative
    # eigenvalue, so the Levenberg safeguard has to act
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.9)
    unit, n, kappa = rate_unit(params), 200, 0.2
    start = PathGrid(n, _rescale(_smooth_shape(n, -1), -1, kappa))
    assert trapezoid_mean(start.values) == pytest.approx(kappa * start.values[-1], rel=1e-13)
    assert np.linalg.eigvalsh(dense_hessian(start.values, n, params.beta))[0] < 0.0
    val, info = minimize_float(kappa, params, n=n, full_output=True)
    assert val < action(start, params)
    g = info["path"].values
    grad = unit * _action_and_grad(g, n, params.beta)[1]
    a = np.full(n, 1.0 / n)
    a[-1] = 0.5 / n - kappa
    residual = grad[1:] - info["lam"] * a
    assert np.max(np.abs(residual)) <= 1e-6 * np.max(np.abs(grad[1:]))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 0.95), st.floats(math.log(1e-2), math.log(1e3)),
       st.floats(math.log(0.1), math.log(100.0)))
# here a start that meets the constraint within its tolerance (9e-17 < tol
# |1 - m|) but not to the rounding of the deviation stalls: restoring the rest
# costs more action than the certificate's tolerance
@example(0.71875, 6.103515625e-05, 0.0)
def test_every_solve_is_certified_or_raises(beta, log_m, log_kappa):
    params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
    m, kappa = math.exp(log_m), math.exp(log_kappa)
    for solve, x in ((minimize_fixed, m), (minimize_float, kappa)):
        val, info = solve(x, params, full_output=True)
        g = info["path"].values
        strike = m if solve is minimize_fixed else kappa * g[-1]
        assert math.isfinite(val) and val >= 0.0
        assert info["converged"] is True
        assert 0.0 <= info["kkt_residual"] <= 1e-12
        assert g[0] == params.S0
        assert abs(trapezoid_mean(g) - strike) <= 1e-12 * max(1.0, strike)


NEAR_THE_MONEY = [(beta, kind, s * d, 1.7, 0.5, default_n) for beta in (0.5, 0.75)
                  for kind in ("fixed", "float") for d in (1e-14, 1e-12, 1e-10, 1e-8, 1e-7, 1e-6)
                  for s in (1.0, -1.0)]
# 1e-5 off the money at n = 3200 (these stalled when the solve ran on g itself)
NEAR_THE_MONEY += [(0.5, "fixed", s * 1e-5, 3.0, 0.2, 3200) for s in (1.0, -1.0)]


@pytest.mark.parametrize("beta, kind, offset, S0, sigma, n", NEAR_THE_MONEY, ids=[
    f"{c[0]}-{c[1]}-{c[2]}" + (f"-S0{c[3]}-n{c[5]}" if c[5] != default_n else "")
    for c in NEAR_THE_MONEY])
def test_near_the_money_solves_certify_and_match_the_closed_forms(beta, kind, offset, S0,
                                                                  sigma, n):
    # within ~1e-7 of the money a path's rise over one interval is of the
    # order of the rounding of the doubles around 1; its deviation from 1
    # carries it
    params = ModelParams(S0=S0, sigma=sigma, beta=beta)
    x = 1.0 + offset
    if kind == "fixed":
        val, info = minimize_fixed(x * params.S0, params, n=n, full_output=True)
        closed = rate_cev(x * params.S0, params).value
        strike = x * params.S0
    else:
        val, info = minimize_float(x, params, n=n, full_output=True)
        closed = rate_float_cev(x, params).value
        strike = x * info["path"].values[-1]
    assert info["converged"] is True
    assert 0.0 <= info["kkt_residual"] <= 1e-12
    assert info["path"].values[0] == params.S0
    assert abs(trapezoid_mean(info["path"].values) - strike) <= 1e-12 * strike
    assert val == pytest.approx(closed, rel=1e-4)


@pytest.mark.parametrize("kind", ["fixed", "float"])
def test_just_off_the_money_the_error_is_the_grids_own(kind):
    # 1e-5 below the money the floating solve at n = 200 stalled while its
    # path was stored as it is; stored less 1 it certifies, and its error
    # against the closed form is the grid's 1/(4 n^2) at beta = 1/2
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    minimize, closed = ((minimize_fixed, rate_cev) if kind == "fixed" else
                        (minimize_float, rate_float_cev))
    ref = closed(1.0 - 1e-5, params).value
    for n in (200, 800):
        err = minimize(1.0 - 1e-5, params, n=n) / ref - 1.0
        assert 4 * n * n * err == pytest.approx(1.0, rel=1e-4)


@pytest.mark.parametrize("kappa, climbs", [(1e150, False), (1e160, True), (1e170, False)])
def test_no_solve_ends_above_the_action_of_its_feasible_start(kappa, climbs):
    # at n = 3 the start e^{st} meets the constraint to 4e-15 with the action
    # 3 sqrt 2 at sigma = 1, 12 sqrt 2 at sigma = 1/2; at kappa = 1e160 the
    # iterates left the constraint and climbed to 6.3e40
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    if climbs:
        with pytest.raises(ConvergenceError, match="above its feasible start's action"):
            minimize_float(kappa, params, n=3)
    else:
        assert minimize_float(kappa, params, n=3) <= 12.0 * math.sqrt(2.0) * (1.0 + 1e-12)


def test_a_path_that_sinks_to_zero_is_refused_at_its_hessian():
    # the last ladder rung starts from a rescaled path with 292 nodes at
    # g = 0, where mid^(-2 beta) is inf
    with pytest.raises(ConvergenceError, match=r"^non-finite Hessian at Newton step 1$"):
        minimize_fixed(1e-3, ModelParams(1.0, 0.5, 0.5))


def test_a_non_finite_tridiagonal_solution_is_refused(monkeypatch):
    def nan_gtsv(dl, d, du, b, **_):
        return dl, d, du, np.full_like(b, np.nan), 0
    monkeypatch.setattr(varsolve, "dgtsv", nan_gtsv)
    with pytest.raises(ConvergenceError, match=r"^non-finite Newton step$"):
        minimize_fixed(1.5, ModelParams(1.0, 0.5, 0.75), n=200)


def test_a_step_that_overflows_with_a_finite_decrement_is_refused(monkeypatch):
    # x1 = 0 gives a zero tangential step, so the decrement is 0, and
    # a . x2 = 1: the step's first entry, e x2[0] / a . x2 = 1e310, overflows
    # while e / a . x2 = 1e10 and the multiplier stay finite
    x2 = np.array([1e300, 0.0, 0.0, 0.0])
    monkeypatch.setattr(varsolve, "dgtsv", lambda dl, d, du, b, **_:
                        (dl, d, du, np.column_stack((np.zeros(4), x2)), 0))
    a = np.array([1e-300, 1.0, 1.0, 1.0])
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError,
                                                  match=r"^non-finite Newton step$"):
        _kkt_step(np.ones(4), np.zeros(3), np.ones(4), a, 1e10, 0.0)


@pytest.mark.parametrize("m, params", [
    (52.71259303685327, ModelParams(1.0, 0.5, 0.9)),
    (12.710720654576445, ModelParams(2.5, 0.43251118340103883, 0.9, r=0.03, q=0.01))])
def test_a_zero_levenberg_step_raises_or_certifies_the_one_feasible_path(m, params):
    # on n = 1 a Newton step from these strikes' feasible start has a
    # rounding-negative decrement and Levenberg steps of exactly 0; no step
    # is taken: the one feasible path is the minimum
    K, S0 = m * params.S0, params.S0
    val = minimize_fixed(K, params, n=1)
    feasible = action(PathGrid(1, np.array([S0, 2.0 * K - S0])), params)
    assert val == pytest.approx(feasible, rel=1e-12)


@pytest.mark.parametrize("K", [886.8196543885216, 886.8196543885217])
def test_one_ulp_of_the_strike_does_not_decide_certification(K):
    # the upper strike's full step cancels to exactly 0 while its tangential
    # step does not: a Levenberg curvature over the full step was infinite
    params = ModelParams(1.0, 0.5, 0.75)
    val = minimize_fixed(K, params, n=1)
    feasible = action(PathGrid(1, np.array([1.0, 2.0 * K - 1.0])), params)
    assert val == pytest.approx(feasible, rel=1e-12)
    assert val == pytest.approx(237.69915978698342, rel=1e-14)


@pytest.mark.parametrize("kind, m, params", [
    ("fixed", 87.66131136786123, ModelParams(1.0, 0.5, 0.6)),
    ("fixed", 1.0 + 1e-7, ModelParams(0.7, 1.3, 0.9)),
    ("fixed", 1e300, ModelParams(1.0, 1.0, 0.75)),
    ("float", 0.9994782002093275, ModelParams(2.5, 0.2808269920176451, 0.8079216989835682)),
    ("float", 1e300, ModelParams(1.0, 1.0, 0.75)),
    ("float", 1.7e308, ModelParams(1.0, 1.0, 0.75))])
def test_one_interval_returns_its_one_feasible_path(kind, m, params):
    # on n = 1 the constraint fixes the path: [S0, (2m - 1) S0] for a fixed
    # strike, [S0, S0/(2m - 1)] for a floating one, so nothing is solved; the
    # action and multiplier keep full precision near the money (the second and
    # fourth inputs), where m^(-2 beta) underflows (the third and fifth) and
    # where 2m overflows (the last, whose path end and multiplier are subnormal)
    x = m * params.S0 if kind == "fixed" else m
    solve = minimize_fixed if kind == "fixed" else minimize_float
    val, info = solve(x, params, n=1, full_output=True)
    with mp.workdps(40):
        S0, beta = mp.mpf(params.S0), mp.mpf(params.beta)
        mm = mp.mpf(x / params.S0 if kind == "fixed" else m)  # the K/S0 the solve sees
        q = 2 * mm - 1 if kind == "fixed" else 1 / (2 * mm - 1)
        mid = (1 + q) / 2
        unit = S0 ** (2 - 2 * beta) / mp.mpf(params.sigma) ** 2
        exact = unit * (q - 1) ** 2 * mid ** (-2 * beta) / 2
        dA = unit / S0 * (q - 1) * mid ** (-2 * beta) * (1 - beta * (q - 1) / (1 + q))
        # the multiplier is dA/dq over the constraint's weight on q
        lam = dA / (mp.mpf(0.5) if kind == "fixed" else mp.mpf(0.5) - mm)
    assert val == pytest.approx(float(exact), rel=1e-14)
    tiny = 4 * 5e-324  # a few subnormal ulps
    assert info["lam"] == pytest.approx(float(lam), rel=1e-14, abs=tiny)
    assert info["iterations"] == 0 and info["kkt_residual"] == 0.0 and info["converged"]
    assert info["path"].values[0] == params.S0
    assert info["path"].values[1] == pytest.approx(float(q * S0), rel=1e-15, abs=tiny)


def test_one_interval_reference_value():
    val = minimize_fixed(87.66131136786123, ModelParams(1.0, 0.5, 0.6), n=1)
    assert val == pytest.approx(280.1373036723704, rel=1e-12)


def test_one_interval_beyond_the_doubles_raises():
    # 2m - 1 overflows: no path to return
    with pytest.raises(ConvergenceError,
                       match=r"^the one path on n = 1 ends at 2 K/S0 - 1 = inf$"):
        minimize_fixed(1.7e308, ModelParams(1.0, 1.0, 0.75), n=1)


def test_a_step_that_leaves_the_path_unchanged_ends_the_solve():
    # n = 3, a large strike: the iterate meets the tolerances, but its
    # unshifted decrement is rounding-negative, so Levenberg shifts climb
    # until a step below the ulp of the path is accepted; the next Newton
    # step would repeat it, so the solve ends there, certified
    params = ModelParams(1.0, 1.0, 0.6355227386252764)
    val, info = minimize_fixed(5574.783820589873, params, n=3, full_output=True)
    g = info["path"].values
    assert info["converged"] and info["kkt_residual"] <= 1e-12
    assert abs(trapezoid_mean(g) - 5574.783820589873) <= 1e-12 * 5574.783820589873
    assert val == pytest.approx(3106.8881265935042, rel=1e-12)
    # a path sinking to the floor p1 = p2 = 0, where the curvature is
    # negative beyond rounding, takes a step that does not move it: the
    # solve ends there too, with ConvergenceError
    with pytest.raises(ConvergenceError, match=r"^Newton-KKT solve stalled at step \d+: "):
        minimize_float(0.26805069348707944,
                       ModelParams(2.5, 1.4537347472897475, 0.5203446032079434), n=3)


@pytest.mark.parametrize("minimize, x", [(minimize_fixed, 1.5), (minimize_fixed, 0.05),
                                         (minimize_float, 0.5), (minimize_float, 1.0 + 2.0 ** -40)])
def test_results_scale_with_the_spot_and_the_rate_unit(minimize, x):
    # the solve runs on g/S0 at sigma = 1, and at S0 = 2^k the strike x S0 is
    # exact, so the scale-free solve is the same at every k
    beta, n = 0.75, 400
    value1, info1 = minimize(x, ModelParams(1.0, 1.0, beta), n=n, full_output=True)
    for k in (-900, -300, 0, 300, 900):
        params = ModelParams(2.0 ** k, 0.3, beta)
        S0, unit = params.S0, rate_unit(params)
        value, info = minimize(x * S0 if minimize is minimize_fixed else x, params, n=n,
                               full_output=True)
        assert abs(value / unit - value1) <= math.ulp(value1)
        lam = info1["lam"] * unit / S0
        assert abs(info["lam"] - lam) <= math.ulp(lam)
        assert info["constraint_err"] == info1["constraint_err"] * S0
        assert np.array_equal(info["path"].values, S0 * info1["path"].values)
        assert (info["iterations"], info["kkt_residual"]) == (info1["iterations"],
                                                              info1["kkt_residual"])


def test_a_spot_of_1e200_certifies():
    # the unscaled path's Hessian, ~1e-347, underflowed to 0 here
    params = ModelParams(1e200, 1e25, 0.75)
    val, info = minimize_fixed(1.5e200, params, full_output=True)
    assert 0.0 <= info["kkt_residual"] <= 1e-12
    assert val == pytest.approx(rate_cev(1.5e200, params).value, rel=1e-4)


def test_a_minimum_beyond_the_doubles_is_refused():
    # the rate unit S0/sigma^2 = 1e308 is a double; 2.96 times it is not
    with pytest.raises(ConvergenceError,
                       match=r"^the minimum 2.95958 times the rate unit 1e\+308 overflows$"):
        minimize_fixed(3.0, ModelParams(1.0, 1e-154, 0.5), n=100)


@pytest.mark.parametrize("kind, beta, S0, sigma, offset, n", [
    ("fixed", 0.5, 1.0, 0.5, 2.220446049250313e-16, 2),
    ("fixed", 0.75, 0.3, 1.0, -9.992007221626409e-13, 2),
    ("float", 0.6, 0.3, 1.0, -8.881784197001252e-16, 2),
    ("float", 0.5, 0.3, 1.0, 2.220446049250313e-16, 4),
    ("fixed", 0.99, 1.0, 0.5, 6.661338147750939e-16, 8)])
def test_near_the_money_solves_on_coarse_grids_certify(kind, beta, S0, sigma, offset, n):
    # the optimum is met to rounding before the certificate is tested, and
    # the unshifted decrement's sign is rounding noise
    params = ModelParams(S0=S0, sigma=sigma, beta=beta)
    x = 1.0 + offset
    solve = minimize_fixed if kind == "fixed" else minimize_float
    val, info = solve(x * (S0 if kind == "fixed" else 1.0), params, n=n, full_output=True)
    assert info["converged"] is True and 0.0 <= info["kkt_residual"] <= 1e-12
    g = info["path"].values
    strike = x * (S0 if kind == "fixed" else g[-1])
    assert abs(trapezoid_mean(g) - strike) <= 1e-12 * strike


@pytest.mark.parametrize("minimize, x", [(minimize_fixed, 1.5), (minimize_fixed, 0.05),
                                         (minimize_float, 2.0), (minimize_float, 1.0 + 1e-9)])
def test_repeated_solves_are_identical_and_the_start_memo_is_read_only(minimize, x):
    params = ModelParams(S0=1.3, sigma=0.5, beta=0.75)
    varsolve._smooth_shape.cache_clear()
    runs = [minimize(x * (params.S0 if minimize is minimize_fixed else 1.0), params,
                     n=400, full_output=True) for _ in range(2)]
    (v1, i1), (v2, i2) = runs
    assert v1 == v2
    assert i1["path"].values.tobytes() == i2["path"].values.tobytes()
    assert {k: v for k, v in i1.items() if k != "path"} == {k: v for k, v in i2.items() if k != "path"}
    assert varsolve._smooth_shape.cache_info().hits == 1
    # the start is scale-free: another spot and sigma share the entry
    other = ModelParams(S0=40.0, sigma=3.0, beta=0.75)
    minimize(x * (other.S0 if minimize is minimize_fixed else 1.0), other, n=400)
    assert varsolve._smooth_shape.cache_info().hits == 2
    ref = 0 if minimize is minimize_fixed else -1
    arrays = [a for a in varsolve._smooth_shape(400, ref) if isinstance(a, np.ndarray)]
    assert len(arrays) == 5 and not any(a.flags.writeable for a in arrays)


def feasible_exponential_action(kappa, params, n):
    """Action of the path S0 e^{ct} whose trapezoid mean is kappa g(1)."""
    t = np.linspace(0.0, 1.0, n + 1)
    c = brentq(lambda c: trapezoid_mean(np.exp(c * (t - 1.0))) - kappa, 0.0, 2.0 / kappa)
    return action(PathGrid(n, params.S0 * np.exp(c * t)), params)


@pytest.mark.parametrize("beta", [0.75, 0.9])
def test_small_kappa_certifies_below_the_exponential_path(beta):
    params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
    values = []
    for kappa in (0.02, 0.05, 0.08):
        val, info = minimize_float(kappa, params, n=800, full_output=True)
        g = info["path"].values
        assert abs(trapezoid_mean(g) - kappa * g[-1]) <= 1e-12 * kappa * g[-1]
        assert val < feasible_exponential_action(kappa, params, 800)
        values.append(val)
    assert values[0] > values[1] > values[2]


@pytest.mark.parametrize("m", [1e3, 1e4])
def test_large_strikes_near_beta_one(m):
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.99)
    val, info = minimize_fixed(m, params, n=800, full_output=True)
    assert info["kkt_residual"] <= 1e-12
    assert val == pytest.approx(rate_cev(m, params).value, rel=1e-4)


def test_deepest_put_near_beta_one_certifies():
    # the n = 800 minimum, 19% below the continuum rate: the optimal path
    # ends near 1e-6 S0, where the grid is coarse
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.99)
    val, info = minimize_fixed(1e-3, params, n=800, full_output=True)
    assert info["kkt_residual"] <= 1e-12
    assert abs(trapezoid_mean(info["path"].values) - 1e-3) <= 1e-12
    assert val == pytest.approx(6187.293327197944, rel=1e-9)


@pytest.mark.parametrize("beta", [0.5, 0.75, 0.9])
def test_richardson_extrapolated_minimum_matches_closed_form(beta):
    # the discretization error is O(1/n^2): extrapolating from n = 800 and
    # 1600 leaves 1e-10, against up to 1.4e-5 at n = 800 alone
    params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
    for m in (0.1, 0.3, 0.6, 1.5, 3.0, 100.0):
        assert richardson_fixed(m, params) == pytest.approx(rate_cev(m, params).value,
                                                            rel=1e-9)


# (constraint, beta, K/S0 or kappa, n, value, iterations, rungs, kkt_residual,
#  lam, constraint_err, sha256 of the path's bytes), S0 = 1, sigma = 0.5,
# r = 0.03, q = 0.01: a ladder case (K/S0 = 0.05), the Levenberg-shift case
# (beta = 0.9, kappa = 0.2, n = 200) and the smallest grids among them
PINNED = [
    ("fixed", 0.5, 1.5, 800, 1.1690070048305963, 3, 1, 4.9235598643214984e-17, 4.184589623767654, 3.161591564965524e-16, "2b508c903600327e"),
    ("fixed", 0.75, 0.6, 800, 1.5039502927595205, 3, 1, 7.024515017944366e-24, -9.674508717166624, -5.595639561759264e-17, "896b1a2819597d71"),
    ("fixed", 0.9, 3.0, 800, 6.871747530630589, 4, 1, 2.002389937234217e-23, 4.1241861530739365, 1.1907749032142547e-15, "ccda34bd7f6f84e1"),
    ("float", 0.5, 2.0, 800, 1.433666428586532, 5, 1, 2.389617660185234e-21, 4.018205324403818, 6.885685681738501e-17, "6e8ae62772f030b4"),
    ("float", 0.75, 0.5, 800, 4.629846128061929, 7, 1, 2.8616701421227537e-18, -12.626564564348858, -3.1625002482175084e-15, "b85573189dbcc110"),
    ("float", 0.9, 1.5, 800, 0.8519639745153413, 5, 1, 1.057166612415099e-18, 4.758133483952761, 8.148414775341857e-17, "0dd37687d2856831"),
    ("fixed", 0.75, 0.05, 800, 70.64564731395635, 15, 3, 4.551838414646731e-15, -1436.9990107634278, 2.407414087254196e-18, "abd206d60c00f834"),
    ("float", 0.9, 0.2, 200, 32.44821452436934, 8, 1, 2.850639324626772e-21, -30.12987942094428, 1.0204311645620075e-16, "b1b2b85290f6f1e9"),
    # n = 1 returns its one feasible path, [1, 2m - 1] or [1, 1/(2m - 1)], after no Newton step
    ("fixed", 0.75, 1.3, 1, 0.485755210693124, 0, 1, 0.0, 2.6778812897185036, 0.0, "40bcff755c53bd58"),
    ("float", 0.75, 1.3, 1, 0.3840232127713126, 0, 1, 0.0, 3.003258458852572, 0.0, "e377aca1324375a8"),
    ("fixed", 0.5, 0.8, 2, 0.2968091571747763, 3, 1, 2.691730641727411e-22, -3.207661579047996, 2.7755575615628914e-17, "e0c1812bd18f93c9"),
    ("float", 0.9, 0.7, 2, 0.9872267493061312, 6, 1, 8.137652353215937e-18, -4.776289826654604, -7.488251559517799e-17, "a46c455ceabce311"),
    ("fixed", 0.9, 2.0, 3, 2.680436501072714, 3, 1, 9.964799016706433e-19, 3.6676621532924276, -1.4498647074270128e-15, "8235a4c4d61c7cd6"),
    ("float", 0.5, 3.0, 3, 2.477806297904343, 5, 1, 4.539131430752839e-18, 4.012796224202407, 1.3658124803644846e-16, "1a3a467817ef7edc"),
]


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"{c[0]}-beta{c[1]}-x{c[2]}-n{c[3]}")
def test_certified_results_are_bit_for_bit_pinned(case):
    """Every solve's results equal, with ==, the recorded ones.  The figures
    hold for the floating-point libraries they were recorded with (numpy 2.4,
    scipy 1.17 with OpenBLAS, x86-64).  An edit that reorders any arithmetic
    of the solve changes some of them; one that means to re-records them."""
    kind, beta, x, n, *expected = case
    params = ModelParams(S0=1.0, sigma=0.5, beta=beta, r=0.03, q=0.01)
    minimize = minimize_fixed if kind == "fixed" else minimize_float
    value, info = minimize(x, params, n=n, full_output=True)
    digest = hashlib.sha256(info["path"].values.tobytes()).hexdigest()[:16]
    got = [value, info["iterations"], info["rungs"], info["kkt_residual"], info["lam"],
           info["constraint_err"], digest]
    assert got == expected
