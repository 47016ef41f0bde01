"""Discretized variational solver for the rate functions.

The discrete action is checked on paths with known continuum limits, and the
minimizer is cross-checked against the closed-form rates and, through the
envelope identity, its Lagrange multiplier against their strike derivative.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from cevasian import ConvergenceError, ModelParams
from cevasian.float_strike import rate_float_sqrt
from cevasian.rate_cev import rate_cev
from cevasian.rate_cev import rate_sqrt
from cevasian.varsolve import (PathGrid, _action_and_grad, _hessian, _kkt_step, _rescaled,
                               _trapezoid_weights, action, minimize_fixed, minimize_float)
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
        ref = rate_sqrt(K, params).value
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
    ref = rate_float_sqrt(1.4, params).value
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
        ref = rate_float_sqrt(kappa, params).value
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


def dense_hessian(g, n, params):
    diag, off = _hessian(_action_and_grad(g, n, params)[2], n, params)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("beta", [0.5, 0.75, 0.9])
def test_hessian_matches_central_differences(beta):
    params = ModelParams(S0=1.0, sigma=0.7, beta=beta)
    n = 12
    t = np.linspace(0.0, 1.0, n + 1)
    g = 1.0 + 0.4 * np.sin(5.0 * t) - 0.3 * t  # rises, then falls below S0
    dense = dense_hessian(g, n, params)
    eps = 1e-6
    fd = np.empty((n, n))
    for j in range(1, n + 1):
        up, down = g.copy(), g.copy()
        up[j] += eps
        down[j] -= eps
        fd[:, j - 1] = (_action_and_grad(up, n, params)[1][1:]
                        - _action_and_grad(down, n, params)[1][1:]) / (2.0 * eps)
    np.testing.assert_allclose(dense, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))


def kkt_problem(beta, n=12):
    """The Hessian and gradient at a path that rises, then falls below S0,
    with the floating-strike constraint vector at kappa = 0.7."""
    params = ModelParams(S0=1.0, sigma=0.7, beta=beta)
    t = np.linspace(0.0, 1.0, n + 1)
    g = 1.0 + 0.4 * np.sin(5.0 * t) - 0.3 * t
    _, grad, terms = _action_and_grad(g, n, params)
    a = np.full(n, 1.0 / n)
    a[-1] = 0.5 / n - 0.7
    return _hessian(terms, n, params), grad[1:], a


@pytest.mark.parametrize("beta, shift", [(0.5, 0.0), (0.9, 0.0), (0.9, 3.5)])
def test_kkt_step_solves_the_bordered_system(beta, shift):
    (diag, off), grad, a = kkt_problem(beta)
    n, e = len(diag), 2.5e-3
    H = np.diag(diag + shift) + np.diag(off, 1) + np.diag(off, -1)
    kkt = np.block([[H, a[:, None]], [a[None, :], np.zeros((1, 1))]])
    dense = np.linalg.solve(kkt, -np.concatenate((grad, [e])))
    step_t = np.linalg.solve(kkt, -np.concatenate((grad, [0.0])))[:n]
    step, nu, dec = _kkt_step(diag, off, grad, a, e, shift)
    scale = np.max(np.abs(dense[:n]))
    np.testing.assert_allclose(step, dense[:n], rtol=1e-12, atol=1e-12 * scale)
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
    n, kappa = 200, 0.2
    t = np.linspace(0.0, 1.0, n + 1)
    start = PathGrid(n, _rescaled(np.exp(t), _trapezoid_weights(n), -1, kappa))
    assert trapezoid_mean(start.values) == pytest.approx(kappa * start.values[-1], rel=1e-13)
    assert np.linalg.eigvalsh(dense_hessian(start.values, n, params))[0] < 0.0
    val, info = minimize_float(kappa, params, n=n, full_output=True)
    assert val < action(start, params)
    g = info["path"].values
    grad = _action_and_grad(g, n, params)[1]
    a = np.full(n, 1.0 / n)
    a[-1] = 0.5 / n - kappa
    residual = grad[1:] - info["lam"] * a
    assert np.max(np.abs(residual)) <= 1e-6 * np.max(np.abs(grad[1:]))


def near_the_money(x):
    """The band where the Newton decrement stalls at rounding level above the
    certificate's tolerance (a known limit, see CHANGES.md)."""
    return abs(math.log(x)) < 1e-7


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 0.95), st.floats(math.log(1e-2), math.log(1e3)),
       st.floats(math.log(0.1), math.log(100.0)))
def test_every_solve_is_certified_or_raises(beta, log_m, log_kappa):
    params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
    m, kappa = math.exp(log_m), math.exp(log_kappa)
    for solve, x in ((minimize_fixed, m), (minimize_float, kappa)):
        try:
            val, info = solve(x, params, full_output=True)
        except ConvergenceError:
            if near_the_money(x):
                continue
            raise
        g = info["path"].values
        strike = m if solve is minimize_fixed else kappa * g[-1]
        assert math.isfinite(val) and val >= 0.0
        assert info["converged"] is True
        assert 0.0 <= info["kkt_residual"] <= 1e-12
        assert g[0] == params.S0
        assert abs(trapezoid_mean(g) - strike) <= 1e-12 * max(1.0, strike)


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
    ("fixed", 0.5, 1.5, 800, 1.1690070048305974, 3, 1, 4.923557891965687e-17, 4.1845896237676605, 3.16714268008865e-16, "325f8530b68bd253"),
    ("fixed", 0.75, 0.6, 800, 1.5039502927595207, 3, 1, 7.027343679138588e-24, -9.674508717166619, -1.6746442065338182e-16, "995f9b9d408d038e"),
    ("fixed", 0.9, 3.0, 800, 6.871747530630587, 4, 1, 1.9298679847168644e-23, 4.124186153073909, 1.1408148671061227e-15, "3967f874e4d8e432"),
    ("float", 0.5, 2.0, 800, 1.4336664285865326, 5, 1, 2.3911477269011372e-21, 4.018205324404013, 6.413840896272736e-17, "bba4d07a59d8e975"),
    ("float", 0.75, 0.5, 800, 4.629846128061814, 7, 1, 2.8608041684286004e-18, -12.626564564348925, 5.694026374973517e-15, "5c7e77fed381c59a"),
    ("float", 0.9, 1.5, 800, 0.8519639745153413, 5, 1, 1.0569210594919252e-18, 4.758133483952323, 3.9503839634781954e-17, "7e08dff17eea7d5a"),
    ("fixed", 0.75, 0.05, 800, 70.64564731395635, 15, 3, 4.551838457348699e-15, -1436.9990107634278, -1.0637269305939268e-18, "f2e75d3515d5e3d0"),
    ("float", 0.9, 0.2, 200, 32.44821452436935, 8, 1, 2.8503894287827504e-21, -30.129879420944498, 2.441516636082209e-16, "59a829f2cb2fc868"),
    ("fixed", 0.75, 1.3, 1, 0.48575521069312516, 1, 1, -0.0, 2.6778812897185036, 4.440892098500626e-16, "d699ab30b303bfe7"),
    ("float", 0.75, 1.3, 1, 0.3840232127713135, 1, 1, -0.0, 3.0032584588525717, 3.275157922644212e-16, "1c3b6dd4443620eb"),
    ("fixed", 0.5, 0.8, 2, 0.29680915717477635, 3, 1, 2.6917306417274105e-22, -3.207661579047996, 2.7755575615628914e-17, "e0c1812bd18f93c9"),
    ("float", 0.9, 0.7, 2, 0.9872267493061305, 6, 1, 8.13764801583588e-18, -4.776289826654602, 3.6139786867337666e-17, "0a9cb6a792a108c8"),
    ("fixed", 0.9, 2.0, 3, 2.68043650107272, 3, 1, 9.964859744773741e-19, 3.6676621532924276, 3.043265873986263e-17, "7cc1143129b637e9"),
    ("float", 0.5, 3.0, 3, 2.4778062979043436, 5, 1, 4.5391329684022836e-18, 4.012796224202407, 1.0419974315154806e-16, "1587b80ebb7a6c57"),
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
