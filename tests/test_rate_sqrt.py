"""Fixed-strike rate function in the square-root diffusion model.

`rate_cev` at beta = 1/2, the square-root model's hypergeometric route.  It is
validated against a direct Legendre-Fenchel maximization of the cumulant (the
floating-strike one at kappa = 0), whose own Riccati equation is checked
here too, against a many-digit root solve of the trigonometric/hyperbolic
closed forms, plus scaling laws, the general-beta asymptotes at beta = 1/2
and a Taylor-remainder bound.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cevasian import ConvergenceError, ModelParams, RootBracketError
from cevasian.cli import main
from cevasian.rate_cev import (_root_equation, rate_cev, rate_cev_large_strike,
                               rate_cev_small_strike, rate_cev_taylor)
from oracles import cumulant_float, legendre_fixed, rate_sqrt_mpmath, riccati_lambda

riccati_rel = 1e-9
legendre_rel = 1e-8
mpmath_rel = 1e-13  # measured worst ~1e-15 from |log K/S0| = 0.1 out to 1e+-300
taylor_bound = 0.05  # measured sup of |remainder| / |x|^5 is ~0.037


def test_cumulant_matches_riccati_equation():
    # the fixed-strike cumulant is the floating one at kappa = 0
    params = ModelParams(S0=2.0, sigma=0.5, beta=0.5)
    for theta in (-8.0, -2.0, 0.5, 2.0, 4.0):
        ref = riccati_lambda(theta, params)
        assert abs(cumulant_float(theta, 0.0, params) / ref - 1.0) < riccati_rel


def test_cumulant_boundary_behaviour():
    params = ModelParams(S0=1.0, sigma=0.3, beta=0.5)
    pole = math.pi ** 2 / (2.0 * 0.3 ** 2)
    assert cumulant_float(0.0, 0.0, params) == 0.0
    assert math.isinf(cumulant_float(pole, 0.0, params))
    assert math.isinf(cumulant_float(pole * 1.01, 0.0, params))
    assert cumulant_float(pole * (1.0 - 1e-10), 0.0, params) > 1e3
    # increasing in theta
    thetas = np.linspace(-30.0, pole * 0.999, 60)
    vals = [cumulant_float(float(t), 0.0, params) for t in thetas]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cumulant_slope_at_origin_is_spot():
    # Lambda'(0) = S0: the average converges to the spot as T -> 0
    params = ModelParams(S0=1.7, sigma=0.4, beta=0.5)
    h = 1e-6
    fd = (cumulant_float(h, 0.0, params) - cumulant_float(-h, 0.0, params)) / (2.0 * h)
    assert fd == pytest.approx(1.7, rel=1e-8)


def test_matches_legendre_transform_oracle():
    params = ModelParams(S0=1.0, sigma=0.45, beta=0.5)
    for K in np.geomspace(0.05, 20.0, 50):
        ref = legendre_fixed(float(K), params)
        assert abs(rate_cev(float(K), params).value / ref - 1.0) < legendre_rel


def test_value_attains_the_dual_supremum():
    # I(K) = theta* K - Lambda(theta*) at the reported maximizer
    params = ModelParams(S0=1.0, sigma=0.4, beta=0.5)
    for K in (0.5, 0.8, 1.3, 3.0):
        res = rate_cev(K, params)
        theta = res.diag.theta_star
        dual = theta * K - cumulant_float(theta, 0.0, params)
        assert res.value == pytest.approx(dual, rel=1e-9)
        assert (theta > 0.0) == (K > 1.0)


def test_monotone_away_from_spot():
    params = ModelParams(S0=1.0, sigma=0.6, beta=0.5)
    puts = [rate_cev(k, params).value for k in np.linspace(0.1, 0.9, 17)]
    assert all(a > b for a, b in zip(puts, puts[1:]))
    calls = [rate_cev(k, params).value for k in np.linspace(1.1, 5.0, 17)]
    assert all(a < b for a, b in zip(calls, calls[1:]))


def test_taylor_remainder_ratio():
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    worst = 0.0
    for x in np.linspace(-0.2, 0.2, 81):
        if abs(x) < 1e-3:
            continue
        K = math.exp(x)
        err = abs(rate_cev(K, params).value - rate_cev_taylor(K, params))
        worst = max(worst, err / abs(x) ** 5)
    assert worst < taylor_bound


def test_large_strike_asymptote_checkpoints():
    # at beta = 1/2 the general-beta asymptote is pi^2 K / (2 sigma^2)
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    expect = {5.0: 0.333485, 50.0: 0.758059, 1e3: 0.943673}
    ratios = []
    for K, ref in expect.items():
        ratio = rate_cev(K, params).value / rate_cev_large_strike(K, params)
        assert ratio == pytest.approx(ref, abs=1e-3)
        ratios.append(ratio)
    assert ratios == sorted(ratios)  # approaches the asymptote from below


def test_small_strike_asymptote_checkpoints():
    # at beta = 1/2 the general-beta asymptote is S0^2 / (2 sigma^2 K)
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    r02 = rate_cev(0.2, params).value / rate_cev_small_strike(0.2, params)
    assert r02 == pytest.approx(0.975605, abs=1e-3)
    # corrections decay exponentially for deep puts
    for K in (0.02, 1e-3):
        ratio = rate_cev(K, params).value / rate_cev_small_strike(K, params)
        assert abs(ratio - 1.0) < 1e-10


def test_put_just_outside_the_atm_window():
    # log K/S0 = -1.05e-5: the root x = 1 - 1.6e-5 must keep the relative
    # accuracy of 1 - x, so 1 - x cannot be formed by cancellation
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    xlog = -1.05e-5
    res = rate_cev(math.exp(xlog), params)
    assert res.branch == "put"
    taylor = rate_cev_taylor(math.exp(xlog), params)
    assert res.value == pytest.approx(taylor, rel=1e-8)


@pytest.mark.parametrize("xlog, ref", [
    (-1.05e-5, 6.614972217141772e-10),
    (-2e-5, 2.39998080012446e-09),
    (-1e-4, 5.999760007742879e-08),
])
def test_put_value_near_the_money_matches_mpmath(xlog, ref):
    # ref: 50-digit mpmath root of (1 + sinh 2x/(2x)) / (2 cosh^2 x) = K and
    # I = x^2 (sinh 2x/(2x) - 1) / cosh^2 x / sigma^2 at K = exp(xlog); the
    # hypergeometric route's 1 - x and b must not be formed by cancellation
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    res = rate_cev(math.exp(xlog), params)
    assert res.diag.branch == "put"
    assert res.value == pytest.approx(ref, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("m", [1e3, 1e12, 1e23, 1e100, 1e300, 1e-13, 1e-100, 1e-300])
def test_value_far_from_the_money_matches_mpmath(m):
    # calls: the root x ~ 2 K/S0 passes the largest double above 9e307, so
    # it is compared with K/S0 in scaled form; puts: the root x ~ 4 e^{-S0/K}
    # leaves the doubles below K/S0 ~ 1.4e-3, so everything is formed from
    # log x, down to log x = -1e300
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    res = rate_cev(m, params)
    assert res.branch == ("call" if m > 1.0 else "put")
    assert res.value == pytest.approx(4.0 * rate_sqrt_mpmath(m), rel=mpmath_rel, abs=0.0)


def test_rate_beyond_the_largest_double_raises_convergence_error(capsys):
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    for m in (9e307, 1.1e-308):
        with pytest.raises(ConvergenceError, match="overflows"):
            rate_cev(m, params)
    # below K/S0 ~ 4e-155 the put diagnostic theta_star = -a+^2/(2 sigma^2) is
    # -inf while the rate is finite
    res = rate_cev(1e-200, params)
    assert res.value == pytest.approx(4.0 * rate_sqrt_mpmath(1e-200), rel=mpmath_rel)
    assert res.diag.theta_star == -math.inf
    rc = main(["price", "--beta", "0.5", "--sigma", "0.5", "--strike", "9e307",
               "--maturity", "1"])
    assert rc == 3
    assert "overflows" in capsys.readouterr().err


def test_deep_put_stays_finite():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    val = rate_cev(1e-4, params).value
    assert math.isfinite(val)
    assert val == pytest.approx(rate_cev_small_strike(1e-4, params), rel=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.1, 10.0),
    st.floats(0.2, 5.0).filter(lambda m: abs(m - 1.0) > 0.01),
    st.floats(0.1, 1.0),
)
def test_joint_scaling_in_spot_and_strike(lam, m, sigma):
    # I(lam*K, lam*S0) = lam * I(K, S0)
    base = ModelParams(S0=1.0, sigma=sigma, beta=0.5)
    scaled = ModelParams(S0=lam, sigma=sigma, beta=0.5)
    a = rate_cev(m, base).value
    b = rate_cev(lam * m, scaled).value
    assert b == pytest.approx(lam * a, rel=5e-12)


def test_sigma_scaling():
    # I is proportional to 1/sigma^2
    for sigma in (0.2, 0.5, 1.3):
        p = ModelParams(S0=1.0, sigma=sigma, beta=0.5)
        assert rate_cev(1.6, p).value * sigma ** 2 == pytest.approx(
            rate_cev(1.6, ModelParams(S0=1.0, sigma=1.0, beta=0.5)).value, rel=1e-12
        )


def test_at_the_money():
    params = ModelParams(S0=2.0, sigma=0.3, beta=0.5)
    res = rate_cev(2.0, params)
    assert res.value == 0.0
    assert res.diag.branch == "atm"
    # inside the series window the value follows the quadratic leading term
    x = 5e-6
    near = rate_cev(2.0 * math.exp(x), params).value
    assert near == pytest.approx((2.0 / 0.09) * 1.5 * x ** 2, rel=1e-4)
    # continuity across the window edge
    x_out = 1.2e-5
    closed = rate_cev(2.0 * math.exp(x_out), params).value
    taylor = rate_cev_taylor(2.0 * math.exp(x_out), params)
    assert closed == pytest.approx(taylor, rel=1e-9)


def test_invalid_inputs():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    with pytest.raises(ValueError):
        rate_cev(0.0, params)
    with pytest.raises(ValueError):
        rate_cev(-2.0, params)
    # a strike far below the old 1e-12 bracket cap is a value, not an error
    assert rate_cev(1e-13, params).value == pytest.approx(
        rate_cev_small_strike(1e-13, params), rel=1e-12)
    with pytest.raises(ValueError):
        rate_cev(math.inf, params)
    # at 1e+-308 in K/S0 the root brackets leave the normal doubles
    for K in (1e-310, 1e308):
        with pytest.raises(RootBracketError):
            rate_cev(K, params)


def test_asymptote_domain_checks():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    with pytest.raises(ValueError):
        rate_cev_large_strike(0.9, params)
    with pytest.raises(ValueError):
        rate_cev_small_strike(1.1, params)
    with pytest.raises(ValueError):
        rate_cev_small_strike(0.0, params)


def test_root_equations_derivatives_match_central_differences():
    # the root equation rate_cev solves, in its beta = 1/2 elementary forms
    # (A = 2 artanh sqrt(1 - y) and the near-money 2F1 of b), differenced in
    # u = log x on the put side (u < 0) and the call side (u > 0) across the
    # doubles.  The target K/S0 only shifts f; setting it to x keeps f, and so
    # the differences' rounding, small
    h = 1e-5
    for x in np.concatenate([np.geomspace(1e-300, 1e300, 121), np.geomspace(1e-3, 1e3, 40)]):
        u = math.log(x)
        if abs(u) < 1e-3:
            continue
        m = float(x)
        _, df, _ = _root_equation(u, m, 0.5)
        fd = (_root_equation(u + h, m, 0.5)[0] - _root_equation(u - h, m, 0.5)[0]) / (2.0 * h)
        assert df == pytest.approx(fd, rel=1e-7), x


def test_diagnostics_report_the_root_solve():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    for m in (1e-300, 1e-3, 0.5, 0.9999, 1.0001, 2.0, 1e3, 1e300):
        diag = rate_cev(m, params).diag
        assert 1 <= diag.iterations <= 12
        assert diag.residual < 1e-12  # relative; log x = 690 at 1e-300 has ulp 1.1e-13
    assert rate_cev(1.000001, params).diag.iterations == 0


@pytest.mark.parametrize("xlog", [1.00001e-5, 2e-5, 1e-4, 1e-3, -1.00001e-5, -2e-5, -1e-4])
def test_root_near_the_money_is_solved_without_cancellation(xlog):
    # the root's 1 - x and the rate's K/S0 - x are O(|log K/S0|); formed as
    # differences of O(1) terms they would cost ~1e-11 of the rate
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    m = math.exp(xlog)
    res = rate_cev(m, params)
    assert res.value == pytest.approx(4.0 * rate_sqrt_mpmath(m), rel=1e-12, abs=0.0)
