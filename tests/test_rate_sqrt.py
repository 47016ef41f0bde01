"""Fixed-strike rate function in the square-root diffusion model.

The closed trigonometric/hyperbolic forms are validated against a direct
Legendre-Fenchel maximization of the cumulant and against the cumulant
re-derived from its Riccati equation, plus scaling laws, asymptote
checkpoints, and a Taylor-remainder bound.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cevasian import ModelParams, RootBracketError
from cevasian.rate_cev import rate_cev_taylor
from cevasian.rate_sqrt import (
    cumulant_sqrt,
    rate_sqrt,
    rate_sqrt_large_strike,
    rate_sqrt_small_strike,
)
from oracles import legendre_fixed, riccati_lambda

riccati_rel = 1e-9
legendre_rel = 1e-8
taylor_bound = 0.05  # measured sup of |remainder| / |x|^5 is ~0.037


def test_cumulant_matches_riccati_equation():
    params = ModelParams(S0=2.0, sigma=0.5, beta=0.5)
    for theta in (-8.0, -2.0, 0.5, 2.0, 4.0):
        ref = riccati_lambda(theta, params)
        assert abs(cumulant_sqrt(theta, params) / ref - 1.0) < riccati_rel


def test_cumulant_boundary_behaviour():
    params = ModelParams(S0=1.0, sigma=0.3, beta=0.5)
    pole = math.pi ** 2 / (2.0 * 0.3 ** 2)
    assert cumulant_sqrt(0.0, params) == 0.0
    assert math.isinf(cumulant_sqrt(pole, params))
    assert math.isinf(cumulant_sqrt(pole * 1.01, params))
    assert cumulant_sqrt(pole * (1.0 - 1e-10), params) > 1e3
    # increasing in theta
    thetas = np.linspace(-30.0, pole * 0.999, 60)
    vals = [cumulant_sqrt(float(t), params) for t in thetas]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cumulant_slope_at_origin_is_spot():
    # Lambda'(0) = S0: the average converges to the spot as T -> 0
    params = ModelParams(S0=1.7, sigma=0.4, beta=0.5)
    h = 1e-6
    fd = (cumulant_sqrt(h, params) - cumulant_sqrt(-h, params)) / (2.0 * h)
    assert fd == pytest.approx(1.7, rel=1e-8)


def test_matches_legendre_transform_oracle():
    params = ModelParams(S0=1.0, sigma=0.45, beta=0.5)
    for K in np.geomspace(0.05, 20.0, 50):
        ref = legendre_fixed(float(K), params)
        assert abs(rate_sqrt(float(K), params).value / ref - 1.0) < legendre_rel


def test_value_attains_the_dual_supremum():
    # I(K) = theta* K - Lambda(theta*) at the reported maximizer
    params = ModelParams(S0=1.0, sigma=0.4, beta=0.5)
    for K in (0.5, 0.8, 1.3, 3.0):
        res = rate_sqrt(K, params)
        theta = res.diag.theta_star
        dual = theta * K - cumulant_sqrt(theta, params)
        assert res.value == pytest.approx(dual, rel=1e-9)
        assert (theta > 0.0) == (K > 1.0)


def test_monotone_away_from_spot():
    params = ModelParams(S0=1.0, sigma=0.6, beta=0.5)
    puts = [rate_sqrt(k, params).value for k in np.linspace(0.1, 0.9, 17)]
    assert all(a > b for a, b in zip(puts, puts[1:]))
    calls = [rate_sqrt(k, params).value for k in np.linspace(1.1, 5.0, 17)]
    assert all(a < b for a, b in zip(calls, calls[1:]))


def test_taylor_remainder_ratio():
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    worst = 0.0
    for x in np.linspace(-0.2, 0.2, 81):
        if abs(x) < 1e-3:
            continue
        K = math.exp(x)
        err = abs(rate_sqrt(K, params).value - rate_cev_taylor(K, params))
        worst = max(worst, err / abs(x) ** 5)
    assert worst < taylor_bound


def test_large_strike_asymptote_checkpoints():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    expect = {5.0: 0.333485, 50.0: 0.758059, 1e3: 0.943673}
    ratios = []
    for K, ref in expect.items():
        ratio = rate_sqrt(K, params).value / rate_sqrt_large_strike(K, params)
        assert ratio == pytest.approx(ref, abs=1e-3)
        ratios.append(ratio)
    assert ratios == sorted(ratios)  # approaches the asymptote from below


def test_small_strike_asymptote_checkpoints():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    r02 = rate_sqrt(0.2, params).value / rate_sqrt_small_strike(0.2, params)
    assert r02 == pytest.approx(0.975605, abs=1e-3)
    # corrections decay exponentially for deep puts
    for K in (0.02, 1e-3):
        ratio = rate_sqrt(K, params).value / rate_sqrt_small_strike(K, params)
        assert abs(ratio - 1.0) < 1e-10


def test_put_just_outside_the_atm_window():
    # log K/S0 = -1.05e-5: the bracket end x = 1e-12 must keep the sign of
    # the put equation, so (1 - e^{-4x}) cannot be formed by cancellation
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    xlog = -1.05e-5
    res = rate_sqrt(math.exp(xlog), params)
    assert res.branch == "put"
    taylor = rate_cev_taylor(math.exp(xlog), params)
    assert res.value == pytest.approx(taylor, rel=1e-8)


def test_deep_put_stays_finite():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    val = rate_sqrt(1e-4, params).value
    assert math.isfinite(val)
    assert val == pytest.approx(rate_sqrt_small_strike(1e-4, params), rel=1e-6)


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
    a = rate_sqrt(m, base).value
    b = rate_sqrt(lam * m, scaled).value
    assert b == pytest.approx(lam * a, rel=5e-12)


def test_sigma_scaling():
    # I is proportional to 1/sigma^2
    for sigma in (0.2, 0.5, 1.3):
        p = ModelParams(S0=1.0, sigma=sigma, beta=0.5)
        assert rate_sqrt(1.6, p).value * sigma ** 2 == pytest.approx(
            rate_sqrt(1.6, ModelParams(S0=1.0, sigma=1.0, beta=0.5)).value, rel=1e-12
        )


def test_at_the_money():
    params = ModelParams(S0=2.0, sigma=0.3, beta=0.5)
    res = rate_sqrt(2.0, params)
    assert res.value == 0.0
    assert res.diag.branch == "atm"
    # inside the series window the value follows the quadratic leading term
    x = 5e-6
    near = rate_sqrt(2.0 * math.exp(x), params).value
    assert near == pytest.approx((2.0 / 0.09) * 1.5 * x ** 2, rel=1e-4)
    # continuity across the window edge
    x_out = 1.2e-5
    closed = rate_sqrt(2.0 * math.exp(x_out), params).value
    taylor = rate_cev_taylor(2.0 * math.exp(x_out), params)
    assert closed == pytest.approx(taylor, rel=1e-9)


def test_invalid_inputs():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    with pytest.raises(ValueError):
        rate_sqrt(0.0, params)
    with pytest.raises(ValueError):
        rate_sqrt(-2.0, params)
    with pytest.raises(ValueError, match="square-root"):
        rate_sqrt(1.5, ModelParams(S0=1.0, sigma=0.5, beta=0.6))
    with pytest.raises(RootBracketError):
        rate_sqrt(1e-13, params)


def test_asymptote_domain_checks():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    with pytest.raises(ValueError):
        rate_sqrt_large_strike(0.9, params)
    with pytest.raises(ValueError):
        rate_sqrt_small_strike(1.1, params)
    with pytest.raises(ValueError):
        rate_sqrt_small_strike(0.0, params)
