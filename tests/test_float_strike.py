"""Floating-strike (strike = kappa * terminal spot) rate function.

The closed-form square-root-model rate is validated against a direct
maximization of -Lambda_f over theta (the variational dual), the floating
cumulant against its Riccati representation, and the general-elasticity
route against the closed form where both exist.
"""

import math

import numpy as np
import pytest

from cevasian import ModelParams, RateResult
from cevasian.float_strike import (
    cumulant_float,
    jf_taylor,
    rate_float_cev,
    rate_float_sqrt,
    solve_theta_c,
    _eqz_hyp,
    _eqz_trig,
)
from cevasian.rate_sqrt import rate_sqrt
from oracles import legendre_float, riccati_lambda

duality_rel = 1e-7
riccati_rel = 1e-9
taylor_bound = 0.4  # measured sup of |remainder| / |log kappa|^5 is ~0.31


def test_cumulant_matches_riccati_equation():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    for kappa in (0.8, 1.3):
        for theta in (-4.0, -1.0, 0.5, 3.0, 10.0):
            ref = riccati_lambda(theta, params, kappa=kappa)
            got = cumulant_float(theta, kappa, params)
            assert abs(got - ref) < riccati_rel * max(1.0, abs(ref))


def test_theta_c_solves_defining_equation():
    params = ModelParams(S0=1.0, sigma=0.3, beta=0.5)
    for kappa in (0.4, 1.0, 2.5):
        tc = solve_theta_c(kappa, params)
        v = 0.3 * math.sqrt(2.0 * tc) / 2.0
        assert v - math.atan(kappa * v) == pytest.approx(math.pi / 2.0, abs=1e-10)
    # kappa = 0 reduces to the fixed-strike pole
    assert solve_theta_c(0.0, params) == pytest.approx(math.pi ** 2 / (2.0 * 0.09), rel=1e-12)
    tcs = [solve_theta_c(k, params) for k in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(a < b for a, b in zip(tcs, tcs[1:]))


def test_cumulant_domain():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    assert cumulant_float(0.0, 1.3, params) == 0.0
    tc = solve_theta_c(1.3, params)
    assert math.isinf(cumulant_float(tc, 1.3, params))
    assert math.isinf(cumulant_float(tc * 1.5, 1.3, params))
    assert math.isfinite(cumulant_float(tc * 0.999, 1.3, params))
    # negative-theta branch hits its own pole where 1 - kappa*u*tanh(u) = 0
    assert math.isinf(cumulant_float(-60.0, 1.3, params))
    assert math.isfinite(cumulant_float(-7.0, 1.3, params))


def test_matches_legendre_duality_oracle():
    params = ModelParams(S0=1.0, sigma=0.45, beta=0.5)
    for kappa in (0.5, 0.7, 0.9, 1.1, 1.5, 2.0, 3.0):
        ref = legendre_float(kappa, params)
        assert abs(rate_float_sqrt(kappa, params).value / ref - 1.0) < duality_rel


def test_taylor_remainder_ratio():
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    worst = 0.0
    for ln_k in np.linspace(-0.2, 0.2, 81):
        if abs(ln_k) < 1e-3:
            continue
        jf = rate_float_sqrt(math.exp(ln_k), params).value  # S0/sigma^2 = 1
        worst = max(worst, abs(jf - jf_taylor(math.exp(ln_k))) / abs(ln_k) ** 5)
    assert worst < taylor_bound


def test_taylor_leading_coefficient():
    # jf ~ (3/2) log(kappa)^2 near kappa = 1
    for ln_k in (-0.01, 0.02):
        assert jf_taylor(math.exp(ln_k)) == pytest.approx(
            1.5 * ln_k ** 2, rel=2.5 * abs(ln_k)
        )


def test_monotone_on_both_sides_of_one():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    below = [rate_float_sqrt(k, params).value for k in np.linspace(0.3, 0.95, 14)]
    assert all(a > b for a, b in zip(below, below[1:]))
    above = [rate_float_sqrt(k, params).value for k in np.linspace(1.05, 3.0, 14)]
    assert all(a < b for a, b in zip(above, above[1:]))


def test_differs_from_fixed_strike_rate():
    # floating-strike optionality is genuinely different from fixed-strike:
    # the rates disagree by far more than any numerical tolerance
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    for kappa in (0.5, 2.0):
        jf = rate_float_sqrt(kappa, params).value
        fixed = rate_sqrt(kappa, params).value
        assert abs(jf / fixed - 1.0) > 0.1


def test_at_the_money_and_branches():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    res = rate_float_sqrt(1.0, params)
    assert res.value == 0.0
    assert res.diag.branch == "atm"
    assert rate_float_sqrt(1.4, params).diag.branch == "put"
    assert rate_float_sqrt(0.6, params).diag.branch == "call"
    # near-ATM follows the quadratic leading term
    ln_k = 5e-6
    assert rate_float_sqrt(math.exp(ln_k), params).value == pytest.approx(
        (1.0 / 0.25) * 1.5 * ln_k ** 2, rel=1e-3
    )


def test_general_beta_agrees_with_closed_form_at_half():
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    got = rate_float_cev(0.8, params)
    ref = rate_float_sqrt(0.8, params).value
    assert got.value == pytest.approx(ref, rel=1e-5)


def test_general_beta_regression():
    params = ModelParams(S0=1.0, sigma=0.3, beta=0.75)
    res = rate_float_cev(0.7, params)
    assert isinstance(res, RateResult)
    assert res.value == pytest.approx(2.6938535845207348, rel=1e-4)
    # the solver's certificate travels with the value
    assert res.diag.branch == "call"
    assert res.diag.rungs == 1 and res.diag.iterations >= 1
    assert 0.0 <= res.diag.kkt_residual <= 1e-12
    assert abs(res.diag.constraint_err) <= 1e-12


def test_general_beta_atm_is_exact_zero():
    res = rate_float_cev(1.0, ModelParams(S0=1.0, sigma=0.4, beta=0.8))
    assert res.value == 0.0
    assert res.diag.branch == "atm"


def test_invalid_inputs():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    with pytest.raises(ValueError):
        rate_float_cev(0.0, params)
    with pytest.raises(ValueError):
        rate_float_cev(-0.5, params)
    with pytest.raises(ValueError):
        solve_theta_c(-0.1, params)


def test_root_equation_boundary_values():
    assert _eqz_trig(0.0, 1.5) == pytest.approx(2.0 * (1.0 - 1.5))
    assert _eqz_hyp(0.0, 0.7) == pytest.approx(4.0 * (1.0 - 0.7))
