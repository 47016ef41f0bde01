"""Floating-strike (strike = kappa * terminal spot) rate function.

The closed-form square-root-model rate is validated against a direct
maximization of -Lambda_f over theta (the variational dual), the floating
cumulant against its Riccati representation, and the general-elasticity
route against the closed form where both exist.
"""

import json
import math
import statistics

import numpy as np
import pytest

import cevasian.float_strike as float_strike
from cevasian import ModelParams, RateResult, RootBracketError
from cevasian.cli import main
from cevasian.float_strike import (
    cumulant_float,
    jf_taylor,
    rate_float_cev,
    rate_float_sqrt,
    solve_theta_c,
    _eqw_flat,
    _eqz_hyp,
    _eqz_trig,
)
from cevasian.rate_cev import rate_sqrt
from oracles import jf_call_mpmath, jf_put_mpmath, legendre_float, riccati_lambda

duality_rel = 1e-7
pole_rel = 1e-13  # measured worst is ~1e-14 at kappa 0.99, ~2e-16 next to the pole
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
    for kappa in (0.01, 0.03, 0.05, 0.5, 0.7, 0.9, 1.1, 1.5, 2.0, 3.0):
        ref = legendre_float(kappa, params)
        assert abs(rate_float_sqrt(kappa, params).value / ref - 1.0) < duality_rel


def test_hyperbolic_branch_matches_mpmath_next_to_the_pole():
    # below kappa ~0.06 the root lies within 1e-7 (relative) of the tanh pole,
    # and below the 0.04 switch to the pole asymptote within 1e-10
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)  # S0/sigma^2 = 1
    for kappa in (0.01, 0.03, 0.0399, 0.04, 0.05, 0.0544, 0.056, 0.06, 0.1, 0.5, 0.9, 0.99):
        got = rate_float_sqrt(kappa, params).value
        assert got == pytest.approx(jf_call_mpmath(kappa), rel=pole_rel)


def test_atm_series_edge_matches_mpmath():
    # inside the ATM window the rate is the 4-term series, not its leading
    # term (1.1e-5 relative off at the window's edge)
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    kappa = math.exp(-0.99e-5)
    res = rate_float_sqrt(kappa, params)
    assert res.diag.branch == "atm"
    assert res.value == pytest.approx(jf_call_mpmath(kappa), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("kappa", [3.0, 1e6, 1e8 * (1 - 1e-12), 1e8 * (1 + 1e-12), 1e12,
                                   1e36, 1e100, 1e200, 1.7976931348623157e308])
def test_put_branch_up_to_the_largest_kappa_matches_mpmath(kappa):
    # the root falls like (3/kappa)^(1/4); above kappa = 1e8 it is solved in
    # w = z (kappa/3)^(1/4), inside (0, 2).  Measured worst: 2.2e-16 on J_f,
    # 1.3e-13 on z just below 1e8, where 1 - sin 2z/(2z) starts to cancel
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    jf, z = jf_put_mpmath(kappa)
    res = rate_float_sqrt(kappa, params)
    assert res.diag.branch == "put"
    assert 0.0 < res.diag.z_star < 2.0 * min(1.0, (3.0 / kappa) ** 0.25)
    assert res.diag.z_star == pytest.approx(z, rel=1e-12, abs=0.0)
    assert res.value == pytest.approx(jf, rel=1e-15, abs=0.0)


def test_float_cli_at_huge_kappa_returns_the_limit_two(capsys):
    rc = main(["float", "--sigma", "0.5", "--beta", "0.5", "--kappa", "1e200", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["branch"] == "put"
    assert out["rate"] == pytest.approx(2.0 / 0.25, rel=1e-15)


def test_one_signed_equation_raises_root_bracket_error(monkeypatch, capsys):
    # a constant, and one that falls like the true equation but never to 0
    for eq in (lambda z, kappa: (1.0, 0.0),
               lambda z, kappa: (math.exp(-z), -z * math.exp(-z))):
        monkeypatch.setattr(float_strike, "_eqz_hyp", eq)
        params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
        with pytest.raises(RootBracketError):
            rate_float_sqrt(0.5, params)
        rc = main(["float", "--sigma", "0.5", "--beta", "0.5", "--kappa", "0.5"])
        assert rc == 3
        assert "no sign change" in capsys.readouterr().err


def test_kappa_whose_root_overflows_raises_root_bracket_error():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    assert math.isfinite(rate_float_sqrt(1e-300, params).value)
    with pytest.raises(RootBracketError):
        rate_float_sqrt(5e-324, params)


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


def test_general_beta_returns_the_atm_series_inside_the_window(capsys):
    # the leading term 3/2 log^2 kappa in units of S0^(2-2beta)/sigma^2; at
    # kappa = 1 + 1e-9 the variational solver would stall (CLI exit 3)
    params = ModelParams(S0=1.7, sigma=0.4, beta=0.8)
    for kappa in (1.0 + 1e-9, 1.0 - 3e-6, 1.0 + 0.99e-5):
        res = rate_float_cev(kappa, params)
        assert res.diag.branch == "atm"
        assert res.value == pytest.approx(1.7 ** 0.4 / 0.16 * 1.5 * math.log(kappa) ** 2,
                                          rel=1e-14, abs=0.0)
    rc = main(["float", "--sigma", "0.5", "--beta", "0.75", "--kappa", "1.000000001", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["branch"] == "atm"


def test_invalid_inputs():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    with pytest.raises(ValueError):
        rate_float_cev(0.0, params)
    with pytest.raises(ValueError):
        rate_float_cev(-0.5, params)
    with pytest.raises(ValueError):
        solve_theta_c(-0.1, params)


def test_root_equation_boundary_values():
    assert _eqz_trig(0.0, 1.5)[0] == pytest.approx(2.0 * (1.0 - 1.5))
    assert _eqz_hyp(0.0, 0.7)[0] == pytest.approx(4.0 * (1.0 - 0.7))


@pytest.mark.parametrize("xlog", [1.0001e-5, 2e-5, 1e-4, -1.0001e-5, -2e-5, -1e-4])
def test_just_outside_the_atm_window_matches_mpmath(xlog):
    # the equations and J_f are summed in excess terms; formed from their
    # O(1) parts they cancel to O(kappa - 1) and were 2e-11 off here
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    kappa = math.exp(xlog)
    res = rate_float_sqrt(kappa, params)
    assert res.diag.branch == ("put" if xlog > 0 else "call")
    ref = jf_put_mpmath(kappa)[0] if xlog > 0 else jf_call_mpmath(kappa)
    assert res.value == pytest.approx(ref, rel=1e-13, abs=0.0)


def _log_slope_errors(eq, kappa, zs, h=1e-5):
    """Relative gaps between eq's z d/dz and central differences in log z,
    in units of the larger of the slope and the value (both vanish nowhere
    at once)."""
    worst = 0.0
    for z in zs:
        f, slope = eq(z, kappa)
        fd = (eq(z * math.exp(h), kappa)[0] - eq(z * math.exp(-h), kappa)[0]) / (2.0 * h)
        worst = max(worst, abs(slope - fd) / max(abs(slope), abs(f)))
    return worst


def test_root_equation_derivatives_match_central_differences():
    for kappa in (1.0001, 1.3, 3.0, 100.0, 1e7):
        assert _log_slope_errors(_eqz_trig, kappa, np.geomspace(1e-3, 1.5, 40)) < 1e-7
    for kappa in (1e8, 1e20, 1e300):
        assert _log_slope_errors(_eqw_flat, kappa, np.geomspace(1e-2, 2.0, 40)) < 1e-7
    # both the near-money form and, from z = 1 up, the pole-stable product,
    # also next to the root, where at small kappa the equation is nearly
    # quadratic in 1 - kappa z and the differences' h^2 term is ~1e-6
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    for kappa in (0.04, 0.05, 0.1, 0.5, 0.9, 0.9999):
        root = rate_float_sqrt(kappa, params).diag.z_star
        zs = list(np.geomspace(1e-3, 0.999 / kappa, 60)) + [root * (1.0 + d)
                                                              for d in (-1e-6, -1e-9, 0.0, 1e-9)]
        assert _log_slope_errors(_eqz_hyp, kappa, zs) < 1e-5


def test_newton_evaluations_are_bounded():
    # from the near-money quadratic or the pole start, over both branches
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    logs = np.concatenate([np.linspace(math.log(0.04), math.log(0.1), 40),
                           np.linspace(math.log(0.1), -1.1e-5, 120),
                           np.linspace(1.1e-5, math.log(1e8), 120),
                           np.linspace(math.log(1e8), 709.7, 40)])
    counts = []
    for lk in logs:
        diag = rate_float_sqrt(math.exp(lk), params).diag
        # the equations' rounding noise: up to ~1.1e-13 near kappa = 4e5,
        # where 1 - sin 2z/(2z) is formed directly just above 2z = 0.1
        assert diag.residual < 5e-13
        counts.append(diag.iterations)
    assert min(counts) >= 1
    assert statistics.median(counts) <= 6 and max(counts) <= 10
