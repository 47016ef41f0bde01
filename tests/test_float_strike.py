"""Floating-strike (strike = kappa * terminal spot) rate function.

The rate of the exact A(y; p) system is validated at beta = 1/2 against a
direct maximization of -Lambda_f over theta (the variational dual) and
many-digit solves of the square-root model's own root equations, at every
beta against a 30-digit solve of the system and Richardson-extrapolated
variational minima, and the floating cumulant against its Riccati
representation.
"""

import json
import math
import statistics

import numpy as np
import pytest

import mpmath

import cevasian.float_strike as float_strike
from cevasian import ModelParams, RateResult, RootBracketError
from cevasian.cli import main
from cevasian.float_strike import (
    jf_taylor,
    rate_float_cev,
    rate_float_sqrt,
    _call_system,
    _put_system,
)
from cevasian.model import atm_floating
from cevasian.rate_cev import _tail, rate_sqrt
from cevasian.varsolve import minimize_float
from oracles import (a_quadrature, cumulant_float, float_system_mpmath, jf_call_mpmath,
                     jf_put_mpmath, legendre_float, riccati_lambda, richardson_float,
                     solve_theta_c)

duality_rel = 1e-7
pole_rel = 1e-13  # measured worst is ~1e-14 at kappa 0.99, ~2e-16 next to the pole
riccati_rel = 1e-9
taylor_bound = 0.4  # measured sup of |remainder| / |log kappa|^5 is ~0.31


def _z_star(diag):
    """The square-root model's root z of the diag's (u, v), in 60 digits:
    (A(v) - A(u))/2 = arccos sqrt(v) - arccos sqrt(u), formed as
    arcsin(sqrt(u (1-v)) - sqrt(v (1-u))), for puts and
    (A(u) + A(v))/2 = artanh sqrt(1 - u) + artanh sqrt(1 - v) for calls."""
    with mpmath.workdps(60):
        u, v = mpmath.mpf(diag.u), mpmath.mpf(diag.v)
        if diag.branch == "put":
            return float(mpmath.asin(mpmath.sqrt(u * (1 - v)) - mpmath.sqrt(v * (1 - u))))
        return float(mpmath.atanh(mpmath.sqrt(1 - u)) + mpmath.atanh(mpmath.sqrt(1 - v)))


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
    # the trigonometric root z = (A(v) - A(u))/2 falls like (3/kappa)^(1/4),
    # and v like kappa^(-3/2), below the doubles at the largest kappa
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    jf, z = jf_put_mpmath(kappa)
    res = rate_float_sqrt(kappa, params)
    assert res.diag.branch == "put"
    assert 0.0 < _z_star(res.diag) < 2.0 * min(1.0, (3.0 / kappa) ** 0.25)
    assert _z_star(res.diag) == pytest.approx(z, rel=1e-12, abs=0.0)
    assert res.value == pytest.approx(jf, rel=1e-15, abs=0.0)


def test_put_branch_near_kappa_4e5_keeps_its_residual_at_rounding():
    # there 2z ~ 0.1, where 1 - sin 2z/(2z) formed directly lost ~600x and
    # left residuals up to 1.2e-13; the series now runs to 2z = 1
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    for kappa in np.geomspace(3e5, 6e5, 400):
        assert rate_float_sqrt(float(kappa), params).diag.residual < 2e-14, kappa
    for kappa in np.geomspace(3e5, 6e5, 9):
        jf, z = jf_put_mpmath(float(kappa))
        res = rate_float_sqrt(float(kappa), params)
        assert res.value == pytest.approx(jf, rel=1e-15, abs=0.0)
        assert _z_star(res.diag) == pytest.approx(z, rel=5e-15, abs=0.0)


def test_float_cli_at_huge_kappa_returns_the_limit_two(capsys):
    rc = main(["float", "--sigma", "0.5", "--beta", "0.5", "--kappa", "1e200", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["branch"] == "put"
    assert out["rate"] == pytest.approx(2.0 / 0.25, rel=1e-15)


def test_one_signed_equation_raises_root_bracket_error(monkeypatch, capsys):
    # a constant, and one that falls like the true relation but never to 0,
    # with v driven up against its bound v < kappa
    def constant(t, s, beta, lk):
        return 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.5

    def falling(t, s, beta, lk):
        return math.exp(-t), 0.0, -math.exp(-t), 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.5

    for system in (constant, falling):
        monkeypatch.setattr(float_strike, "_call_system", system)
        float_strike._solve.cache_clear()
        params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
        with pytest.raises(RootBracketError):
            rate_float_sqrt(0.5, params)
        rc = main(["float", "--sigma", "0.5", "--beta", "0.5", "--kappa", "0.5"])
        assert rc == 3
        assert "no root" in capsys.readouterr().err


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
    # continuity in beta: dI/dbeta is O(1), so beta = 1/2 + 1e-6 moves the
    # rate by ~1e-6 on both branches
    half = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    near = ModelParams(S0=1.0, sigma=1.0, beta=0.5 + 1e-6)
    for kappa in (0.05, 0.8, 1.3, 10.0):
        got = rate_float_cev(kappa, near).value
        assert got == pytest.approx(rate_float_sqrt(kappa, half).value, rel=1e-5)


def test_general_beta_regression():
    params = ModelParams(S0=1.0, sigma=0.3, beta=0.75)
    res = rate_float_cev(0.7, params)
    assert isinstance(res, RateResult)
    assert res.value == pytest.approx(2.6938535845207348, rel=1e-4)
    # the closed route's solve travels with the value
    assert res.diag.branch == "call"
    assert 0.0 < res.diag.v < res.diag.u < 1.0
    assert 1 <= res.diag.iterations <= 10 and 0.0 <= res.diag.residual < 1e-13
    # and the variational solver's certificate with its own
    value, info = minimize_float(0.7, params, full_output=True)
    assert value == pytest.approx(res.value, rel=1e-5)
    assert info["rungs"] == 1 and info["iterations"] >= 1
    assert 0.0 <= info["kkt_residual"] <= 1e-12
    assert abs(info["constraint_err"]) <= 1e-12


def test_general_beta_atm_is_exact_zero():
    res = rate_float_cev(1.0, ModelParams(S0=1.0, sigma=0.4, beta=0.8))
    assert res.value == 0.0
    assert res.diag.branch == "atm"


def test_general_beta_returns_the_atm_series_inside_the_window(capsys):
    # x^2 (3/2 + c3 x + c4 x^2), x = log kappa, in units of S0^(2-2beta)/sigma^2,
    # with c3 = -3/10 - 27/10 (1-beta), c4 = (109 + 1107 (1-beta) + 3159 (1-beta)^2)/1400
    params = ModelParams(S0=1.7, sigma=0.4, beta=0.8)
    c3, c4 = -0.3 - 2.7 * 0.2, (109.0 + 1107.0 * 0.2 + 3159.0 * 0.04) / 1400.0
    for kappa in (1.0 + 1e-9, 1.0 - 3e-6, 1.0 + 0.99e-5):
        res = rate_float_cev(kappa, params)
        x = math.log(kappa)
        assert res.diag.branch == "atm"
        assert res.value == pytest.approx(1.7 ** 0.4 / 0.16 * x * x * (1.5 + c3 * x + c4 * x * x),
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
    # at u = v (s = 0) dB = 0: the put relation is -(1/d + 2) h(v); the call
    # relation, times v^p, is 2 v^p A(v) - (2 - 1/(1 - beta)) sqrt(1 - v)
    for beta in (0.5, 0.75):
        d, lk = 1.0 - beta, math.log(1.5)
        f = _put_system(0.0, 0.0, beta, lk)[0]
        assert f == pytest.approx(-(1.0 / d + 2.0) * 0.5 ** d * math.sqrt(0.5), rel=1e-15)
        p, lk = 1.5 - beta, math.log(0.7)
        a = float(a_quadrature(0.5, p))
        g = _call_system(0.0, 0.0, beta, lk)[0]
        assert g == pytest.approx(2.0 * 0.5 ** p * a - (2.0 - 1.0 / (1.0 - beta)) * math.sqrt(0.5),
                                  rel=1e-14)


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


def _partial_errors(system, beta, kappa, points, h=1e-5):
    """The largest gap between the system's partials in (t, s) and central
    differences, in units of the larger of its relation's partials' sizes
    and its residual: a partial can be tiny beside the other (the kappa
    relation's s-partial near the money), where the differences keep only
    the residual's rounding over h."""
    lk, worst = math.log(kappa), 0.0
    for t, s in points:
        out = system(t, s, beta, lk)
        r, J = out[:2], out[2:6]
        for (dt, ds), (jf, jk) in (((h, 0.0), (J[0], J[2])), ((0.0, h), (J[1], J[3]))):
            plus = system(t + dt, s + ds, beta, lk)[:2]
            minus = system(t - dt, s - ds, beta, lk)[:2]
            for i, slope in ((0, jf), (1, jk)):
                fd = (plus[i] - minus[i]) / (2.0 * h)
                size = max(abs(J[2 * i]) + abs(J[2 * i + 1]), abs(r[i]))
                worst = max(worst, abs(slope - fd) / size)
    return worst


def test_root_equation_derivatives_match_central_differences():
    # on a 5 x 5 grid of offsets around each root in (t, s) = (logit v,
    # logit u - logit v): near the money, in between, for deep puts (where the
    # relation switches to its head form at u = 1/2) and at the call's pole end
    for beta in (0.5, 0.75):
        for kappa in (0.05, 0.1, 0.5, 0.9, 0.9999, 1.0001, 1.3, 3.0, 100.0, 1e7, 1e100):
            res = rate_float_cev(kappa, ModelParams(S0=1.0, sigma=1.0, beta=beta))
            t0 = math.log(res.diag.v) - math.log1p(-res.diag.v)
            s0 = math.log(res.diag.u) - math.log1p(-res.diag.u) - t0
            offsets = (-0.02, -1e-3, 0.0, 1e-3, 0.02)
            points = [(t0 + a * max(abs(t0), 1.0), s0 + b * max(abs(s0), 1e-3))
                      for a in offsets for b in offsets]
            system = _put_system if kappa > 1.0 else _call_system
            assert _partial_errors(system, beta, kappa, points) < 1e-7, (beta, kappa)


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
        # the equations' rounding noise: up to ~1.1e-14 near kappa = 4e5
        assert diag.residual < 5e-13
        counts.append(diag.iterations)
    assert min(counts) >= 1
    assert statistics.median(counts) <= 6 and max(counts) <= 10


@pytest.mark.parametrize("beta", [0.51, 0.6, 0.75, 0.9, 0.99])
def test_general_beta_matches_the_30_digit_system(beta):
    # outside the ATM window, from the call's pole end to deep puts, where v
    # leaves the doubles; measured worst 1.0e-14 (value), 5.4e-14 (u, v)
    params = ModelParams(S0=1.0, sigma=1.0, beta=beta)
    for kappa in (1e-3, 0.01, 0.1, 0.5, 0.9, 0.999, 0.99998, 1.00002, 1.001, 1.1, 3.0,
                  100.0, 1e10, 1e100, 1e300):
        jf, u, v = float_system_mpmath(kappa, beta)
        res = rate_float_cev(kappa, params)
        assert res.value == pytest.approx(jf, rel=1e-12, abs=0.0), kappa
        assert res.diag.u == pytest.approx(u, rel=1e-12, abs=0.0), kappa
        assert res.diag.v == pytest.approx(v, rel=1e-12, abs=0.0), kappa


@pytest.mark.parametrize("beta", [0.6, 0.75, 0.9])
def test_general_beta_matches_richardson_varsolve(beta):
    # (4 I_1600 - I_800)/3 of the variational minimum: measured 2.5e-12 at
    # most for kappa >= 0.3, and 0.8e-9 to 1.8e-9 at kappa = 0.05, which is
    # Richardson's own O(1/n^4) error, not the route's
    params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
    for kappa, rel in ((0.05, 3e-9), (0.3, 5e-12), (0.9, 5e-12), (1.3, 5e-12), (10.0, 5e-12)):
        assert rate_float_cev(kappa, params).value == pytest.approx(
            richardson_float(kappa, params), rel=rel, abs=0.0)


def test_a_matches_quadrature():
    # A(x; p) of both relations, p = beta and 3/2 - beta, from the money to
    # x = 1e-12, against 30-digit quadrature
    for beta in (0.5, 0.6, 0.75, 0.99):
        for p in (beta, 1.5 - beta):
            for x in (1e-12, 1e-3, 0.05, 0.3, 0.7, 0.99, 1.0 - 1e-9):
                got = _tail(math.log(x), 1.0 - p)[0]
                assert got == pytest.approx(float(a_quadrature(x, p)), rel=4e-15), (p, x)


@pytest.mark.parametrize("beta", [0.5, 0.6, 0.75, 0.9, 0.99])
def test_atm_series_coefficients_at_every_beta(beta):
    # (J_f/x^2 - P(x))/x^3, x = log kappa, is the next coefficient c5(beta):
    # flat for |x| from 1e-3 to 1e-2 (measured spread 5e-3 at beta = 1/2),
    # where an error e in c4 would add e/x and one in c3 e/x^2
    params = ModelParams(S0=1.0, sigma=1.0, beta=beta)
    c5 = [(rate_float_cev(math.exp(x), params).value / (x * x) - atm_floating(x, beta)) / x ** 3
          for x in (1e-3, 2e-3, 5e-3, 1e-2, -1e-3, -2e-3, -5e-3, -1e-2)]
    assert max(c5) - min(c5) < 0.01
    assert max(abs(c) for c in c5) < taylor_bound
