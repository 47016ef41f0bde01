"""Rate function for general elasticity exponents (hypergeometric route).

The building-block functions a(x), b(x) are checked against direct quadrature
of the integrals they represent and against mpmath out to the ends of the
doubles; the assembled rate is checked against many-digit root solves from
beta = 1/2 to 1 - 1e-9 and K/S0 = 1e-300 to 1e300, against the lognormal-model
limit as beta -> 1, against the alternative infimum formulation, and against
scaling laws and asymptote checkpoints.
"""

import importlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from cevasian import ConvergenceError, ModelParams, RootBracketError
from cevasian.rate_cev import (
    _U_NEAR,
    _Y_SERIES,
    ab_minus,
    ab_plus,
    rate_cev,
    rate_cev_large_strike,
    rate_cev_small_strike,
    rate_cev_taylor,
    _root_equation,
)
from oracles import bs_limit_rate, rate_cev_alt, rate_cev_mpmath, rate_sqrt_mpmath

quad_rel = 1e-10
mpmath_rel = 1e-11    # measured worst over the grid below is ~5e-13
half_rel = 1e-13      # measured agreement at beta = 1/2 is ~1.8e-15
limit_rel = 2e-3      # measured worst at beta = 0.999 is ~8.4e-4
alt_rel = 1e-10
taylor_bound = 0.01   # measured sup of |remainder| / |x|^5 at beta = 3/4 is ~0.0034
# measured worst against rate_cev_mpmath on the grid of
# test_rate_matches_mpmath_over_beta_and_strike: 2.3e-15 (beta = 1 - 1e-9,
# K/S0 = 3), over beta from 1/2 to 1 - 1e-9, where scipy's 2F1 far out on the
# negative axis loses up to 2e-6, and K/S0 from 1e-300 to 1e300
solve_rel = 5e-15


def ab_plus_quad(x, beta):
    """a+(x) = int_x^1 z^-beta (z-x)^(-1/2) dz and the (z-x)^(+1/2) analogue,
    smoothed by the substitution z = x + (1-x) s^2."""
    a_val, _ = quad(lambda s: 2.0 * (1.0 - x) ** 0.5 * (x + (1.0 - x) * s * s) ** (-beta),
                    0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    b_val, _ = quad(lambda s: 2.0 * (1.0 - x) ** 1.5 * s * s * (x + (1.0 - x) * s * s) ** (-beta),
                    0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return a_val, b_val


def ab_minus_quad(x, beta):
    a_val, _ = quad(lambda s: 2.0 * (x - 1.0) ** 0.5 * (x - (x - 1.0) * s * s) ** (-beta),
                    0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    b_val, _ = quad(lambda s: 2.0 * (x - 1.0) ** 1.5 * s * s * (x - (x - 1.0) * s * s) ** (-beta),
                    0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return a_val, b_val


def test_ab_plus_matches_quadrature():
    for beta in (0.5, 0.6, 0.75, 0.9):
        for x in (0.05, 0.2, 0.5, 0.8, 0.95):
            a, b = ab_plus(x, beta)
            aq, bq = ab_plus_quad(x, beta)
            assert a == pytest.approx(aq, rel=quad_rel)
            assert b == pytest.approx(bq, rel=quad_rel)


def test_ab_minus_matches_quadrature():
    for beta in (0.5, 0.6, 0.75, 0.9):
        for x in (1.05, 1.3, 2.0, 5.0, 12.0):
            a, b = ab_minus(x, beta)
            aq, bq = ab_minus_quad(x, beta)
            assert a == pytest.approx(aq, rel=quad_rel)
            assert b == pytest.approx(bq, rel=quad_rel)


def test_ab_minus_matches_mpmath_from_one_to_1e12():
    # 40-digit reference from the defining form, x^-beta 2F1(beta, c-1; c; 1 - 1/x),
    # whose argument tends to 1 as x grows
    for beta in (0.5 + 1e-7, 0.6, 0.75, 0.9, 0.99, 0.999):
        for x in np.geomspace(1.0 + 1e-8, 1e12, 41):
            a, b = ab_minus(float(x), beta)
            with mpmath.workdps(40):
                xm, bm = mpmath.mpf(float(x)), mpmath.mpf(beta)
                z, xmb = 1 - 1 / xm, xm ** -bm
                a_ref = 2 * xmb * mpmath.sqrt(xm - 1) * mpmath.hyp2f1(bm, 0.5, 1.5, z)
                b_ref = 2 * xmb * (xm - 1) ** 1.5 * mpmath.hyp2f1(bm, 1.5, 2.5, z) / 3
            assert a == pytest.approx(float(a_ref), rel=mpmath_rel)
            assert b == pytest.approx(float(b_ref), rel=mpmath_rel)


def test_ab_plus_at_beta_half_matches_mpmath_down_to_1e_300():
    # scipy's 2F1(1/2, 1/2; 3/2; z) is inf for z <= -1.5e13 (x below ~7e-14);
    # measured worst is ~1e-12, on b near x = 7e-14
    for x in (0.5, 1e-3, 1e-10, 7e-14, 1e-14, 1e-20, 1e-50, 1e-100, 1e-200, 1e-300):
        a, b = ab_plus(x, 0.5)
        with mpmath.workdps(40):
            xm, half = mpmath.mpf(x), mpmath.mpf(1) / 2
            z, xmb = 1 - 1 / xm, 1 / mpmath.sqrt(xm)
            a_ref = 2 * xmb * mpmath.sqrt(1 - xm) * mpmath.hyp2f1(half, half, 1.5, z)
            b_ref = 2 * xmb * (1 - xm) ** 1.5 * mpmath.hyp2f1(half, 1.5, 2.5, z) / 3
        assert a == pytest.approx(float(a_ref), rel=mpmath_rel)
        assert b == pytest.approx(float(b_ref), rel=mpmath_rel)


def test_factors_at_the_ends_of_the_doubles():
    # a+ at a subnormal x and b- near x = 1e300 are finite doubles; 1/x or
    # (x - 1)^1.5 formed directly would overflow there
    for x, beta, ab in ((1e-310, 0.9, ab_plus), (5e-324, 0.6, ab_plus),
                        (1e300, 0.6, ab_minus), (1e300, 0.5, ab_minus)):
        a, b = ab(x, beta)
        with mpmath.workdps(40):
            xm, bm = mpmath.mpf(x), mpmath.mpf(beta)
            d = abs(1 - xm)
            if x < 1.0:  # the defining form, x^-beta 2F1(beta, c - 1; c; 1 - 1/x)
                f1 = xm ** -bm * mpmath.hyp2f1(bm, 0.5, 1.5, 1 - 1 / xm)
                f2 = xm ** -bm * mpmath.hyp2f1(bm, 1.5, 2.5, 1 - 1 / xm)
            else:  # its Pfaff transform, whose argument does not round to 1
                f1, f2 = mpmath.hyp2f1(bm, 1, 1.5, 1 - xm), mpmath.hyp2f1(bm, 1, 2.5, 1 - xm)
            a_ref, b_ref = 2 * mpmath.sqrt(d) * f1, 2 * d ** 1.5 * f2 / 3
        assert a == pytest.approx(float(a_ref), rel=mpmath_rel), (x, beta)
        assert b == pytest.approx(float(b_ref), rel=mpmath_rel), (x, beta)
    # b- = ((x a- - 2 sqrt(x - 1))/(3 - 2 beta) leaves the doubles near x = 1.1e308
    with pytest.raises(ConvergenceError, match="overflows"):
        ab_minus(1.7e308, 0.5)


def test_every_hypergeometric_argument_is_nonpositive(monkeypatch):
    module = importlib.import_module("cevasian.rate_cev")
    hyp2f1, args = module.hyp2f1, []

    def recording(a, b, c, z):
        args.append(z)
        return hyp2f1(a, b, c, z)

    monkeypatch.setattr(module, "hyp2f1", recording)
    branches = set()
    for beta in (0.6, 0.75, 0.9):
        for m in (1e-3, 0.3, 0.9, 1.1, 3.0, 1e3, 1e6):
            branches.add(rate_cev(m, ModelParams(S0=1.0, sigma=0.5, beta=beta)).branch)
    assert branches == {"put", "call"}
    assert args and max(args) <= 0.0


def test_ab_degenerate_at_one():
    assert ab_plus(1.0, 0.75) == (0.0, 0.0)
    assert ab_minus(1.0, 0.75) == (0.0, 0.0)


def test_ab_domain_errors():
    with pytest.raises(ValueError):
        ab_plus(1.2, 0.75)
    with pytest.raises(ValueError):
        ab_plus(0.0, 0.75)
    with pytest.raises(ValueError):
        ab_minus(0.8, 0.75)


def test_general_route_reduces_to_square_root_model():
    # at beta = 1/2 the hypergeometric route must reproduce the trigonometric
    # closed forms, here re-solved in 60-digit arithmetic
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    for m in np.geomspace(0.2, 5.0, 21):
        if abs(m - 1.0) < 0.01:
            continue
        ref = 4.0 * rate_sqrt_mpmath(float(m))
        assert abs(rate_cev(float(m), params).value / ref - 1.0) < half_rel


def test_continuity_across_the_beta_dispatch_boundary():
    a = ModelParams(S0=1.0, sigma=0.4, beta=0.5)
    b = ModelParams(S0=1.0, sigma=0.4, beta=0.5 + 2e-7)
    for m in (0.5, 0.8, 1.5, 2.5):
        assert rate_cev(m, b).value == pytest.approx(rate_cev(m, a).value, rel=1e-5)


def test_approaches_lognormal_model_limit():
    params = ModelParams(S0=1.0, sigma=0.4, beta=0.999)
    for m in (0.5, 0.8, 1.25, 2.0):
        ref = bs_limit_rate(m, 0.4)
        assert abs(rate_cev(m, params).value / ref - 1.0) < limit_rel


def test_alternative_infimum_route_agrees():
    for beta in (0.55, 0.75, 0.9):
        params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
        for m in (0.3, 0.7, 1.4, 2.5):
            a = rate_cev(m, params).value
            b = rate_cev_alt(m, params).value
            assert abs(b / a - 1.0) < alt_rel


def test_deep_put_roots_below_the_absolute_tolerance():
    # put roots x* far below 1e-15 (1e-19 to 1e-34 here); references are
    # 30-digit mpmath root solves
    for beta, m, ref in ((0.6, 1.26e-3, 489.9078973153047),
                         (0.55, 1e-3, 554.016620498615),
                         (0.65, 1e-3, 692.0415224909431)):
        res = rate_cev(m, ModelParams(S0=1.0, sigma=1.0, beta=beta))
        assert res.value == pytest.approx(ref, rel=1e-10)
        assert res.diag.residual < 1e-12  # relative to K/S0


def test_root_residual_is_tiny():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    for m in (0.6, 2.0):
        diag = rate_cev(m, params).diag
        assert abs(diag.residual) < 1e-10
        assert diag.branch in ("call", "put")


def test_taylor_coefficients_at_beta_half():
    # at beta = 1/2 the series is (S0/sigma^2) (3/2 x^2 + 3/5 x^3 + 271/1400 x^4)
    params = ModelParams(S0=1.3, sigma=0.7, beta=0.5)
    for x in (-0.15, 0.1):
        poly = 1.5 * x ** 2 + 0.6 * x ** 3 + (271.0 / 1400.0) * x ** 4
        assert rate_cev_taylor(1.3 * math.exp(x), params) == pytest.approx(
            (1.3 / 0.49) * poly, rel=1e-13
        )


def test_taylor_remainder_ratio_beta_three_quarters():
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.75)
    worst = 0.0
    for x in np.linspace(-0.2, 0.2, 81):
        if abs(x) < 1e-3:
            continue
        err = abs(rate_cev(math.exp(x), params).value - rate_cev_taylor(math.exp(x), params))
        worst = max(worst, err / abs(x) ** 5)
    assert worst < taylor_bound


def test_large_strike_checkpoints():
    p34 = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    r5 = rate_cev(5.0, p34).value / rate_cev_large_strike(5.0, p34)
    r1k = rate_cev(1e3, p34).value / rate_cev_large_strike(1e3, p34)
    assert r5 == pytest.approx(0.139189, abs=1e-3)
    assert r1k == pytest.approx(0.710920, abs=1e-3)
    assert r5 < rate_cev(50.0, p34).value / rate_cev_large_strike(50.0, p34) < r1k
    p9 = ModelParams(S0=1.0, sigma=0.5, beta=0.9)
    assert rate_cev(1e3, p9).value / rate_cev_large_strike(1e3, p9) == pytest.approx(
        0.295619, abs=1e-3
    )


def test_small_strike_checkpoints():
    p34 = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    assert rate_cev(0.2, p34).value / rate_cev_small_strike(0.2, p34) == pytest.approx(
        0.848944, abs=1e-3
    )
    assert abs(rate_cev(1e-3, p34).value / rate_cev_small_strike(1e-3, p34) - 1.0) < 1e-6
    p9 = ModelParams(S0=1.0, sigma=0.5, beta=0.9)
    assert abs(rate_cev(1e-3, p9).value / rate_cev_small_strike(1e-3, p9) - 1.0) < 1e-3


def test_asymptote_domain_checks():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    with pytest.raises(ValueError):
        rate_cev_large_strike(0.9, params)
    with pytest.raises(ValueError):
        rate_cev_small_strike(1.1, params)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.2, 5.0),
    st.floats(0.3, 3.0).filter(lambda m: abs(m - 1.0) > 0.02),
    st.floats(0.5, 0.95),
    st.floats(0.1, 1.0),
)
def test_dimensionless_scaling(lam, m, beta, sigma):
    # I * sigma^2 / S0^(2(1-beta)) depends only on (K/S0, beta)
    a = rate_cev(m, ModelParams(S0=1.0, sigma=1.0, beta=beta)).value
    b = rate_cev(m * lam, ModelParams(S0=lam, sigma=sigma, beta=beta)).value
    assert b * sigma ** 2 / lam ** (2.0 * (1.0 - beta)) == pytest.approx(a, rel=1e-9)


def test_at_the_money_and_validation():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    assert rate_cev(1.0, params).value == 0.0
    x = 5e-6
    assert rate_cev(math.exp(x), params).value == pytest.approx(
        (1.0 / 0.25) * 1.5 * x ** 2, rel=1e-3
    )
    with pytest.raises(ValueError):
        rate_cev(0.0, params)
    with pytest.raises(ValueError):
        rate_cev(-1.0, params)
    with pytest.raises(ValueError):
        rate_cev_alt(1.0, params)


def test_rate_matches_mpmath_over_beta_and_strike():
    edges = [math.exp(s * 1e-5 * (1.0 + d)) for s in (1.0, -1.0) for d in (1e-9, -1e-9)]
    for beta in (0.5, 0.5 + 1e-9, 0.5 + 2e-7, 0.5001, 0.6, 0.75, 0.9, 0.99, 1.0 - 1e-9):
        params = ModelParams(S0=1.0, sigma=1.0, beta=beta)
        for m in [1e-300, 1e-3, 0.3, 0.9999, 1.0001, 3.0, 1e3, 1e6, 1e300] + edges:
            ref = rate_sqrt_mpmath(m) if beta == 0.5 else rate_cev_mpmath(m, beta)
            assert rate_cev(m, params).value == pytest.approx(ref, rel=solve_rel, abs=0.0), (
                beta, m)


@pytest.mark.parametrize("beta, m", [(0.5001, 1.3e-3), (0.501, 1e-4), (0.5001, 1e-3),
                                     (0.75, 1e280)])
def test_extreme_roots_match_mpmath(beta, m):
    # put roots just above beta = 1/2 lie beyond the doubles (x ~ 1e-321 at
    # beta = 0.5001, K/S0 = 1.3e-3; 1e-1041 at beta = 0.501, K/S0 = 1e-4),
    # and the call root at K/S0 = 1e280 is x ~ 3e280
    res = rate_cev(m, ModelParams(S0=1.0, sigma=0.5, beta=beta))
    ref = 4.0 * rate_cev_mpmath(m, beta)  # rate_unit = S0^(2 - 2 beta)/sigma^2 = 4
    assert res.value == pytest.approx(ref, rel=solve_rel, abs=0.0)
    assert res.diag.residual < 1e-12


def test_theta_star_is_the_slope_of_the_rate():
    # theta* = -+ rate_unit a^2/(2 S0) is dI/dK
    for beta in (0.5, 0.75, 0.9):
        params = ModelParams(S0=1.3, sigma=0.4, beta=beta)
        for K in (0.3, 1.0, 1.6, 5.0):
            h = 1e-5 * K
            fd = (rate_cev(K + h, params).value - rate_cev(K - h, params).value) / (2.0 * h)
            assert rate_cev(K, params).diag.theta_star == pytest.approx(fd, rel=1e-8), (beta, K)


def test_each_rate_takes_few_evaluations(monkeypatch):
    # counts evaluations of the factors and the root equation together (one
    # incomplete beta or series, plus one 2F1 within _U_NEAR of the money)
    module = importlib.import_module("cevasian.rate_cev")
    calls = []
    real = module._root_equation
    monkeypatch.setattr(module, "_root_equation",
                        lambda u, target, beta: calls.append(u) or real(u, target, beta))
    counts = []
    for beta in (0.5, 0.6, 0.75, 0.9, 0.99):
        params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
        for m in np.geomspace(0.5, 2.0, 41):
            calls.clear()
            res = rate_cev(float(m), params)
            assert res.diag.iterations == len(calls)
            counts.append(len(calls))
    assert np.median(counts) <= 6
    assert max(counts) <= 12
    # the last: beta - 1/2 = 1.1e-16 times K/S0 = 1.5e-308 underflows
    for beta, m in ((0.5001, 1.3e-3), (0.501, 1e-4), (0.5, 1e-300), (0.5, 1e300),
                    (0.5 + 1e-9, 1e-300), (1.0 - 1e-9, 1e300), (math.nextafter(0.5, 1.0), 1.5e-308)):
        calls.clear()
        res = rate_cev(m, ModelParams(S0=1.0, sigma=0.5, beta=beta))
        assert res.diag.iterations == len(calls) <= 12, (beta, m)


def test_root_equation_derivative_matches_central_differences():
    # on both sides of each switch of the factor's forms: the series at
    # y = min(x, 1/x) = _Y_SERIES and the near-money 2F1 of b at |log x| =
    # _U_NEAR; the elementary forms of beta = 1/2 and across decades of x.
    # The target K/S0 only shifts f; setting it to x keeps f, and so the
    # differences' rounding, small
    h = 1e-5
    us = [s * (c + d) for s in (1.0, -1.0) for c in (_U_NEAR, -math.log(_Y_SERIES))
          for d in (-3e-4, 3e-4)]
    us += [math.log(x) for x in np.geomspace(1e-6, 1e6, 25) if abs(math.log(x)) > 1e-3]
    for beta in (0.5, 0.5001, 0.6, 0.75, 0.9, 0.99):
        for u in us:
            m = math.exp(u)
            _, df, _ = _root_equation(u, m, beta)
            fd = (_root_equation(u + h, m, beta)[0] - _root_equation(u - h, m, beta)[0]) / (2.0 * h)
            assert df == pytest.approx(fd, rel=1e-7), (beta, u)


def test_rate_beyond_the_doubles_is_a_documented_error():
    # K/S0 outside (1e-308, 1e308) has no bracketed root; inside, a rate
    # above the largest double is a ConvergenceError at every beta
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    for m in (1e-310, 1e308):
        with pytest.raises(RootBracketError, match="not bracketed"):
            rate_cev(m, params)
    with pytest.raises(ConvergenceError, match="overflows"):
        rate_cev(1.1e-308, ModelParams(S0=1.0, sigma=0.5, beta=0.99))
    for beta in (0.5 + 1e-9, 0.75, 1.0 - 1e-9):
        params = ModelParams(S0=1.0, sigma=1.0, beta=beta)
        for m in (2e-308, 1e-300, 1e300) + ((9e307,) if beta > 0.5 + 1e-9 else ()):
            res = rate_cev(m, params)
            assert math.isfinite(res.value) and res.value > 0.0, (beta, m)
