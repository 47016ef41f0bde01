"""Rate function for general elasticity exponents (hypergeometric route).

The building-block functions a(x), b(x) are checked against direct quadrature
of the integrals they represent; the assembled rate is checked against the
square-root model at beta = 1/2, against the lognormal-model limit as
beta -> 1, against the alternative infimum formulation, and against scaling
laws and asymptote checkpoints.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from cevasian import ModelParams
from cevasian.rate_cev import (
    ab_minus,
    ab_plus,
    rate_cev,
    rate_cev_large_strike,
    rate_cev_small_strike,
    rate_cev_taylor,
    _rate_general,
)
from cevasian.rate_sqrt import rate_sqrt
from oracles import bs_limit_rate, rate_cev_alt

quad_rel = 1e-10
half_rel = 1e-12      # measured agreement at beta = 1/2 is ~2e-15
limit_rel = 2e-3      # measured worst at beta = 0.999 is ~8.4e-4
alt_rel = 1e-10
taylor_bound = 0.01   # measured sup of |remainder| / |x|^5 at beta = 3/4 is ~0.0034


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
    # the hypergeometric assembly evaluated exactly at beta = 1/2 must
    # reproduce the trigonometric closed forms
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    for m in np.geomspace(0.2, 5.0, 21):
        if abs(m - 1.0) < 0.01:
            continue
        ref = rate_sqrt(float(m), params).value
        assert abs(_rate_general(float(m), params).value / ref - 1.0) < half_rel


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
        assert res.diag.residual < 1e-12 * m


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
