"""Gauss hypergeometric function and probability helpers.

The 2F1 evaluator (scipy's, behind the library's argument checks) is checked
against an independent Euler-integral quadrature (valid for c > b > 0, z < 1,
smooth after t = sin^2 phi), against closed-form anchor values, and against
the elementary reductions of the beta = 1/2 triples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from cevasian.specfun import hyp2f1, log_gamma, norm_cdf, norm_pdf
from oracles import HYP2F1_ELEMENTARY

oracle_tol = 1e-9
reduction_tol = 1e-12
perturbed_tol = 1e-6

# parameter triples that the rate-function code actually uses
ELEM_TRIPLES = [(0.5, 0.5, 1.5), (0.5, 1.0, 1.5), (0.5, 1.5, 2.5), (1.0, 1.5, 2.5)]


def hyp2f1_euler(a, b, c, z):
    """Euler integral representation of 2F1, evaluated by quadrature.

    Substituting t = sin^2(phi) makes the integrand smooth whenever
    b >= 1/2 and c - b >= 1/2, which covers every triple used here.
    """
    pref = math.gamma(c) / (math.gamma(b) * math.gamma(c - b))

    def f(ph):
        s2 = math.sin(ph) ** 2
        return (
            2.0
            * math.sin(ph) ** (2.0 * b - 1.0)
            * math.cos(ph) ** (2.0 * (c - b) - 1.0)
            * (1.0 - z * s2) ** (-a)
        )

    val, _ = quad(f, 0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13, limit=300)
    return pref * val


def test_matches_euler_integral_on_elementary_triples():
    zs = [-5.0, -2.0, -1.0, -0.9, -0.5, -0.2, 0.3, 0.5, 0.7, 0.9, 0.95]
    for a, b, c in ELEM_TRIPLES:
        for z in zs:
            ref = hyp2f1_euler(a, b, c, z)
            assert abs(hyp2f1(a, b, c, z) / ref - 1.0) < oracle_tol


def test_matches_euler_integral_on_general_triples():
    # the triples that appear for generic elasticity exponents
    for beta in (0.6, 0.75, 0.9):
        for b, c in ((0.5, 1.5), (1.5, 2.5)):
            for z in (-8.0, -2.0, -0.7, -0.4, 0.25, 0.6, 0.85, 0.97):
                ref = hyp2f1_euler(beta, b, c, z)
                assert abs(hyp2f1(beta, b, c, z) / ref - 1.0) < oracle_tol


def test_anchor_values():
    # 2F1(1/2,1/2;3/2;-1) = asinh(1) = log(1+sqrt(2))
    assert hyp2f1(0.5, 0.5, 1.5, -1.0) == pytest.approx(0.8813735870195430, rel=1e-14)
    # 2F1(1/2,1;3/2;1/4) = arctanh(1/2)/(1/2) = log(3)
    assert hyp2f1(0.5, 1.0, 1.5, 0.25) == pytest.approx(1.0986122886681098, rel=1e-14)
    assert hyp2f1(0.3, 0.7, 1.9, 0.0) == 1.0


def test_polynomial_termination():
    # negative-integer numerator parameter gives a finite sum
    for z in (-3.7, 0.8):
        a, b, c = -3.0, 0.8, 1.7
        expect = 0.0
        term = 1.0
        for n in range(4):
            expect += term
            term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        assert hyp2f1(a, b, c, z) == pytest.approx(expect, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.1, 2.5),
    st.floats(0.1, 2.5),
    st.floats(2.8, 6.0),
    st.floats(-3.0, 0.45),
)
def test_symmetric_in_first_two_parameters(a, b, c, z):
    assert hyp2f1(a, b, c, z) == hyp2f1(b, a, c, z)


def _assert_matches_elementary(triples, zs):
    for a, b, c in triples:
        elem = HYP2F1_ELEMENTARY[(a, b, c)]
        for z in zs:
            if z == 0.0:
                continue
            assert abs(hyp2f1(a, b, c, float(z)) / elem(float(z)) - 1.0) < reduction_tol


def test_elementary_reductions_match_generic_engine_mid_range():
    _assert_matches_elementary(ELEM_TRIPLES, np.linspace(-0.5, 0.5, 21))


def test_elementary_reductions_match_generic_engine_near_one():
    _assert_matches_elementary(((0.5, 0.5, 1.5), (0.5, 1.5, 2.5)), np.linspace(0.55, 0.95, 9))


def test_elementary_reductions_match_generic_engine_large_negative():
    _assert_matches_elementary(((0.5, 1.0, 1.5), (1.0, 1.5, 2.5)), np.linspace(-20.0, -1.5, 9))


def test_degenerate_connection_formulas_via_perturbation():
    """Integer b - a (z < -1) and integer c - a - b (z > 1/2) make the
    textbook connection formulas degenerate; the evaluation must still
    agree with the Euler integral there."""
    cases = [
        (0.5, 1.5, 2.5, -3.0),   # b - a = 1
        (0.5, 1.5, 2.5, -8.0),
        (0.5, 1.0, 1.5, 0.8),    # c - a - b = 0
        (1.0, 1.5, 2.5, 0.9),
        (0.5, 0.5, 1.5, -2.0),   # b - a = 0
    ]
    for a, b, c, z in cases:
        assert abs(hyp2f1(a, b, c, z) / hyp2f1_euler(a, b, c, z) - 1.0) < perturbed_tol


def test_rejects_unsupported_arguments():
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 1.5, 1.0)
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 1.5, 1.5)
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 0.0, 0.3)
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, -2.0, 0.3)


def test_log_gamma():
    assert log_gamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-15)
    assert log_gamma(1.0) == 0.0
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.3)


def test_normal_helpers():
    assert norm_cdf(0.0) == 0.5
    assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)
    assert norm_cdf(-1.0) == pytest.approx(1.0 - 0.8413447460685429, abs=1e-15)
    assert norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)
    # pdf is the derivative of the cdf
    h = 1e-6
    fd = (norm_cdf(0.7 + h) - norm_cdf(0.7 - h)) / (2.0 * h)
    assert fd == pytest.approx(norm_pdf(0.7), rel=1e-9)
