"""Domain sweep of the closed-form rates and the asymptotic prices.

Over the documented domain every call must return a finite, non-negative
rate or price, or raise one of the documented numerical errors (CLI exit 3).
The closed-form rates have no known failure left: the fixed-strike rate on
K/S0 in [1e-3, 1e6] at every beta, and in [1e-300, 1e300] at beta = 1/2, and
the floating rate on kappa in [1e-300, 1e308] at every beta must always
return, and so must the equivalent vols built on them, and the floating
prices up to kappa = 1e308 unless their forward overflows a double.
The inputs that once failed stay in the sweep as explicit examples.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from cevasian import (ConvergenceError, ModelParams, OptionSpec, RootBracketError,
                      price_fixed, price_floating)
from cevasian.cli import main
from cevasian.float_strike import rate_float_cev, rate_float_sqrt
from cevasian.pricing import equiv_lognormal_vol, equiv_normal_vol
from cevasian.rate_cev import rate_cev

def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# both sides of the ATM window's edge, |log-moneyness| = 1e-5 (1 +- 1e-9)
EDGES = [math.exp(s * 1e-5 * (1.0 + d)) for s in (1.0, -1.0) for d in (1e-9, -1e-9)]


def _outcome(call):
    """The documented error type raised by call(), or None after checking
    that the number it returned is finite and >= 0."""
    try:
        value = call()
    except (RootBracketError, ConvergenceError) as exc:
        return type(exc)
    assert math.isfinite(value) and value >= 0.0, value
    return None


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(beta=st.floats(0.5, 1.0, exclude_max=True), m=_log_uniform(1e-3, 1e6))
@example(beta=0.5001, m=1.3e-3)  # put roots beyond the doubles
@example(beta=0.501, m=1e-4)
@example(beta=0.75, m=1e280)  # the call root x ~ 3e280
def test_rate_cev_is_finite_or_a_documented_error(beta, m):
    params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
    assert _outcome(lambda: rate_cev(m, params).value) is None


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(m=_log_uniform(1e-300, 1e300))
@example(m=1e-300)
@example(m=1e-13)
@example(m=1e24)
@example(m=1e300)
def test_rate_cev_at_beta_half_is_finite_over_the_domain(m):
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    assert _outcome(lambda: rate_cev(m, params).value) is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kappa=_log_uniform(1e-2, 1e2))
@example(kappa=0.01)
@example(kappa=0.03)
@example(kappa=0.05)
def test_rate_float_sqrt_is_finite_over_the_domain(kappa):
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    assert _outcome(lambda: rate_float_sqrt(kappa, params).value) is None


@settings(max_examples=500, deadline=None, derandomize=True)
@given(beta=st.floats(0.5, 1.0, exclude_max=True), kappa=_log_uniform(1e-300, 1e308))
@example(beta=0.5, kappa=1e-300)
@example(beta=0.5 + 1e-12, kappa=1e-300)
@example(beta=1.0 - 1e-15, kappa=1e-300)
@example(beta=0.51, kappa=1.7976931348623157e308)
@example(beta=1.0 - 1e-15, kappa=1.7976931348623157e308)
@example(beta=0.75, kappa=EDGES[0])
@example(beta=0.99, kappa=EDGES[3])
def test_rate_float_cev_is_finite_over_the_domain(beta, kappa):
    params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
    assert _outcome(lambda: rate_float_cev(kappa, params).value) is None


@settings(max_examples=500, deadline=None, derandomize=True)
@given(beta=st.floats(0.5, 1.0, exclude_max=True), m=_log_uniform(1e-3, 1e6),
       S0=st.floats(0.5, 2.0))
@example(beta=0.5001, m=1.3e-3, S0=1.0)
@example(beta=0.5, m=EDGES[0], S0=1.0)
@example(beta=0.99, m=EDGES[3], S0=1.0)
def test_equiv_lognormal_vol_is_finite_or_a_documented_error(beta, m, S0):
    params = ModelParams(S0=S0, sigma=0.5, beta=beta)
    assert _outcome(lambda: equiv_lognormal_vol(m * S0, params)) is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kappa=_log_uniform(1e-2, 1e2), S0=st.floats(0.5, 2.0))
@example(kappa=0.01, S0=1.0)
@example(kappa=EDGES[0], S0=1.0)
@example(kappa=EDGES[3], S0=1.0)
def test_equiv_normal_vol_at_beta_half_is_finite_over_the_domain(kappa, S0):
    params = ModelParams(S0=S0, sigma=0.5, beta=0.5)
    assert _outcome(lambda: equiv_normal_vol(kappa, params)) is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(beta=st.floats(0.5, 1.0, exclude_max=True), kappa=_log_uniform(1e-300, 1e300),
       S0=st.floats(0.5, 2.0))
@example(beta=0.5001, kappa=1e-300, S0=2.0)
@example(beta=0.6, kappa=EDGES[1], S0=1.0)
@example(beta=0.9, kappa=EDGES[2], S0=1.0)
def test_equiv_normal_vol_is_finite_over_the_domain(beta, kappa, S0):
    params = ModelParams(S0=S0, sigma=0.5, beta=beta)
    assert _outcome(lambda: equiv_normal_vol(kappa, params)) is None


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(beta=st.floats(0.5, 1.0, exclude_max=True), m=_log_uniform(1e-3, 1e6),
       T=_log_uniform(1e-4, 10.0), side=st.sampled_from(["call", "put"]))
@example(beta=0.5001, m=1.3e-3, T=1.0, side="put")
@example(beta=0.501, m=1e-4, T=1.0, side="call")
@example(beta=0.5, m=EDGES[0], T=1e-4, side="call")
@example(beta=0.75, m=EDGES[1], T=10.0, side="put")
@example(beta=0.9, m=EDGES[2], T=1.0, side="call")
@example(beta=0.99, m=EDGES[3], T=1.0, side="put")
def test_price_fixed_is_finite_or_a_documented_error(beta, m, T, side):
    params = ModelParams(S0=1.0, sigma=0.5, beta=beta, r=0.02)
    assert _outcome(lambda: price_fixed(OptionSpec("fixed", side, m, T), params).price) is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kappa=_log_uniform(1e-2, 1e308), T=_log_uniform(1e-4, 10.0),
       side=st.sampled_from(["call", "put"]), S0=st.floats(0.5, 2.0))
@example(kappa=EDGES[0], T=1e-4, side="call", S0=1.0)
@example(kappa=EDGES[1], T=10.0, side="put", S0=1.0)
@example(kappa=EDGES[2], T=1.0, side="call", S0=1.0)
@example(kappa=EDGES[3], T=1.0, side="put", S0=1.0)
@example(kappa=1e300, T=1.0, side="call", S0=2.0)
@example(kappa=1.7e308, T=1.0, side="call", S0=2.0)
@example(kappa=1.7e308, T=1.0, side="put", S0=0.5)
def test_price_floating_at_beta_half_is_finite_over_the_domain(kappa, T, side, S0):
    # the price returns wherever kappa S0 e^{rT}, which bounds the forward and
    # S0 |kappa - 1|, is a double; beyond, ConvergenceError
    params = ModelParams(S0=S0, sigma=0.5, beta=0.5, r=0.02)
    spec = OptionSpec("floating", side, kappa, T)
    failed = _outcome(lambda: price_floating(spec, params).price)
    overflow = math.isinf(kappa * S0 * math.exp(0.02 * T))
    assert failed is (ConvergenceError if overflow else None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(beta=st.floats(0.5, 1.0, exclude_max=True), kappa=_log_uniform(1e-2, 1e308),
       T=_log_uniform(1e-4, 10.0), side=st.sampled_from(["call", "put"]),
       S0=st.floats(0.5, 2.0))
@example(beta=0.75, kappa=EDGES[0], T=1e-4, side="call", S0=1.0)
@example(beta=0.6, kappa=EDGES[3], T=1.0, side="put", S0=1.0)
@example(beta=0.99, kappa=1.7e308, T=1.0, side="call", S0=2.0)
@example(beta=0.51, kappa=1.7e308, T=1.0, side="put", S0=0.5)
def test_price_floating_is_finite_over_the_domain(beta, kappa, T, side, S0):
    # as at beta = 1/2: ConvergenceError exactly where kappa S0 e^{rT} overflows
    params = ModelParams(S0=S0, sigma=0.5, beta=beta, r=0.02)
    spec = OptionSpec("floating", side, kappa, T)
    failed = _outcome(lambda: price_floating(spec, params).price)
    overflow = math.isinf(kappa * S0 * math.exp(0.02 * T))
    assert failed is (ConvergenceError if overflow else None)


@pytest.mark.parametrize("args, code", [
    (["price", "--beta", "0.5", "--strike", "1e-3", "--maturity", "1e-4", "--side", "put"], 0),
    (["price", "--beta", "0.75", "--strike", "1e6", "--maturity", "10"], 0),
    (["price", "--beta", "0.99", "--strike", repr(EDGES[0]), "--maturity", "1"], 0),
    (["price", "--beta", "0.5001", "--strike", "1.3e-3", "--maturity", "1", "--side", "put"], 0),
    (["price", "--beta", "0.5", "--strike", "9e307", "--maturity", "1"], 3),
    (["price", "--beta", "0.5", "--style", "floating", "--strike", "1e-2",
      "--maturity", "1e-4", "--side", "call"], 0),
    (["price", "--beta", "0.5", "--style", "floating", "--strike", "1e2", "--maturity", "10"], 0),
    (["price", "--beta", "0.75", "--style", "floating", "--strike", repr(EDGES[3]),
      "--maturity", "1"], 0),
    (["price", "--beta", "0.5", "--strike", "1", "--maturity", "0"], 2),
    (["float", "--beta", "0.5", "--kappa", "1e200"], 0),
    (["float", "--beta", "0.75", "--kappa", "1.000000001", "--maturity", "1"], 0),
    (["rate", "--beta", "0.5", "--strike", "1e-300"], 0),
    (["price", "--beta", "0.5", "--style", "floating", "--s0", "2", "--strike", "1.7e308",
      "--maturity", "1"], 3),
    (["rate", "--beta", "0.75", "--strike", "1e280"], 0),
    # the drift factor, the discount or the forward beyond the doubles
    (["price", "--beta", "0.5", "--r", "100", "--strike", "1.2", "--maturity", "10"], 3),
    (["price", "--beta", "0.5", "--r", "-100", "--strike", "1.2", "--maturity", "10"], 3),
    (["price", "--beta", "0.5", "--r", "1e308", "--strike", "1.2", "--maturity", "10"], 3),
    (["price", "--beta", "0.75", "--style", "floating", "--r", "-100", "--strike", "1.2",
      "--maturity", "10"], 3),
    (["price", "--beta", "0.5", "--r", "-70", "--q", "-70", "--s0", "1e10", "--strike", "1.2e10",
      "--side", "put", "--maturity", "10"], 3),
    (["mc", "--beta", "0.5", "--r", "-100", "--strike", "1.2", "--maturity", "10",
      "--n-paths", "10"], 3),
    (["mc", "--beta", "0.5", "--r", "100", "--strike", "1.2", "--maturity", "10",
      "--n-paths", "10"], 3),
    # the paths stay doubles, the squares of their payoffs do not
    (["mc", "--beta", "0.5", "--r", "50", "--strike", "1.2", "--maturity", "10",
      "--n-paths", "10"], 3),
    # K/S0 below the normal doubles has no bracketed root
    (["rate", "--beta", "0.75", "--strike", "1e-310"], 3),
])
def test_cli_exits_zero_two_or_three_over_the_domain(args, code, capsys):
    # an undocumented exception would escape main() and exit 1 with a traceback
    assert main(args + ["--sigma", "0.5"]) == code
