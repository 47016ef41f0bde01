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

import contextlib
import io
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


def _or_any(valid):
    """Draws from ``valid``, and one time in eight any double at all: NaN,
    +-inf, zero, negative, subnormal or decades beyond the domain."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else st.floats())


MODEL = st.fixed_dictionaries({
    "beta": _or_any(st.floats(0.5, 1.0, exclude_max=True)),
    "sigma": _or_any(_log_uniform(1e-2, 1e2)),
    "s0": _or_any(_log_uniform(1e-3, 1e3)),
    "r": _or_any(st.floats(-1.0, 1.0)),
    "q": _or_any(st.floats(-1.0, 1.0)),
})
STRIKE = _or_any(_log_uniform(1e-300, 1e300))
MATURITY = _or_any(_log_uniform(1e-4, 10.0))
STYLE = st.sampled_from(["fixed", "floating"])
SIDE = st.sampled_from(["call", "put"])
# the work bound: mc runs at most 50 steps per unit maturity on at most 2,000
# paths, so its maturities stop at 10 and its path counts at 2,000 but for
# those refused before any step
MC_MATURITY = st.one_of(_log_uniform(1e-4, 10.0),
                        st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e300]))
COMMANDS = st.one_of(
    st.tuples(st.just("price"), st.fixed_dictionaries({
        "style": STYLE, "side": SIDE, "engine": st.sampled_from(["asympt", "varsolve"]),
        "strike": STRIKE, "maturity": MATURITY})),
    st.tuples(st.just("rate"), st.fixed_dictionaries({
        "engine": st.sampled_from(["closed", "varsolve"]), "strike": STRIKE})),
    st.tuples(st.just("vol-curve"), st.fixed_dictionaries({
        "k-min": STRIKE, "k-max": STRIKE, "n": st.integers(-1, 50)})),
    st.tuples(st.just("float"), st.fixed_dictionaries({"kappa": STRIKE, "side": SIDE},
                                                      optional={"maturity": MATURITY})),
    st.tuples(st.just("mc"), st.fixed_dictionaries({
        "style": STYLE, "side": SIDE, "strike": STRIKE, "maturity": MC_MATURITY,
        "seed": st.integers(-1, 2 ** 32),
        "n-paths": st.one_of(st.integers(-1, 2000), st.just(10 ** 15)),
        "n-steps": st.integers(-1, 50)})),
)


MARKET = {"beta": 0.5, "sigma": 0.5, "s0": 1.0, "r": 0.0, "q": 0.0}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(command=COMMANDS, model=MODEL, json_out=st.booleans())
# sigma^2, or the rate's unit S0^(2-2beta)/sigma^2, beyond the doubles
@example(command=("rate", {"engine": "closed", "strike": 1.0}),
         model={**MARKET, "sigma": 1.3407807929942597e154}, json_out=False)
@example(command=("rate", {"engine": "closed", "strike": 2.0}),
         model={**MARKET, "sigma": 1e-200}, json_out=False)
@example(command=("price", {"style": "floating", "side": "put", "engine": "varsolve",
                            "strike": 2.0, "maturity": 1.0}),
         model={**MARKET, "sigma": 1e155}, json_out=False)
@example(command=("rate", {"engine": "varsolve", "strike": 2.0}),
         model={**MARKET, "sigma": 1e-200}, json_out=False)
# Euler paths beyond the doubles
@example(command=("mc", {"style": "fixed", "side": "call", "strike": 1.0, "maturity": 1.0,
                         "seed": 0, "n-paths": 349, "n-steps": 8}),
         model={**MARKET, "sigma": 1.0990857060703296e155}, json_out=False)
def test_cli_exit_code_over_a_sample_of_every_command(command, model, json_out):
    # every value as --name=value, so that argparse takes "-1e-05" or "-inf"
    # for a value, not an option
    name, options = command
    argv = [name] + [f"--{key}={value}" for key, value in {**options, **model}.items()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv + ["--json"] * json_out)
    assert code in (0, 2, 3), (argv, out.getvalue())
