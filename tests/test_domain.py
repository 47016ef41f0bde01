"""Domain sweep of the closed-form rates.

Over the documented domain every call must return a finite, non-negative
rate or raise one of the documented numerical errors (CLI exit 3).  The known
failures stay in the sweep as explicit examples that must keep raising
`RootBracketError` until the program is mended there.  The beta = 1/2
rates have none left, fixed-strike on K/S0 in [1e-300, 1e300] and floating on
kappa in [1e-2, 1e2], so they must always return.
"""

import math

from hypothesis import example, given, settings, strategies as st

from cevasian import ConvergenceError, ModelParams, RootBracketError
from cevasian.float_strike import rate_float_sqrt
from cevasian.rate_cev import rate_cev

# put-branch roots lost just above beta = 1/2 (ROADMAP item 2)
PUT_FLOOR = {(0.5001, 1.3e-3), (0.501, 1e-4)}


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _outcome(call):
    """The documented error type raised by call(), or None after checking
    that the value it returned is finite and >= 0."""
    try:
        value = call().value
    except (RootBracketError, ConvergenceError) as exc:
        return type(exc)
    assert math.isfinite(value) and value >= 0.0, value
    return None


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(beta=st.floats(0.5, 1.0, exclude_max=True), m=_log_uniform(1e-3, 1e6))
@example(beta=0.5001, m=1.3e-3)
@example(beta=0.501, m=1e-4)
def test_rate_cev_is_finite_or_a_documented_error(beta, m):
    failed = _outcome(lambda: rate_cev(m, ModelParams(S0=1.0, sigma=0.5, beta=beta)))
    if (beta, m) in PUT_FLOOR:
        assert failed is RootBracketError


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(m=_log_uniform(1e-300, 1e300))
@example(m=1e-300)
@example(m=1e-13)
@example(m=1e24)
@example(m=1e300)
def test_rate_cev_at_beta_half_is_finite_over_the_domain(m):
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    assert _outcome(lambda: rate_cev(m, params)) is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kappa=_log_uniform(1e-2, 1e2))
@example(kappa=0.01)
@example(kappa=0.03)
@example(kappa=0.05)
def test_rate_float_sqrt_is_finite_over_the_domain(kappa):
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    assert _outcome(lambda: rate_float_sqrt(kappa, params)) is None
