"""Closed-form short-maturity rate function for fixed-strike Asian options in
the square-root model (CEV with beta = 1/2).

The OTM price decays like exp(-I(K,S0)/T).  For K > S0 (call) the rate is

    I = (S0/sigma^2) * x^2/cos^2 x * (1 - sin 2x/(2x)),

with x in (0, pi/2) solving (1 + sin 2x/(2x)) / (2 cos^2 x) = K/S0; for
K < S0 (put) the trigonometric functions become hyperbolic.  The hyperbolic
branch is evaluated in exp(-2x)-scaled form because deep-OTM puts push the
root to x ~ S0/(2K), far beyond where cosh/sinh overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .model import ATM_WINDOW, ModelParams, RateResult, RootBracketError, beta_is_half

_XTOL = 1.0e-15
_RTOL = 8.9e-16           # ~4 ulp, the tightest brentq accepts


@dataclass(frozen=True)
class SqrtRateDiag:
    """Solver internals: root variable x, Legendre optimizer, branch tag."""

    x: float
    theta_star: float
    branch: str  # "put" | "call" | "atm"


def _require_sqrt_beta(params: ModelParams) -> None:
    if not beta_is_half(params.beta):
        raise ValueError(f"square-root model requires beta = 1/2, got beta={params.beta}")


def cumulant_sqrt(theta: float, params: ModelParams) -> float:
    """Limiting cumulant Lambda(theta) of the time average, extended-real.

    Lambda(theta) = (sqrt(2 theta)/sigma) tan(sigma sqrt(2 theta)/2) S0 on
    [0, pi^2/(2 sigma^2)), the tanh analogue for theta <= 0, and +inf at and
    beyond the tan-pole boundary.
    """
    _require_sqrt_beta(params)
    sig, S0 = params.sigma, params.S0
    if theta == 0.0:
        return 0.0
    if theta > 0.0:
        if theta >= math.pi ** 2 / (2.0 * sig ** 2):
            return math.inf
        s = math.sqrt(2.0 * theta)
        return (s / sig) * math.tan(0.5 * sig * s) * S0
    s = math.sqrt(-2.0 * theta)
    return -(s / sig) * math.tanh(0.5 * sig * s) * S0


def _eq_call(x: float) -> float:
    """(1 + sin 2x/(2x)) / (2 cos^2 x) on (0, pi/2): maps onto (1, inf)."""
    if x == 0.0:
        return 1.0
    c = math.cos(x)
    return (1.0 + math.sin(2.0 * x) / (2.0 * x)) / (2.0 * c * c)


def _eq_put(x: float) -> float:
    """(1 + sinh 2x/(2x)) / (2 cosh^2 x), overflow-free form; maps (0,inf) onto (1,0)."""
    if x == 0.0:
        return 1.0
    e2 = math.exp(-2.0 * x)
    return (2.0 * e2 - math.expm1(-4.0 * x) / (2.0 * x)) / (1.0 + e2) ** 2


def _taylor(xlog: float, params: ModelParams) -> float:
    """Series 3/2 x^2 + 3/5 x^3 + 271/1400 x^4 in x = log(K/S0), times S0/sigma^2."""
    pref = params.S0 / params.sigma ** 2
    return pref * (1.5 * xlog ** 2 + 0.6 * xlog ** 3 + 271.0 / 1400.0 * xlog ** 4)


def rate_sqrt(K: float, params: ModelParams) -> RateResult:
    """Rate function I(K, S0) for beta = 1/2, with solver diagnostics."""
    _require_sqrt_beta(params)
    if not K > 0:
        raise ValueError(f"strike must be positive, got {K}")
    S0, sig = params.S0, params.sigma
    target = K / S0
    xlog = math.log(target)
    if abs(xlog) < ATM_WINDOW:
        return RateResult(_taylor(xlog, params), SqrtRateDiag(0.0, 0.0, "atm"))
    if target > 1.0:
        x = brentq(lambda t: _eq_call(t) - target, 1e-12, 0.5 * math.pi - 1e-12,
                   xtol=_XTOL, rtol=_RTOL)
        c = math.cos(x)
        value = (S0 / sig ** 2) * x * x / (c * c) * (1.0 - math.sin(2.0 * x) / (2.0 * x))
        return RateResult(value, SqrtRateDiag(x, 2.0 * x * x / sig ** 2, "call"))
    # put branch: bracket grows geometrically until the monotone map crosses target
    hi = 1.0
    while _eq_put(hi) > target:
        hi *= 2.0
        if hi > 1e12:
            raise RootBracketError(f"put-branch root not bracketed for K/S0={target}")
    x = brentq(lambda t: _eq_put(t) - target, 1e-12, hi, xtol=_XTOL, rtol=_RTOL)
    e2 = math.exp(-2.0 * x)
    value = (S0 / sig ** 2) * x * x * ((1.0 - e2 * e2) / x - 4.0 * e2) / (1.0 + e2) ** 2
    return RateResult(value, SqrtRateDiag(x, -2.0 * x * x / sig ** 2, "put"))


def rate_sqrt_large_strike(K: float, params: ModelParams) -> float:
    """Leading large-strike asymptote pi^2 K / (2 sigma^2) (valid as K/S0 -> inf)."""
    _require_sqrt_beta(params)
    if K <= params.S0:
        raise ValueError(f"large-strike asymptote needs K > S0, got K={K}, S0={params.S0}")
    return math.pi ** 2 * K / (2.0 * params.sigma ** 2)


def rate_sqrt_small_strike(K: float, params: ModelParams) -> float:
    """Leading small-strike asymptote S0^2 / (2 sigma^2 K) (valid as K -> 0)."""
    _require_sqrt_beta(params)
    if not 0 < K < params.S0:
        raise ValueError(f"small-strike asymptote needs 0 < K < S0, got K={K}, S0={params.S0}")
    return params.S0 ** 2 / (2.0 * params.sigma ** 2 * K)
