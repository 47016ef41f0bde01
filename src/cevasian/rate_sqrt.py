"""Closed-form short-maturity rate function for fixed-strike Asian options in
the square-root model (CEV with beta = 1/2).

The OTM price decays like exp(-I(K,S0)/T).  For K > S0 (call) the rate is

    I = (S0/sigma^2) * x^2/cos^2 x * (1 - sin 2x/(2x)),

with x in (0, pi/2) solving (1 + sin 2x/(2x)) / (2 cos^2 x) = K/S0; for
K < S0 (put) the trigonometric functions become hyperbolic.  Deep-OTM calls
push the root to pi/2, where cos x cancels, so it is solved in log(pi/2 - x).
The hyperbolic branch is evaluated in exp(-2x)-scaled form because deep-OTM
puts push the root to x ~ S0/(2K), far beyond where cosh/sinh overflow; it is
solved in log x.  Both roots are found by safeguarded Newton (`model._newton`)
on the equation divided by K/S0, whose log-derivative is elementary.  The
cumulant is `float_strike.cumulant_float` at kappa = 0.  Where the rate itself
exceeds the largest double (K/S0 near 1e308 or 1e-308 at S0/sigma^2 = 4),
`rate_sqrt` raises `ConvergenceError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (ATM_WINDOW, ConvergenceError, ModelParams, RateResult, RootBracketError,
                    _newton, beta_is_half, rate_cev_taylor)


@dataclass(frozen=True)
class SqrtRateDiag:
    """Solver internals: root variable x, Legendre optimizer, branch tag,
    relative residual of the root equation and its evaluations (0 at the
    money).

    theta_star = -2 x^2/sigma^2 on the put branch is -inf once x passes
    ~1e154, below K/S0 ~ 4e-155, while the rate is still finite."""

    x: float
    theta_star: float
    branch: str  # "put" | "call" | "atm"
    residual: float = 0.0
    iterations: int = 0


def _require_sqrt_beta(params: ModelParams) -> None:
    if not beta_is_half(params.beta):
        raise ValueError(f"square-root model requires beta = 1/2, got beta={params.beta}")


def _eq_call(d: float) -> tuple[float, float]:
    """g - 1 and d g'(d) / g, g = (1 + sin 2x/(2x)) / (2 cos^2 x) at x = pi/2 - d,
    with cos x = sin d; g maps d in (0, pi/2) onto (inf, 1).  Near the money
    g - 1 = (2 sin^2 x - (1 - sin 2x/(2x))) / (2 sin^2 d) cancels only mildly."""
    x = 0.5 * math.pi - d
    s = math.sin(d)
    sc = _sinc_excess(2.0 * x)
    dnum = (1.0 - sc - math.cos(2.0 * x)) / x  # d/dd of 1 + sin 2x/(2x)
    return ((2.0 * math.sin(x) ** 2 - sc) / (2.0 * s * s),
            d * (dnum / (2.0 - sc) - 2.0 * math.cos(d) / s))


def _sinc_excess(y: float) -> float:
    """1 - sin(y)/y, summed from its series below y = 0.1 like `_sinhc_excess`."""
    if y < 0.1:
        y2 = y * y
        return y2 * (1.0 / 6 - y2 * (1.0 / 120 - y2 * (1.0 / 5040 - y2 * (
            1.0 / 362880 - y2 / 39916800))))
    return 1.0 - math.sin(y) / y


def _eq_put(x: float) -> tuple[float, float, float]:
    """g = (1 + sinh 2x/(2x)) / (2 cosh^2 x), 1 - g = (cosh 2x - sinh 2x/(2x)) /
    (2 cosh^2 x) and x g'(x), in overflow-free form; g maps (0, inf) onto (1, 0).
    Near the money 1 - g is summed without cancellation, from
    4 e^{-y} (cosh y - 1) = 2 expm1(-y)^2 and `_sinhc_excess`."""
    e2 = math.exp(-2.0 * x)
    em4 = math.expm1(-4.0 * x)
    den = (1.0 + e2) ** 2
    g = (2.0 * e2 - em4 / (2.0 * x)) / den
    gc = (math.expm1(-2.0 * x) ** 2 - 0.5 * _sinhc_excess(2.0 * x, e2)) / den
    xdnum = -4.0 * x * e2 + (4.0 * x * e2 * e2 + em4) / (2.0 * x)  # x d(num)/dx
    return g, gc, xdnum / den + g * 4.0 * x * e2 / (1.0 + e2)


def _sinhc_excess(y: float, e: float) -> float:
    """4 e^{-y} (sinh(y)/y - 1), given e = e^{-y}.

    Formed directly, the difference cancels to O(y^2) near the money, so
    below y = 0.1 it is summed from the series y^2/3! + y^4/5! + ... (the
    truncation is ~1e-19 relative there); above, in overflow-free form.
    """
    if y < 0.1:
        y2 = y * y
        return 4.0 * e * y2 * (1.0 / 6 + y2 * (1.0 / 120 + y2 * (1.0 / 5040 + y2 * (
            1.0 / 362880 + y2 / 39916800))))
    return -2.0 * math.expm1(-2.0 * y) / y - 4.0 * e


def rate_sqrt(K: float, params: ModelParams) -> RateResult:
    """Rate function I(K, S0) for beta = 1/2, with solver diagnostics."""
    _require_sqrt_beta(params)
    if not 0 < K < math.inf:
        raise ValueError(f"strike must be positive and finite, got {K}")
    S0, sig = params.S0, params.sigma
    target = K / S0
    if not 1e-308 < target < 1e308:  # beyond it K/S0 or S0/K leaves the normal doubles
        raise RootBracketError(f"K/S0={target} lies beyond the range where its root is bracketed")
    if abs(math.log(target)) < ATM_WINDOW:
        value, diag = rate_cev_taylor(K, params), SqrtRateDiag(0.0, 0.0, "atm")
    elif target > 1.0:
        # d = pi/2 - x = c e^u, c = 1/sqrt(2 target) the deep-call limit of d,
        # keeps u O(1), so the tolerances stay relative in d.  _eq_call is
        # above target at d = c/2 (sin d <= d) and below it at d = 2 sqrt(2) c
        # (sin d >= 2d/pi bounds it by pi^2 target/16)
        c = math.sqrt(0.5 / target)

        def eq(u: float):
            gm1, dlog = _eq_call(c * math.exp(u))
            return ((target - 1.0) - gm1) / target, -(1.0 + gm1) / target * dlog, None

        lo = math.log(0.5)
        hi = math.log(min(2.0 * math.sqrt(2.0), (0.5 * math.pi - 1e-12) / c))
        # near the money g ~ 1 + 2/3 x^2, so d ~ pi/2 - sqrt(3/2 (K/S0 - 1))
        start = 0.0
        if target < 2.0:
            start = min(max(math.log((0.5 * math.pi - math.sqrt(1.5 * (target - 1.0))) / c),
                            lo), hi)
        u, f, _, n = _newton(eq, start, lo, hi)
        d = c * math.exp(u)
        x = 0.5 * math.pi - d
        s = math.sin(d)
        value = (S0 / sig ** 2) * x * x / (s * s) * _sinc_excess(2.0 * x)
        diag = SqrtRateDiag(x, 2.0 * x * x / sig ** 2, "call", abs(f), n)
    else:
        # put branch, in t = log x: _eq_put(x) < 1/(2x) + 2 e^{-2x} is below
        # K/S0 at x = S0/K; near the money g ~ 1 - 2/3 x^2, deep puts g ~ 1/(2x)
        def eq(t: float):
            g, gc, xdg = _eq_put(math.exp(t))
            f = gc - (1.0 - target) if target > 0.5 else target - g
            return f / target, -xdg / target, None

        lo, hi = math.log(1e-12), -math.log(target)
        near = math.sqrt(1.5 * (1.0 - target)) if target > 0.5 else 0.5 / target
        t, f, _, n = _newton(eq, min(max(math.log(near), lo), hi), lo, hi)
        x = math.exp(t)
        e2 = math.exp(-2.0 * x)
        value = (S0 / sig ** 2) * x * (x * _sinhc_excess(2.0 * x, e2)) / (1.0 + e2) ** 2
        diag = SqrtRateDiag(x, -2.0 * x * x / sig ** 2, "put", abs(f), n)
    if math.isinf(value):
        raise ConvergenceError(f"the rate at K/S0={target} overflows a double")
    return RateResult(value, diag)
