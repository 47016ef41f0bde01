"""Rate function I(K, S0) for fixed-strike Asian options in the CEV model,
beta in [1/2, 1), via the hypergeometric solution of the variational problem.

    I(K, S0) = S0^(2(1-beta))/(2 sigma^2) * a(x) b(x),

where (a, b) = (a+, b+) for K <= S0 with x in (0, 1] solving
K/S0 = x + b+(x)/a+(x), and (a-, b-) for K >= S0 with x >= 1 solving
K/S0 = x - b-(x)/a-(x).  Every hypergeometric argument is <= 0: 1 - 1/x on
the put branch, and 1 - x on the call branch after Pfaff's transformation
(A&S 15.3.4), which also cancels the x^(-beta) prefactor.

Also provided: the leading large/small-strike asymptotes.  Inside ATM_WINDOW
the rate is `model`'s ATM series `rate_cev_taylor`, re-exported here.
`rate_cev` is the one fixed-strike dispatch: beta = 1/2 goes to the
elementary forms in `rate_sqrt`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .model import (_RTOL, _XTOL, ATM_WINDOW, ModelParams, RateResult, RootBracketError,
                    beta_is_half, rate_cev_taylor, rate_unit)
from .rate_sqrt import rate_sqrt
from .specfun import hyp2f1


@dataclass(frozen=True)
class CevRateDiag:
    """Solver internals: root/minimizer variable, branch tag, equation residual."""

    x_star: float
    branch: str  # "put" | "call" | "atm"
    residual: float = 0.0


def ab_plus(x: float, beta: float) -> tuple[float, float]:
    """(a+, b+) of the put branch; 0 < x <= 1, hypergeometric argument <= 0."""
    if not 0.0 < x <= 1.0:
        raise ValueError(f"ab_plus requires x in (0, 1], got {x}")
    if x == 1.0:
        return 0.0, 0.0
    z = 1.0 - 1.0 / x
    xmb = x ** (-beta)
    a = 2.0 * xmb * math.sqrt(1.0 - x) * hyp2f1(beta, 0.5, 1.5, z)
    b = (2.0 / 3.0) * xmb * (1.0 - x) ** 1.5 * hyp2f1(beta, 1.5, 2.5, z)
    return a, b


def ab_minus(x: float, beta: float) -> tuple[float, float]:
    """(a-, b-) of the call branch; x >= 1, hypergeometric argument 1 - x <= 0.

    2F1(beta, c-1; c; 1-1/x) = x^beta 2F1(beta, 1; c; 1-x) for c = 3/2, 5/2.
    """
    if not x >= 1.0:
        raise ValueError(f"ab_minus requires x >= 1, got {x}")
    if x == 1.0:
        return 0.0, 0.0
    z = 1.0 - x
    a = 2.0 * math.sqrt(x - 1.0) * hyp2f1(beta, 1.0, 1.5, z)
    b = (2.0 / 3.0) * (x - 1.0) ** 1.5 * hyp2f1(beta, 1.0, 2.5, z)
    return a, b


def rate_cev(K: float, params: ModelParams) -> RateResult:
    """Rate function I(K, S0) for the CEV model, with solver diagnostics."""
    if not 0 < K < math.inf:
        raise ValueError(f"strike must be positive and finite, got {K}")
    if beta_is_half(params.beta):
        return rate_sqrt(K, params)
    return _rate_general(K, params)


def _rate_general(K: float, params: ModelParams) -> RateResult:
    """Hypergeometric-route solver, valid for any beta in [1/2, 1) including
    beta = 1/2 itself (where the 2F1 factors reduce to elementary functions).

    The put-branch root x can lie far below 1e-15 (deep puts with beta near
    1/2), so it is solved in u = log x, where brentq's tolerances are
    relative in x."""
    if not K > 0:
        raise ValueError(f"strike must be positive, got {K}")
    beta = params.beta
    target = K / params.S0
    xlog = math.log(target)
    if abs(xlog) < ATM_WINDOW:
        return RateResult(rate_cev_taylor(K, params), CevRateDiag(1.0, "atm"))
    if target < 1.0:
        def put_eq(x: float) -> float:
            a, b = ab_plus(x, beta)
            return x + b / a - target

        lo = min(0.5, target)
        while put_eq(lo) >= 0.0:
            lo /= 10.0
            if lo < 1e-280:
                raise RootBracketError(f"put-branch root not bracketed for K/S0={target}")
        u = brentq(lambda u: put_eq(math.exp(u)), math.log(lo), math.log1p(-1e-12),
                   xtol=_XTOL, rtol=_RTOL)
        x = math.exp(u)
        a, b = ab_plus(x, beta)
        return RateResult(0.5 * rate_unit(params) * a * b,
                          CevRateDiag(x, "put", abs(x + b / a - target)))

    def call_eq(x: float) -> float:
        a, b = ab_minus(x, beta)
        return x - b / a - target

    hi = max(2.0, 2.0 * target)
    while call_eq(hi) < 0.0:
        hi *= 2.0
        if hi > 1e15:
            raise RootBracketError(f"call-branch root not bracketed for K/S0={target}")
    x = brentq(call_eq, 1.0 + 1e-12, hi, xtol=_XTOL, rtol=_RTOL)
    a, b = ab_minus(x, beta)
    return RateResult(0.5 * rate_unit(params) * a * b,
                      CevRateDiag(x, "call", abs(x - b / a - target)))


def rate_cev_large_strike(K: float, params: ModelParams) -> float:
    """Leading large-strike asymptote (Gamma-function prefactor form)."""
    if K <= params.S0:
        raise ValueError(f"large-strike asymptote needs K > S0, got K={K}, S0={params.S0}")
    beta = params.beta
    u = 1.0 - beta
    gamma_ratio_sq = math.exp(2.0 * (math.lgamma(u) - math.lgamma(1.5 - beta)))
    scale = (3.0 - 2.0 * beta) / (2.0 * u) * K / params.S0
    return (0.5 * rate_unit(params) * math.pi * gamma_ratio_sq / (3.0 - 2.0 * beta)
            * scale ** (2.0 * u))


def rate_cev_small_strike(K: float, params: ModelParams) -> float:
    """Leading small-strike asymptote (S0/K) * 2 S0^(2(1-beta)) / (sigma^2 (3-2 beta)^2)."""
    if not 0 < K < params.S0:
        raise ValueError(f"small-strike asymptote needs 0 < K < S0, got K={K}, S0={params.S0}")
    beta = params.beta
    return (params.S0 / K) * 2.0 * params.S0 ** (2.0 * (1.0 - beta)) / (
        params.sigma ** 2 * (3.0 - 2.0 * beta) ** 2)
