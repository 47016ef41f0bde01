"""Rate function I(K, S0) for fixed-strike Asian options in the CEV model,
beta in [1/2, 1), via the hypergeometric solution of the variational problem.

    I(K, S0) = S0^(2(1-beta))/(2 sigma^2) * a(x) b(x),

where (a, b) = (a+, b+) for K <= S0 with x in (0, 1] solving
K/S0 = x + b+(x)/a+(x), and (a-, b-) for K >= S0 with x >= 1 solving
K/S0 = x - b-(x)/a-(x).  Every hypergeometric argument is <= 0: 1 - 1/x on
the put branch, and 1 - x on the call branch after Pfaff's transformation
(A&S 15.3.4), which also cancels the x^(-beta) prefactor.  The root is
found by safeguarded Newton (`model._newton`) in u = log x: the equation's
derivative is elementary in a and b, so each step costs one evaluation of
(a, b), and the rate is assembled from the (a, b) of the last step.

Also provided: the leading large/small-strike asymptotes.  Inside ATM_WINDOW
the rate is `model`'s ATM series `rate_cev_taylor`, re-exported here.
`rate_cev` is the one fixed-strike dispatch: beta = 1/2 goes to the
elementary forms in `rate_sqrt`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (_EPS, ATM_WINDOW, ModelParams, RateResult, RootBracketError, _newton,
                    beta_is_half, rate_cev_taylor, rate_unit)
from .rate_sqrt import rate_sqrt
from .specfun import hyp2f1


@dataclass(frozen=True)
class CevRateDiag:
    """Solver internals: root/minimizer variable, branch tag, equation
    residual, and evaluations of the root equation (0 at the money)."""

    x_star: float
    branch: str  # "put" | "call" | "atm"
    residual: float = 0.0
    iterations: int = 0


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

    The root of `_root_equation` is solved by `model._newton` in u = log x,
    because put roots can lie far below 1e-15 (deep puts with beta near 1/2)."""
    if not K > 0:
        raise ValueError(f"strike must be positive, got {K}")
    beta = params.beta
    target = K / params.S0
    xlog = math.log(target)
    if abs(xlog) < ATM_WINDOW:
        return RateResult(rate_cev_taylor(K, params), CevRateDiag(1.0, "atm"))
    put = target < 1.0
    branch = "put" if put else "call"
    eq = lambda u: _root_equation(u, target, beta, put)  # noqa: E731

    # x = 1 +- 2^-52 bounds the root on the side of the money; the other
    # bound is assumed (put: x = 1e-280) or, below x = 1e15, proven (call:
    # b-/a- < x/(3 - 2 beta), so f > 0 at x = (3 - 2 beta)/(2 - 2 beta) K/S0)
    try:
        if put:
            lo = math.log(1e-280)
            start = min(max(_put_start(target, beta), lo), -_EPS)
            _, f, (x, a, b), n = _newton(eq, start, lo, -_EPS, lo_known=False)
        else:
            top = (3.0 - 2.0 * beta) / (2.0 - 2.0 * beta) * target
            hi = math.log(min(top, 1e15))
            start = max(min(_call_start(target, beta), hi), _EPS)
            _, f, (x, a, b), n = _newton(eq, start, _EPS, hi, hi_known=top <= 1e15)
    except RootBracketError:
        raise RootBracketError(f"{branch}-branch root not bracketed for K/S0={target}") from None
    return RateResult(0.5 * rate_unit(params) * a * b, CevRateDiag(x, branch, abs(f), n))


def _root_equation(u: float, target: float, beta: float, put: bool):
    """f = x - K/S0 +- b/a at x = e^u (+ put, - call), df/du and (x, a, b).

    The derivative is free: b' = -+a/2 and x a' = (1/2 - beta) a -+ |1-x|^(-1/2),
    so df/du = x/2 +- (beta - 1/2) b/a + b/(a^2 sqrt|1-x|) > 0.  x - K/S0 is
    formed first, exactly near the money, so f keeps its relative accuracy
    there."""
    x = math.exp(u)
    a, b = ab_plus(x, beta) if put else ab_minus(x, beta)
    q = b / a if put else -b / a
    return ((x - target) + q, 0.5 * x + (beta - 0.5) * q + abs(q) / (a * math.sqrt(abs(1.0 - x))),
            (x, a, b))


def _put_start(target: float, beta: float) -> float:
    """log x of the put root: 1 - 3/2 (1 - K/S0) near the money, else the
    deep-put asymptote from a+ ~ B(1/2, e) x^-e - 1/e and b+ ~ 1/(1 - e),
    e = beta - 1/2 (x = 4 exp(-S0/K) at e = 0)."""
    if target > 1.0 / 3.0:
        return math.log1p(-1.5 * (1.0 - target))
    e = beta - 0.5
    if e == 0.0:
        return 2.0 * math.log(2.0) - 1.0 / target
    log_eb = math.lgamma(0.5) + math.lgamma(1.0 + e) - math.lgamma(0.5 + e)  # log(e B(1/2, e))
    return (log_eb - math.log1p(e / (target * (1.0 - e)))) / e


def _call_start(target: float, beta: float) -> float:
    """log x of the call root: the larger of 1 + 3/2 (K/S0 - 1) and two
    fixed-point steps of the deep-call asymptote
    x = (3 - 2 beta)/(2 - 2 beta) K/S0 (1 - x^(beta-1)/((1-beta) B(1-beta, 1/2)))."""
    c = (3.0 - 2.0 * beta) / (2.0 - 2.0 * beta) * target
    log_b = math.lgamma(2.0 - beta) + math.lgamma(0.5) - math.lgamma(1.5 - beta)
    x = c
    for _ in range(2):
        x = c * -math.expm1(-(1.0 - beta) * math.log(x) - log_b)
    return math.log(max(x, 1.0 + 1.5 * (target - 1.0)))


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
