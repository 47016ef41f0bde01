"""Rate function I(K, S0) for fixed-strike Asian options in the CEV model,
beta in [1/2, 1), via the hypergeometric solution of the variational problem.

    I(K, S0) = S0^(2(1-beta))/(2 sigma^2) * a(x) b(x),

where (a, b) = (a+, b+) for K <= S0 with x in (0, 1] solving
K/S0 = x + b+(x)/a+(x), and (a-, b-) for K >= S0 with x >= 1 solving
K/S0 = x - b-(x)/a-(x).  With y = min(x, 1/x), both a are one incomplete
beta integral (DLMF 8.17), a = x^(1/2 - beta) A(y; p) with

    A(y; p) = int_y^1 s^-p (1-s)^(-1/2) ds,  p = 3/2 - beta (put), beta (call),

and one integration by parts gives b = -+(x a - 2 sqrt|1-x|)/(3 - 2 beta)
(`_root_equation`).  Every quantity is formed from u = log x, so no x beyond the
doubles is needed: at beta = 1/2 the put root reaches u = -1e308 at
K/S0 = 1e-308, and the call root x passes the largest double above
K/S0 = 9e307.  The root is found by safeguarded Newton (`model._newton`) in
u inside proven brackets; its derivative is elementary in A, so a step costs
one evaluation of the factors.  Outside K/S0 in (1e-308, 1e308) `rate_cev`
raises `RootBracketError`, and where the rate exceeds the largest double,
`ConvergenceError`.

The root, and all of I = rate_unit J(K/S0; beta) but rate_unit, depends on
(K/S0, beta) alone.  `_solve` keeps that part for the last 4096 distinct
(K/S0, beta) in an LRU memo that keeps no error; the result, every diag field
included, is bit-identical whether the memo was cold or warm, and a term
structure, or a sigma calibration at fixed K/S0 and beta, solves each root once.

Also provided: the leading large/small-strike asymptotes.  Inside ATM_WINDOW
the rate is `model`'s ATM series `rate_cev_taylor`, re-exported here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from scipy.special import cython_special, zeta

from .model import (_EPS, _LOG_MAX, ATM_WINDOW, ConvergenceError, ModelParams, RateResult,
                    RootBracketError, _newton, rate_cev_taylor, rate_unit)
from .specfun import hyp2f1

_betainc = cython_special.betainc["double"]
_Y_SERIES = 1.0 / 16.0  # below it A(y; p) is summed from its small-y series
_U_NEAR = 0.25          # |log x| below which b is its own 2F1, where the identity cancels
_LOG4 = math.log(4.0)
# 2 lgamma(1 + d) - lgamma(1 + 2d) = sum over k >= 2 of _H[k] d^k, highest k first
_H = tuple((-1) ** k * float(zeta(k)) * (2.0 - 2.0 ** k) / k for k in range(30, 1, -1))


@dataclass(slots=True)
class CevRateDiag:
    """Solver internals: root variable x (0.0 or inf where it leaves the
    doubles), branch tag, relative residual of the root equation, its
    evaluations (0 at the money) and the Legendre optimizer dI/dK.

    theta_star = -rate_unit a+^2/(2 S0) on the put branch is -inf once a+
    passes ~1e154, below K/S0 ~ 4e-155 at beta = 1/2, while the rate is
    still finite."""

    x_star: float
    branch: str  # "put" | "call" | "atm"
    residual: float = 0.0
    iterations: int = 0
    theta_star: float = 0.0


@functools.lru_cache(maxsize=64)
def _series(d: float) -> tuple[float, float, tuple[float, ...]]:
    """(c(d), B(d, 1/2), (1/2)_n/(n! (n + d)) for n = 14 down to 1), where
    c(d) = B(d, 1/2) - 1/d, for 0 < d <= 1/2.  Below d = 1/8, c is expm1 of
    log(d B) = 2d log 2 + 2 lgamma(1+d) - lgamma(1+2d), the lgamma difference
    summed from its Taylor series (truncation below 1e-18), so c stays
    relatively exact as d -> 0; above, B - 1/d loses at most ~8x of scipy's B."""
    if d < 0.125:
        h = 0.0
        for coef in _H:
            h = h * d + coef
        c = math.expm1(d * _LOG4 + h * d * d) / d
        B = c + 1.0 / d
    else:
        B = cython_special.beta(d, 0.5)
        c = B - 1.0 / d
    return c, B, tuple(math.comb(2 * n, n) / 4.0 ** n / (n + d) for n in range(14, 0, -1))


def _tail(v: float, d: float) -> tuple[float, float, float, float]:
    """(A, w, y, y^d) at y = e^v <= 1, w = 1 - y: A = A(y; 1 - d), 0 <= d <= 1/2.
    Below y = 1/16, A = c(d) - expm1(d v)/d - y^d sum_n (1/2)_n y^n/(n! (n + d)),
    whose expm1 term is the pair that cancels as d -> 0 in 2F1's 1/z
    connection formula; the sum stops where y^n < 2e-17 (A > 2.6).  Above,
    A = B(d, 1/2) I_w(1/2, d); at d = 0 and 1/2, 2 artanh sqrt(w), 2 arccos sqrt(y)."""
    w, y = -math.expm1(v), math.exp(v)
    # y^d as a power of y: d v would round by ~|v| ulp, which the rate
    # would carry at first order
    yd = y ** d if v > -708.0 else math.exp(d * v)
    if d == 0.0:
        return 2.0 * math.log1p(math.sqrt(w)) - v, w, y, yd
    if d == 0.5:
        return 2.0 * math.atan2(math.sqrt(w), yd), w, y, yd
    if w <= 1.0 - _Y_SERIES:
        return _series(d)[1] * _betainc(0.5, d, w), w, y, yd
    c, _, coefs = _series(d)
    acc = 0.0
    for coef in coefs[-int(38.4 / -v):]:
        acc = acc * y + coef
    return c - math.expm1(d * v) / d - yd * y * acc, w, y, yd


def _root_equation(u: float, target: float, beta: float):
    """f = (x - K/S0 +- b/a)/(K/S0) at x = e^u (+ put, u < 0; - call), df/du
    and the factors (A, q, y^d, gap): A = A(y; p) of a, q = b+/a+ (put) or
    b-/(a- x) (call), with y = e^v, v = -|u|, d = 1 - p, and gap = K/S0 - x
    (put) or 1 - K/(S0 x) (call).  With g = q A/y^d (b, or b/sqrt(x) for
    calls) the rate's a b is g^2/gap at the root, the form that is stationary
    there (`oracles.rate_cev_alt`), so the root's own error enters it at
    second order.

    A comes from `_tail`.  The identity for b gives q = (2 sqrt(w) y^d/A - y)/
    (3 - 2 beta) for puts and (1 - 2 sqrt(w) y^d/A)/(3 - 2 beta) for calls;
    within _U_NEAR of the money, where that cancels, b is its own 2F1 at
    z = 1 - 1/y: b+ = 2/3 x^-beta w^(3/2) 2F1(beta, 3/2; 5/2; z),
    b- = 2/3 (x w)^(3/2) 2F1(beta, 1; 5/2; z).

    b' = -+a/2 and x a' = (1/2 - beta) a -+ |1-x|^(-1/2) make the slope of
    x + q, q = +-b/a, elementary: x/2 + (beta - 1/2) q + |q|/(a sqrt|1-x|).
    The gap is formed as (K/S0 - 1) + w or expm1(u) - (K/S0 - 1), with
    K/S0 - 1 exact, where x - 1 is the larger term, so f and the rate keep
    the relative accuracy of 1 - x next to the money; calls are compared in
    the scaled form x/(K/S0) (gap - b/(a x)), which holds beyond the doubles."""
    v = -abs(u)
    d = beta - 0.5 if u < 0.0 else 1.0 - beta
    A, w, y, yd = _tail(v, d)
    sw = math.sqrt(w)
    e = beta - 0.5
    if u < 0.0:
        if v > -_U_NEAR:
            q = (2.0 / 3.0) * w * sw / math.sqrt(y) * hyp2f1(beta, 1.5, 2.5, -math.expm1(-v)) / A
        else:
            q = (2.0 * sw * yd / A - y) / (3.0 - 2.0 * beta)
        gap = (target - 1.0) + w if target > 0.5 else target - y
        qt = q / target  # ~1 at the root: products with q itself underflow at K/S0 ~ 1e-308
        return qt - gap / target, 0.5 * y / target + (e + yd / (A * sw)) * qt, (A, q, yd, gap)
    if v > -_U_NEAR:
        q = (2.0 / 3.0) * w * sw / y ** beta * hyp2f1(beta, 1.0, 2.5, -math.expm1(-v)) / A
    else:
        q = (1.0 - 2.0 * sw * yd / A) / (3.0 - 2.0 * beta)
    if v > -708.0:  # x = 1/y, y a normal double
        r, gap = 1.0 / (y * target), (math.expm1(u) - (target - 1.0)) * y
    else:
        r = math.exp(u - math.log(target))
        gap = -math.expm1(math.log(target) - u)
    return r * (gap - q), r * (0.5 - e * q + q * yd / (A * sw)), (A, q, yd, gap)


def rate_cev(K: float, params: ModelParams) -> RateResult:
    """Rate function I(K, S0) for the CEV model, with solver diagnostics."""
    if not 0 < K < math.inf:
        raise ValueError(f"strike must be positive and finite, got {K}")
    target = K / params.S0
    if not 1e-308 < target < 1e308:  # beyond it K/S0 or S0/K leaves the normal doubles
        raise RootBracketError(f"root not bracketed: K/S0={target} lies outside (1e-308, 1e308)")
    if abs(math.log(target)) < ATM_WINDOW:
        return RateResult(rate_cev_taylor(K, params), CevRateDiag(1.0, "atm"))
    g, ratio, a, x, branch, residual, n = _solve(target, params.beta)
    unit = rate_unit(params)
    value = 0.5 * unit * g * ratio
    if math.isinf(value):
        raise ConvergenceError(f"the rate at K/S0={target} overflows a double")
    theta = (-0.5 if branch == "put" else 0.5) * unit * a * a / params.S0
    return RateResult(value, CevRateDiag(x, branch, residual, n, theta))


@functools.lru_cache(maxsize=4096)
def _solve(target: float, beta: float) -> tuple[float, float, float, float, str, float, int]:
    """The root of K/S0 = x +- b/a at K/S0 = target outside ATM_WINDOW, and all
    of the rate that depends on (K/S0, beta) alone: (g, g/gap, a, x, branch,
    |f|, evaluations), with J = g (g/gap)/2 (`_root_equation`)."""
    put = target < 1.0
    eq = lambda u: _root_equation(u, target, beta)  # noqa: E731

    # x = 1 +- 2^-52 bounds the root on the money's side; the other bound is
    # proven.  Put: x + b+/a+ < K/S0 where y^e = K/S0/(1.5 e + K/S0), as
    # A >= (1 - y^e)/e; call: b-/a- < x/(3 - 2 beta), so f > 0 at
    # x = (3 - 2 beta)/(2 - 2 beta) K/S0
    if put:
        e = beta - 0.5
        lo = -math.log1p(1.5 * e / target) / e if e else -1.5 / target
        start = min(max(_put_start(target, beta), lo), -_EPS)
        u, f, data, n = _newton(eq, start, lo, -_EPS)
    else:
        hi = math.log(target) + math.log((3.0 - 2.0 * beta) / (2.0 - 2.0 * beta))
        # deep calls at beta = 1/2 have their root within rounding of hi,
        # where f's sign is noise, so the start stays below it
        start = max(min(_call_start(target, beta), math.nextafter(hi, 0.0)), _EPS)
        u, f, data, n = _newton(eq, start, _EPS, hi)
    A, q, yd, gap = data
    g = q * A / yd
    x = math.exp(u) if u <= _LOG_MAX else math.inf
    return (g, g / gap, A * math.exp((0.5 - beta) * u), x, "put" if put else "call", abs(f), n)


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
    """log x of the call root: the larger of 1 + 3/2 (K/S0 - 1) and two fixed-point
    steps, in logs (x passes the largest double as beta -> 1), of the deep-call asymptote
    x = (3 - 2 beta)/(2 - 2 beta) K/S0 (1 - x^(beta-1)/((1-beta) B(1-beta, 1/2))), with
    log(d B(d, 1/2)) = log1p(d c(d)), d = 1 - beta.  The near-money start stands where
    d log x is at rounding level, which leaves the asymptote nothing to say of x, and
    where the asymptote's log x exceeds twice the near-money start's: near the money as
    beta -> 1, where x^(beta-1)/(d B) is 1 - O(d), its two steps stop far above the
    root (x = 1.2 to 2.1 for a root at 1.0005)."""
    d = 1.0 - beta
    lx = log_c = math.log((3.0 - 2.0 * beta) / (2.0 * d)) + math.log(target)
    log_b = math.log1p(d * _series(d)[0])
    for _ in range(2):
        g = -math.expm1(-d * lx - log_b)
        lx = log_c + math.log(g) if g > 0.0 else -math.inf
    near = math.log1p(1.5 * (target - 1.0))
    return max(lx, near) if d * lx > _EPS and lx < 2.0 * near else near


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
