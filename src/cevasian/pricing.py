"""Short-maturity asymptotic option prices built on the rate functions.

`price_from_rate` prices every route's `RateResult`: `rate_cev`'s for fixed
strikes and `rate_float_cev`'s for floating ones, at every beta, or
`rate_variational`'s, the variational solver's certified minimum.  Fixed-
strike Asian calls/puts take a Black-type formula on the forward of the
average, with the equivalent log-normal volatility Sigma_LN^2 =
ln^2(K/S0) / (2 I(K)); floating-strike options a Bachelier formula with the
equivalent normal volatility Sigma_N^2 = S0^2 (kappa - 1)^2 / (2 I_f(kappa)).
At the money both are 0/0; for a rate of branch "atm" `equiv_vol` cancels
the x^2 of `model`'s ATM series against the numerator (levels
sigma S0^(beta-1)/sqrt(3), sigma S0^beta/sqrt(3)).  Each price's note names
the route of its vol.  OptionSpec, an input, is frozen, validated and
hashable; PricingResult and VariationalDiag, returned, are slotted (see `model`).

Floating-strike payoff convention: call = (kappa S_T - A_T)^+,
put = (A_T - kappa S_T)^+, where A_T is the arithmetic average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (ATM_WINDOW, ConvergenceError, ModelParams, RateResult, _exp, atm_fixed,
                    atm_floating)
from .specfun import norm_cdf, norm_pdf
from .rate_cev import rate_cev
from .float_strike import rate_float_cev
# perfbench/worker.py times its beta = 1/2 spans by patching these names, the
# routes themselves until the benchmark patches the routes directly (ROADMAP item 2)
rate_sqrt, rate_float_sqrt = rate_cev, rate_float_cev


@dataclass(frozen=True)
class OptionSpec:
    """Contract description.

    style "fixed": strike is the cash strike K, payoff (A_T - K)^+ / (K - A_T)^+.
    style "floating": strike is the multiplier kappa, payoff
    (kappa S_T - A_T)^+ / (A_T - kappa S_T)^+.
    """

    style: str
    side: str
    strike: float
    maturity: float

    def __post_init__(self) -> None:
        if self.style not in ("fixed", "floating"):
            raise ValueError(f"style must be 'fixed' or 'floating', got {self.style!r}")
        if self.side not in ("call", "put"):
            raise ValueError(f"side must be 'call' or 'put', got {self.side!r}")
        if not math.isfinite(self.strike):
            raise ValueError(f"strike must be finite, got {self.strike}")
        if not math.isfinite(self.maturity):
            raise ValueError(f"maturity must be finite, got {self.maturity}")
        if not self.strike > 0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if not self.maturity > 0:
            raise ValueError(f"maturity must be positive, got {self.maturity}")


@dataclass(slots=True)
class VariationalDiag:
    """Certificate of a rate from the variational route (`rate_variational`)."""

    branch: str           # "put" (kappa > 1 or K < S0) | "call" (kappa < 1 or K > S0)
    iterations: int       # Newton steps over all continuation rungs
    kkt_residual: float   # Newton decrement per unit of action
    constraint_err: float
    rungs: int            # certified solves of the continuation ladder


@dataclass(slots=True)
class PricingResult:
    price: float
    equiv_vol: float
    vol_kind: str
    d1: float
    d2: float
    forward: float
    note: str = ""


def average_forward(params: ModelParams, T: float) -> float:
    """Forward of the arithmetic average, S0 (e^{(r-q)T} - 1) / ((r-q)T);
    ConvergenceError where it or e^{(r-q)T} leaves the positive doubles."""
    x = (params.r - params.q) * T
    try:
        A = params.S0 * (1.0 + 0.5 * x + x * x / 6.0 if abs(x) < 1e-12 else math.expm1(x) / x)
    except OverflowError:
        A = math.inf
    if not 0.0 < A < math.inf:
        raise ConvergenceError(f"the forward of the average at (r - q) T = {x:g} "
                               "is not a positive double")
    return A


def equiv_vol(style: str, strike: float, params: ModelParams, rate: RateResult) -> float:
    """Equivalent vol num / sqrt(2 I) of the rate I at the strike: log-normal
    for style "fixed" (x = log(K/S0), num = |x|), normal for "floating"
    (x = log kappa, num = S0 |kappa - 1|).

    A rate of branch "atm" (every route's, exactly inside ATM_WINDOW) is the
    ATM series rate_unit x^2 P(x), so the vol is num/|x| (at x = 0 its limit,
    1 resp. S0) times sigma S0^(beta-1)/sqrt(2 P(x)), formed as
    level (P(x)/P(0))^(-1/2) with the level and its O(x) deviation rounded
    apart, so that the vol adds about one rounding to the level's."""
    if style == "fixed":
        x = math.log(strike / params.S0)
        num, slope, series = abs(x), 1.0, atm_fixed
    else:
        x = math.log(strike)
        num, slope, series = params.S0 * abs(strike - 1.0), params.S0, atm_floating
    if rate.branch != "atm":
        vol = num / math.sqrt(2.0 * rate.value)
        if math.isinf(vol):  # S0 |kappa - 1| beyond the largest double
            raise ConvergenceError(f"the equivalent vol at strike {strike} overflows a double")
        return vol
    if x != 0.0:
        slope = num / abs(x)
    p0 = series(0.0, params.beta)
    level = params.sigma / math.sqrt(2.0 * p0) * params.S0 ** (params.beta - 1.0)
    dev = math.expm1(-0.5 * math.log1p(series(x, params.beta) / p0 - 1.0))
    return slope * (level + level * dev)


def equiv_lognormal_vol(K: float, params: ModelParams) -> float:
    """Equivalent log-normal volatility of the average at strike K (T -> 0)."""
    return equiv_vol("fixed", K, params, rate_cev(K, params))


def equiv_normal_vol(kappa: float, params: ModelParams) -> float:
    """Equivalent normal (Bachelier) volatility for the floating-strike payoff."""
    return equiv_vol("floating", kappa, params, rate_float_cev(kappa, params))


def price_from_rate(spec: OptionSpec, params: ModelParams, rate: RateResult) -> PricingResult:
    """Price of ``spec`` from the rate at its strike, whichever route gave it:
    Black on the forward A of the average with the log-normal vol (fixed
    strike), Bachelier on kappa S_T - A_T, forward
    F = kappa S0 e^{(r-q)T} - A, with the normal vol (floating), floored at 0
    (two underflowing terms can differ by a negative subnormal).  The note
    names the route of the vol: the ATM series for branch "atm", the
    variational solver for a rate with its certificate.  ConvergenceError
    where the forward, the discount or the price leaves the doubles."""
    vol = equiv_vol(spec.style, spec.strike, params, rate)
    note = ("vol from at-the-money series" if rate.branch == "atm" else
            "rate from variational solver" if isinstance(rate.diag, VariationalDiag) else "")
    T, w = spec.maturity, (1.0 if spec.side == "call" else -1.0)
    A = average_forward(params, T)
    disc = _exp(-params.r * T, "discount factor")
    sq = vol * math.sqrt(T)
    if spec.style == "fixed":
        K, kind, fwd = spec.strike, "lognormal", A
        d1 = (math.log(A / K) + 0.5 * sq * sq) / sq
        d2 = d1 - sq
        price = disc * (w * A * norm_cdf(w * d1) - w * K * norm_cdf(w * d2))
    else:
        kind, fwd = "normal", spec.strike * params.S0 * math.exp((params.r - params.q) * T) - A
        if math.isinf(fwd):
            raise ConvergenceError(f"the forward at kappa {spec.strike} overflows a double")
        d1 = d2 = fwd / sq
        price = disc * (w * fwd * norm_cdf(w * d1) + sq * norm_pdf(d1))
    if not math.isfinite(price):
        raise ConvergenceError(f"the price at strike {spec.strike} overflows a double")
    return PricingResult(max(price, 0.0), vol, kind, d1, d2, fwd, note)


def price_fixed(spec: OptionSpec, params: ModelParams) -> PricingResult:
    """Asymptotic fixed-strike Asian price (Black formula on the average)."""
    if spec.style != "fixed":
        raise ValueError(f"price_fixed needs a fixed-strike spec, got style {spec.style!r}")
    return price_from_rate(spec, params, rate_cev(spec.strike, params))


def price_floating(spec: OptionSpec, params: ModelParams) -> PricingResult:
    """Asymptotic floating-strike Asian price (Bachelier formula)."""
    if spec.style != "floating":
        raise ValueError(f"price_floating needs a floating-strike spec, got style {spec.style!r}")
    return price_from_rate(spec, params, rate_float_cev(spec.strike, params))


def rate_variational(style: str, strike: float, params: ModelParams) -> RateResult:
    """Rate at the strike (K for style "fixed", kappa for "floating") by the
    variational route: the certified minimum of `minimize_fixed` or
    `minimize_float`, on the branch of the OTM side, with its certificate.
    Inside ATM_WINDOW, where the solver is never asked, it is the closed
    route's ATM series."""
    floating = style == "floating"
    m = strike if floating else strike / params.S0
    if 0.0 < m and abs(math.log(m)) < ATM_WINDOW:
        return rate_float_cev(strike, params) if floating else rate_cev(strike, params)
    from .varsolve import minimize_fixed, minimize_float

    value, info = (minimize_float if floating else minimize_fixed)(strike, params, full_output=True)
    branch = "put" if (m > 1.0 if floating else m < 1.0) else "call"
    return RateResult(value, VariationalDiag(branch, info["iterations"], info["kkt_residual"],
                                             info["constraint_err"], info["rungs"]))


def price_variational(spec: OptionSpec, params: ModelParams) -> PricingResult:
    """Asymptotic price with the rate from `rate_variational`."""
    return price_from_rate(spec, params, rate_variational(spec.style, spec.strike, params))


def atm_price(params: ModelParams, T: float) -> float:
    """Leading-order at-the-money price sigma S0^beta sqrt(T / (6 pi)).

    Valid for calls and puts alike as T -> 0 (drift and discounting enter at
    the next order).
    """
    if not T > 0:
        raise ValueError(f"maturity must be positive, got {T}")
    return params.sigma * params.S0 ** params.beta * math.sqrt(T / (6.0 * math.pi))
