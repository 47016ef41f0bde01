"""Short-maturity asymptotic option prices built on the rate functions.

Fixed-strike Asian calls/puts are priced with a Black-type formula on the
forward of the average, using the equivalent log-normal volatility
Sigma_LN^2 = ln^2(K/S0) / (2 I(K)); floating-strike options use a Bachelier
formula with the equivalent normal volatility
Sigma_N^2 = S0^2 (kappa - 1)^2 / (2 I_f(kappa)).  At the money both are 0/0;
inside ATM_WINDOW `_equiv_vol` cancels the x^2 of `model`'s ATM series
against the numerator (levels sigma S0^(beta-1)/sqrt(3), sigma S0^beta/sqrt(3)).
Each price's note names the route of its vol.

Floating-strike payoff convention: call = (kappa S_T - A_T)^+,
put = (A_T - kappa S_T)^+, where A_T is the arithmetic average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import (ATM_WINDOW, ConvergenceError, ModelParams, RateResult, atm_fixed,
                    atm_floating, beta_is_half)
from .specfun import norm_cdf, norm_pdf
from .rate_cev import rate_cev
from .float_strike import VariationalDiag, rate_float_sqrt, rate_float_cev
# not called here (rate_cev dispatches to it), but perfbench/worker.py traces
# the rate layers by patching this module name
from .rate_sqrt import rate_sqrt  # noqa: F401


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
        for name in ("strike", "maturity"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.strike > 0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if not self.maturity > 0:
            raise ValueError(f"maturity must be positive, got {self.maturity}")


@dataclass(frozen=True)
class PricingResult:
    price: float
    equiv_vol: float
    vol_kind: str
    d1: float
    d2: float
    forward: float
    note: str = ""


def average_forward(params: ModelParams, T: float) -> float:
    """Forward of the arithmetic average, S0 (e^{(r-q)T} - 1) / ((r-q)T)."""
    x = (params.r - params.q) * T
    if abs(x) < 1e-12:
        factor = 1.0 + 0.5 * x + x * x / 6.0
    else:
        factor = math.expm1(x) / x
    return params.S0 * factor


def rate_float(kappa: float, params: ModelParams) -> RateResult:
    """Floating-strike rate by the route for ``params.beta``: the closed form
    at beta = 1/2, the variational solver otherwise."""
    if beta_is_half(params.beta):
        return rate_float_sqrt(kappa, params)
    return rate_float_cev(kappa, params)


def _equiv_vol(style: str, strike: float, params: ModelParams, rate_fn) -> float:
    """Equivalent vol num / sqrt(2 I), I = rate_fn(strike, params): log-normal
    for style "fixed" (x = log(K/S0), num = |x|), normal for "floating"
    (x = log kappa, num = S0 |kappa - 1|).

    Inside ATM_WINDOW, I is the ATM series rate_unit x^2 P(x), so the vol is
    num/|x| (at x = 0 its limit, 1 resp. S0) times sigma S0^(beta-1)/sqrt(2 P(x)),
    formed as level (P(x)/P(0))^(-1/2) with the level and its O(x) deviation
    rounded apart, so that the vol adds about one rounding to the level's."""
    if not strike > 0:
        raise ValueError(f"strike must be positive, got {strike}")
    if style == "fixed":
        x = math.log(strike / params.S0)
        num, slope, series = abs(x), 1.0, atm_fixed
    else:
        x = math.log(strike)
        num, slope, series = params.S0 * abs(strike - 1.0), params.S0, atm_floating
    if abs(x) >= ATM_WINDOW:
        vol = num / math.sqrt(2.0 * rate_fn(strike, params))
        if math.isinf(vol):  # S0 |kappa - 1| beyond the largest double
            raise ConvergenceError(f"the equivalent vol at strike {strike} overflows a double")
        return vol
    if x != 0.0:
        slope = num / abs(x)
    p0 = series(0.0, params.beta)
    level = params.sigma / math.sqrt(2.0 * p0) * params.S0 ** (params.beta - 1.0)
    dev = math.expm1(-0.5 * math.log1p(series(x, params.beta) / p0 - 1.0))
    return slope * (level + level * dev)


def _note(style: str, strike: float, params: ModelParams, variational: bool) -> str:
    """The note naming the route of a price's vol: the ATM series inside the
    window, else the variational solver when it produced the rate."""
    x = math.log(strike / params.S0) if style == "fixed" else math.log(strike)
    if abs(x) < ATM_WINDOW:
        return "vol from at-the-money series"
    return "rate from variational solver" if variational else ""


def equiv_lognormal_vol(K: float, params: ModelParams) -> float:
    """Equivalent log-normal volatility of the average at strike K (T -> 0)."""
    return _equiv_vol("fixed", K, params, lambda k, p: rate_cev(k, p).value)


def equiv_normal_vol(kappa: float, params: ModelParams) -> float:
    """Equivalent normal (Bachelier) volatility for the floating-strike payoff."""
    return _equiv_vol("floating", kappa, params, lambda k, p: rate_float(k, p).value)


def _black(spec: OptionSpec, params: ModelParams, A: float, vol: float,
           note: str = "") -> PricingResult:
    """Black formula on the forward A of the average, floored at 0 (the
    difference of two underflowing terms can come out a negative subnormal)."""
    K, T = spec.strike, spec.maturity
    sq = vol * math.sqrt(T)
    d1 = (math.log(A / K) + 0.5 * sq * sq) / sq
    d2 = d1 - sq
    disc = math.exp(-params.r * T)
    if spec.side == "call":
        price = disc * (A * norm_cdf(d1) - K * norm_cdf(d2))
    else:
        price = disc * (K * norm_cdf(-d2) - A * norm_cdf(-d1))
    return PricingResult(max(price, 0.0), vol, "lognormal", d1, d2, A, note)


def _bachelier(spec: OptionSpec, params: ModelParams, vol: float,
               note: str = "") -> PricingResult:
    """Bachelier formula on kappa S_T - A_T with forward
    F = S0 (kappa e^{(r-q)T} - (e^{(r-q)T} - 1)/((r-q)T)), floored at 0;
    ConvergenceError where F overflows a double."""
    kappa, T = spec.strike, spec.maturity
    growth = math.exp((params.r - params.q) * T)
    F = kappa * params.S0 * growth - average_forward(params, T)
    if math.isinf(F):
        raise ConvergenceError(f"the forward at kappa {kappa} overflows a double")
    sq = vol * math.sqrt(T)
    d = F / sq
    disc = math.exp(-params.r * T)
    if spec.side == "call":
        price = disc * (F * norm_cdf(d) + sq * norm_pdf(d))
    else:
        price = disc * (-F * norm_cdf(-d) + sq * norm_pdf(d))
    return PricingResult(max(price, 0.0), vol, "normal", d, d, F, note)


def price_fixed(spec: OptionSpec, params: ModelParams,
                center_on_forward: bool = False) -> PricingResult:
    """Asymptotic fixed-strike Asian price (Black formula on the average).

    With center_on_forward the moneyness entering the equivalent volatility is
    measured against the forward of the average instead of the spot; the
    default keeps the spot-centred volatility of the T -> 0 regime.
    """
    if spec.style != "fixed":
        raise ValueError(f"price_fixed needs a fixed-strike spec, got style {spec.style!r}")
    K = spec.strike
    A = average_forward(params, spec.maturity)
    centre = replace(params, S0=A) if center_on_forward else params
    vol = equiv_lognormal_vol(K, centre)
    return _black(spec, params, A, vol, _note("fixed", K, centre, False))


def atm_price(params: ModelParams, T: float) -> float:
    """Leading-order at-the-money price sigma S0^beta sqrt(T / (6 pi)).

    Valid for calls and puts alike as T -> 0 (drift and discounting enter at
    the next order).
    """
    if not T > 0:
        raise ValueError(f"maturity must be positive, got {T}")
    return params.sigma * params.S0 ** params.beta * math.sqrt(T / (6.0 * math.pi))


def price_floating(spec: OptionSpec, params: ModelParams) -> PricingResult:
    """Asymptotic floating-strike Asian price (Bachelier formula)."""
    if spec.style != "floating":
        raise ValueError(f"price_floating needs a floating-strike spec, got style {spec.style!r}")
    res = rate_float(spec.strike, params)
    vol = _equiv_vol("floating", spec.strike, params, lambda *_: res.value)
    note = _note("floating", spec.strike, params, isinstance(res.diag, VariationalDiag))
    return _bachelier(spec, params, vol, note)


def parity_gap(call_price: float, put_price: float, K: float,
               params: ModelParams, T: float) -> float:
    """Deviation from fixed-strike put-call parity C - P = e^{-rT}(A(T) - K)."""
    disc = math.exp(-params.r * T)
    return call_price - put_price - disc * (average_forward(params, T) - K)
