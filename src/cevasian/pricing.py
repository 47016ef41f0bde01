"""Short-maturity asymptotic option prices built on the rate functions.

Fixed-strike Asian calls/puts are priced with a Black-type formula on the
forward of the average, using the equivalent log-normal volatility
Sigma_LN^2 = ln^2(K/S0) / (2 I(K)); floating-strike options use a Bachelier
formula with the equivalent normal volatility
Sigma_N^2 = S0^2 (kappa - 1)^2 / (2 I_f(kappa)).  At the money both
volatilities degenerate to 0/0 and are replaced by their expansions
(level sigma S0^(beta-1)/sqrt(3), log-normal case, resp. sigma S0^beta/sqrt(3),
normal case).

Floating-strike payoff convention: call = (kappa S_T - A_T)^+,
put = (A_T - kappa S_T)^+, where A_T is the arithmetic average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import ATM_WINDOW, ModelParams, RateResult, beta_is_half
from .specfun import norm_cdf, norm_pdf
from .rate_cev import rate_cev
from .float_strike import rate_float_sqrt, rate_float_cev
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


def _lognormal_vol(K: float, params: ModelParams, rate_fn) -> float:
    """Equivalent log-normal vol at strike K: the ATM series inside the
    window, |log(K/S0)| / sqrt(2 I) with I = rate_fn(K, params) outside."""
    if not K > 0:
        raise ValueError(f"strike must be positive, got {K}")
    x = math.log(K / params.S0)
    if abs(x) < ATM_WINDOW:
        level = params.sigma / math.sqrt(3.0) * params.S0 ** (params.beta - 1.0)
        bm1 = params.beta - 1.0
        c1 = 0.1 + 0.6 * bm1
        c2 = -23.0 / 2100.0 + 12.0 / 175.0 * bm1 + 57.0 / 350.0 * bm1 * bm1
        return level * (1.0 + c1 * x + c2 * x * x)
    return abs(x) / math.sqrt(2.0 * rate_fn(K, params))


def _normal_vol(kappa: float, params: ModelParams, rate_fn) -> float:
    """Equivalent normal vol at multiplier kappa: the ATM value inside the
    window, S0 |kappa - 1| / sqrt(2 I) with I = rate_fn(kappa, params) outside."""
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if abs(math.log(kappa)) < ATM_WINDOW:
        return params.sigma * params.S0 ** params.beta / math.sqrt(3.0)
    return params.S0 * abs(kappa - 1.0) / math.sqrt(2.0 * rate_fn(kappa, params))


def equiv_lognormal_vol(K: float, params: ModelParams) -> float:
    """Equivalent log-normal volatility of the average at strike K (T -> 0)."""
    return _lognormal_vol(K, params, lambda k, p: rate_cev(k, p).value)


def equiv_normal_vol(kappa: float, params: ModelParams) -> float:
    """Equivalent normal (Bachelier) volatility for the floating-strike payoff."""
    return _normal_vol(kappa, params, lambda k, p: rate_float(k, p).value)


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


def _bachelier(spec: OptionSpec, params: ModelParams, vol: float) -> PricingResult:
    """Bachelier formula on kappa S_T - A_T with forward
    F = S0 (kappa e^{(r-q)T} - (e^{(r-q)T} - 1)/((r-q)T)), floored at 0."""
    kappa, T = spec.strike, spec.maturity
    growth = math.exp((params.r - params.q) * T)
    F = kappa * params.S0 * growth - average_forward(params, T)
    sq = vol * math.sqrt(T)
    d = F / sq
    disc = math.exp(-params.r * T)
    if spec.side == "call":
        price = disc * (F * norm_cdf(d) + sq * norm_pdf(d))
    else:
        price = disc * (-F * norm_cdf(-d) + sq * norm_pdf(d))
    note = ""
    if abs(math.log(kappa)) < ATM_WINDOW:
        note = "vol from at-the-money value"
    elif not beta_is_half(params.beta):
        note = "rate from variational solver"
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
    note = ""
    if abs(math.log(K / centre.S0)) < ATM_WINDOW:
        note = "vol from at-the-money series"
    return _black(spec, params, A, vol, note)


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
    return _bachelier(spec, params, equiv_normal_vol(spec.strike, params))


def parity_gap(call_price: float, put_price: float, K: float,
               params: ModelParams, T: float) -> float:
    """Deviation from fixed-strike put-call parity C - P = e^{-rT}(A(T) - K)."""
    disc = math.exp(-params.r * T)
    return call_price - put_price - disc * (average_forward(params, T) - K)
