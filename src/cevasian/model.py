"""Shared model types and exceptions.

The CEV diffusion is dS = (r - q) S dt + sigma S^beta dW with beta in [1/2, 1).
All rate-function modules take a :class:`ModelParams` and return a
:class:`RateResult` whose ``diag`` field carries solver internals specific to
the branch that produced the value.  Inputs such as ModelParams are frozen,
validated and hashable; returned records are slotted, mutable and unhashable,
since a frozen record's per-field object.__setattr__ costs more than a warm rate.

Inside ATM_WINDOW every rate route and both equivalent vols read the ATM
series written here once each: I = rate_unit x^2 P(x), x = log(K/S0)
(`atm_fixed`) or log kappa (`atm_floating`), both to x^4 at every beta.
`_newton` is the one-dimensional root solve of the fixed-strike rate, and
`_exp` the overflow-checked exponential of the discount factors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any

ATM_WINDOW = 1.0e-5  # |log-moneyness| below which rates and vols use their ATM series
_C2 = 1.5            # log-moneyness^2 coefficient of both ATM series
_EPS = 2.0 ** -52    # the spacing of doubles at 1
_FLOOR = 1.0e-6      # relative size below which a step that stops shrinking is rounding noise
_LOG_MAX = math.log(sys.float_info.max)  # the largest x whose e^x is a double


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to reach tolerance within its budget."""


class RootBracketError(RuntimeError):
    """A root or minimizer could not be bracketed in its admissible domain."""


@dataclass(frozen=True)
class ModelParams:
    """CEV diffusion parameters.

    S0    : initial asset price (> 0)
    sigma : CEV volatility, units price^(1-beta)/sqrt(time) (> 0)
    beta  : elasticity exponent, 1/2 <= beta < 1
    r     : risk-free rate (1/time)
    q     : dividend yield (1/time)
    """

    S0: float
    sigma: float
    beta: float
    r: float = 0.0
    q: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.S0):
            raise ValueError(f"S0 must be finite, got {self.S0}")
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r}")
        if not math.isfinite(self.q):
            raise ValueError(f"q must be finite, got {self.q}")
        if not self.S0 > 0:
            raise ValueError(f"S0 must be positive, got {self.S0}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0.5 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [1/2, 1), got {self.beta}")


def _newton(eq, t: float, lo: float, hi: float) -> tuple[float, float, Any, int]:
    """Root of an increasing function by Newton's method from t, kept inside
    the proven sign bracket lo < root < hi.

    eq(t) returns (f, df/dt, data).  Every evaluation narrows the bracket, and
    a Newton step that leaves it, or fails to halve the step before, is
    replaced by bisection.  A start on an end of the bracket where f has the
    wrong sign raises RootBracketError, so a one-signed f cannot pass for a
    root.  The iteration stops when the step falls below 4 ulp of
    max(|t|, 1), or when it stops shrinking below _FLOOR of that, which is
    f's rounding noise.  t is a log variable in every caller, so these are
    relative tolerances on the root.

    Returns (t, f, data, evaluations) of the last point evaluated, so the
    caller needs no further evaluation at the root.
    """
    prev = math.inf
    for n in range(1, 101):
        f, df, data = eq(t)
        if (f > 0.0 and t <= lo) or (f < 0.0 and t >= hi):
            raise RootBracketError(f"no sign change on [{lo}, {hi}]")
        if f < 0.0:
            lo = t
        elif f > 0.0:
            hi = t
        step = f / df if df > 0.0 else math.inf
        scale = max(abs(t), 1.0)
        if abs(step) <= 4.0 * _EPS * scale or hi - lo <= 4.0 * _EPS * scale:
            return t, f, data, n
        if abs(step) > 0.5 * prev:
            if abs(step) <= _FLOOR * scale:
                return t, f, data, n
            step = t - 0.5 * (lo + hi)
        new = t - step
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        prev, t = abs(new - t), new
    raise ConvergenceError(f"Newton iteration did not converge on [{lo}, {hi}]")


def _exp(x: float, what: str) -> float:
    """e^x, or ConvergenceError naming it ``what`` where it overflows a double."""
    if x > _LOG_MAX:
        raise ConvergenceError(f"the {what} e^{x:g} overflows a double")
    return math.exp(x)


def _require_sqrt_beta(params: ModelParams) -> None:
    """ValueError unless beta is within 1e-7 of 1/2, the check of the square-root
    model's names (`rate_sqrt`, `rate_float_sqrt`); no route dispatches on it."""
    if not abs(params.beta - 0.5) <= 1.0e-7:
        raise ValueError(f"square-root model requires beta = 1/2, got beta={params.beta}")


def rate_unit(params: ModelParams) -> float:
    """S0^(2-2beta)/sigma^2, the unit of the rate functions; ConvergenceError
    where it, or sigma^2, is not a positive normal double."""
    try:
        unit = params.S0 ** (2.0 * (1.0 - params.beta)) / params.sigma ** 2
    except (OverflowError, ZeroDivisionError):  # sigma^2 beyond the doubles
        unit = 0.0
    if not sys.float_info.min <= unit < math.inf:
        raise ConvergenceError("the rate unit S0^(2-2beta)/sigma^2 leaves the normal doubles")
    return unit


def atm_fixed(x: float, beta: float) -> float:
    """P(x) = c2 + c3(beta) x + c4(beta) x^2 of the fixed-strike ATM series
    I = rate_unit x^2 P(x), x = log(K/S0)."""
    u = 1.0 - beta
    c3 = -0.3 + 1.8 * u
    c4 = 109.0 / 1400.0 - 117.0 / 350.0 * u + 198.0 / 175.0 * u * u
    return _C2 + x * (c3 + x * c4)


def atm_floating(x: float, beta: float) -> float:
    """P(x) = c2 + c3(beta) x + c4(beta) x^2 of the floating-strike ATM series
    I_f = rate_unit x^2 P(x), x = log kappa (-33/20 and 5809/5600 at beta = 1/2)."""
    u = 1.0 - beta
    c3 = (-3.0 - 27.0 * u) / 10.0
    c4 = (109.0 + u * (1107.0 + 3159.0 * u)) / 1400.0
    return _C2 + x * (c3 + x * c4)


def rate_cev_taylor(K: float, params: ModelParams) -> float:
    """The fixed-strike ATM series rate_unit x^2 atm_fixed(x), x = log(K/S0),
    which every fixed-strike route returns inside ATM_WINDOW."""
    if not K > 0:
        raise ValueError(f"strike must be positive, got {K}")
    x = math.log(K / params.S0)
    return rate_unit(params) * x * x * atm_fixed(x, params.beta)


@dataclass(slots=True)
class RateResult:
    """A rate-function value plus solver diagnostics.

    ``value`` is the rate I such that the OTM option price decays like
    exp(-I/T) as maturity T -> 0.  ``diag`` is a per-module record (internal
    root variable, branch tag, residual, ...).
    """

    value: float
    diag: Any = None

    @property
    def branch(self) -> str:
        return getattr(self.diag, "branch", "unknown")
