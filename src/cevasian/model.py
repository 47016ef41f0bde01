"""Shared model types and exceptions.

The CEV diffusion is dS = (r - q) S dt + sigma S^beta dW with beta in [1/2, 1).
All rate-function modules take a :class:`ModelParams` and return a
:class:`RateResult` whose ``diag`` field carries solver internals specific to
the branch that produced the value.  The ATM series `rate_cev_taylor`, which
every fixed-strike route uses inside ATM_WINDOW, sits here with the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

BETA_TOL = 1.0e-7    # how far beta may sit from 1/2 and still take the beta = 1/2 forms
ATM_WINDOW = 1.0e-5  # |log-moneyness| below which rates and vols use their ATM series
_XTOL = 1.0e-15      # brentq tolerances of every root solve
_RTOL = 8.9e-16      # ~4 ulp, the tightest brentq accepts


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
        for name in ("S0", "sigma", "beta", "r", "q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.S0 > 0:
            raise ValueError(f"S0 must be positive, got {self.S0}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0.5 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [1/2, 1), got {self.beta}")


def beta_is_half(beta: float) -> bool:
    """Whether beta is close enough to 1/2 for the square-root closed forms."""
    return abs(beta - 0.5) <= BETA_TOL


def rate_cev_taylor(K: float, params: ModelParams) -> float:
    """4th-order expansion of the rate in x = log(K/S0), used inside ATM_WINDOW.

    I = S0^(2(1-beta))/sigma^2 [ 3/2 x^2 + (-3/10 + 9/5 (1-beta)) x^3
        + (109/1400 - 117/350 (1-beta) + 198/175 (1-beta)^2) x^4 ].
    Reduces to 3/2, 3/5, 271/1400 at beta = 1/2.
    """
    if not K > 0:
        raise ValueError(f"strike must be positive, got {K}")
    u = 1.0 - params.beta
    x = math.log(K / params.S0)
    c3 = -0.3 + 1.8 * u
    c4 = 109.0 / 1400.0 - 117.0 / 350.0 * u + 198.0 / 175.0 * u * u
    pref = params.S0 ** (2.0 * u) / params.sigma ** 2
    return pref * (1.5 * x * x + c3 * x ** 3 + c4 * x ** 4)


@dataclass(frozen=True)
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
